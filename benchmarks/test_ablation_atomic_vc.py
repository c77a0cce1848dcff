"""Ablation — atomic vs non-atomic VC reallocation (paper §4.2.1).

Duato-based algorithms must hold a downstream VC until the tail flit's
credit returns; Odd-Even and DOR reallocate as soon as the tail is sent.
The paper cites this as the reason Odd-Even achieves higher buffer
utilization than DBAR under uniform traffic.  This ablation measures that
utilization gap directly: Odd-Even (non-atomic, partially adaptive) vs
DBAR (atomic, fully adaptive) vs a deliberately *non-atomic* DBAR variant
that is NOT deadlock-safe in general but quantifies the cost of atomicity
on a load where it happens to drain.
"""

import pytest

from repro.routing.dbar import DbarRouting
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
import repro.routing.registry as registry


class DbarNonAtomic(DbarRouting):
    """DBAR with non-atomic reallocation — measurement-only variant."""

    name = "dbar-nonatomic"
    atomic_vc_reallocation = False


@pytest.fixture
def register_variant():
    registry._BASE_FACTORIES["dbar-nonatomic"] = DbarNonAtomic
    yield
    registry._BASE_FACTORIES.pop("dbar-nonatomic", None)


def run_algo(scale, routing, rate=0.35):
    config = SimulationConfig(
        width=scale.width,
        num_vcs=scale.num_vcs,
        routing=routing,
        traffic="uniform",
        injection_rate=rate,
        packet_size=3,  # multi-flit: atomicity holds VCs visibly longer
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=1,
    )
    try:
        return Simulator(config).run()
    except Exception as exc:  # non-atomic Duato is not deadlock-safe
        return exc


def test_ablation_atomic_vc_reallocation(report, scale, register_variant):
    algos = ("oddeven", "dbar", "dbar-nonatomic")
    results = {a: run_algo(scale, a) for a in algos}
    lines = ["Ablation — atomic VC reallocation (uniform 0.35, 3-flit)"]
    for algo, result in results.items():
        if isinstance(result, Exception):
            lines.append(f"  {algo:15s}  FAILED: {result}")
        else:
            lines.append(
                f"  {algo:15s}  latency = {result.avg_latency:8.2f}  "
                f"accepted = {result.accepted_rate:.4f}  "
                f"drained = {result.drained}"
            )
    report("\n".join(lines))

    # The safe configurations must deliver traffic; the non-atomic DBAR
    # variant either recovers latency (the §4.2.1 utilization effect) or
    # demonstrates *why* atomicity is required by deadlocking — both
    # outcomes are informative, so only report it.
    assert results["oddeven"].accepted_rate > 0
    assert results["dbar"].accepted_rate > 0
    nonatomic = results["dbar-nonatomic"]
    if not isinstance(nonatomic, Exception):
        assert nonatomic.accepted_rate > 0
