"""What a simulated cycle costs, in Python calls.

On this simulator calls, not opcodes, are the currency (DESIGN §3a): one
``sys.setprofile`` pass over a fixed congested 8x8 hotspot run counts
every call into a ``repro`` frame, and the budgets below sit 5 % over
what was measured once RC/VA was one pass per waiting head and the
router's stage methods did each flit's bookkeeping in place.  They go
red when a per-candidate helper, a lambda, a NamedTuple constructor or a
``dor_direction()`` call comes back onto the per-head path, or a helper
call per flit onto a stage (before those changes: 12.33 calls per head
evaluation, 5 845 per cycle; then 7.42 per evaluation, 4 631 per cycle
and 21.3 per flit-hop outside ``route_and_allocate``).  A flit-hop is
one flit written into one router's input buffer.  Counts repeat
exactly: the run is seeded and ``setprofile`` sees every frame.

A second, checked pass runs the ``checkers_on`` benchmark config (8x8,
uniform, 0.05, every checker on) and counts the calls made under each
invariant sweep (``InvariantChecker.run_checks``): nearly everything is
in its reset state there, so a helper call per VC or per port, or a
port recount outside the ports that left their reset state, turns it
red.  The four-walk sweep the one-walk sweep replaced made
:data:`PARENT_CALLS_PER_SWEEP` calls per sweep on this run.

``PYTHONPATH=src python tests/unit/test_call_budget.py`` prints the
ten most-called functions of the same run and the calls per flit-hop
of each flit stage, so a regression names its stage, then the checked
pass's calls per sweep and its ten most-called validation and router
functions (CI prints both for the log).
"""

import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.router.output import OutputPort
from repro.router.router import Router
from repro.routing.requests import VcRequest
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.validate import ValidationConfig
from repro.validate.checker import InvariantChecker

PACKAGE = str(Path(repro.__file__).resolve().parent)

#: Footprint under endpoint congestion: blocked heads are re-evaluated,
#: both regimes of Algorithm 1 and the footprint tie-break all run.
CONFIG = dict(
    width=8,
    routing="footprint",
    traffic="hotspot",
    hotspot_rate=0.45,
    background_rate=0.3,
    warmup_cycles=50,
    measure_cycles=100,
    drain_cycles=300,
    seed=11,
)

#: The named record shape's constructor (a ``<string>`` frame, outside
#: the package filter): routing emits bare tuples.
RECORD_CONSTRUCTOR = VcRequest.__new__.__code__

#: The router's stage methods, by the name the report gives their stage;
#: the engine calls them, and none calls another.
STAGES = {
    "receive": Router.receive_flit,
    "link": Router.link_traversal,
    "route_and_allocate": Router.route_and_allocate,
    "switch": Router.switch_traversal,
    "credit": Router.receive_credit,
}

#: Per-flit helpers whose work the stage methods do in place.
FOLDED = {
    "push", "refresh_state", "grant", "pop", "can_send", "send",
    "pop_link", "credit_return", "_check_drained", "new_cycle",
    "_pick_sa_winner",
}

#: Measured + 5 %: 6.73 calls inside ``route_and_allocate`` per head
#: evaluation (the allocator and the grants' bookkeeping included),
#: 2 611 calls per stepped cycle, 8.35 per flit-hop outside
#: ``route_and_allocate``.
CALLS_PER_HEAD_EVALUATION = 7.07
CALLS_PER_CYCLE = 2742
CALLS_PER_HOP_OUTSIDE_RCVA = 8.77


class Counted(NamedTuple):
    """One profiled run of :data:`CONFIG`."""

    #: Calls by function (code object).
    calls: Counter
    #: Calls made under each stage of :data:`STAGES` (not counting the
    #: stage method's own call).
    under: Counter
    evaluations: int
    cycles: int
    #: Flits written into a router's input buffer (``receive_flit``).
    hops: int

    def per_hop(self, stage: str) -> float:
        """Calls per flit-hop of ``stage``: its method and everything it
        calls."""
        own = self.calls[STAGES[stage].__code__]
        return (own + self.under[stage]) / self.hops


def count_calls() -> Counted:
    simulator = Simulator(SimulationConfig(**CONFIG))
    stage_of = {method.__code__: name for name, method in STAGES.items()}
    evaluate = type(simulator.routing).vc_requests_at.__code__
    calls = Counter()
    under = Counter()
    current = [None]  # the stage whose method is running

    def profiler(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            if code.co_filename.startswith(PACKAGE):
                calls[code] += 1
                if current[0] is not None:
                    under[current[0]] += 1
            elif code is RECORD_CONSTRUCTOR:
                calls[code] += 1
            if code in stage_of:
                current[0] = stage_of[code]
        elif event == "return" and code in stage_of:
            current[0] = None

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        simulator.run()
    finally:
        sys.setprofile(previous)
    return Counted(
        calls,
        under,
        calls[evaluate],
        calls[Simulator.step.__code__],
        calls[Router.receive_flit.__code__],
    )


@pytest.fixture(scope="module")
def counted():
    return count_calls()


def test_calls_per_head_evaluation_within_budget(counted):
    assert counted.evaluations > 10_000  # blocked heads are re-evaluated
    per_evaluation = counted.under["route_and_allocate"] / counted.evaluations
    assert per_evaluation <= CALLS_PER_HEAD_EVALUATION


def test_calls_per_simulated_cycle_within_budget(counted):
    assert counted.cycles > 200
    assert sum(counted.calls.values()) / counted.cycles <= CALLS_PER_CYCLE


def test_calls_per_flit_hop_outside_allocation_within_budget(counted):
    assert counted.hops > 30_000
    outside = sum(counted.calls.values()) - counted.under["route_and_allocate"]
    assert outside / counted.hops <= CALLS_PER_HOP_OUTSIDE_RCVA


def test_no_lambda_and_no_record_constructor_on_the_head_path(counted):
    """No routing class calls a lambda, a per-candidate helper or a
    topology method, or builds a NamedTuple, per evaluation."""
    assert not counted.calls[RECORD_CONSTRUCTOR]
    names = {code.co_name for code in counted.calls}
    assert not names & {"<lambda>", "_most", "dor_direction"}


def test_no_per_flit_helper_on_the_flit_path(counted):
    """The stage methods do each flit's bookkeeping in place: none of the
    helpers they absorbed is called, under any class."""
    names = {code.co_name for code in counted.calls}
    assert not names & FOLDED


#: ``benchmarks/perf``'s ``checkers_on`` config (its 30/70/200 cycles),
#: checked by every checker.
CHECKED = dict(
    width=8,
    routing="footprint",
    traffic="uniform",
    injection_rate=0.05,
    warmup_cycles=30,
    measure_cycles=70,
    drain_cycles=200,
    seed=5,
)

#: Measured + 5 %: 270.8 calls per checked sweep (121 sweeps), about 52
#: of them ``consistency_violation`` — one per port out of reset.
CALLS_PER_SWEEP = 284
#: The four-walk sweep on the same run: every port recounted, a
#: generator per sum (informational).
PARENT_CALLS_PER_SWEEP = 1950.3


def out_of_reset(port: OutputPort) -> bool:
    """Whether ``port`` left its reset state (DESIGN §8)."""
    depth = port.downstream_depth
    return bool(
        port.fifo
        or port.credits != [depth] * port.num_vcs
        or port.free != (1 << port.num_vcs) - 1
        or port.allocated
        or port._draining
        or port.fresh
        or port._accepted_this_cycle
        or port._fp
        or port._adaptive_credits != depth * port.adaptive.bit_count()
    )


class Sweeps(NamedTuple):
    """One profiled checked run of :data:`CHECKED`."""

    #: Calls made under the sweeps, by function (code object).
    calls: Counter
    #: Per sweep of the run: [calls under it, ``consistency_violation``
    #: calls, ports out of their reset state when it began].
    per_sweep: list
    #: The same for one sweep once generation stopped and the network
    #: drained back to its reset state.
    drained: list


def count_checked_calls() -> Sweeps:
    simulator = Simulator(
        SimulationConfig(**CHECKED), validation=ValidationConfig()
    )
    ports = [
        port
        for router in simulator.routers
        for port in router.output_ports.values()
    ]
    sweep = InvariantChecker.run_checks.__code__
    recount = OutputPort.consistency_violation.__code__
    calls = Counter()
    per_sweep = []
    inside = [False]

    def profiler(frame, event, _arg):
        code = frame.f_code
        if code is sweep and event in ("call", "return"):
            inside[0] = event == "call"
            if inside[0]:
                per_sweep.append([0, 0, sum(map(out_of_reset, ports))])
        elif (
            event == "call"
            and inside[0]
            and code.co_filename.startswith(PACKAGE)
        ):
            calls[code] += 1
            per_sweep[-1][0] += 1
            per_sweep[-1][1] += code is recount

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        simulator.run()
    finally:
        sys.setprofile(previous)
    run = per_sweep.copy()
    simulator.traffic.generate = lambda _cycle, _in_window: ()
    while (
        simulator._flits_in_network
        or simulator._source_backlog
        or any(map(out_of_reset, ports))
    ):
        simulator.step()
    sys.setprofile(profiler)
    try:
        simulator.validator.run_checks(simulator, simulator.cycle)
    finally:
        sys.setprofile(previous)
    return Sweeps(calls, run, per_sweep[-1])


@pytest.fixture(scope="module")
def checked():
    return count_checked_calls()


def test_calls_per_checked_sweep_within_budget(checked):
    assert len(checked.per_sweep) > 100  # idle cycles are skipped
    total = sum(under for under, _recounts, _ports in checked.per_sweep)
    assert total / len(checked.per_sweep) <= CALLS_PER_SWEEP


def test_port_recount_only_for_ports_out_of_reset(checked):
    """``consistency_violation`` runs once per port out of its reset
    state, and never on the drained network of the final sweep."""
    assert all(
        recounts == ports for _under, recounts, ports in checked.per_sweep
    )
    assert sum(ports for _under, _recounts, ports in checked.per_sweep)
    assert checked.drained[1:] == [0, 0]


if __name__ == "__main__":
    counted = count_calls()
    calls, under, evaluations, cycles, hops = counted
    total = sum(calls.values())
    outside = total - under["route_and_allocate"]
    print(
        f"{total} calls into repro frames over {cycles} stepped cycles "
        f"({total / cycles:.0f} per cycle); {evaluations} head "
        f"evaluations, {under['route_and_allocate'] / evaluations:.2f} "
        f"calls each; {hops} flit-hops, {outside / hops:.1f} calls each "
        f"outside route_and_allocate"
    )
    print(
        "calls per flit-hop by stage: "
        + ", ".join(
            f"{stage} {counted.per_hop(stage):.2f}"
            for stage in ("receive", "link", "switch", "credit")
        )
    )
    for code, count in calls.most_common(10):
        where = code.co_filename[len(PACKAGE) + 1 :]
        print(f"{count:9d}  {where}:{code.co_name}")

    checked = count_checked_calls()
    total = sum(under for under, _recounts, _ports in checked.per_sweep)
    sweeps = len(checked.per_sweep)
    print(
        f"checked pass: {total} calls under {sweeps} invariant sweeps "
        f"({total / sweeps:.1f} per sweep; the four-walk sweep made "
        f"{PARENT_CALLS_PER_SWEEP})"
    )
    shown = [
        (code, count)
        for code, count in checked.calls.most_common()
        if "/validate/" in code.co_filename or "/router/" in code.co_filename
    ]
    for code, count in shown[:10]:
        where = code.co_filename[len(PACKAGE) + 1 :]
        print(f"{count:9d}  {where}:{code.co_name}")
