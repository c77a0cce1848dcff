"""End-to-end fault-sweep driver: shape, semantics, and cache reuse."""

import math
from dataclasses import replace

import pytest

from repro.exceptions import FaultError
from repro.harness import experiments as exp
from repro.harness.cache import ResultCache
from repro.harness.reporting import report_fault_sweep

# Two algorithms, two fault counts, two rates: 8 simulations — enough to
# exercise the full grid plumbing while staying test-suite fast.
_SCALE = exp.Scale(
    name="tiny",
    width=4,
    num_vcs=4,
    warmup=40,
    measure=80,
    drain=300,
    rates=(0.02, 0.05),
    fault_counts=(0, 2),
)
_ALGOS = ("dor", "footprint")


def _sweep(cache=None):
    return exp.fault_sweep(_SCALE, algorithms=_ALGOS, seed=3, cache=cache)


def test_fault_sweep_shape_and_ordering():
    entries = _sweep()
    assert len(entries) == len(_SCALE.fault_counts) * len(_ALGOS)
    assert [(e.num_faults, e.routing) for e in entries] == [
        (k, a) for k in _SCALE.fault_counts for a in _ALGOS
    ]
    for entry in entries:
        assert entry.fault_kind == "link"
        assert len(entry.points) == len(_SCALE.rates)
        assert [p.injection_rate for p in entry.points] == list(_SCALE.rates)


def test_fault_sweep_zero_fault_column_is_healthy():
    entries = _sweep()
    for entry in entries:
        if entry.num_faults:
            continue
        assert entry.delivered_fraction == 1.0
        assert not math.isnan(entry.zero_load_latency)
        assert entry.degraded_saturation > 0.0


def test_fault_sweep_faults_cost_delivery_or_latency():
    """Two permanent dead links on a 4x4 mesh must be visible somewhere:
    DOR (deterministic) loses delivery; for every algorithm the faulted
    column can never beat its own fault-free column on both metrics."""
    entries = {(e.routing, e.num_faults): e for e in _sweep()}
    dor_faulted = entries[("dor", 2)]
    assert dor_faulted.delivered_fraction < 1.0
    for algorithm in _ALGOS:
        clean = entries[(algorithm, 0)]
        faulted = entries[(algorithm, 2)]
        assert faulted.delivered_fraction <= clean.delivered_fraction
        assert faulted.degraded_saturation <= clean.degraded_saturation


def test_fault_sweep_router_kind_and_bad_kind():
    entries = exp.fault_sweep(
        _SCALE,
        algorithms=("footprint",),
        fault_counts=(1,),
        fault_kind="router",
        seed=3,
    )
    assert len(entries) == 1
    assert entries[0].fault_kind == "router"
    with pytest.raises(FaultError):
        exp.fault_sweep(_SCALE, algorithms=_ALGOS, fault_kind="wire")


def test_fault_sweep_refuses_rates_that_do_not_ascend():
    """The first rate is the latency and delivery reference, so a scale
    whose first rate is not its lowest is an error, not a wrong baseline."""
    scale = replace(_SCALE, rates=(0.05, 0.02))
    with pytest.raises(ValueError, match="ascend"):
        exp.fault_sweep(scale, algorithms=("dor",), fault_counts=(0,))


def _entry_signature(entry):
    # NaN-tolerant equality: NaN != NaN would fail a naive comparison on
    # saturated points.
    def num(x):
        return "nan" if math.isnan(x) else x

    return (
        entry.routing,
        entry.num_faults,
        entry.fault_kind,
        num(entry.zero_load_latency),
        num(entry.degraded_saturation),
        num(entry.delivered_fraction),
        tuple(
            (p.injection_rate, num(p.avg_latency), num(p.accepted_rate),
             num(p.delivered_fraction))
            for p in entry.points
        ),
    )


def test_fault_sweep_deterministic_and_cache_warm_rerun(tmp_path):
    cold_cache = ResultCache(tmp_path / "cache")
    cold = _sweep(cache=cold_cache)
    assert cold_cache.hits == 0
    assert cold_cache.misses == len(_SCALE.fault_counts) * len(_ALGOS) * len(
        _SCALE.rates
    )

    warm_cache = ResultCache(tmp_path / "cache")
    warm = _sweep(cache=warm_cache)
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold_cache.misses
    assert list(map(_entry_signature, warm)) == list(
        map(_entry_signature, cold)
    )


def test_fault_sweep_report_renders():
    entries = _sweep()
    text = report_fault_sweep(entries)
    assert "Fault sweep" in text
    for algorithm in _ALGOS:
        assert algorithm in text
