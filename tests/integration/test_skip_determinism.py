"""Idle-cycle skipping must be bit-identical to cycle-by-cycle stepping.

The ``skip`` engine mode jumps the clock over provably quiescent cycles
while consuming the traffic RNG exactly as per-cycle stepping would.
These tests pin the invariant on every routing algorithm and every
traffic family (synthetic, hotspot, trace), comparing results down to
individual latency samples.
"""

import pytest

from repro.faults import FaultEvent, FaultSchedule, random_link_faults
from repro.routing.registry import available_algorithms
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import Direction
from repro.traffic.trace import TraceEvent


def _signature(result):
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_created,
        result.measured_ejected,
        result.blocking.blocking_events,
        result.blocking.busy_vc_samples,
        result.blocking.footprint_vc_samples,
        tuple(result.latency._samples),
        tuple(
            sorted(
                (flow, tuple(stats._samples))
                for flow, stats in result.latency_by_flow.items()
            )
        ),
    )


def _run(mode, **overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        injection_rate=0.005,
        warmup_cycles=80,
        measure_cycles=200,
        drain_cycles=400,
        seed=7,
    )
    base.update(overrides)
    return Simulator(SimulationConfig(**base), engine_mode=mode).run()


@pytest.mark.parametrize("routing", available_algorithms())
def test_skip_matches_legacy_all_algorithms(routing):
    """Low injection rate so the network goes quiescent and skipping
    actually engages for every algorithm."""
    overrides = {"routing": routing}
    assert _signature(_run("skip", **overrides)) == _signature(
        _run("legacy", **overrides)
    )


@pytest.mark.parametrize("routing", ["footprint", "dor"])
def test_both_modes_agree_under_load(routing):
    overrides = {"routing": routing, "injection_rate": 0.15}
    assert _signature(_run("skip", **overrides)) == _signature(
        _run("legacy", **overrides)
    )


def test_skip_matches_legacy_hotspot():
    overrides = {
        "traffic": "hotspot",
        "injection_rate": 0.0,
        "hotspot_rate": 0.02,
        "background_rate": 0.01,
    }
    assert _signature(_run("skip", **overrides)) == _signature(
        _run("legacy", **overrides)
    )


def test_skip_matches_legacy_trace():
    # Sparse trace with long gaps: skipping jumps straight between events.
    events = [
        TraceEvent(5, 0, 15, size=2),
        TraceEvent(400, 3, 12),
        TraceEvent(401, 12, 3),
        TraceEvent(900, 15, 0, size=3),
    ]
    overrides = {
        "traffic": "trace",
        "trace": events,
        "injection_rate": 0.0,
        "warmup_cycles": 0,
        "measure_cycles": 1200,
        "drain_cycles": 600,
    }
    assert _signature(_run("skip", **overrides)) == _signature(
        _run("legacy", **overrides)
    )


def test_skip_matches_legacy_zero_load():
    # Nothing ever injects; the skip engine jumps straight through the
    # whole simulation while legacy steps every cycle.
    overrides = {"injection_rate": 0.0}
    assert _signature(_run("skip", **overrides)) == _signature(
        _run("legacy", **overrides)
    )


# ----------------------------------------------------------------------
# Fault-laden determinism: the fault gating runs inside the per-cycle
# pipeline, so every fault case must preserve mode equivalence too.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("routing", available_algorithms())
def test_modes_agree_under_permanent_link_faults(routing):
    overrides = {
        "routing": routing,
        "injection_rate": 0.05,
        "faults": random_link_faults(4, k=2, seed=11),
    }
    legacy = _signature(_run("legacy", **overrides))
    assert _signature(_run("skip", **overrides)) == legacy


def test_modes_agree_with_mid_run_fault():
    """The fault activates after warmup, mid measurement window — the
    skip engine must not jump over the transition cycle."""
    overrides = {
        "faults": FaultSchedule(
            (FaultEvent(150, "link", 5, Direction.EAST),)
        ),
        "injection_rate": 0.05,
    }
    legacy = _signature(_run("legacy", **overrides))
    assert _signature(_run("skip", **overrides)) == legacy


def test_modes_agree_with_transient_router_fault():
    overrides = {
        "faults": FaultSchedule(
            (FaultEvent(100, "router", 10, duration=120),)
        ),
        "injection_rate": 0.05,
    }
    legacy = _signature(_run("legacy", **overrides))
    assert _signature(_run("skip", **overrides)) == legacy


def test_modes_agree_on_held_credit_release():
    """A transient link fault severs the reverse credit wire while flits
    are crossing it; the held credits must be re-delivered on heal at the
    same cycle in every mode.  The sparse trace leaves long quiescent
    stretches so the skip engine actually jumps across the fault window."""
    events = [
        TraceEvent(5, 0, 3, size=4),
        TraceEvent(6, 0, 3, size=4),
        TraceEvent(700, 3, 0, size=2),
    ]
    overrides = {
        "traffic": "trace",
        "trace": events,
        "injection_rate": 0.0,
        "warmup_cycles": 0,
        "measure_cycles": 1000,
        "drain_cycles": 600,
        "faults": FaultSchedule(
            (FaultEvent(8, "link", 0, Direction.EAST, duration=400),)
        ),
    }
    legacy = _signature(_run("legacy", **overrides))
    assert _signature(_run("skip", **overrides)) == legacy


@pytest.mark.parametrize("mode", ["legacy", "skip"])
def test_zero_fault_schedule_is_a_no_op(mode):
    """An empty FaultSchedule must reproduce the unfaulted results
    exactly (the engine skips the fault machinery entirely)."""
    assert _signature(_run(mode, faults=FaultSchedule())) == _signature(
        _run(mode)
    )


def test_warmup_zero_enables_blocking_sampling():
    """Regression: with ``warmup_cycles == 0`` the run loop used to skip
    the warmup→measurement transition and never enabled blocking
    sampling, silently zeroing the purity statistics.  Both step
    functions sit under the same loop, so they see the same window."""
    config = SimulationConfig(
        width=4,
        num_vcs=2,
        routing="footprint",
        injection_rate=0.3,
        warmup_cycles=0,
        measure_cycles=400,
        drain_cycles=800,
        seed=3,
    )
    signatures = set()
    for mode in ("skip", "legacy"):
        result = Simulator(config, engine_mode=mode).run()
        assert result.blocking.busy_vc_samples > 0
        signatures.add(_signature(result))
    assert len(signatures) == 1
