"""Saturation runs on the mesh: the engine obeys the proven functions.

Deadlock freedom of every routing function (Duato's escape subnetwork
for DBAR/Footprint, the turn restrictions of DOR and Odd-Even) is
proven statically in ``tests/property/test_deadlock_freedom.py``.
These runs check the engine lives up to it: at deep saturation on
adversarial patterns, the no-progress watchdog (which raises
:class:`SimulationError` if no flit moves for a long window while
packets are in flight) must stay silent and flits must keep arriving.
"""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


def stress(routing, traffic="transpose", cycles=1200, **cfg):
    defaults = dict(
        width=4,
        num_vcs=2,  # minimum for Duato: maximum pressure on the escape VC
        routing=routing,
        traffic=traffic,
        injection_rate=0.9,
        warmup_cycles=0,
        measure_cycles=cycles,
        drain_cycles=0,
        seed=17,
    )
    defaults.update(cfg)
    sim = Simulator(SimulationConfig(**defaults))
    for _ in range(cycles):
        sim.step()
    return sim


ALGOS = [
    "dor",
    "oddeven",
    "dbar",
    "footprint",
    "dor+xordet",
    "oddeven+xordet",
    "dbar+xordet",
    "footprint+xordet",
]


@pytest.mark.parametrize("routing", ALGOS)
def test_saturation_no_deadlock_transpose(routing):
    sim = stress(routing)
    assert sum(s.ejected_flits for s in sim.sinks) > 0


@pytest.mark.parametrize("routing", ["dbar", "footprint"])
def test_saturation_no_deadlock_hotspot(routing):
    sim = stress(
        routing,
        traffic="hotspot",
        hotspot_rate=0.9,
        background_rate=0.5,
    )
    assert sum(s.ejected_flits for s in sim.sinks) > 0


@pytest.mark.parametrize("routing", ["footprint", "dbar"])
def test_saturation_no_deadlock_slow_endpoints(routing):
    """Endpoint ejection at 20% bandwidth: severe tree saturation."""
    sim = stress(routing, traffic="uniform", ejection_rate=0.2)
    assert sum(s.ejected_flits for s in sim.sinks) > 0


@pytest.mark.parametrize("routing", ["footprint", "dbar", "oddeven"])
def test_saturation_no_deadlock_multiflit(routing):
    """Wormhole with long packets holds VCs across routers — the classic
    deadlock recipe when routing is unrestricted."""
    sim = stress(routing, packet_size=5, cycles=1500)
    assert sum(s.ejected_flits for s in sim.sinks) > 0


def test_progress_under_sustained_saturation():
    """Throughput at saturation remains nonzero in every window."""
    sim = stress("footprint", cycles=0)
    checkpoints = []
    for _ in range(4):
        for _ in range(300):
            sim.step()
        checkpoints.append(sum(s.ejected_flits for s in sim.sinks))
    deltas = [b - a for a, b in zip(checkpoints, checkpoints[1:])]
    assert all(d > 0 for d in deltas)
