"""The routing-extension example must keep running against the public
seam it demonstrates (``RoutingAlgorithm`` + mask ``VcRequest`` records)."""

import importlib.util
from pathlib import Path

from repro import SimulationConfig, Simulator
from repro.routing import registry

EXAMPLE = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "custom_routing_algorithm.py"
)


def test_custom_routing_example_drains_a_4x4_mesh(monkeypatch):
    spec = importlib.util.spec_from_file_location("custom_routing", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() is guarded: nothing runs yet
    monkeypatch.setitem(
        registry.ROUTING, "o1turn-lite", module.O1TurnLite
    )
    config = SimulationConfig(
        width=4,
        num_vcs=4,
        routing="o1turn-lite",
        traffic="transpose",
        injection_rate=0.2,
        warmup_cycles=50,
        measure_cycles=150,
        drain_cycles=1000,
        seed=9,
    )
    sim = Simulator(config)
    result = sim.run()
    assert result.drained
    assert result.measured_ejected == result.measured_created > 0
    # Both routing orders ran, each confined to its half of the VC pool.
    used = {
        v
        for router in sim.routers
        for port in router.output_ports.values()
        if port.direction.name != "LOCAL"
        for v, owner in enumerate(port.owner_dst)
        if owner is not None
    }
    assert used & {0, 1} and used & {2, 3}
