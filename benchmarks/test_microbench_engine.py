"""Microbenchmark — raw simulation-engine cycle rate.

Not a paper figure: tracks the simulator's own performance (router-cycles
per second) so regressions in the hot path are visible in benchmark
history.  Uses pytest-benchmark's statistical timing (several rounds)
since a single run is fast.
"""

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


def test_engine_cycle_rate(benchmark):
    config = SimulationConfig(
        width=8,
        num_vcs=10,
        routing="footprint",
        traffic="uniform",
        injection_rate=0.3,
        warmup_cycles=0,
        measure_cycles=100,
        drain_cycles=0,
        seed=1,
    )

    def run_100_cycles():
        sim = Simulator(config)
        for _ in range(100):
            sim.step()
        return sim

    sim = benchmark(run_100_cycles)
    assert sum(s.ejected_flits for s in sim.sinks) > 0


def test_router_allocation_rate(benchmark):
    """VC allocation micro-benchmark: one saturated router, one VA round."""
    import random

    from repro.router.allocator import allocate_vcs
    from repro.router.flit import Packet
    from repro.router.output import OutputPort
    from repro.router.vcstate import InputVc
    from repro.routing.requests import Priority, VcRequest
    from repro.topology.ports import Direction

    outputs = {
        Direction.EAST: OutputPort(
            Direction.EAST, 10, 4, 8, 2, escape_vc=0, atomic_realloc=True
        )
    }
    inputs = []
    for i in range(10):
        ivc = InputVc(Direction.WEST, i, 4)
        ivc.push(Packet(src=0, dst=9, size=1, creation_time=0).flits()[0])
        ivc.refresh_state()
        reqs = [VcRequest(Direction.EAST, list(range(1, 10)), Priority.LOW)]
        inputs.append((ivc, reqs))
    rng = random.Random(1)

    # allocate_vcs only proposes grants (the router applies them), so
    # every round allocates from the same state.
    grants = benchmark(allocate_vcs, inputs, outputs, rng)
    assert grants
