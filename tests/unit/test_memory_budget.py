"""What a network holds, in bytes.

``tracemalloc`` rather than RSS, so every number here repeats exactly:
the budgets sit where one ``collections.deque`` put back into a per-VC
FIFO (760 bytes empty, against a list's 56), one per-pair geometry entry
or one reference from a network back to its simulator breaks them.
"""

import gc
import tracemalloc

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D
from repro.topology.torus import Torus2D


def _held_by(build):
    """``(bytes still allocated by build(), what it returned)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        built = build()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, built


@pytest.mark.parametrize("engine_mode", ["skip", "legacy"])
@pytest.mark.parametrize("width, budget", [(8, 1.2e6), (16, 5.0e6)])
def test_constructed_network_fits_its_budget(width, budget, engine_mode):
    """The paper's router — footprint, 10 VCs of 4 flits — on the 8x8 of
    Figs. 5-7 and the 16x16 of Fig. 8.  Both modes share the network."""
    config = SimulationConfig(width=width)
    assert (config.routing, config.num_vcs, config.vc_buffer_depth) == (
        "footprint",
        10,
        4,
    )
    Simulator(SimulationConfig(width=4))  # first-use allocations
    held, _simulator = _held_by(
        lambda: Simulator(config, engine_mode=engine_mode)
    )
    assert held <= budget


@pytest.mark.parametrize("grid", [Mesh2D, Torus2D])
def test_geometry_tables_intern_their_answers(grid):
    def every_pair():
        topology = grid(16)
        for cur in range(topology.num_nodes):
            for dst in range(topology.num_nodes):
                topology.minimal_directions(cur, dst)
                topology.dor_direction(cur, dst)
        return topology

    held, topology = _held_by(every_pair)
    assert held <= 1.5e6
    answers = {}
    for cur in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            dirs = topology.minimal_directions(cur, dst)
            assert answers.setdefault(dirs, dirs) is dirs
    assert len(answers) == 9
    with pytest.raises(TypeError):
        dirs[0] = None


@pytest.mark.parametrize("engine_mode", ["skip", "legacy"])
def test_serial_runs_do_not_pile_up(engine_mode):
    """A finished network is freed by reference counting: with the cycle
    collector off, run fifteen ends where run five did (a dead 4x4
    network is 0.27 MB: ten of them would be 2.7)."""
    config = SimulationConfig(
        width=4,
        injection_rate=0.1,
        warmup_cycles=20,
        measure_cycles=40,
        drain_cycles=200,
    )
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        held = []
        for _ in range(15):
            Simulator(config, engine_mode=engine_mode).run()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert abs(held[14] - held[4]) <= 1.0e6
