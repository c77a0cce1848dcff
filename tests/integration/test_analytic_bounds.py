"""The simulator against closed-form bounds (``tests/analytic.py``): an
empty network delivers a packet in its zero-load latency to the cycle,
and no figure point classified stable offers more than a channel-load
bound allows."""

from fractions import Fraction

import pytest

from repro.harness import experiments as exp
from repro.metrics.sweep import saturation
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D
from repro.topology.torus import Torus2D
from repro.traffic.trace import TraceEvent
from tests.analytic import (
    cut_bound,
    dor_bound,
    traffic_matrix,
    zero_load_latency,
)

#: A stable point may sit this far above its bound: a smoke window is
#: 150 cycles, so an offered rate is measured to a few percent.
EPSILON = 0.1

#: Cycles between two packets of the zero-load run: more than the
#: slowest packet's latency, so no two share the network.
SPACING = 40


@pytest.mark.parametrize(
    "grid, expected",
    [
        ((Mesh2D(8), "uniform"), (Fraction(63, 128), Fraction(63, 128))),
        ((Mesh2D(8), "transpose"), (Fraction(1, 2), Fraction(1, 7))),
        ((Mesh2D(8), "bitcomp"), (Fraction(1, 4), Fraction(1, 4))),
        ((Mesh2D(4), "transpose"), (Fraction(1), Fraction(1, 3))),
        ((Torus2D(8), "uniform"), (Fraction(63, 64), None)),
        ((Torus2D(8), "tornado"), (Fraction(2, 3), None)),
    ],
    ids=["mesh8-uniform", "mesh8-transpose", "mesh8-bitcomp",
         "mesh4-transpose", "torus8-uniform", "torus8-tornado"],
)
def test_bounds_match_the_textbook(grid, expected):
    # Uniform on a k-ary 2-mesh is bisection-bound at 4/k, on a torus
    # at 8/k (times (N-1)/N: no node sends to itself); XY routing of a
    # transpose piles k-1 flows onto the channels next to the diagonal.
    topology, pattern = grid
    flows = traffic_matrix(topology, pattern)
    cut, dor = expected
    assert cut_bound(topology, flows) == cut
    if dor is not None:
        assert dor_bound(topology, flows) == dor


@pytest.mark.parametrize(
    "topology, routing",
    [("mesh", "dor"), ("mesh", "oddeven"), ("mesh", "footprint"),
     ("torus", "dor"), ("torus", "footprint")],
)
def test_an_empty_network_delivers_in_the_zero_load_latency(topology, routing):
    grid = Mesh2D(4) if topology == "mesh" else Torus2D(4)
    pairs = [(s, d) for s in range(grid.num_nodes)
             for d in range(grid.num_nodes) if s != d]
    events = [TraceEvent(SPACING * (i + 1), s, d, size=1 + i % 4)
              for i, (s, d) in enumerate(pairs)]
    config = SimulationConfig(
        width=4, topology=topology, routing=routing, traffic="trace",
        trace=events, warmup_cycles=0,
        measure_cycles=SPACING * (len(events) + 1), drain_cycles=SPACING,
    )
    result = Simulator(config).run()
    # One packet in flight at a time: samples arrive in trace order.
    assert result.latency._samples == [
        zero_load_latency(grid, e.src, e.dst, e.size) for e in events
    ]


def test_no_stable_smoke_point_exceeds_its_bound():
    topology = exp.SMOKE.make_topology()
    checked = 0
    for pattern, curves in exp.fig5_latency_throughput(exp.SMOKE).items():
        flows = traffic_matrix(topology, pattern)
        for curve in curves:
            bound = cut_bound(topology, flows)
            if curve.label.split("+")[0] == "dor":
                bound = min(bound, dor_bound(topology, flows))
            stable, _ = saturation(curve.points, curve.points[0].avg_latency)
            assert stable <= (1 + EPSILON) * bound, (pattern, curve.label)
            checked += stable > 0
    assert checked == len(exp.FIG5_PATTERNS) * len(exp.FIG5_ALGORITHMS)
