"""The paper's analytic claims, pinned to exact values.

Table 1's adaptiveness (Eq. 1-2) as fractions for every algorithm on the
4x4 and 8x8 meshes, and the Fig. 2 case study's end-of-run congestion
trees.  §4.4's 132 bits per port are pinned in ``test_cost.py``.
"""

from fractions import Fraction

import pytest

from repro.core.adaptiveness import (
    _minimal_dag_nodes,
    port_adaptiveness,
    qualitative_comparison,
    vc_adaptiveness,
)
from repro.harness.experiments import TreeShape, fig2_congestion_tree
from repro.routing.registry import available_algorithms, create_routing
from repro.topology.mesh import Mesh2D

FULL = Fraction(1)

#: Mean Eq. 1 over every ordered pair, each pair the mean over the
#: routers of its minimal-path DAG; XORDET keeps its base's ports.
P_ADAPT = {
    4: {"dor": Fraction(20183, 23100), "oddeven": Fraction(43283, 46200)},
    8: {
        "dor": Fraction(2644072521892553, 3329674401678240),
        "oddeven": Fraction(5973746923570793, 6659348803356480),
    },
}

#: Eq. 2 is (V-1)/V on an ordinary channel and 1 on the escape channel
#: for these; 0 everywhere for oblivious VC use and XORDET's static VC.
DUATO = {"dbar", "dbar-fine", "footprint"}


def exact_p_adapt(algorithm, mesh):
    pairs = [(s, d) for s in range(mesh.num_nodes)
             for d in range(mesh.num_nodes) if s != d]
    total = Fraction(0)
    for s, d in pairs:
        nodes = _minimal_dag_nodes(mesh, s, d)
        total += sum(port_adaptiveness(algorithm, mesh, n, d, s)
                     for n in nodes) / len(nodes)
    return total / len(pairs)


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("name", available_algorithms())
def test_table1_port_adaptiveness_is_exact(name, width):
    base = name.split("+")[0]
    expected = P_ADAPT[width].get(base, FULL)
    assert exact_p_adapt(create_routing(name), Mesh2D(width)) == expected
    if width == 4:  # the float the Table 1 driver prints
        table = qualitative_comparison({name: create_routing(name)},
                                       Mesh2D(width), num_vcs=10)
        assert table[name]["P_adapt"] == pytest.approx(float(expected),
                                                       rel=1e-12)


@pytest.mark.parametrize("num_vcs", [4, 10])
@pytest.mark.parametrize("name", available_algorithms())
def test_table1_vc_adaptiveness_is_exact(name, num_vcs):
    algorithm = create_routing(name)
    duato = name in DUATO
    assert vc_adaptiveness(algorithm, num_vcs) == (
        Fraction(num_vcs - 1, num_vcs) if duato else 0)
    assert vc_adaptiveness(algorithm, num_vcs, is_escape_channel=True) == (
        FULL if duato else 0)


def test_fig2_trees_are_pinned():
    # The paper's Fig. 2: DOR's endpoint tree at n13 is 4 branches of 4
    # VCs (16); XORDET keeps the branches and thins each to one VC.
    shapes = {r.routing: (r.endpoint_tree, r.network_tree)
              for r in fig2_congestion_tree()}
    assert shapes == {
        "dor": (TreeShape(4, 16, 4), TreeShape(3, 9, 4)),
        "dbar": (TreeShape(7, 23, 4), TreeShape(10, 18, 4)),
        "dor+xordet": (TreeShape(4, 4, 1), TreeShape(4, 4, 1)),
        "footprint": (TreeShape(7, 17, 3), TreeShape(11, 17, 3)),
    }
