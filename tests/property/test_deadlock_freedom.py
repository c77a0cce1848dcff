"""Deadlock freedom, proven from the routing functions instead of sampled.

A wormhole network is deadlock-free when its channel dependency graph
(CDG) is acyclic and every packet always has a channel to ask for
(Dally & Towles ch. 14).  Adaptive algorithms only need that of an
*escape* subfunction: Duato's theorem asks for a connected routing
subfunction whose *extended* CDG is acyclic.  This module builds both
graphs from the code itself and checks them on every registered
algorithm, on every topology it declares, over k = 2..6 and rectangles:

* the geometry is ``Topology.channels()`` and ``minimal_directions``;
* route computation is "any of ``allowed_directions``" (that these
  stay minimal is ``test_prop_routing``'s check; that RC commits only
  to one of them is the routing-conformance checker's);
* the VCs requested are what ``vc_requests_at`` / ``escape_request``
  return on the ``output_ports`` of a real :class:`Router` with every
  VC free.  Each request is a subset of ``free``, so all-free asks for
  the most; and the router, not the test, decides which escape VCs a
  port provisions, with ``wrap_vc_class`` choosing among them.

Out of scope: Footprint's suppression of the escape request while a
packet waits on a footprint VC (§3.4's waiting-chain argument, which
depends on run-time state and is the routing-conformance checker's).
``test_torus_sim`` and ``test_deadlock`` run the engine and check that
its grants follow the functions proven here.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.exceptions import ConfigurationError
from repro.router.router import Router
from repro.routing.oddeven import OddEvenRouting
from repro.routing.registry import available_algorithms, create_routing
from repro.routing.requests import bits
from repro.sim.config import SimulationConfig
from repro.topology.base import create_topology
from repro.topology.ports import Direction
from repro.topology.torus import Torus2D

#: Squares k = 2..6 plus three rectangles per topology; the torus ones
#: include odd radices (and k = 2, where both ring directions reach the
#: same neighbour).
SIZES = {
    "mesh": [(k, k) for k in range(2, 7)] + [(2, 5), (6, 3), (4, 6)],
    "torus": [(k, k) for k in range(2, 7)] + [(2, 3), (5, 3), (6, 4)],
}

CASES = [
    (name, topology)
    for name in available_algorithms()
    for topology in create_routing(name).topologies
]


def min_vcs(name: str, topology: str) -> int:
    """The fewest VCs config validation admits for ``name`` on
    ``topology``."""
    for num_vcs in range(1, 8):
        try:
            SimulationConfig(
                width=2, topology=topology, routing=name, num_vcs=num_vcs
            )
        except ConfigurationError:
            continue
        return num_vcs
    raise AssertionError(f"no VC count admits {name} on a {topology}")


def network(name, topology, width, height, num_vcs):
    """Geometry, algorithm and one router per node, every VC free."""
    config = SimulationConfig(
        width=width,
        height=height,
        topology=topology,
        routing=name,
        num_vcs=num_vcs,
    )
    topo = create_topology(topology, width, height)
    algorithm = create_routing(name)
    routers = [
        Router(node, topo, config, algorithm, random.Random(node))
        for node in range(topo.num_nodes)
    ]
    return topo, algorithm, routers


def context(router, dst, src):
    """The route context ``router`` evaluates a packet ``src -> dst``
    with (the fields its allocation round sets)."""
    ctx = router._ctx
    ctx.destination = dst
    ctx.source = src
    return ctx


def dependency_graph(topo, algorithm, routers):
    """The full CDG of a routing function without escape VCs.

    A vertex is a channel ``(node, direction, vc)``.  For each (src,
    dst) the walk visits every node the packet can reach; a channel it
    can hold on arrival there depends on every channel requested at
    each of ``allowed_directions``.  Injection and ejection channels
    cannot sit on a cycle (nothing waits into the one, nothing out of
    the other) and are left out.
    """
    link = {(n, d): m for n, d, m in topo.channels()}
    nodes = range(topo.num_nodes)
    dist = [[topo.hop_distance(a, b) for b in nodes] for a in nodes]
    succ = defaultdict(set)
    for dst in nodes:
        for src in nodes:
            if src == dst:
                continue
            held = {src: set()}
            order = [src]
            for node in order:  # grows as it goes: breadth first
                ctx = context(routers[node], dst, src)
                wanted = []
                for d in algorithm.allowed_directions(topo, node, dst, src):
                    nxt = link[node, d]
                    assert dist[nxt][dst] == dist[node][dst] - 1, (
                        f"{algorithm.name}: {node}->{dst} via {d.name} "
                        f"is not minimal"
                    )
                    if nxt not in held:
                        held[nxt] = set()
                        if nxt != dst:
                            order.append(nxt)
                    for rd, mask, _priority in algorithm.vc_requests_at(
                        ctx, d
                    ):
                        assert rd is d, f"request at {rd.name}, not {d.name}"
                        channels = [(node, d, v) for v in bits(mask)]
                        wanted += channels
                        held[nxt].update(channels)
                assert wanted, (
                    f"{algorithm.name}: a packet {src}->{dst} at {node} "
                    f"has no VC to ask for"
                )
                for channel in held[node]:
                    succ[channel].update(wanted)
    return succ


def escape_graph(topo, algorithm, routers):
    """Duato's extended CDG of the escape subfunction, after checking
    that the subfunction is connected and always on offer.

    ``esc(a, dst)`` is the channel ``escape_request`` names at ``a``.
    A packet that holds it reaches ``b``, the channel's far end, and
    may ride adaptive channels to any ``n`` reachable from ``b`` over
    ``minimal_directions`` before it asks for ``esc(n, dst)``: the
    direct (``n == b``) and indirect dependencies.  There are no cross
    dependencies, because the escape VCs are asserted never to be
    adaptive.
    """
    link = {(n, d): m for n, d, m in topo.channels()}
    nodes = range(topo.num_nodes)
    succ = defaultdict(set)
    for dst in nodes:
        esc = {}
        for node in nodes:
            if node == dst:
                continue
            ctx = context(routers[node], dst, node)
            record = algorithm.escape_request(ctx)
            assert record is not None, (
                f"{algorithm.name}: no escape request at {node} for {dst}"
            )
            d, mask, _priority = record
            assert len(bits(mask)) == 1
            assert not routers[node].output_ports[d].adaptive & mask, (
                f"{algorithm.name}: escape VC {bits(mask)} at "
                f"{node}.{d.name} is also adaptive"
            )
            esc[node] = (node, d, bits(mask)[0])
            # The escape request rides along whichever port RC commits
            # to, and nothing else names an escape VC.
            for committed in algorithm.allowed_directions(
                topo, node, dst, node
            ):
                requests = algorithm.vc_requests_at(ctx, committed)
                assert record in requests, (
                    f"{algorithm.name}: escape missing at {node} for "
                    f"{dst} when committed to {committed.name}"
                )
                adaptive = routers[node].output_ports[committed].adaptive
                assert all(
                    rd is committed and not m & ~adaptive
                    for rd, m, _priority in requests
                    if (rd, m, _priority) != record
                )
        # Connectivity: escape hops alone deliver from every node.
        for node in nodes:
            cur, hops = node, 0
            while cur != dst:
                cur = link[esc[cur][:2]]
                hops += 1
                assert hops < topo.num_nodes, (
                    f"{algorithm.name}: escape path {node}->{dst} loops"
                )
        # Nodes reachable over minimal hops, filled nearest-first.
        reach = {dst: frozenset()}
        for node in sorted(nodes, key=lambda n: topo.hop_distance(n, dst)):
            if node != dst:
                reach[node] = frozenset([node]).union(
                    *(
                        reach[link[node, d]]
                        for d in topo.minimal_directions(node, dst)
                    )
                )
        for channel in esc.values():
            succ[channel].update(esc[n] for n in reach[link[channel[:2]]])
    return succ


def cdg(topo, algorithm, routers):
    """The graph whose acyclicity proves ``algorithm`` deadlock-free."""
    if algorithm.uses_escape:
        return escape_graph(topo, algorithm, routers)
    return dependency_graph(topo, algorithm, routers)


def find_cycle(succ):
    """One cycle of the directed graph ``succ`` (vertex -> successors)
    as a vertex list, or ``None`` if it is acyclic."""
    done = set()
    for root in list(succ):
        if root in done:
            continue
        path, on_path = [root], {root}
        stack = [iter(succ[root])]
        while stack:
            for w in stack[-1]:
                if w in on_path:
                    return path[path.index(w):]
                if w not in done:
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(succ.get(w, ())))
                    break
            else:
                stack.pop()
                v = path.pop()
                on_path.discard(v)
                done.add(v)
    return None


def describe(cycle):
    return " -> ".join(f"{node}.{d.name}.vc{v}" for node, d, v in cycle)


@pytest.mark.parametrize("name,topology", CASES)
def test_dependency_graph_is_acyclic(name, topology):
    for num_vcs in sorted({min_vcs(name, topology), 4}):
        for width, height in SIZES[topology]:
            topo, algorithm, routers = network(
                name, topology, width, height, num_vcs
            )
            cycle = find_cycle(cdg(topo, algorithm, routers))
            assert cycle is None, (
                f"{name} on {topo} with {num_vcs} VCs: {describe(cycle)}"
            )


class TestNegativeControls:
    """Each branch of the proof finds the cycle a broken rule makes."""

    @pytest.mark.parametrize("name,num_vcs", [("dor", 2), ("footprint", 3)])
    def test_torus_without_dateline_is_cyclic(
        self, monkeypatch, name, num_vcs
    ):
        monkeypatch.setattr(Torus2D, "wrap_vc_class", lambda *_: 0)
        topo, algorithm, routers = network(name, "torus", 4, 4, num_vcs)
        assert find_cycle(cdg(topo, algorithm, routers)) is not None

    def test_oddeven_without_turn_rules_is_cyclic(self, monkeypatch):
        def any_minimal(self, mesh, current, destination, source):
            if current == destination:
                return [Direction.LOCAL]
            return list(mesh.minimal_directions(current, destination))

        monkeypatch.setattr(OddEvenRouting, "allowed_directions", any_minimal)
        topo, algorithm, routers = network("oddeven", "mesh", 3, 3, 1)
        assert find_cycle(cdg(topo, algorithm, routers)) is not None
