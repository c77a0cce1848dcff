"""Closed-form network bounds, computed from a topology's channel list
and no simulation (Dally & Towles, *Principles and Practices of
Interconnection Networks*, ch. 3).

Rates are in flits per cycle per *sending* node, as a figure's
injection rate is: under a permutation a node that maps to itself sends
nothing, and ``uniform`` spreads a node's rate evenly over the other
nodes.  Every channel carries one flit per cycle.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from repro.topology.base import Topology
from repro.traffic.patterns import PATTERNS

#: Cycles a head flit spends per router: one through route computation,
#: VC and switch allocation and switch traversal into the output staging
#: FIFO, one on the link out (the ejection link at the destination).
ROUTER_CYCLES = 2


def hop_counts(topology: Topology, src: int) -> dict[int, int]:
    """Shortest-path hop count from ``src`` to every node, by a
    breadth-first walk over ``topology.channels()``."""
    out: dict[int, list[int]] = {}
    for a, _direction, b in topology.channels():
        out.setdefault(a, []).append(b)
    hops, frontier = {src: 0}, deque([src])
    while frontier:
        node = frontier.popleft()
        for nbr in out.get(node, ()):
            if nbr not in hops:
                hops[nbr] = hops[node] + 1
                frontier.append(nbr)
    return hops


def zero_load_latency(topology: Topology, src: int, dst: int, size: int) -> int:
    """Cycles from a packet's creation to its tail's ejection in an empty
    network: ``ROUTER_CYCLES`` at each of the ``hops + 1`` routers on a
    minimal path, then the ``size - 1`` flits behind the head and the
    cycle the head waits at the source to be injected."""
    return ROUTER_CYCLES * (hop_counts(topology, src)[dst] + 1) + size


def traffic_matrix(topology: Topology, pattern: str) -> dict[tuple[int, int], Fraction]:
    """``{(src, dst): share of src's rate}`` for a traffic pattern."""
    n = topology.num_nodes
    if pattern == "uniform":
        share = Fraction(1, n - 1)
        return {(s, d): share for s in range(n) for d in range(n) if s != d}
    destination = PATTERNS[pattern]  # a permutation: the rng is unused
    flows = {}
    for s in range(n):
        d = destination(topology, s, random.Random(0))
        if d is not None:
            flows[s, d] = Fraction(1)
    return flows


def dor_path(topology: Topology, src: int, dst: int) -> list[tuple[int, int]]:
    """The channels ``(node, next node)`` of a mesh's XY route: all of X
    first, then Y, one hop along ``channels()`` at a time."""
    links = {(a, b) for a, _direction, b in topology.channels()}
    (x, y), (dx, dy) = topology.coords(src), topology.coords(dst)
    path = []
    while (x, y) != (dx, dy):
        nx = x + (dx > x) - (dx < x)
        ny = y if nx != x else y + (dy > y) - (dy < y)
        hop = (topology.node_at(x, y), topology.node_at(nx, ny))
        assert hop in links, f"no channel {hop}"
        path.append(hop)
        x, y = nx, ny
    return path


def dor_channel_loads(
    topology: Topology, flows: dict[tuple[int, int], Fraction]
) -> dict[tuple[int, int], Fraction]:
    """Each mesh channel's load per unit sending rate under XY routing."""
    loads = {(a, b): Fraction(0) for a, _direction, b in topology.channels()}
    for (s, d), share in flows.items():
        for hop in dor_path(topology, s, d):
            loads[hop] += share
    return loads


def dor_bound(topology: Topology, flows: dict[tuple[int, int], Fraction]) -> Fraction:
    """The sending rate at which XY routing's busiest channel is full."""
    return 1 / max(dor_channel_loads(topology, flows).values())


def cut_bound(topology: Topology, flows: dict[tuple[int, int], Fraction]) -> Fraction:
    """The sending rate no routing can exceed: over every straight cut,
    the channels crossing it over the traffic that must cross it.

    A cut splits one dimension into a run of coordinates ``lo..hi`` and
    the rest.  On a mesh a run that touches an edge is one straight cut;
    on a torus every run is one, as its rings are cut twice (torus cuts
    come in pairs).  Any run gives a valid bound, so all are tried, and
    each crossing direction counts apart.
    """
    links = [(a, b) for a, _direction, b in topology.channels()]
    coords = [topology.coords(node) for node in range(topology.num_nodes)]
    best = None
    for dim, size in ((0, topology.width), (1, topology.height)):
        for lo in range(size):
            for hi in range(lo, size):
                if hi - lo + 1 == size:
                    continue
                inside = {n for n, c in enumerate(coords) if lo <= c[dim] <= hi}
                for side in (True, False):
                    crossing = sum(1 for a, b in links
                                   if (a in inside) is side and (b in inside) is not side)
                    demand = sum(share for (s, d), share in flows.items()
                                 if (s in inside) is side and (d in inside) is not side)
                    if demand:
                        bound = Fraction(crossing) / demand
                        best = bound if best is None else min(best, bound)
    assert best is not None, "no traffic crosses any cut"
    return best
