"""XORDET static HoL-blocking-aware VC mapping (Peñaranda et al., 2014).

XORDET avoids head-of-line blocking by assigning every destination a fixed
VC computed by XOR-folding the destination coordinates, so packets to
different destination classes never share a VC and a congested destination
only ever thickens *one* VC per link (the thin-branch congestion tree of
Fig. 2(c)).

This module provides:

* :func:`xordet_vc` — the pure destination→VC mapping;
* :class:`XordetOverlay` — a combinator that takes any base routing
  algorithm, keeps its output-*port* selection, and replaces its VC
  selection with the XORDET mapping.  This realizes the paper's
  ``DOR+XORDET``, ``Odd-Even+XORDET`` and ``DBAR+XORDET`` configurations
  ("DBAR+XORDET uses DBAR to select the output port but the VC selection is
  determined by XORDET").

For Duato-based algorithms the mapping targets the adaptive VCs only and
the escape request is preserved, keeping deadlock freedom intact.

The overlay is mesh-only (``topologies = ("mesh",)``): its static map
pins every destination to exactly one VC, which cannot coexist with the
torus dateline scheme — a wrapping packet must be able to change VC
class mid-route, and a single pinned VC would recreate the wrap cycle
the dateline exists to break.
"""

from __future__ import annotations

from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.requests import Priority, VcRequest, bits
from repro.topology.base import Topology
from repro.topology.ports import Direction


def _fold_xor(value: int) -> int:
    """XOR-fold an integer into a small digest (bitwise parity mixing)."""
    digest = 0
    while value:
        digest ^= value & 0xF
        value >>= 4
    return digest


def xordet_vc(mesh: Topology, destination: int, num_usable_vcs: int) -> int:
    """The XORDET destination→VC mapping.

    The destination's X and Y coordinates are XOR-folded together and
    reduced modulo the number of usable VCs, spreading destination classes
    evenly across VCs as the original scheme does for direct topologies.
    """
    x, y = mesh.coords(destination)
    # Rotate Y before mixing so that destinations differing only in one
    # coordinate still land in different classes for small VC counts.
    mixed = _fold_xor(x) ^ _fold_xor((y << 2) | (y >> 2)) ^ (x + y)
    return mixed % num_usable_vcs


class XordetOverlay(RoutingAlgorithm):
    """Combine a base algorithm's port selection with XORDET VC selection."""

    #: The static destination->VC pinning is incompatible with dateline
    #: VC classes (see the module docstring), regardless of the base.
    topologies = ("mesh",)

    def __init__(self, base: RoutingAlgorithm) -> None:
        self.base = base
        self.name = f"{base.name}+xordet"
        self.uses_escape = base.uses_escape
        self.atomic_vc_reallocation = base.atomic_vc_reallocation

    def select_output(self, ctx: RouteContext) -> Direction:
        """The base algorithm's port selection, unchanged."""
        return self.base.select_output(ctx)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        view = ctx.outputs[direction]
        usable = bits(view.adaptive)
        mapped = 1 << usable[
            xordet_vc(ctx.mesh, ctx.destination, len(usable))
        ]
        requests: list[VcRequest] = []
        # The static mapping admits exactly one VC per destination; if it
        # is busy the packet waits for it (that is the scheme's
        # HoL-avoidance contract), re-requesting the cycle it frees.
        if view.free & mapped:
            requests.append((direction, mapped, Priority.LOW))
        if self.uses_escape:
            escape = self.escape_request(ctx)
            if escape is not None:
                requests.append(escape)
        return requests

    def allowed_directions(
        self, mesh: Topology, current: int, destination: int, source: int
    ) -> list[Direction]:
        return self.base.allowed_directions(mesh, current, destination, source)

    def __repr__(self) -> str:
        return f"XordetOverlay({self.base!r})"
