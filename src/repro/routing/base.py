"""Routing algorithm interface.

The interface mirrors a BookSim-style router pipeline:

* :meth:`RoutingAlgorithm.select_output` is the *route computation* (RC)
  stage — called **once** per packet per router when the head flit reaches
  the front of its input VC.  The returned output port is a commitment: the
  packet waits for a VC at that port even if another minimal port later
  looks better.  This commit-once behaviour is what allows congestion and
  HoL blocking to build up, and is how BookSim (the paper's substrate)
  implements adaptive routing.
* :meth:`RoutingAlgorithm.vc_requests_at` is the *VC allocation* request
  generation — re-evaluated **every cycle** until the packet wins a VC,
  because the VC states it prioritizes (idle/footprint/busy) change as the
  network moves.  It returns ``(direction, mask, priority)`` records
  (plain tuples of the :class:`VcRequest` shape), the paper's
  ``ADD(P, v, pri)`` calls grouped by ``(P, pri)``.

The context exposes per-output-port state through
:class:`OutputPortView`: which downstream VCs are idle, which are
*footprint* VCs for the packet's destination, and which are busy with
other destinations.  Only local-router information is exposed, matching
the paper's cost argument (§4.4): no remote congestion notification is
available to any algorithm.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from repro.routing.requests import Priority, VcRequest
from repro.topology.base import _DOR_ANSWERS, Topology
from repro.topology.ports import Direction

# Bound once: an enum member read off its class is a descriptor call.
_LOW = Priority.LOW
_LOWEST = Priority.LOWEST


class OutputPortView(Protocol):
    """Local state of one output port, as visible to routing algorithms.

    Implemented by :class:`repro.router.output.OutputPort`; a lightweight
    fake is used in unit tests.  VC sets are masks (bit ``v`` = VC ``v``).
    """

    num_vcs: int
    escape_vc: int | None
    #: VCs that can be allocated to a new packet right now.
    free: int
    #: The subset of ``free`` released since the last allocation round;
    #: ``free & adaptive & ~fresh`` is the *established* idle set.
    fresh: int
    #: All VCs a non-escape request may target; ``free & adaptive`` is
    #: the idle set.
    adaptive: int

    @property
    def escape_vcs(self) -> tuple[int, ...]:
        """Reserved escape VCs in dateline-class order (empty when none).

        One entry per :attr:`Topology.num_vc_classes` on ports that
        carry an escape subnetwork: ``(0,)`` on a mesh, ``(0, 1)`` on a
        torus.  Only consulted on multi-class topologies, so mesh-only
        test fakes may omit it.
        """
        ...

    def footprint_mask(self, dst: int) -> int:
        """Busy adaptive VCs whose current owner packet is destined to
        ``dst`` — the paper's footprint channels."""

    def fresh_footprint_mask(self, dst: int) -> int:
        """Fresh adaptive VCs last owned by ``dst`` (reclaimable at HIGH)."""

    def free_credit_total(self) -> int:
        """Total free downstream buffer slots across adaptive VCs (a finer
        congestion signal used by DBAR's port selection)."""


@dataclass
class RouteContext:
    """Everything a routing algorithm may look at for one decision.

    Attributes
    ----------
    mesh:
        Network geometry (a :class:`~repro.topology.base.Grid2D`: the
        escape request and the Duato port choice read its one-byte
        pair table directly; the attribute keeps its historical name).
    current, destination, source:
        Current router, packet destination, packet source node ids.
    outputs:
        View of each candidate output port, keyed by direction.  The engine
        provides views for every port of the router; algorithms index only
        the directions they consider.
    num_vcs:
        VCs per physical channel.
    congestion_threshold:
        Congestion threshold in VCs (already scaled by ``num_vcs``).
    footprint_vc_limit:
        Optional cap on footprint VCs per (port, destination); ``None``
        means unlimited (the paper's configuration).
    rng:
        Deterministic stream for tie-breaking.
    dead_ports:
        Bitmask of output directions whose link or downstream router is
        currently faulted (bit ``d`` set ⟹ port ``d`` dead).  Zero in a
        fault-free network.  Adaptive algorithms steer around dead ports
        via :meth:`RoutingAlgorithm.live_candidates`.
    """

    mesh: Topology
    current: int
    destination: int
    source: int
    outputs: Mapping[Direction, OutputPortView]
    num_vcs: int
    congestion_threshold: int
    footprint_vc_limit: int | None
    rng: random.Random
    dead_ports: int = 0


class RoutingAlgorithm(abc.ABC):
    """Base class of all routing algorithms.

    Subclasses implement :meth:`select_output` (the once-per-router port
    commitment), :meth:`vc_requests_at` (the per-cycle VC requests at the
    committed port), and :meth:`allowed_directions` (the set of productive
    output directions the algorithm permits — used for adaptiveness
    metrics and turn-legality tests; it must be a superset of whatever
    :meth:`select_output` can return).
    """

    #: Registry name, set by subclasses.
    name: str = "base"
    #: Whether the lowest VCs are reserved as Duato escape channels (one
    #: per dateline class of the topology: VC0 on a mesh, VC0+VC1 on a
    #: torus).
    uses_escape: bool = False
    #: Whether downstream VCs are reallocated atomically (only after the
    #: tail flit's credit returns) — required by Duato-based algorithms,
    #: see §4.2.1 of the paper.
    atomic_vc_reallocation: bool = False
    #: Topologies the algorithm's turn model is sound on.  Algorithms
    #: whose deadlock-freedom argument is mesh-structural (Odd-Even's
    #: column-parity turn rules, XORDET's precomputed mesh table)
    #: restrict this; config validation rejects unsupported combinations
    #: with a loud :class:`~repro.exceptions.ConfigurationError`.
    topologies: tuple[str, ...] = ("mesh", "torus")

    @abc.abstractmethod
    def select_output(self, ctx: RouteContext) -> Direction:
        """Commit to an output port (RC stage; once per packet per router).

        Returns ``LOCAL`` at the destination.
        """

    @abc.abstractmethod
    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        """Per-cycle VC requests given the committed ``direction``."""

    @abc.abstractmethod
    def allowed_directions(
        self, mesh: Topology, current: int, destination: int, source: int
    ) -> list[Direction]:
        """Productive directions this algorithm may ever take at ``current``.

        Returns ``[LOCAL]`` when ``current == destination``.
        """

    def route(self, ctx: RouteContext) -> list[VcRequest]:
        """Select a port and produce its requests in one call.

        Convenience composition used by tests and analyses; the simulator
        itself calls the two stages separately so the port commitment can
        be held across cycles.
        """
        return self.vc_requests_at(ctx, self.select_output(ctx))

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def live_candidates(
        ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Sequence[Direction]:
        """Filter faulted output ports out of a candidate set.

        Returns ``candidates`` unchanged when every candidate is dead
        (or no fault is active): the packet then commits to a dead port
        and simply waits — its VC requests are suppressed by the router
        until the fault heals or a mask change triggers a re-route.
        """
        mask = ctx.dead_ports
        if not mask:
            return candidates
        live = [d for d in candidates if not (mask >> d) & 1]
        return live or candidates

    def eject_requests(self, ctx: RouteContext) -> list[VcRequest]:
        """Requests for delivery at the destination (LOCAL port).

        Any free ejection VC is claimed at LOW priority.  Requests are
        only emitted for currently grantable VCs: a request on a busy VC
        can never be granted under per-cycle recomputation, so omitting it
        is behaviourally identical and much cheaper (see
        :mod:`repro.routing.requests`).
        """
        return self.idle_requests(ctx, Direction.LOCAL)

    @staticmethod
    def idle_requests(
        ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        """Every idle (adaptive) VC at ``direction`` at flat LOW priority
        — the oblivious VC selection of DOR, Odd-Even and DBAR."""
        view = ctx.outputs[direction]
        idle = view.free & view.adaptive
        return [(direction, idle, _LOW)] if idle else []

    def escape_request(self, ctx: RouteContext) -> VcRequest | None:
        """The always-present lowest-priority escape request (line 45),
        or ``None`` while the escape VC is busy — it cannot be granted
        this cycle, and the request reappears on the cycle it frees.

        On single-class topologies (mesh) the escape subnetwork is
        dimension-order routing on VC0.  On a torus there is one escape
        VC per dateline class and the request targets the class of this
        hop (:meth:`~repro.topology.base.Topology.wrap_vc_class`), which
        keeps the escape network's channel dependency graph acyclic
        across the wrap links.  ``Router`` provisions both escape VCs on
        every torus port; a port without them is a provisioning error
        and fails the index, loudly.
        """
        mesh = ctx.mesh
        current = ctx.current
        dst = ctx.destination
        # dor_direction(current, dst), read where the grid keeps it: one
        # byte per pair (every waiting head asks, every evaluation).
        escape_dir = _DOR_ANSWERS[
            mesh._min_dirs[current * mesh.num_nodes + dst]
            or mesh._tabulate(current, dst)
        ]
        view = ctx.outputs[escape_dir]
        if mesh.num_vc_classes > 1:
            vc = view.escape_vcs[mesh.wrap_vc_class(current, dst, escape_dir)]
        else:
            vc = view.escape_vc
        if vc is None or not (view.free >> vc) & 1:
            return None
        return (escape_dir, 1 << vc, _LOWEST)

    def vc_class(self, num_vcs: int, vc: int) -> int | None:
        """Dateline class ``vc`` belongs to on a multi-class topology.

        ``None`` means the algorithm does not partition its adaptive VCs
        by class (Duato-based algorithms constrain only their escape
        VCs, which the router tracks separately).  DOR overrides this
        with its half-split, and the invariant checker uses it to verify
        dateline legality per hop.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
