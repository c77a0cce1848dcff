"""Structure-of-arrays VC-state view for batched routing decisions.

The vector engine (:mod:`repro.sim.vector`) keeps the whole network's
output-port VC state in a handful of dense numpy arrays indexed by
*global port id* ``g = node * NUM_PORTS + direction`` and VC index.
:class:`VcStateArrays` bundles those arrays (plus the few scalar
parameters routing decisions depend on) into the view consumed by
:meth:`repro.routing.base.RoutingAlgorithm.candidate_mask` — the batched
counterpart of the scalar per-packet ``vc_requests_at``.

The arrays are *live views*: the engine mutates them in place and the
container never copies.  For oracle tests, :meth:`VcStateArrays.capture`
builds a snapshot from scalar :class:`~repro.router.output.OutputPort`
objects so batched and scalar request generation can be compared on
identical state.

Semantics of each array (all shaped ``[G, V]``):

``busy``
    VC is allocated *or* draining — exactly the complement of the scalar
    ``grantable``.  Includes the escape VC.
``fresh``
    VC was released since the last allocation round (the scalar
    ``fresh`` mask).  A fresh VC is always grantable.
``owner``
    Destination of the VC's current (or, while fresh, most recent)
    owner packet; ``-1`` before the first allocation.  Deliberately
    stale after release, matching the scalar owner register.
``adaptive``
    VCs a non-escape request may target: everything except the escape
    VC at non-LOCAL ports (ejection ports reserve no escape VC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.topology.ports import NUM_PORTS, Direction

if TYPE_CHECKING:
    from repro.router.output import OutputPort
    from repro.topology.base import Topology
    from repro.topology.mesh import Mesh2D


@dataclass
class VcStateArrays:
    """Dense ``[global port, vc]`` view of every output port's VC state."""

    width: int
    height: int
    num_vcs: int
    #: Congestion threshold in VCs (already scaled by ``num_vcs``).
    congestion_threshold: int
    footprint_vc_limit: int | None
    #: The reserved escape VC index, or ``None`` for non-Duato algorithms.
    escape_vc: int | None
    busy: np.ndarray
    fresh: np.ndarray
    owner: np.ndarray
    adaptive: np.ndarray
    #: The engine's shared topology instance, when the builder has one
    #: (the vector engine is mesh-only, so this is always a mesh there).
    #: :meth:`mesh` lazily builds one otherwise.
    topology: "Topology | None" = None
    #: Lazily built ``[src * num_nodes + dst]`` DOR-direction table.
    _dor_table: "np.ndarray | None" = None

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def mesh(self) -> "Topology":
        """The shared topology instance (built once if not injected)."""
        if self.topology is None:
            from repro.topology.mesh import Mesh2D

            self.topology = Mesh2D(self.width, self.height)
        return self.topology

    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        width: int,
        height: int,
        num_vcs: int,
        *,
        congestion_threshold: int,
        footprint_vc_limit: int | None,
        escape_vc: int | None,
    ) -> "VcStateArrays":
        """A fully idle network: nothing busy, nothing fresh, no owners."""
        size = width * height * NUM_PORTS
        adaptive = np.ones((size, num_vcs), dtype=bool)
        if escape_vc is not None:
            non_local = np.arange(size) % NUM_PORTS != int(Direction.LOCAL)
            adaptive[non_local, escape_vc] = False
        return cls(
            width=width,
            height=height,
            num_vcs=num_vcs,
            congestion_threshold=congestion_threshold,
            footprint_vc_limit=footprint_vc_limit,
            escape_vc=escape_vc,
            busy=np.zeros((size, num_vcs), dtype=bool),
            fresh=np.zeros((size, num_vcs), dtype=bool),
            owner=np.full((size, num_vcs), -1, dtype=np.int32),
            adaptive=adaptive,
        )

    @classmethod
    def capture(
        cls,
        mesh: "Mesh2D",
        num_vcs: int,
        ports_by_node: "list[Mapping[Direction, OutputPort]]",
        *,
        congestion_threshold: int,
        footprint_vc_limit: int | None,
        escape_vc: int | None,
    ) -> "VcStateArrays":
        """Snapshot scalar :class:`OutputPort` state (oracle tests)."""
        state = cls.empty(
            mesh.width,
            mesh.height,
            num_vcs,
            congestion_threshold=congestion_threshold,
            footprint_vc_limit=footprint_vc_limit,
            escape_vc=escape_vc,
        )
        state.topology = mesh
        for node, ports in enumerate(ports_by_node):
            for direction, port in ports.items():
                g = node * NUM_PORTS + int(direction)
                for v in range(num_vcs):
                    state.busy[g, v] = not port.grantable(v)
                    state.fresh[g, v] = (port.fresh >> v) & 1
                    owner = port.owner_dst[v]
                    if owner is not None:
                        state.owner[g, v] = owner
        return state

    # ------------------------------------------------------------------
    def dor_directions(
        self, current: np.ndarray, destination: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`Mesh2D.dor_direction` over node-id arrays.

        X is fully resolved before Y, ``LOCAL`` at the destination —
        bit-identical to the scalar mesh query.  For small meshes the
        full ``[src, dst]`` table is built once and subsequent calls are
        a single gather (the per-cycle batches are tiny, so the ~15
        numpy calls of the direct computation would dominate).
        """
        n = self.num_nodes
        if n * n <= (1 << 20):
            table = self._dor_table
            if table is None:
                nodes = np.arange(n)
                table = self._compute_dor(
                    np.repeat(nodes, n), np.tile(nodes, n)
                )
                self._dor_table = table
            return table[current * n + destination]
        return self._compute_dor(current, destination)

    def _compute_dor(
        self, current: np.ndarray, destination: np.ndarray
    ) -> np.ndarray:
        width = self.width
        cx = current % width
        cy = current // width
        dx = destination % width
        dy = destination // width
        out = np.full(current.shape, int(Direction.LOCAL), dtype=np.int64)
        # Y first, then overwrite with X so the X offset wins when both
        # remain (dimension order).
        out[dy < cy] = int(Direction.NORTH)
        out[dy > cy] = int(Direction.SOUTH)
        out[dx < cx] = int(Direction.WEST)
        out[dx > cx] = int(Direction.EAST)
        return out


#: ``_WINNER_TABLES[V]`` is the flattened ``[mask * V + ptr]`` lookup of
#: the first set bit of ``mask`` at or after ``ptr`` cyclically (``-1``
#: when ``mask == 0``) — the round-robin arbiter scan as one gather.
_WINNER_TABLES: "dict[int, np.ndarray]" = {}


def _winner_table(num_vcs: int) -> np.ndarray:
    table = _WINNER_TABLES.get(num_vcs)
    if table is None:
        table = np.full((1 << num_vcs) * num_vcs, -1, dtype=np.int64)
        for mask in range(1 << num_vcs):
            for ptr in range(num_vcs):
                for k in range(num_vcs):
                    v = (ptr + k) % num_vcs
                    if (mask >> v) & 1:
                        table[mask * num_vcs + ptr] = v
                        break
        _WINNER_TABLES[num_vcs] = table
    return table


def switch_grants(
    ready: np.ndarray,
    out_flat: np.ndarray,
    credits: np.ndarray,
    port_open: np.ndarray,
    arb_ptr: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched switch allocation: first eligible VC per input port.

    Vectorized replica of the scalar router's ``_pick_sa_winner`` scan,
    evaluated for every input port at once against a start-of-stage
    snapshot: an input VC is *eligible* when it is ready (``ready`` —
    buffered flit whose packet holds an output VC), its granted output
    VC has a downstream credit, and the granted output port can still
    accept a flit this cycle (``port_open``, the scalar
    ``accept_capacity() > 0``).  Per input port the winner is the first
    eligible VC at or after the port's round-robin pointer, exactly the
    scalar rotated-mask scan.

    Shapes (``G`` input ports, ``V`` VCs per port): ``ready`` bool
    ``[G, V]``; ``out_flat`` int64 ``[G * V]`` holding the flat granted
    output VC id ``g_out * V + v_out`` (or ``-1`` when none, only read
    where ``ready``); ``credits`` int64 ``[G_out * V]``; ``port_open``
    bool ``[G_out]``; ``arb_ptr`` int64 ``[G]``.

    Returns ``(gs, vs)``: granting input ports (ascending) and their
    winning VC index.  The snapshot ignores same-cycle capacity
    consumption, so a multi-granted output port can exceed its accept
    capacity — callers must detect that and fall back to the scalar
    scan for the affected node (the vector engine's conflict fallback).
    """
    num_vcs = ready.shape[1]
    safe = np.maximum(out_flat, 0)
    if num_vcs & (num_vcs - 1) == 0:
        out_port = safe >> (num_vcs.bit_length() - 1)
    else:
        out_port = safe // num_vcs
    ok = (credits[safe] > 0) & port_open[out_port]
    elig = ready & ok.reshape(ready.shape)
    if num_vcs <= 8:
        # Pack each port's eligibility into a bitmask and resolve the
        # rotated scan with one precomputed-table gather.
        masks = np.packbits(elig, axis=1, bitorder="little")[:, 0]
        # uint8 masks would wrap at ``* num_vcs``; promote first.
        win = _winner_table(num_vcs)[
            masks.astype(np.int64) * num_vcs + arb_ptr
        ]
        gs = np.flatnonzero(win >= 0)
        return gs, win[gs]
    # Rank each VC by its distance from the pointer; the per-port winner
    # is the minimum-rank eligible VC (rank V == ineligible sentinel).
    rank = (np.arange(num_vcs) - arb_ptr[:, None]) % num_vcs
    rank[~elig] = num_vcs
    rmin = rank.min(axis=1)
    gs = np.flatnonzero(rmin < num_vcs)
    vs = (rmin[gs] + arb_ptr[gs]) % num_vcs
    return gs, vs


@dataclass
class SwitchStateArrays:
    """Dense snapshot of scalar per-router switch-allocation state.

    The oracle-test counterpart of :class:`VcStateArrays` for stage 5:
    :meth:`capture` flattens scalar :class:`~repro.router.router.Router`
    input-VC/output-port state into exactly the arrays
    :func:`switch_grants` consumes, so batched grants can be compared
    against ``Router._pick_sa_winner`` on identical state.
    """

    num_vcs: int
    ready: np.ndarray
    out_flat: np.ndarray
    credits: np.ndarray
    port_open: np.ndarray
    arb_ptr: np.ndarray

    @classmethod
    def capture(cls, routers, num_vcs: int) -> "SwitchStateArrays":
        """Snapshot ``routers`` (ascending node order, one per node)."""
        from repro.router.vcstate import VcState

        size = len(routers) * NUM_PORTS
        ready = np.zeros((size, num_vcs), dtype=bool)
        out_flat = np.full(size * num_vcs, -1, dtype=np.int64)
        credits = np.zeros(size * num_vcs, dtype=np.int64)
        port_open = np.zeros(size, dtype=bool)
        arb_ptr = np.zeros(size, dtype=np.int64)
        for router in routers:
            base = router.node * NUM_PORTS
            for direction, port in router.output_ports.items():
                g = base + int(direction)
                credits[g * num_vcs : (g + 1) * num_vcs] = port.credits
                port_open[g] = port.accept_capacity() > 0
            for direction, vcs in router.input_vcs.items():
                g = base + int(direction)
                arb_ptr[g] = router._vc_arbiters[direction]._pointer
                for v, ivc in enumerate(vcs):
                    if ivc.fifo and ivc.state is VcState.ACTIVE:
                        ready[g, v] = True
                        out_flat[g * num_vcs + v] = (
                            base + int(ivc.out_direction)
                        ) * num_vcs + ivc.out_vc
        return cls(
            num_vcs=num_vcs,
            ready=ready,
            out_flat=out_flat,
            credits=credits,
            port_open=port_open,
            arb_ptr=arb_ptr,
        )


