"""The flat-state vector simulation core.

State layout (``N`` nodes, ``V`` VCs, ``G = N * NUM_PORTS`` global
ports, ``g = node * NUM_PORTS + direction``, flat VC id ``i = g * V +
vc``):

* flits are packed integer tokens ``(packet_id << 2) | (is_head << 1) |
  is_tail``; packet metadata lives in one append-only list;
* every per-cycle quantity is *numpy-resident*: input/output FIFOs are
  fixed-size integer ring buffers (``[i, slot]`` / ``[g, slot]`` with
  head/length vectors), credits, drain flags, round-robin pointers and
  in-flight counters are flat arrays.  Where a scalar hot path still
  mutates a datum per event, the array is a zero-copy ``numpy`` view
  over a ``bytearray``/``array('q')`` buffer so single-element writes
  run at Python speed while batched stages read the same memory;
* the VC-state view consumed by the batched ``candidate_mask``
  (``busy``/``fresh``/``owner``) shares buffers the same way; the
  per-router pending set stays an insertion-ordered dict, matching the
  scalar router's iteration order.

Stage coverage: arrivals (1), link traversal (3), switch allocation
(5) and the source scan (6) are batched array passes; the sink drain
(2) and traffic generation stay scalar (they are cold).  Stage 4 (RC +
VA) keeps the three-sub-phase structure that preserves every
per-stream RNG draw order: (a) per router in active-set order, commit
output ports for new head packets (all ``select_output`` tie-break
draws, in pending order); (b) one network-wide ``candidate_mask`` call
for every route-cache miss; (c) per router in the same order, replay
the scalar separable allocator over the cached best-run request lists
(all allocator tie-break draws).

Stage 5 batches the switch: one :func:`switch_grants` call computes
every port's round-robin winner against the start-of-stage snapshot.
That is legal because the scalar per-port scan only *consumes*
resources (credits, accept capacity) as it walks the ports, and stage
5 draws no RNG: a snapshot winner differs from the scalar winner only
when one output port is granted beyond its accept capacity
``min(speedup, free fifo slots)`` in the same cycle.  Those nodes —
and only those — are replayed with the exact scalar scan
(:meth:`VectorEngine._switch_node_scalar`); all switch state is
node-local, so the ordering between the clean batch and the fallback
is unobservable.  Clean grants are applied in scalar visit order
(rotation rank within each node) so same-port FIFO appends and credit
returns stay sequence-identical.

The engine is a *stepper*, not a loop: :meth:`Simulator.run
<repro.sim.engine.Simulator.run>` owns the phases, idle-cycle skipping,
the watchdog, the clock and every statistic.  :meth:`VectorEngine.step`
advances ``sim.cycle`` by one, :meth:`VectorEngine.links_busy` is its
share of the quiescence check, blocked-packet sampling follows
``sim._sampling``, and ejections, counters and blocking samples are
written straight into the :class:`Simulator` so
:meth:`Simulator._result` assembles the result for every engine.
"""

from __future__ import annotations

import weakref
from array import array
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.routing.batch import VcStateArrays, switch_grants
from repro.routing.dbar import DbarFineRouting, DbarRouting
from repro.routing.dor import DorRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.requests import Priority
from repro.routing.xordet import XordetOverlay
from repro.topology.ports import NUM_PORTS, Direction

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

_LOCAL = int(Direction.LOCAL)
_PRI_LOWEST = int(Priority.LOWEST)

# Input-VC state machine encoding (mirrors VcState).
_IDLE = 0
_ROUTING = 1
_ACTIVE = 2

def _base_kind(routing) -> str:
    """Classify the (base) algorithm for the select_output replica."""
    base = routing.base if isinstance(routing, XordetOverlay) else routing
    if isinstance(base, FootprintRouting):
        return "footprint"
    if isinstance(base, DbarFineRouting):
        return "dbar-fine"
    if isinstance(base, DbarRouting):
        return "dbar"
    if isinstance(base, OddEvenRouting):
        return "oddeven"
    if isinstance(base, DorRouting):
        return "dor"
    raise NotImplementedError(
        f"vector engine has no select_output replica for {routing!r}"
    )


class VectorEngine:
    """Runs one :class:`Simulator`'s workload on the flat SoA state."""

    def __init__(self, sim: "Simulator") -> None:
        #: The owner, held weakly: it holds this stepper.
        self.sim = weakref.proxy(sim)
        config = sim.config
        mesh = sim.mesh
        self.config = config
        self.mesh = mesh
        self.routing = sim.routing
        self.traffic = sim.traffic

        num_nodes = mesh.num_nodes
        num_vcs = config.num_vcs
        size = num_nodes * NUM_PORTS
        self._num_nodes = num_nodes
        self._num_vcs = num_vcs
        # Power-of-two VC counts let hot loops split flat ids with
        # shift/mask instead of divmod (-1 disables the fast path).
        self._vc_shift = (
            num_vcs.bit_length() - 1
            if num_vcs & (num_vcs - 1) == 0
            else -1
        )
        self._vc_mask_all = (1 << num_vcs) - 1
        self._escape_vc = 0 if self.routing.uses_escape else None
        self._atomic = self.routing.atomic_vc_reallocation
        self._kind = _base_kind(self.routing)
        # Only DBAR-fine port selection ever reads the adaptive credit
        # totals; skip maintaining them for every other algorithm.
        self._needs_adaptive_credits = self._kind == "dbar-fine"
        self._overlay = isinstance(self.routing, XordetOverlay)
        base = self.routing.base if self._overlay else self.routing
        self._oddeven = base if isinstance(base, OddEvenRouting) else None
        self._threshold = max(
            1, int(config.congestion_threshold * num_vcs)
        )
        self._vc_depth = config.vc_buffer_depth
        self._speedup = config.internal_speedup
        self._ofifo_depth = config.output_buffer_depth

        # Per-router RNG streams: the same cached stream objects the
        # scalar routers were built with, still untouched.
        self._rngs = [
            sim.rng.stream(f"router/{node}") for node in range(num_nodes)
        ]
        # randrange(n) for positive int n is one _randbelow(n) draw;
        # the cached bound methods skip randrange's validation preamble
        # without touching the stream.
        self._randbelow = [rng._randbelow for rng in self._rngs]

        # --- per-node structures -------------------------------------
        self._port_order = [
            [int(d) for d in mesh.router_ports(node)]
            for node in range(num_nodes)
        ]
        self._link_dest = sim._link_dest
        self._inflight = array("q", [0]) * num_nodes
        self._inflight_v = np.frombuffer(self._inflight, dtype=np.int64)
        self._credit_pending = bytearray(num_nodes)
        self._credit_pending_v = np.frombuffer(
            self._credit_pending, dtype=np.bool_
        )
        self._nports_np = np.fromiter(
            (len(order) for order in self._port_order),
            dtype=np.int64,
            count=num_nodes,
        )
        self._sa_off_np = np.fromiter(
            (
                node % len(order)
                for node, order in enumerate(self._port_order)
            ),
            dtype=np.int64,
            count=num_nodes,
        )
        # All rotations of each node's port scan order, so the scalar
        # fallback indexes a precomputed tuple instead of taking a
        # modulus per port per cycle.
        self._port_rot = [
            [
                tuple(order[(off + k) % len(order)] for k in range(len(order)))
                for off in range(len(order))
            ]
            for order in self._port_order
        ]
        self._pending: list[dict[int, None]] = [
            {} for _ in range(num_nodes)
        ]
        self._version_sum = [0] * num_nodes
        # Route-computation memos: candidate sets are pure functions of
        # (current, destination), so cache them as int tuples.
        self._min_dirs_int: dict[int, tuple[int, ...]] = {}
        self._dor_int: dict[int, int] = {}

        # --- per global-port (g) structures --------------------------
        self._fresh = [0] * size
        self._arb_ptr_np = np.zeros(size, dtype=np.int64)
        self._accepted_np = np.zeros(size, dtype=np.int64)
        # Reusable all-False scratch for the conflict-fallback filter.
        self._node_scratch = np.zeros(num_nodes, dtype=bool)
        # Incrementally maintained per-port views, the counts the scalar
        # OutputPort reads off its free mask and footprint index: busy
        # adaptive VC count and per-destination footprint VC counts.
        self._busy_count = array("q", [0]) * size
        self._busy_count_v = np.frombuffer(self._busy_count, dtype=np.int64)
        self._fp_counts: list[dict[int, int]] = [{} for _ in range(size)]
        # Lazily built per-(src, dst) minimal-direction tables for the
        # batched footprint route computation (-1 second entry = single
        # candidate; LOCAL at the destination).
        self._md_tables: "tuple[np.ndarray, np.ndarray] | None" = None
        escape = self._escape_vc
        self._esc_g = [
            escape
            if escape is not None and g % NUM_PORTS != _LOCAL
            else -1
            for g in range(size)
        ]
        self._esc_np = np.fromiter(self._esc_g, dtype=np.int64, count=size)
        self._adaptive_int = [
            self._vc_mask_all & ~(1 << self._esc_g[g])
            if self._esc_g[g] >= 0
            else self._vc_mask_all
            for g in range(size)
        ]
        self._adaptive_n = [m.bit_count() for m in self._adaptive_int]
        self._adaptive_n_np = np.fromiter(
            self._adaptive_n, dtype=np.int64, count=size
        )
        depth = self._vc_depth
        self._credits_np = np.full(size * num_vcs, depth, dtype=np.int64)
        self._adaptive_credits_np = np.fromiter(
            (depth * self._adaptive_int[g].bit_count() for g in range(size)),
            dtype=np.int64,
            count=size,
        )
        # Index of each direction within its node's port scan order
        # (rotation rank base for the clean-grant application order).
        port_idx = np.zeros(size, dtype=np.int64)
        for node, order in enumerate(self._port_order):
            for k, d in enumerate(order):
                port_idx[node * NUM_PORTS + d] = k
        self._port_idx_np = port_idx
        # Link endpoint tables: for port g (used both as an output port
        # forwarding a flit and as an input port returning a credit),
        # the far end is input/output port (dest_node, dest_dir);
        # credit_g is its flat id, -1 for LOCAL and edge directions.
        dest_node = np.full(size, -1, dtype=np.int64)
        dest_dir = np.full(size, -1, dtype=np.int64)
        for node in range(num_nodes):
            row = self._link_dest[node]
            for d in range(NUM_PORTS):
                if d != _LOCAL and row[d] is not None:
                    neighbor, far_dir = row[d]
                    dest_node[node * NUM_PORTS + d] = neighbor
                    dest_dir[node * NUM_PORTS + d] = far_dir
        self._dest_node = dest_node
        self._dest_dir = dest_dir
        self._credit_g_np = np.where(
            dest_node >= 0, dest_node * NUM_PORTS + dest_dir, -1
        )
        self._credit_g = self._credit_g_np.tolist()
        # Output staging FIFOs as [g, slot] rings.
        ofifo_depth = self._ofifo_depth
        self._of_tok = np.zeros((size, ofifo_depth), dtype=np.int64)
        self._of_vc = np.zeros((size, ofifo_depth), dtype=np.int64)
        self._of_head = np.zeros(size, dtype=np.int64)
        self._of_len = np.zeros(size, dtype=np.int64)

        # --- per flat-VC (i = g * V + v) structures -------------------
        total_vcs = size * num_vcs
        # Input FIFOs as [i, slot] rings; head/length are array('q')
        # buffers so the scalar injection path mutates them at Python
        # speed while the batched stages use the numpy views.
        self._if_buf = np.zeros((total_vcs, depth), dtype=np.int64)
        self._if_head = array("q", [0]) * total_vcs
        self._if_head_v = np.frombuffer(self._if_head, dtype=np.int64)
        self._if_len = array("q", [0]) * total_vcs
        self._if_len_v = np.frombuffer(self._if_len, dtype=np.int64)
        self._istate = bytearray(total_vcs)
        self._istate_v = np.frombuffer(self._istate, dtype=np.uint8)
        # ready[i]: buffered flit whose packet holds an output VC
        # (_ACTIVE) — exactly the set the switch arbiter may grant.
        self._ready = bytearray(total_vcs)
        self._ready_v = np.frombuffer(self._ready, dtype=np.bool_)
        self._ready2 = self._ready_v.reshape(size, num_vcs)
        # Granted output VC as a flat id g_out * V + v_out (-1 none).
        self._out_flat = array("q", [-1]) * total_vcs
        self._out_flat_v = np.frombuffer(self._out_flat, dtype=np.int64)
        # Output-VC drain flags (tail sent, credits still returning).
        self._drain = bytearray(total_vcs)
        self._drain_v = np.frombuffer(self._drain, dtype=np.bool_)
        self._committed = [-1] * total_vcs
        self._cache_key = [-1] * total_vcs
        self._cache_reqs: list = [None] * total_vcs
        self._ivc_dst = [-1] * total_vcs
        self._ivc_src = [-1] * total_vcs

        # --- the candidate_mask view ---------------------------------
        # busy/fresh/owner share buffers with the scalar transition
        # paths: bytearray-backed bool views and an array('q')-backed
        # owner so VC allocation and release write single elements at
        # Python speed while candidate_mask reads dense arrays.
        self._busy_b = bytearray(total_vcs)
        self._fresh_b = bytearray(total_vcs)
        self._owner_b = array("q", [-1]) * total_vcs
        busy_np = np.frombuffer(self._busy_b, dtype=np.bool_).reshape(
            size, num_vcs
        )
        fresh_np = np.frombuffer(self._fresh_b, dtype=np.bool_).reshape(
            size, num_vcs
        )
        owner_np = np.frombuffer(self._owner_b, dtype=np.int64).reshape(
            size, num_vcs
        )
        adaptive = np.ones((size, num_vcs), dtype=bool)
        if escape is not None:
            non_local = np.arange(size) % NUM_PORTS != _LOCAL
            adaptive[non_local, escape] = False
        self.state = VcStateArrays(
            width=mesh.width,
            height=mesh.height,
            num_vcs=num_vcs,
            congestion_threshold=self._threshold,
            footprint_vc_limit=config.footprint_vc_limit,
            escape_vc=escape,
            busy=busy_np,
            fresh=fresh_np,
            owner=owner_np,
            adaptive=adaptive,
            topology=mesh,
        )
        self._fresh_np = fresh_np

        # --- sinks ----------------------------------------------------
        self._sink_bufs = [
            [[] for _ in range(num_vcs)] for _ in range(num_nodes)
        ]
        self._sink_mask = [0] * num_nodes
        self._sink_ptr = [0] * num_nodes
        self._sink_budget = [0.0] * num_nodes
        self._sink_occupancy = [0] * num_nodes
        # Nodes with a non-empty sink buffer (stage 2 iterates only these).
        self._sink_active: set[int] = set()

        # --- sources --------------------------------------------------
        self._src_queue: list[deque] = [deque() for _ in range(num_nodes)]
        self._src_flits: list = [None] * num_nodes
        self._src_vc = [-1] * num_nodes
        self._src_rr = [0] * num_nodes
        self._src_pending = array("q", [0]) * num_nodes
        self._src_pending_v = np.frombuffer(
            self._src_pending, dtype=np.int64
        )

        # --- engine-level state ---------------------------------------
        self._packets: list = []
        # Inter-cycle pipelines: link flits travel as an array triple
        # (flat input VC id, receiving node, token); credits as per-SA
        # array chunks plus a scalar (g, vc) tuple list from the sink
        # drain and the conflict fallback.
        self._flits_arr: tuple | None = None
        self._credit_chunks: list = []
        self._credits_next: list = []
        self._sink_next: list = []

    # ------------------------------------------------------------------
    # Route computation replicas (same per-stream RNG draws as scalar)
    # ------------------------------------------------------------------
    def _select_output(self, node: int, i: int) -> int:
        dst = self._ivc_dst[i]
        if node == dst:
            return _LOCAL
        kind = self._kind
        key = node * self._num_nodes + dst
        if kind == "dor":
            d = self._dor_int.get(key, -1)
            if d < 0:
                d = int(self.mesh.dor_direction(node, dst))
                self._dor_int[key] = d
            return d
        if kind == "oddeven":
            candidates = self._oddeven.allowed_directions(
                self.mesh, node, dst, self._ivc_src[i]
            )
            if len(candidates) == 1:
                return int(candidates[0])
            return self._select_most_idle(
                node, [int(d) for d in candidates]
            )
        cands = self._min_dirs_int.get(key)
        if cands is None:
            cands = tuple(
                int(d) for d in self.mesh.minimal_directions(node, dst)
            )
            self._min_dirs_int[key] = cands
        if len(cands) == 1:
            return cands[0]
        if kind == "footprint":
            return self._select_footprint(node, dst, cands)
        return self._select_dbar(node, cands, kind == "dbar-fine")

    def _select_most_idle(self, node: int, candidates) -> int:
        base = node * NUM_PORTS
        adaptive_n = self._adaptive_n
        busy_count = self._busy_count
        best = -(1 << 30)
        tied = None
        for d in candidates:
            g = base + d
            idle = adaptive_n[g] - busy_count[g]
            if idle > best:
                best = idle
                tied = [d]
            elif idle == best:
                tied.append(d)
        if len(tied) == 1:
            return tied[0]
        return tied[self._randbelow[node](len(tied))]

    def _select_dbar(self, node: int, candidates, fine: bool) -> int:
        base = node * NUM_PORTS
        adaptive_n = self._adaptive_n
        busy_count = self._busy_count
        threshold = self._threshold
        best = None
        tied = None
        if fine:
            adaptive_credits = self._adaptive_credits_np
            for d in candidates:
                g = base + d
                idle = adaptive_n[g] - busy_count[g]
                score = (idle >= threshold, adaptive_credits[g], idle)
                if best is None or score > best:
                    best = score
                    tied = [d]
                elif score == best:
                    tied.append(d)
        else:
            for d in candidates:
                g = base + d
                score = adaptive_n[g] - busy_count[g] >= threshold
                if best is None or score > best:
                    best = score
                    tied = [d]
                elif score == best:
                    tied.append(d)
        if len(tied) == 1:
            return tied[0]
        return tied[self._randbelow[node](len(tied))]

    def _select_footprint(self, node: int, dst: int, candidates) -> int:
        base = node * NUM_PORTS
        adaptive_n = self._adaptive_n
        busy_count = self._busy_count
        best_idle = -(1 << 30)
        tied = None
        for d in candidates:
            g = base + d
            idle = adaptive_n[g] - busy_count[g]
            if idle > best_idle:
                best_idle = idle
                tied = [d]
            elif idle == best_idle:
                tied.append(d)
        if len(tied) > 1 and best_idle < self._threshold:
            fp_counts = self._fp_counts
            best_fp = -1
            narrowed = None
            for d in tied:
                count = fp_counts[base + d].get(dst, 0)
                if count > best_fp:
                    best_fp = count
                    narrowed = [d]
                elif count == best_fp:
                    narrowed.append(d)
            tied = narrowed
        if len(tied) == 1:
            return tied[0]
        return tied[self._randbelow[node](len(tied))]

    def _min_dir_tables(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-``src * n + dst`` minimal-direction pair, built lazily.

        ``d1`` is the first candidate of :meth:`Mesh2D.minimal_directions`
        (``LOCAL`` at the destination), ``d2`` the second or ``-1`` when
        the pair is aligned with one axis.
        """
        tables = self._md_tables
        if tables is None:
            n = self._num_nodes
            mesh = self.mesh
            d1 = np.empty(n * n, dtype=np.int64)
            d2 = np.full(n * n, -1, dtype=np.int64)
            for src in range(n):
                base = src * n
                for dst in range(n):
                    if src == dst:
                        d1[base + dst] = _LOCAL
                        continue
                    dirs = mesh.minimal_directions(src, dst)
                    d1[base + dst] = int(dirs[0])
                    if len(dirs) > 1:
                        d2[base + dst] = int(dirs[1])
            tables = self._md_tables = (d1, d2)
        return tables

    def _batch_rc_footprint(self, rc_i: list, rc_node: list) -> None:
        """Vectorized :meth:`_select_footprint` over this cycle's RC rows.

        Port-selection state (idle counts, footprint counts) is not
        mutated anywhere during stage 4 phase (a), so the idle-count
        comparison of every row can be batched; only rows whose
        candidates tie fall back to a python loop, which draws each
        node's tie-break in the original pending order — per-stream RNG
        draw sequences are untouched.
        """
        committed = self._committed
        count = len(rc_i)
        node_arr = np.fromiter(rc_node, dtype=np.int64, count=count)
        dst_arr = np.fromiter(
            map(self._ivc_dst.__getitem__, rc_i),
            dtype=np.int64,
            count=count,
        )
        d1t, d2t = self._min_dir_tables()
        key = node_arr * self._num_nodes + dst_arr
        d1 = d1t[key]
        d2 = d2t[key]
        res = d1
        dbl = np.flatnonzero(d2 >= 0)
        if dbl.size:
            gbase = node_arr[dbl] * NUM_PORTS
            free = self._adaptive_n_np - self._busy_count_v
            idle1 = free[gbase + d1[dbl]]
            idle2 = free[gbase + d2[dbl]]
            take2 = idle2 > idle1
            if take2.any():
                rows = dbl[take2]
                res[rows] = d2[rows]
            tie_mask = idle1 == idle2
            ties = dbl[tie_mask]
            if ties.size:
                threshold = self._threshold
                fp_counts = self._fp_counts
                randbelows = self._randbelow
                for row, a, b, idle, dst, node in zip(
                    ties.tolist(),
                    d1[ties].tolist(),
                    d2[ties].tolist(),
                    idle1[tie_mask].tolist(),
                    dst_arr[ties].tolist(),
                    node_arr[ties].tolist(),
                ):
                    if idle < threshold:
                        base = node * NUM_PORTS
                        fa = fp_counts[base + a].get(dst, 0)
                        fb = fp_counts[base + b].get(dst, 0)
                        if fa > fb:
                            continue
                        if fb > fa:
                            res[row] = b
                            continue
                    if randbelows[node](2):
                        res[row] = b
        for i, d in zip(rc_i, res.tolist()):
            committed[i] = d

    # ------------------------------------------------------------------
    # Stage 1: arrivals from the previous cycle's link traversals
    # ------------------------------------------------------------------
    def _stage_arrivals(self) -> None:
        num_vcs = self._num_vcs
        # Credits: one scatter-add over the concatenated batch.  The
        # scalar loop's release-on-fill check is order-commutative
        # (credits only grow within the stage), so the end-state check
        # ``draining and credits == depth`` finds exactly the releases
        # the sequential scan would, deduplicated for the same-VC
        # double-credit case.
        chunks = self._credit_chunks
        credit_tuples = self._credits_next
        if chunks or credit_tuples:
            self._credit_chunks = []
            self._credits_next = []
            parts_g = [chunk[0] for chunk in chunks]
            parts_v = [chunk[1] for chunk in chunks]
            if credit_tuples:
                count = len(credit_tuples)
                parts_g.append(
                    np.fromiter(
                        (t[0] for t in credit_tuples),
                        dtype=np.int64,
                        count=count,
                    )
                )
                parts_v.append(
                    np.fromiter(
                        (t[1] for t in credit_tuples),
                        dtype=np.int64,
                        count=count,
                    )
                )
            cg = parts_g[0] if len(parts_g) == 1 else np.concatenate(parts_g)
            cv = parts_v[0] if len(parts_v) == 1 else np.concatenate(parts_v)
            ci = cg * num_vcs + cv
            credits_np = self._credits_np
            # bincount-and-add beats ufunc.at by an order of magnitude
            # at these batch sizes.
            credits_np += np.bincount(ci, minlength=credits_np.shape[0])
            if self._needs_adaptive_credits:
                non_escape = cv != self._esc_np[cg]
                adaptive_credits = self._adaptive_credits_np
                adaptive_credits += np.bincount(
                    cg[non_escape], minlength=adaptive_credits.shape[0]
                )
            if self._atomic:
                # Only atomic algorithms drain: elsewhere the tail send
                # released the VC already and this scan is dead weight.
                rel = ci[
                    self._drain_v[ci] & (credits_np[ci] == self._vc_depth)
                ]
                if rel.size:
                    credit_pending = self._credit_pending
                    drain = self._drain
                    fresh = self._fresh
                    fresh_b = self._fresh_b
                    busy_b = self._busy_b
                    owner_b = self._owner_b
                    version_sum = self._version_sum
                    esc_g = self._esc_g
                    busy_count = self._busy_count
                    fp_counts = self._fp_counts
                    seen = set()
                    for i in rel.tolist():
                        if i in seen:
                            continue
                        seen.add(i)
                        g, vc = divmod(i, num_vcs)
                        node = g // NUM_PORTS
                        # Release the output VC (owner left stale
                        # for the fresh-footprint reclaim).
                        drain[i] = 0
                        fresh[g] |= 1 << vc
                        fresh_b[i] = 1
                        busy_b[i] = 0
                        version_sum[node] += 1
                        if vc != esc_g[g]:
                            busy_count[g] -= 1
                            fp = fp_counts[g]
                            dst = owner_b[i]
                            left = fp[dst] - 1
                            if left:
                                fp[dst] = left
                            else:
                                del fp[dst]
                        credit_pending[node] = True
        # Flits: scatter into the input rings (every link delivers to a
        # distinct input VC).  Only head flits landing in idle VCs need
        # the scalar state-machine transition; array order is sender
        # (node, port) ascending, preserving the scalar pending-dict
        # insertion order.
        arr = self._flits_arr
        if arr is not None:
            self._flits_arr = None
            ri, rnode, toks = arr
            if_len = self._if_len_v
            pos = self._if_head_v[ri] + if_len[ri]
            pos[pos >= self._vc_depth] -= self._vc_depth
            self._if_buf[ri, pos] = toks
            if_len[ri] += 1
            self._inflight_v += np.bincount(
                rnode, minlength=self._num_nodes
            )
            st = self._istate_v[ri]
            self._ready_v[ri[st == _ACTIVE]] = True
            idle = np.flatnonzero(st == _IDLE)
            if idle.size:
                istate = self._istate
                packets = self._packets
                pending = self._pending
                ivc_dst = self._ivc_dst
                ivc_src = self._ivc_src
                for i, node, token in zip(
                    ri[idle].tolist(),
                    rnode[idle].tolist(),
                    toks[idle].tolist(),
                ):
                    istate[i] = _ROUTING
                    packet = packets[token >> 2]
                    ivc_dst[i] = packet.dst
                    ivc_src[i] = packet.src
                    pending[node][i] = None
        sink_active = self._sink_active
        for node, vc, token in self._sink_next:
            self._sink_bufs[node][vc].append(token)
            self._sink_occupancy[node] += 1
            self._sink_mask[node] |= 1 << vc
            sink_active.add(node)
        self._sink_next = []

    def _receive_flit_local(self, node: int, vc: int, token: int) -> None:
        """Injection-side flit delivery into the LOCAL input port."""
        i = (node * NUM_PORTS + _LOCAL) * self._num_vcs + vc
        pos = self._if_head[i] + self._if_len[i]
        if pos >= self._vc_depth:
            pos -= self._vc_depth
        self._if_buf[i, pos] = token
        self._if_len[i] += 1
        self._inflight[node] += 1
        state = self._istate[i]
        if state == _IDLE:
            self._istate[i] = _ROUTING
            packet = self._packets[token >> 2]
            self._ivc_dst[i] = packet.dst
            self._ivc_src[i] = packet.src
            self._pending[node][i] = None
        elif state == _ACTIVE:
            self._ready[i] = 1

    # ------------------------------------------------------------------
    # Stage 2: sink drain at the ejection bandwidth
    # ------------------------------------------------------------------
    def _stage_sink(self, cycle: int) -> bool:
        sink_active = self._sink_active
        if not sink_active:
            return False
        sim = self.sim
        progressed = False
        num_vcs = self._num_vcs
        credits_next = self._credits_next
        ejection_rate = self.config.ejection_rate
        for node in sorted(sink_active):
            budget = min(self._sink_budget[node] + ejection_rate, 4.0)
            mask = self._sink_mask[node]
            bufs = self._sink_bufs[node]
            credit_g = node * NUM_PORTS + _LOCAL
            while budget >= 1.0:
                if not mask:
                    break
                pointer = self._sink_ptr[node]
                vc = -1
                for offset in range(num_vcs):
                    candidate = pointer + offset
                    if candidate >= num_vcs:
                        candidate -= num_vcs
                    if (mask >> candidate) & 1:
                        vc = candidate
                        break
                self._sink_ptr[node] = vc + 1 if vc + 1 < num_vcs else 0
                token = bufs[vc].pop(0)
                if not bufs[vc]:
                    mask &= ~(1 << vc)
                credits_next.append((credit_g, vc))
                progressed = True
                sim._flits_in_network -= 1
                self._sink_occupancy[node] -= 1
                budget -= 1.0
                if token & 1:
                    packet = self._packets[token >> 2]
                    packet.ejection_time = cycle
                    sim._on_packet_ejected(packet, cycle)
            self._sink_mask[node] = mask
            self._sink_budget[node] = budget
            if self._sink_occupancy[node] == 0:
                sink_active.discard(node)
        return progressed

    # ------------------------------------------------------------------
    # Stage 3: link traversal — one flit per output port onto its link
    # ------------------------------------------------------------------
    def _stage_link(self) -> bool:
        of_len = self._of_len
        gs = np.flatnonzero(of_len)
        if gs.size == 0:
            return False
        heads = self._of_head[gs]
        toks = self._of_tok[gs, heads]
        vcs = self._of_vc[gs, heads]
        heads += 1
        heads[heads == self._ofifo_depth] = 0
        self._of_head[gs] = heads
        of_len[gs] -= 1
        nodes = gs // NUM_PORTS
        self._inflight_v -= np.bincount(
            nodes, minlength=self._num_nodes
        )
        local = gs % NUM_PORTS == _LOCAL
        if local.any():
            self._sink_next.extend(
                zip(
                    nodes[local].tolist(),
                    vcs[local].tolist(),
                    toks[local].tolist(),
                )
            )
        link = ~local
        if link.any():
            lg = gs[link]
            receiver = self._dest_node[lg]
            ri = (
                receiver * NUM_PORTS + self._dest_dir[lg]
            ) * self._num_vcs + vcs[link]
            self._flits_arr = (ri, receiver, toks[link])
        return True

    # ------------------------------------------------------------------
    # Stage 4: RC + batched request generation + allocator replay
    # ------------------------------------------------------------------
    def _route_and_allocate(self, active: list, active_arr) -> None:
        num_vcs = self._num_vcs
        pending = self._pending
        cache_key = self._cache_key
        cache_reqs = self._cache_reqs
        committed = self._committed

        self._credit_pending_v[:] = False

        # Phase (a): RC commitments, in active-set order — identical
        # per-router work order (and therefore per-stream RNG order) to
        # the scalar stage-4 loop.  Only the flat ivc index is
        # collected; currents, destinations and committed ports are
        # gathered vectorized afterwards (none of them change again
        # before phase (b): the fresh clears — the only other version
        # bumps — are deferred to the end of the stage, legal because a
        # router's requests only ever read its own ports' state).
        has_flits = (self._inflight_v[active_arr] > 0).tolist()
        alloc_nodes: list[int] = []
        batch_i: list[int] = []
        batch_vsum: list[int] = []
        version_sum = self._version_sum
        # Footprint's port selection reads only state that is constant
        # throughout phase (a), so its RC rows can be collected and
        # resolved in one batch after the scan (tie-break draws keep
        # their per-node order inside _batch_rc_footprint).
        batch_rc = self._kind == "footprint"
        rc_i: list[int] = []
        rc_node: list[int] = []
        for node, flits in zip(active, has_flits):
            if not flits:
                continue
            pend = pending[node]
            if not pend:
                continue
            vsum = version_sum[node]
            for i in pend:
                if cache_key[i] != vsum:
                    if committed[i] < 0:
                        if batch_rc:
                            rc_i.append(i)
                            rc_node.append(node)
                        else:
                            committed[i] = self._select_output(node, i)
                    batch_i.append(i)
                    batch_vsum.append(vsum)
            alloc_nodes.append(node)
        if rc_i:
            self._batch_rc_footprint(rc_i, rc_node)

        # Phase (b): one whole-network candidate_mask call for every
        # route-cache miss.  Only the *best run* of each request list —
        # the maximal-priority requests, in ascending-VC order with the
        # escape request ordered last — is extracted: every emitted
        # request is grantable at emission (the algorithms only request
        # grantable VCs, and the cache version invalidates on every
        # grantability change), so the scalar allocator's stage-1 scan
        # provably reduces to picking from exactly this run.  Because
        # the escape request is strictly lowest-priority and every
        # non-escape request sits on the committed port, a best run
        # never spans directions — so on the C-order (direction-major)
        # flattening of ``[d, v]`` it is exactly the row's max-valued
        # columns in ascending-column = ascending-VC order, and the
        # flat column doubles as the allocator's ``d * V + v`` key.
        if batch_i:
            count = len(batch_i)
            arr_i = np.fromiter(batch_i, dtype=np.int64, count=count)
            cur_arr = arr_i // (NUM_PORTS * num_vcs)
            dst_arr = np.fromiter(
                map(self._ivc_dst.__getitem__, batch_i),
                dtype=np.int64,
                count=count,
            )
            com_arr = np.fromiter(
                map(committed.__getitem__, batch_i),
                dtype=np.int64,
                count=count,
            )
            port_pri, esc_cols = self.routing.candidate_pri(
                self.state, cur_arr, dst_arr, com_arr
            )
            best = port_pri.max(axis=1)
            sel = port_pri == best[:, None]
            sel &= (best >= 0)[:, None]
            counts = sel.sum(axis=1)
            rows_nz, v_nz = np.nonzero(sel)
            col_vals = com_arr[rows_nz] * num_vcs + v_nz
            if esc_cols is not None:
                # Rows whose only request is the escape VC: splice their
                # single LOWEST-priority column into the row-major run
                # stream (such rows contributed no ``sel`` entries).
                esc_only = (best < 0) & (esc_cols >= 0)
                if esc_only.any():
                    er = np.flatnonzero(esc_only)
                    rows_nz = np.concatenate((rows_nz, er))
                    col_vals = np.concatenate((col_vals, esc_cols[er]))
                    col_vals = col_vals[
                        np.argsort(rows_nz, kind="stable")
                    ]
                    counts[esc_only] = 1
                    best[esc_only] = _PRI_LOWEST
            cols = col_vals.tolist()
            ends = np.cumsum(counts).tolist()
            start = 0
            for i, vsum, p, end in zip(
                batch_i, batch_vsum, best.tolist(), ends
            ):
                cache_key[i] = vsum
                cache_reqs[i] = (
                    (p, cols, start, end) if end > start else None
                )
                start = end

        # Phase (c): exact separable-allocator replay per router, in the
        # same order; each router's allocator draws follow its own RC
        # draws on its private stream, as in the scalar engine.  Stage 1
        # degenerates to a draw over the cached best run (see above).
        istate = self._istate
        ready = self._ready
        out_flat = self._out_flat
        ivc_dst = self._ivc_dst
        owner_b = self._owner_b
        fresh = self._fresh
        fresh_b = self._fresh_b
        busy_b = self._busy_b
        esc_g = self._esc_g
        busy_count = self._busy_count
        fp_counts = self._fp_counts
        randbelows = self._randbelow
        sampling = self.sim._sampling
        vc_shift = self._vc_shift
        vc_low_mask = num_vcs - 1
        for node in alloc_nodes:
            pend = pending[node]
            base = node * NUM_PORTS
            # ``Random.randrange(n)`` for a positive int is exactly one
            # ``_randbelow(n)`` call, so drawing through the cached
            # bound method keeps the stream bit-identical while
            # skipping the argument-validation preamble.
            randbelow = randbelows[node]
            # Contenders per output VC: stored as a bare ``(p, i)``
            # tuple for the overwhelmingly common single-contender
            # case, promoted to a list only on collision.
            selections: dict = {}
            for i in pend:
                entry = cache_reqs[i]
                if entry is None:
                    continue
                best_priority, cols, start, end = entry
                k = (
                    start
                    if end - start == 1
                    else start + randbelow(end - start)
                )
                key = cols[k]
                prev = selections.get(key)
                if prev is None:
                    selections[key] = (best_priority, i)
                elif type(prev) is list:
                    prev.append((best_priority, i))
                else:
                    selections[key] = [prev, (best_priority, i)]
            for key, contenders in selections.items():
                if type(contenders) is tuple:
                    winner = contenders[1]
                else:
                    top = -1
                    finalists = None
                    for p, i in contenders:
                        if p > top:
                            top = p
                            finalists = [i]
                        elif p == top:
                            finalists.append(i)
                    winner = (
                        finalists[0]
                        if len(finalists) == 1
                        else finalists[randbelow(len(finalists))]
                    )
                if vc_shift >= 0:
                    d = key >> vc_shift
                    v = key & vc_low_mask
                else:
                    d, v = divmod(key, num_vcs)
                g = base + d
                iflat = g * num_vcs + v
                # Allocate the output VC to the winner.
                dst = ivc_dst[winner]
                owner_b[iflat] = dst
                version_sum[node] += 1
                bits = fresh[g]
                if bits & (1 << v):
                    fresh[g] = bits & ~(1 << v)
                    fresh_b[iflat] = 0
                busy_b[iflat] = 1
                if v != esc_g[g]:
                    busy_count[g] += 1
                    fp = fp_counts[g]
                    fp[dst] = fp.get(dst, 0) + 1
                istate[winner] = _ACTIVE
                ready[winner] = 1
                out_flat[winner] = iflat
                committed[winner] = -1
                cache_reqs[winner] = None
                cache_key[winner] = -1
                del pend[winner]
            if sampling and pend:
                self._sample_blocked(node, pend)

        # Deferred fresh clears: the scalar engine clears a router's
        # fresh bits at the end of its own stage-4 turn; since requests
        # only read their own router's ports, batching every clear
        # after phase (c) observes the identical state.  Every port
        # with fresh bits belongs to an active node (releases happen in
        # stage 1 or last cycle's stage 5, both of which leave the node
        # active), so the whole-network scan clears exactly the ports
        # the scalar per-router turns would.
        cleared = np.flatnonzero(self._fresh_np.any(axis=1))
        if cleared.size:
            self._fresh_np[cleared] = False
            fresh = self._fresh
            for g in cleared.tolist():
                fresh[g] = 0
                version_sum[g // NUM_PORTS] += 1

    def _sample_blocked(self, node: int, pend: dict) -> None:
        blocking = self.sim.routers[node].blocking
        base = node * NUM_PORTS
        for i in pend:
            d = self._committed[i]
            if d < 0:
                continue
            g = base + d
            blocking.blocking_events += 1
            blocking.busy_vc_samples += self._busy_count[g]
            blocking.footprint_vc_samples += self._fp_counts[g].get(
                self._ivc_dst[i], 0
            )

    # ------------------------------------------------------------------
    # Stage 5: switch allocation / switch traversal
    # ------------------------------------------------------------------
    def _finish_tail(
        self, node: int, i: int, out: int, out_g: int, out_vc: int
    ) -> None:
        """Tail sent: release the output VC and recycle the input VC."""
        if self._atomic:
            # Keep the VC reserved (owner visible as a footprint) until
            # all credits return; the send just consumed one, so the
            # drain can never complete here.
            self._drain[out] = 1
        else:
            # Release the output VC.
            self._drain[out] = 0
            self._fresh[out_g] |= 1 << out_vc
            self._fresh_b[out] = 1
            self._busy_b[out] = 0
            # Owner deliberately left stale (fresh-footprint reclaim).
            self._version_sum[node] += 1
            if out_vc != self._esc_g[out_g]:
                self._busy_count[out_g] -= 1
                fp = self._fp_counts[out_g]
                dst = self._owner_b[out]
                left = fp[dst] - 1
                if left:
                    fp[dst] = left
                else:
                    del fp[dst]
        istate = self._istate
        istate[i] = _IDLE
        self._ready[i] = 0
        self._out_flat[i] = -1
        self._committed[i] = -1
        self._cache_reqs[i] = None
        self._cache_key[i] = -1
        if self._if_len[i]:
            # Next packet's head is already queued behind the tail —
            # straight back to ROUTING.
            istate[i] = _ROUTING
            token = int(self._if_buf[i, self._if_head[i]])
            packet = self._packets[token >> 2]
            self._ivc_dst[i] = packet.dst
            self._ivc_src[i] = packet.src
            self._pending[node][i] = None

    def _switch_node_scalar(self, node: int) -> bool:
        """Exact scalar SA/ST scan for one node (conflict fallback).

        Replays the per-port pointer scan against live state, consuming
        credits/accept capacity port by port — the semantics the
        batched snapshot cannot express when one output port is granted
        beyond its capacity in a single cycle.
        """
        num_vcs = self._num_vcs
        base = node * NUM_PORTS
        ready = self._ready
        out_flat = self._out_flat
        credits = self._credits_np
        accepted = self._accepted_np
        of_head = self._of_head
        of_len = self._of_len
        if_head = self._if_head
        if_len = self._if_len
        arb_ptr = self._arb_ptr_np
        esc_g = self._esc_g
        speedup = self._speedup
        ofifo_depth = self._ofifo_depth
        vc_depth = self._vc_depth
        credit_g = self._credit_g
        credits_next = self._credits_next
        progressed = False
        offset = int(self._sa_off_np[node])
        for d in self._port_rot[node][offset]:
            g = base + d
            i0 = g * num_vcs
            pointer = int(arb_ptr[g])
            winner = -1
            for k in range(num_vcs):
                v = pointer + k
                if v >= num_vcs:
                    v -= num_vcs
                i = i0 + v
                if not ready[i]:
                    continue
                out = out_flat[i]
                out_g = out // num_vcs
                if (
                    credits[out] > 0
                    and accepted[out_g] < speedup
                    and of_len[out_g] < ofifo_depth
                ):
                    winner = v
                    break
            if winner < 0:
                continue
            arb_ptr[g] = winner + 1 if winner + 1 < num_vcs else 0
            i = i0 + winner
            out = out_flat[i]
            out_g, out_vc = divmod(out, num_vcs)
            head = if_head[i]
            token = int(self._if_buf[i, head])
            head += 1
            if_head[i] = 0 if head == vc_depth else head
            left = if_len[i] - 1
            if_len[i] = left
            if not left:
                ready[i] = 0
            credits[out] -= 1
            if self._needs_adaptive_credits and out_vc != esc_g[out_g]:
                self._adaptive_credits_np[out_g] -= 1
            pos = of_head[out_g] + of_len[out_g]
            if pos >= ofifo_depth:
                pos -= ofifo_depth
            self._of_tok[out_g, pos] = token
            self._of_vc[out_g, pos] = out_vc
            of_len[out_g] += 1
            accepted[out_g] += 1
            if token & 1:
                self._finish_tail(node, i, out, out_g, out_vc)
            progressed = True
            upstream = credit_g[g]
            if upstream >= 0:
                credits_next.append((upstream, winner))
        return progressed

    def _stage_switch(self, active_arr) -> bool:
        inflight_v = self._inflight_v
        rot = active_arr[inflight_v[active_arr] > 0]
        if rot.size == 0:
            return False
        # Arbiter port-offset rotation: scalar routers rotate once per
        # cycle they are visited with flits in flight.
        sa_off = self._sa_off_np
        offsets = sa_off[rot] + 1
        offsets[offsets == self._nports_np[rot]] = 0
        sa_off[rot] = offsets

        ready2 = self._ready2
        if not ready2.any():
            return False
        num_vcs = self._num_vcs
        of_len = self._of_len
        ofifo_depth = self._ofifo_depth
        # accepted is uniformly zero here (speedup >= 1), so the accept
        # capacity reduces to free staging-fifo slots.
        port_open = of_len < ofifo_depth
        gs, vs = switch_grants(
            ready2,
            self._out_flat_v,
            self._credits_np,
            port_open,
            self._arb_ptr_np,
        )
        if gs.size == 0:
            return False
        iw = gs * num_vcs + vs
        out_w = self._out_flat_v[iw]
        out_gs = out_w // num_vcs

        # Conflict detection: the snapshot lets a multi-granted output
        # port exceed its accept capacity min(speedup, free fifo
        # slots); those nodes are replayed with the scalar scan.  All
        # switch state is node-local, so clean batch vs fallback
        # ordering is unobservable.
        group_size = np.bincount(out_gs, minlength=of_len.shape[0])
        capacity = np.minimum(self._speedup, ofifo_depth - of_len)
        bad_ports = np.flatnonzero(group_size > capacity)
        fallback_nodes: list[int] = []
        if bad_ports.size:
            bad_nodes = bad_ports // NUM_PORTS
            fallback_nodes = sorted(set(bad_nodes.tolist()))
            bad_mask = self._node_scratch
            bad_mask[bad_nodes] = True
            keep = ~bad_mask[gs // NUM_PORTS]
            bad_mask[bad_nodes] = False
            gs = gs[keep]
            vs = vs[keep]
            iw = iw[keep]
            out_w = out_w[keep]
            out_gs = out_gs[keep]

        progressed = False
        if gs.size:
            progressed = True
            # Apply clean grants in the scalar visit order — rotation
            # rank within each node — so same-port staging appends and
            # the upstream credit sequence are order-identical.
            node_w = gs // NUM_PORTS
            rank = (
                self._port_idx_np[gs] - sa_off[node_w]
            ) % self._nports_np[node_w]
            order = np.argsort(node_w * NUM_PORTS + rank)
            gs = gs[order]
            vs = vs[order]
            iw = iw[order]
            out_w = out_w[order]
            out_gs = out_gs[order]
            node_w = node_w[order]
            out_vs = out_w - out_gs * num_vcs
            # Input ring pops (winners are distinct input VCs).
            if_head = self._if_head_v
            if_len = self._if_len_v
            heads = if_head[iw]
            toks = self._if_buf[iw, heads]
            heads += 1
            heads[heads == self._vc_depth] = 0
            if_head[iw] = heads
            lens = if_len[iw] - 1
            if_len[iw] = lens
            self._ready_v[iw] = lens > 0
            # Credit spend (winners hold distinct output VCs) and
            # round-robin pointer advance.
            self._credits_np[out_w] -= 1
            if self._needs_adaptive_credits:
                non_escape = out_vs != self._esc_np[out_gs]
                adaptive_credits = self._adaptive_credits_np
                adaptive_credits -= np.bincount(
                    out_gs[non_escape], minlength=adaptive_credits.shape[0]
                )
            next_ptr = vs + 1
            next_ptr[next_ptr == num_vcs] = 0
            self._arb_ptr_np[gs] = next_ptr
            # Output staging appends.  Multi-grant ports (within
            # capacity) append in the rank order established above;
            # accepted counters are left at zero — nothing reads them
            # after this point (fallback nodes received no clean
            # grants: output ports always belong to the input's node).
            pos = self._of_head[out_gs] + of_len[out_gs]
            if (group_size[out_gs] > 1).any():
                out_gs_l = out_gs.tolist()
                pos_l = pos.tolist()
                seen: dict[int, int] = {}
                for j, go in enumerate(out_gs_l):
                    occupied = seen.get(go, 0)
                    if occupied:
                        pos_l[j] += occupied
                    seen[go] = occupied + 1
                pos = np.asarray(pos_l, dtype=np.int64)
            pos[pos >= ofifo_depth] -= ofifo_depth
            self._of_tok[out_gs, pos] = toks
            self._of_vc[out_gs, pos] = out_vs
            if fallback_nodes:
                of_len += np.bincount(out_gs, minlength=of_len.shape[0])
            else:
                # No winners were dropped, so the pre-filter per-port
                # grant counts are exactly the staging increments.
                of_len += group_size
            # Upstream credit returns, batched for next cycle's stage 1.
            upstream = self._credit_g_np[gs]
            has_link = upstream >= 0
            if has_link.any():
                self._credit_chunks.append(
                    (upstream[has_link], vs[has_link])
                )
            # Tail flits need the scalar release transition.
            tails = np.flatnonzero(toks & 1)
            if tails.size:
                if tails.size == toks.shape[0]:
                    # Single-flit packets: every grant carries a tail —
                    # _finish_tail inlined with hoisted locals.
                    atomic = self._atomic
                    drain = self._drain
                    istate = self._istate
                    ready = self._ready
                    out_flat = self._out_flat
                    committed = self._committed
                    cache_reqs = self._cache_reqs
                    cache_key = self._cache_key
                    if_len_a = self._if_len
                    if_head_a = self._if_head
                    if_buf = self._if_buf
                    packets = self._packets
                    ivc_dst = self._ivc_dst
                    ivc_src = self._ivc_src
                    pending = self._pending
                    fresh = self._fresh
                    fresh_b = self._fresh_b
                    busy_b = self._busy_b
                    owner_b = self._owner_b
                    version_sum = self._version_sum
                    esc_g = self._esc_g
                    busy_count = self._busy_count
                    fp_counts = self._fp_counts
                    for nd, ii, oo, og, ov in zip(
                        node_w.tolist(),
                        iw.tolist(),
                        out_w.tolist(),
                        out_gs.tolist(),
                        out_vs.tolist(),
                    ):
                        if atomic:
                            drain[oo] = 1
                        else:
                            drain[oo] = 0
                            fresh[og] |= 1 << ov
                            fresh_b[oo] = 1
                            busy_b[oo] = 0
                            version_sum[nd] += 1
                            if ov != esc_g[og]:
                                busy_count[og] -= 1
                                fp = fp_counts[og]
                                pdst = owner_b[oo]
                                left = fp[pdst] - 1
                                if left:
                                    fp[pdst] = left
                                else:
                                    del fp[pdst]
                        istate[ii] = _IDLE
                        ready[ii] = 0
                        out_flat[ii] = -1
                        committed[ii] = -1
                        cache_reqs[ii] = None
                        cache_key[ii] = -1
                        if if_len_a[ii]:
                            istate[ii] = _ROUTING
                            token = int(if_buf[ii, if_head_a[ii]])
                            packet = packets[token >> 2]
                            ivc_dst[ii] = packet.dst
                            ivc_src[ii] = packet.src
                            pending[nd][ii] = None
                else:
                    node_l = node_w.tolist()
                    iw_l = iw.tolist()
                    out_l = out_w.tolist()
                    out_g_l = out_gs.tolist()
                    out_v_l = out_vs.tolist()
                    for j in tails.tolist():
                        self._finish_tail(
                            node_l[j],
                            iw_l[j],
                            out_l[j],
                            out_g_l[j],
                            out_v_l[j],
                        )
        if fallback_nodes:
            # The scalar scan consumes per-port accept capacity through
            # ``_accepted_np``; reset just the replayed nodes' slots
            # (nothing else reads the array).
            accepted = self._accepted_np
            for node in fallback_nodes:
                base = node * NUM_PORTS
                accepted[base : base + NUM_PORTS] = 0
                if self._switch_node_scalar(node):
                    progressed = True
        return progressed

    # ------------------------------------------------------------------
    # Stage 6: traffic generation and injection
    # ------------------------------------------------------------------
    def _inject(self, node: int, cycle: int) -> bool:
        flits = self._src_flits[node]
        num_vcs = self._num_vcs
        g = node * NUM_PORTS + _LOCAL
        if flits is None:
            queue = self._src_queue[node]
            if not queue:
                return False
            vc = -1
            rr = self._src_rr[node]
            istate = self._istate
            if_len = self._if_len
            for offset in range(num_vcs):
                v = rr + offset
                if v >= num_vcs:
                    v -= num_vcs
                i = g * num_vcs + v
                if istate[i] == _IDLE and not if_len[i]:
                    self._src_rr[node] = v + 1 if v + 1 < num_vcs else 0
                    vc = v
                    break
            if vc < 0:
                return False
            packet = queue.popleft()
            packet.injection_time = cycle
            pid = len(self._packets)
            self._packets.append(packet)
            size = packet.size
            head = (pid << 2) | 2
            if size == 1:
                flits = [head | 1]
            else:
                flits = [head] + [pid << 2] * (size - 2) + [(pid << 2) | 1]
            self._src_flits[node] = flits
            self._src_vc[node] = vc
        vc = self._src_vc[node]
        if self._if_len[g * num_vcs + vc] >= self._vc_depth:
            return False
        token = flits.pop(0)
        self._src_pending[node] -= 1
        self._receive_flit_local(node, vc, token)
        if not flits:
            self._src_flits[node] = None
        return True

    def _stage_traffic(self, cycle: int) -> bool:
        sim = self.sim
        in_window = sim._in_window(cycle)
        src_queue = self._src_queue
        src_pending = self._src_pending
        for packet in self.traffic.generate(cycle, in_window):
            if packet.measured:
                sim.measured_created += 1
            if in_window:
                sim.window_offered_flits += packet.size
            src_queue[packet.src].append(packet)
            src_pending[packet.src] += packet.size
            sim._source_backlog += packet.size
        progressed = False
        if sim._source_backlog:
            # Source scan as an array compare: only nodes with queued
            # flits are visited, in the scalar ascending-node order.
            for node in np.flatnonzero(self._src_pending_v).tolist():
                if self._inject(node, cycle):
                    sim._flits_in_network += 1
                    sim._source_backlog -= 1
                    progressed = True
        return progressed

    # ------------------------------------------------------------------
    # One simulated cycle
    # ------------------------------------------------------------------
    #: ``(json_key, method_name)`` of each pipeline stage, in step()
    #: order — the hook points for :meth:`enable_stage_times`.
    STAGE_METHODS = (
        ("arrivals", "_stage_arrivals"),
        ("sink", "_stage_sink"),
        ("link", "_stage_link"),
        ("route_alloc", "_route_and_allocate"),
        ("switch", "_stage_switch"),
        ("traffic", "_stage_traffic"),
    )

    def enable_stage_times(self) -> "dict[str, float]":
        """Wrap each stage method with a wall-time accumulator.

        Returns the live ``{stage: seconds}`` dict (updated in place as
        the simulation runs).  Adds two timer calls per stage per cycle,
        so it is off by default and only enabled through
        ``Simulator.collect_stage_times``.
        """
        from time import perf_counter

        times: dict[str, float] = {}
        for key, method_name in self.STAGE_METHODS:
            times[key] = 0.0
            inner = getattr(self, method_name)

            def timed(*args, _inner=inner, _key=key, **kwargs):
                t0 = perf_counter()
                result = _inner(*args, **kwargs)
                times[_key] += perf_counter() - t0
                return result

            setattr(self, method_name, timed)
        self.stage_times = times
        return times

    def step(self) -> None:
        sim = self.sim
        cycle = sim.cycle

        # 1. Arrivals from the previous cycle's link traversals.
        self._stage_arrivals()

        active_arr = np.flatnonzero(
            (self._inflight_v > 0) | self._credit_pending_v
        )
        active = active_arr.tolist()

        # 2. Sink drain at the ejection bandwidth.
        progressed = self._stage_sink(cycle)

        # 3. Link traversal: one flit per output port onto its link.
        if self._stage_link():
            progressed = True

        # 4. Route computation + VC allocation (batched; see above).
        self._route_and_allocate(active, active_arr)

        # 5. Switch allocation/traversal; upstream credit returns.
        if self._stage_switch(active_arr):
            progressed = True

        # 6. Traffic generation and injection.
        if self._stage_traffic(cycle):
            progressed = True

        sim._watchdog(progressed, cycle)
        sim.cycle = cycle + 1

    def links_busy(self) -> bool:
        """Whether a flit, credit or sink delivery is still in the
        one-cycle link pipelines (the stepper's part of the idle-skip
        quiescence check)."""
        return bool(
            self._flits_arr is not None
            or self._credit_chunks
            or self._credits_next
            or self._sink_next
        )
