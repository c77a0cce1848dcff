"""Runtime fault state: the engine-facing half of the fault subsystem.

The :class:`FaultManager` turns a declarative
:class:`~repro.faults.schedule.FaultSchedule` into per-cycle queries the
simulation engine can afford in its hot loop:

* ``router_dead[node]`` — list of booleans, True while a router fault is
  active at ``node``;
* ``blocked_out[node]`` — per-node bitmask of output directions whose
  link must not launch flits this cycle (bit ``d`` set iff a link fault
  on ``(node, d)`` is active, or the downstream neighbor router is dead);
* ``credit_blocked(node, direction)`` — whether a credit arriving at
  ``node`` from ``direction`` must be held instead of delivered (the
  reverse wire of a faulted link, or any wire into a dead router).

State changes are precomputed as a sorted transition list (activation
and heal cycles), consumed monotonically by :meth:`advance_to`.  Heals
release held credits back to the engine in arrival order, preserving
bit-identical behavior across the ``legacy`` and ``skip`` engine modes;
:meth:`next_transition_cycle` lets the idle-skip lookahead clamp its
jump target so no transition cycle is skipped over.
"""

from __future__ import annotations

from repro.faults.schedule import KIND_LINK, FaultEvent, FaultSchedule
from repro.topology.base import Topology
from repro.topology.ports import Direction

_DEACTIVATE = 0
_ACTIVATE = 1


class FaultManager:
    """Tracks which links/routers are dead at the current cycle.

    Faults may overlap (two transient faults on the same link, a router
    fault shadowing link faults at the same node); the manager keeps
    reference counts so a component is live only when *no* covering fault
    is active.
    """

    def __init__(self, schedule: FaultSchedule, mesh: Topology) -> None:
        schedule.validate_for(mesh.width, mesh.height, topology=mesh.name)
        self.mesh = mesh
        self.schedule = schedule

        # (cycle, phase, seq, delta, event); phase orders heals before
        # activations at the same cycle so a zero-gap re-fault stays down.
        transitions: list[tuple[int, int, int, int, FaultEvent]] = []
        for seq, event in enumerate(schedule.events):
            transitions.append((event.cycle, _ACTIVATE, seq, +1, event))
            if event.end_cycle is not None:
                transitions.append((event.end_cycle, _DEACTIVATE, seq, -1, event))
        transitions.sort(key=lambda t: (t[0], t[1], t[2]))
        self._transitions = transitions
        self._idx = 0

        num_nodes = mesh.num_nodes
        self._link_count: dict[tuple[int, Direction], int] = {}
        self._router_count = [0] * num_nodes
        self.router_dead = [False] * num_nodes
        self.blocked_out = [0] * num_nodes
        # Held credits in arrival order: (node, direction, vc).
        self._held: list[tuple[int, Direction, int]] = []

    # ------------------------------------------------------------------
    # Transition processing
    # ------------------------------------------------------------------
    def pending_at(self, cycle: int) -> bool:
        """True if a transition at or before ``cycle`` is unprocessed."""
        idx = self._idx
        return idx < len(self._transitions) and self._transitions[idx][0] <= cycle

    def has_pending_transitions(self) -> bool:
        """True if any future activation/heal remains (for the watchdog)."""
        return self._idx < len(self._transitions)

    def next_transition_cycle(self) -> int | None:
        """Cycle of the next unprocessed transition, or ``None``."""
        if self._idx >= len(self._transitions):
            return None
        return self._transitions[self._idx][0]

    def advance_to(self, cycle: int) -> tuple[list[int], list[tuple[int, Direction, int]]]:
        """Apply all transitions due at or before ``cycle``.

        Returns ``(changed_nodes, released_credits)``: nodes whose
        ``blocked_out`` mask (or death state) may have changed and must
        be pushed to their routers, and held credits that are now
        deliverable (in original arrival order) following a heal.
        """
        transitions = self._transitions
        idx = self._idx
        affected: set[int] = set()
        healed = False
        while idx < len(transitions) and transitions[idx][0] <= cycle:
            _, _, _, delta, event = transitions[idx]
            idx += 1
            if delta < 0:
                healed = True
            if event.kind == KIND_LINK:
                key = (event.node, event.direction)
                count = self._link_count.get(key, 0) + delta
                if count:
                    self._link_count[key] = count
                else:
                    self._link_count.pop(key, None)
                affected.add(event.node)
            else:
                node = event.node
                self._router_count[node] += delta
                self.router_dead[node] = self._router_count[node] > 0
                affected.add(node)
                # A dead router blocks every inbound link's launch, so
                # all neighbors' masks change too.
                for direction in Direction:
                    if direction is Direction.LOCAL:
                        continue
                    nbr = self.mesh.neighbor(node, direction)
                    if nbr is not None:
                        affected.add(nbr)
        self._idx = idx

        for node in affected:
            self.blocked_out[node] = self._compute_mask(node)

        released: list[tuple[int, Direction, int]] = []
        if healed and self._held:
            still_held: list[tuple[int, Direction, int]] = []
            for entry in self._held:
                node, direction, _vc = entry
                if self.credit_blocked(node, direction):
                    still_held.append(entry)
                else:
                    released.append(entry)
            self._held = still_held
        return sorted(affected), released

    def _compute_mask(self, node: int) -> int:
        mask = 0
        for direction in Direction:
            if direction is Direction.LOCAL:
                continue
            nbr = self.mesh.neighbor(node, direction)
            if nbr is None:
                continue
            if self._link_count.get((node, direction), 0) or self.router_dead[nbr]:
                mask |= 1 << direction
        return mask

    # ------------------------------------------------------------------
    # Credit gating
    # ------------------------------------------------------------------
    def credit_blocked(self, node: int, direction: Direction) -> bool:
        """Whether a credit arriving at ``node`` via ``direction`` is blocked.

        ``direction`` is the input port the credit arrives on — the
        reverse wire of the data link ``(node, direction)``.  A link
        fault severs both wires of its channel; a dead router can neither
        receive nor process credits.
        """
        if self.router_dead[node]:
            return True
        return (
            direction is not Direction.LOCAL
            and self._link_count.get((node, direction), 0) > 0
        )

    def hold_credit(self, node: int, direction: Direction, vc: int) -> None:
        """Park a blocked credit until a heal makes its wire live again."""
        self._held.append((node, direction, vc))

    @property
    def held_credits(self) -> int:
        return len(self._held)

    # ------------------------------------------------------------------
    # Validation hooks (repro.validate)
    # ------------------------------------------------------------------
    def held_snapshot(self) -> list[tuple[int, Direction, int]]:
        """Copy of the held credits, keyed like ``credit_blocked``:
        (receiving node, its output direction, VC)."""
        return list(self._held)

    def mask_violation(self) -> str | None:
        """First node whose cached masks disagree with a recount, or
        ``None``."""
        for node in range(self.mesh.num_nodes):
            if self.router_dead[node] != (self._router_count[node] > 0):
                return (
                    f"node {node} death flag disagrees with its fault "
                    f"reference count {self._router_count[node]}"
                )
            expected = self._compute_mask(node)
            if self.blocked_out[node] != expected:
                return (
                    f"node {node} blocked-port mask "
                    f"{self.blocked_out[node]:#x} != recomputed "
                    f"{expected:#x}"
                )
        return None

    def describe(self) -> str:
        dead_routers = [n for n, dead in enumerate(self.router_dead) if dead]
        dead_links = sorted(
            (node, direction.name) for (node, direction) in self._link_count
        )
        return (
            f"dead routers: {dead_routers or 'none'}; "
            f"dead links: {dead_links or 'none'}; "
            f"held credits: {len(self._held)}; "
            f"pending transitions: {len(self._transitions) - self._idx}"
        )
