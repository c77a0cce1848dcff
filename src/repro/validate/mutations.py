"""Seeded state corruptions that prove the invariant checkers fire.

A checker that silently stops firing is worse than no checker, so every
checker has a mutation: a deliberate, deterministic corruption of one
piece of live simulator state that must trip exactly that checker.  The
self-test (``repro validate --self-test`` and the unit tests) runs each
mutation with *only* its paired checker enabled and asserts the run dies
with an :class:`~repro.exceptions.InvariantViolation` naming it.

Mutations are configured via :class:`ValidationConfig` (``mutate`` /
``mutate_cycle`` / ``mutate_seed``) and applied by the checker's
``end_cycle`` hook *before* that cycle's checks.  A mutation whose
target state does not exist yet (e.g. no multi-flit packet buffered)
retries every cycle; candidates are collected in deterministic sweep
order and the seeded RNG picks one, so a given (config, seed) always
corrupts the same state.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.router.vcstate import VcState
from repro.topology.ports import Direction
from repro.validate.config import MUTATION_CHECKERS

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class Mutator:
    """Applies one configured corruption to a live simulator."""

    def __init__(self, kind: str, cycle: int, seed: int) -> None:
        if kind not in MUTATION_CHECKERS:
            raise ValueError(f"unknown mutation kind {kind!r}")
        self.kind = kind
        self.cycle = cycle
        self.rng = random.Random(seed)
        self.applied = False
        #: Human-readable record of what was corrupted (for tests/logs).
        self.description: str | None = None

    def maybe_apply(self, sim: "Simulator", cycle: int) -> bool:
        """Apply the corruption if its target state exists this cycle."""
        if self.applied or cycle < self.cycle:
            return False
        description = getattr(self, f"_apply_{self.kind}")(sim)
        if description is None:
            return False
        self.applied = True
        self.description = f"cycle {cycle}: {description}"
        return True

    # ------------------------------------------------------------------
    # One corruption per checker
    # ------------------------------------------------------------------
    def _apply_flit_count(self, sim: "Simulator") -> str | None:
        """Skew the engine's incremental in-network flit counter."""
        sim._flits_in_network += 1
        return "incremented _flits_in_network by 1"

    def _apply_credit(self, sim: "Simulator") -> str | None:
        """Drop one free credit, as if a credit return was lost."""
        candidates = []
        for router in sim.routers:
            for direction, port in router.output_ports.items():
                for vc in range(port.num_vcs):
                    if port.credits[vc] > 0:
                        candidates.append((router.node, direction, port, vc))
        if not candidates:
            return None
        node, direction, port, vc = self._pick(candidates)
        port.credits[vc] -= 1
        if vc != port.escape_vc:
            # Keep the port-internal adaptive-credit cache coherent so
            # only the *link-level* accounting checker can catch this.
            port._adaptive_credits -= 1
        return f"dropped one credit on node {node} {direction.name} VC {vc}"

    def _apply_vc_state(self, sim: "Simulator") -> str | None:
        """Force an occupied input VC back to IDLE (illegal transition)."""
        candidates = []
        for router in sim.routers:
            for direction, vcs in router.input_vcs.items():
                for ivc in vcs:
                    if ivc.fifo and ivc.state is not VcState.IDLE:
                        candidates.append((router.node, direction, ivc))
        if not candidates:
            return None
        node, direction, ivc = self._pick(candidates)
        ivc.state = VcState.IDLE
        return (
            f"forced occupied VC {direction.name}.{ivc.index} on node "
            f"{node} to IDLE"
        )

    def _apply_free_mask(self, sim: "Simulator") -> str | None:
        """Withhold a free downstream VC without allocating it."""
        candidates = [
            (router.node, direction, port)
            for router in sim.routers
            for direction, port in router.output_ports.items()
            if port.free
        ]
        if not candidates:
            return None
        node, direction, port = self._pick(candidates)
        low = port.free & -port.free
        port.free ^= low
        return (
            f"cleared free bit of node {node} {direction.name} VC "
            f"{low.bit_length() - 1} without allocating it"
        )

    def _apply_wormhole(self, sim: "Simulator") -> str | None:
        """Swap two flits of one packet inside a VC FIFO (order break)."""
        candidates = []
        for router in sim.routers:
            for direction, vcs in router.input_vcs.items():
                for ivc in vcs:
                    fifo = ivc.fifo
                    if len(fifo) >= 2 and fifo[0].packet is fifo[1].packet:
                        candidates.append((router.node, direction, ivc))
        if not candidates:
            return None
        node, direction, ivc = self._pick(candidates)
        ivc.fifo[0], ivc.fifo[1] = ivc.fifo[1], ivc.fifo[0]
        return (
            f"swapped the front two flits of VC {direction.name}."
            f"{ivc.index} on node {node}"
        )

    def _apply_routing(self, sim: "Simulator") -> str | None:
        """Point an ACTIVE VC's output register at a disallowed port."""
        mesh = sim.mesh
        routing = sim.routing
        candidates = []
        for router in sim.routers:
            for direction, vcs in router.input_vcs.items():
                for ivc in vcs:
                    if ivc.state is not VcState.ACTIVE or not ivc.fifo:
                        continue
                    head = ivc.fifo[0]
                    allowed = set(
                        routing.allowed_directions(
                            mesh, router.node, head.dst, head.src
                        )
                    )
                    allowed.add(Direction.LOCAL)
                    illegal = [
                        d
                        for d in router.output_ports
                        if d not in allowed and d is not ivc.out_direction
                    ]
                    if illegal:
                        candidates.append(
                            (router.node, direction, ivc, illegal)
                        )
        if not candidates:
            return None
        node, direction, ivc, illegal = self._pick(candidates)
        target = illegal[self.rng.randrange(len(illegal))]
        ivc.out_direction = target
        return (
            f"re-pointed ACTIVE VC {direction.name}.{ivc.index} on node "
            f"{node} at disallowed port {target.name}"
        )

    def _pick(self, candidates: list):
        return candidates[self.rng.randrange(len(candidates))]
