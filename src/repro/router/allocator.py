"""Priority-based VC allocation.

The paper's router uses a priority-based VC allocator (Table 2): routing
produces VC requests tagged with the Algorithm-1 priorities, and the
allocator grants each *free* downstream VC to its highest-priority
requester.  Requests targeting busy VCs simply do not match this cycle —
they are the "wait on footprint channel" requests and are recomputed every
cycle until the VC frees.

The allocator is separable, input-first:

1. every requesting input VC picks its best *grantable* request — highest
   priority first, random tie-break (so competing inputs don't all pile
   onto the same VC, which the paper notes Footprint's prioritization
   already de-correlates);
2. every downstream VC picks the highest-priority input VC that selected
   it, with round-robin fairness among equals.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.exceptions import InvariantViolation
from repro.router.output import OutputPort
from repro.router.vcstate import InputVc, VcState
from repro.routing.requests import Priority, VcRequest, bits
from repro.topology.ports import Direction


class VaGrant(NamedTuple):
    """One VC-allocation grant.  :func:`allocate_vcs` emits the bare
    ``(input_vc, direction, out_vc, priority)`` tuple; this is that
    shape with names (:func:`verify_grants`, tests)."""

    input_vc: InputVc
    direction: Direction
    out_vc: int
    priority: Priority


def allocate_vcs(
    requests: list[tuple[InputVc, list[VcRequest]]],
    outputs: dict[Direction, OutputPort],
    rng: random.Random,
) -> list[VaGrant]:
    """Run one cycle of separable, priority-based VC allocation.

    Parameters
    ----------
    requests:
        ``(input_vc, its VC requests)`` pairs for every input VC in the
        ROUTING state this cycle.
    outputs:
        The router's output ports, providing ``grantable`` state.
    rng:
        Deterministic stream for tie-breaking.

    Returns
    -------
    Grants; the caller applies them to input VCs and output ports.
    """
    # Stage 1: each input VC selects its single best grantable VC.
    # Single pass per input VC: a request record is filtered for
    # grantability (one AND with the port's free mask) only if it can
    # still tie or beat the best priority seen so far, and the records
    # tied at the best priority are kept in request order.  A draw k
    # then names the k-th set bit, walking pooled records in order —
    # the same candidates in the same (ascending-VC) order, hence the
    # same rng consumption, as filtering per-VC request lists.
    alone = len(requests) == 1
    selections: dict[
        tuple[Direction, int], list[tuple[Priority, InputVc]]
    ] = {}
    for input_vc, reqs in requests:
        best_priority = -1
        best: list[tuple[Direction, int]] = []
        for direction, mask, priority in reqs:
            if priority < best_priority:
                continue
            live = mask & outputs[direction].free
            if not live:
                continue
            if priority > best_priority:
                best_priority = priority
                best = [(direction, live)]
            else:
                best.append((direction, live))
        if not best:
            continue
        if len(best) == 1:
            direction, live = best[0]
            if not live & (live - 1):
                vc = live.bit_length() - 1  # one candidate: no draw
            else:
                vcs = bits(live)
                vc = vcs[rng.randrange(len(vcs))]
        else:
            # Equal-priority records (on any ports) pool their VCs.
            pooled = [(d, v) for d, live in best for v in bits(live)]
            direction, vc = pooled[rng.randrange(len(pooled))]
        if alone:
            # The only waiting head contends with nobody: stage 2 would
            # hand its pick straight back.
            return [(input_vc, direction, vc, best_priority)]
        key = (direction, vc)
        if key in selections:
            selections[key].append((best_priority, input_vc))
        else:
            selections[key] = [(best_priority, input_vc)]

    # Stage 2: each downstream VC grants its best selecting input.
    grants: list[VaGrant] = []
    for (direction, vc), contenders in selections.items():
        if len(contenders) == 1:
            top, winner = contenders[0]
            grants.append((winner, direction, vc, top))
            continue
        top = -1
        finalists: list[InputVc] = []
        for p, ivc in contenders:
            if p > top:
                top = p
                finalists = [ivc]
            elif p == top:
                finalists.append(ivc)
        winner = (
            finalists[0]
            if len(finalists) == 1
            else finalists[rng.randrange(len(finalists))]
        )
        grants.append((winner, direction, vc, top))
    return grants


def verify_grants(
    grants: list[VaGrant],
    outputs: dict[Direction, OutputPort],
    node: int | None = None,
) -> None:
    """Check one allocation round's grants before they are applied.

    Called by the router (``node``) when :mod:`repro.validate` runs the
    ``vc_states`` checker: every grant must target a distinct, currently
    grantable downstream VC and go to an input VC still in the ROUTING
    state (the ROUTING -> VA -> ACTIVE ordering).  Raises
    :class:`~repro.exceptions.InvariantViolation` otherwise.
    """
    granted: set[tuple[Direction, int]] = set()
    for input_vc, direction, out_vc, _priority in grants:
        key = (direction, out_vc)
        if key in granted:
            raise InvariantViolation(
                "vc_allocation",
                "downstream VC granted to two input VCs in one round",
                node=node,
                direction=direction,
                vc=out_vc,
            )
        granted.add(key)
        if input_vc.state is not VcState.ROUTING:
            raise InvariantViolation(
                "vc_allocation",
                f"grant to an input VC in the "
                f"{input_vc.state.value} state, expected routing",
                node=node,
                direction=direction,
                vc=out_vc,
            )
        if not outputs[direction].grantable(out_vc):
            raise InvariantViolation(
                "vc_allocation",
                "grant targets a busy downstream VC",
                node=node,
                direction=direction,
                vc=out_vc,
            )
