"""DBAR-style minimal fully-adaptive routing (Ma et al., ISCA 2011).

DBAR ("Destination-Based Adaptive Routing") is the fully-adaptive baseline
of the paper.  Its defining property, as the paper characterizes it
(Table 1), is high *port* adaptiveness with *oblivious* VC selection: the
port decision uses congestion information, but all adaptive VCs are then
requested indiscriminately.

Reproduction note: the original DBAR aggregates buffer-occupancy hints
from routers along each dimension within the destination's interval.  The
paper obtained the authors' code; we do not have it, so we implement the
port selection at the fidelity the paper describes for its configuration:
"the threshold to predict congestion is half of the number of VCs per
physical channel" — each candidate port is classified congested or
uncongested by comparing its idle-VC count with that threshold, an
uncongested port is preferred, and remaining ties break randomly
(:class:`DbarRouting`).

:class:`DbarFineRouting` (registry name ``dbar-fine``) is a deliberately
stronger local-greedy variant that breaks ties by exact free downstream
credit totals; it is used by the ablation benchmarks as an upper bound on
what local congestion information can buy a footprint-oblivious router.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.routing.base import RouteContext
from repro.routing.duato import DuatoAdaptiveRouting
from repro.routing.requests import VcRequest
from repro.topology.ports import Direction


class DbarRouting(DuatoAdaptiveRouting):
    """Minimal fully-adaptive routing with threshold-based congestion-aware
    port selection and oblivious (unprioritized) VC selection."""

    name = "dbar"

    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        outputs = ctx.outputs
        threshold = ctx.congestion_threshold
        # An uncongested port beats a congested one; ties keep order.
        best, tied = -1, []
        for d in candidates:
            view = outputs[d]
            uncongested = (view.free & view.adaptive).bit_count() >= threshold
            if uncongested > best:
                best, tied = uncongested, [d]
            elif uncongested == best:
                tied.append(d)
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]

    def vc_requests(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        # Oblivious VC selection: any free adaptive VC, flat priority.
        return self.idle_requests(ctx, direction)


class DbarFineRouting(DbarRouting):
    """DBAR with exact credit-count port selection (ablation baseline)."""

    name = "dbar-fine"

    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        outputs = ctx.outputs
        threshold = ctx.congestion_threshold
        best, tied = (-1,), []
        for d in candidates:
            view = outputs[d]
            idle = (view.free & view.adaptive).bit_count()
            score = (idle >= threshold, view.free_credit_total(), idle)
            if score > best:
                best, tied = score, [d]
            elif score == best:
                tied.append(d)
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]
