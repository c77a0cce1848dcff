"""Exact multi-objective dominance, frontiers, and candidate ranking.

All comparisons run over *minimized* objective vectors (the maximized
saturation throughput is negated by :meth:`CandidateEval.vector`), so
dominance is the plain componentwise order.  The frontier routine is
sort-based — one lexicographic sort, then a single pass checking each
point only against the frontier accumulated so far.  This is correct
because if ``d`` dominates ``x`` then ``d`` precedes ``x``
lexicographically, and dominance is transitive, so any dominator of
``x`` is represented on the frontier by the time ``x`` is examined.
The property suite checks this implementation against brute-force
pairwise dominance filtering.
"""

from __future__ import annotations

from typing import Sequence

from repro.tuner.objectives import CandidateEval


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether minimized vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one.  Equal vectors do not dominate
    each other.
    """
    no_worse = all(x <= y for x, y in zip(a, b))
    return no_worse and any(x < y for x, y in zip(a, b))


def pareto_indices(vectors: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated points, in input order.

    Sort-based single pass (see module docstring); duplicates of a
    frontier point are all kept — a point only falls when some *other*
    point is strictly better somewhere and no worse everywhere.
    """
    order = sorted(range(len(vectors)), key=lambda i: tuple(vectors[i]))
    frontier: list[int] = []
    for i in order:
        if not any(dominates(vectors[j], vectors[i]) for j in frontier):
            frontier.append(i)
    return sorted(frontier)


def pareto_frontier(evals: Sequence[CandidateEval]) -> list[CandidateEval]:
    """The non-dominated subset of ``evals``, in input order."""
    return [evals[i] for i in pareto_indices([e.vector() for e in evals])]


def rank_evals(evals: Sequence[CandidateEval]) -> list[CandidateEval]:
    """All evals ordered best-first, deterministically.

    Non-dominated sorting: peel successive Pareto layers; within a
    layer, order by the minimized objective vector itself (objective
    order = priority order, so latency leads) with the candidate key
    as the final tie-break.  The result is a total order that depends
    only on the evals' values — never on arrival order — which is what
    lets successive halving promote identical survivors at any worker
    count.
    """
    remaining = list(range(len(evals)))
    vectors = [e.vector() for e in evals]
    ordered: list[int] = []
    while remaining:
        layer = [
            remaining[k]
            for k in pareto_indices([vectors[i] for i in remaining])
        ]
        layer.sort(
            key=lambda i: (tuple(vectors[i]), evals[i].candidate.key())
        )
        ordered.extend(layer)
        in_layer = set(layer)
        remaining = [i for i in remaining if i not in in_layer]
    return [evals[i] for i in ordered]
