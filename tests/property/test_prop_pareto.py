"""Property tests: the sort-based Pareto frontier is exactly brute force.

:func:`repro.tuner.pareto.pareto_indices` uses a lexicographic-sort
single pass; the reference implementation here is the O(n^2) pairwise
dominance filter straight from the definition.  They must agree on any
objective set — including duplicates, ties, negative values, and
mixed-direction objectives mapped through ``CandidateEval.vector``.
"""

from hypothesis import given, strategies as st

from repro.tuner.objectives import CandidateEval
from repro.tuner.pareto import (
    dominates,
    pareto_frontier,
    pareto_indices,
    rank_evals,
)
from repro.tuner.space import Candidate

# Small value pool on purpose: collisions and ties are the hard cases.
values = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(
        min_value=-10.0,
        max_value=10.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)


def vector_lists(dims):
    return st.lists(
        st.tuples(*[values] * dims), min_size=0, max_size=40
    )


def brute_force_indices(vectors):
    return [
        i
        for i, v in enumerate(vectors)
        if not any(
            dominates(w, v) for j, w in enumerate(vectors) if j != i
        )
    ]


@given(vector_lists(2))
def test_frontier_matches_brute_force_2d(vectors):
    assert pareto_indices(vectors) == brute_force_indices(vectors)


@given(vector_lists(3))
def test_frontier_matches_brute_force_3d(vectors):
    assert pareto_indices(vectors) == brute_force_indices(vectors)


@given(vector_lists(1))
def test_frontier_matches_brute_force_1d(vectors):
    assert pareto_indices(vectors) == brute_force_indices(vectors)


@given(vector_lists(3))
def test_frontier_members_are_mutually_non_dominated(vectors):
    frontier = pareto_indices(vectors)
    for i in frontier:
        for j in frontier:
            assert not dominates(vectors[i], vectors[j])


@given(vector_lists(3))
def test_non_frontier_points_have_a_dominator_on_the_frontier(vectors):
    frontier = set(pareto_indices(vectors))
    for i, v in enumerate(vectors):
        if i in frontier:
            continue
        assert any(dominates(vectors[j], v) for j in frontier)


def _evals_from(vectors):
    return [
        CandidateEval(
            candidate=Candidate((("i", index),)),
            rung="full",
            avg_latency=latency,
            saturation_throughput=-throughput,  # maximized → negate back
            cost_bits=cost,
        )
        for index, (latency, throughput, cost) in enumerate(vectors)
    ]


@given(vector_lists(3))
def test_eval_frontier_agrees_with_vector_frontier(vectors):
    evals = _evals_from(vectors)
    by_vectors = [evals[i] for i in brute_force_indices(vectors)]
    assert pareto_frontier(evals) == by_vectors


@given(vector_lists(3), st.randoms(use_true_random=False))
def test_rank_is_permutation_invariant(vectors, rng):
    evals = _evals_from(vectors)
    shuffled = list(evals)
    rng.shuffle(shuffled)
    original = [e.candidate.key() for e in rank_evals(evals)]
    permuted = [e.candidate.key() for e in rank_evals(shuffled)]
    assert original == permuted
    assert sorted(original) == sorted(e.candidate.key() for e in evals)
