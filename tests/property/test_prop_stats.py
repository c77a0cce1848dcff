"""Property-based tests for statistics and traffic invariants."""

import math
import random

from hypothesis import given, strategies as st

from repro.metrics.stats import LatencyStats
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import PATTERNS, pattern_destination

samples = st.lists(st.integers(0, 10_000), min_size=1, max_size=500)
maybe_empty = st.lists(st.integers(0, 10_000), max_size=500)


def aggregates(stats):
    """Every observable aggregate, for whole-object comparison.

    ``stddev`` sums floats in sample order, so two accumulators compare
    bit-identical here only when their samples arrived in the same order.
    """
    if stats.count == 0:
        return (0,)
    pcts = tuple(stats.percentile(q) for q in (0, 25, 50, 75, 90, 99, 100))
    return (
        stats.count,
        stats.mean,
        stats.stddev,
        stats.minimum,
        stats.maximum,
        pcts,
    )


@given(samples)
def test_mean_within_bounds(values):
    stats = LatencyStats()
    stats.extend(values)
    assert stats.minimum <= stats.mean <= stats.maximum


@given(samples)
def test_percentiles_monotone(values):
    stats = LatencyStats()
    stats.extend(values)
    qs = [0, 10, 25, 50, 75, 90, 99, 100]
    ps = [stats.percentile(q) for q in qs]
    assert ps == sorted(ps)
    assert ps[0] == stats.minimum
    assert ps[-1] == stats.maximum


@given(maybe_empty, maybe_empty)
def test_merge_equals_concatenation(a, b):
    merged = LatencyStats()
    merged.extend(a)
    other = LatencyStats()
    other.extend(b)
    merged.merge(other)
    combined = LatencyStats()
    combined.extend(a + b)
    assert aggregates(merged) == aggregates(combined)


@given(samples, samples)
def test_merge_leaves_argument_untouched(a, b):
    left = LatencyStats()
    left.extend(a)
    right = LatencyStats()
    right.extend(b)
    before = aggregates(right)
    left.merge(right)
    assert aggregates(right) == before


@given(
    samples,
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_monotone_at_arbitrary_floats(values, q1, q2):
    stats = LatencyStats.from_samples(values)
    lo, hi = sorted((q1, q2))
    assert stats.percentile(lo) <= stats.percentile(hi)


@given(maybe_empty)
def test_round_trip_preserves_aggregates(values):
    original = LatencyStats.from_samples(values)
    rebuilt = LatencyStats.from_samples(original.samples())
    assert aggregates(rebuilt) == aggregates(original)


@given(maybe_empty)
def test_samples_is_a_copy(values):
    stats = LatencyStats.from_samples(values)
    exported = stats.samples()
    exported.append(999_999)
    assert stats.count == len(values)


@given(maybe_empty)
def test_empty_aggregates_agree(values):
    # Regression companion: mean and stddev must agree on "no data".
    stats = LatencyStats.from_samples(values)
    if stats.count == 0:
        assert math.isnan(stats.mean) and math.isnan(stats.stddev)
    else:
        assert not math.isnan(stats.mean)
        assert not math.isnan(stats.stddev)


@given(samples)
def test_order_invariance(values):
    a = LatencyStats()
    a.extend(values)
    b = LatencyStats()
    b.extend(sorted(values, reverse=True))
    assert a.mean == b.mean
    assert a.percentile(75) == b.percentile(75)


@given(
    st.sampled_from(sorted(PATTERNS)),
    st.sampled_from([2, 4, 8]),
    st.integers(0, 10_000),
)
def test_patterns_never_self_address(name, width, seed):
    mesh = Mesh2D(width)
    rng = random.Random(seed)
    for src in range(mesh.num_nodes):
        dst = pattern_destination(name, mesh, src, rng)
        if dst is not None:
            assert dst != src
            assert 0 <= dst < mesh.num_nodes


@given(st.sampled_from([2, 4, 8]), st.integers(0, 1000))
def test_deterministic_patterns_are_permutations(width, seed):
    """Transpose/shuffle/bitcomp/bitrev map distinct sources to distinct
    destinations (they are partial permutations)."""
    mesh = Mesh2D(width)
    rng = random.Random(seed)
    for name in ("transpose", "shuffle", "bitcomp", "bitrev"):
        mapping = {}
        for src in range(mesh.num_nodes):
            dst = pattern_destination(name, mesh, src, rng)
            if dst is not None:
                mapping[src] = dst
        assert len(set(mapping.values())) == len(mapping)
