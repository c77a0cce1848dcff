"""Unit tests for the round-robin arbiter."""

import pytest

from repro.router.arbiter import RoundRobinArbiter


def test_requires_positive_size():
    with pytest.raises(ValueError):
        RoundRobinArbiter(0)


def test_no_requests_no_grant():
    assert RoundRobinArbiter(4).grant_mask(0) is None


def test_single_requester_always_wins():
    arb = RoundRobinArbiter(4)
    for _ in range(6):
        assert arb.grant_mask(0b0100) == 2


def test_round_robin_rotation():
    arb = RoundRobinArbiter(3)
    grants = [arb.grant_mask(0b111) for _ in range(6)]
    assert grants == [0, 1, 2, 0, 1, 2]


def test_pointer_skips_idle_requesters():
    arb = RoundRobinArbiter(4)
    assert arb.grant_mask(0b1010) == 1
    assert arb.grant_mask(0b1010) == 3
    assert arb.grant_mask(0b1010) == 1


def test_strong_fairness_under_persistent_load():
    arb = RoundRobinArbiter(5)
    counts = {i: 0 for i in range(5)}
    for _ in range(100):
        winner = arb.grant_mask(0b11111)
        counts[winner] += 1
    assert all(c == 20 for c in counts.values())


def test_mask_grant_is_the_same_scan():
    """``grant_mask`` is the cyclic scan from the pointer, from every
    pointer position and for every request set of a 5-way arbiter
    (single requesters and requesters only behind the pointer included)."""
    for pointer in range(5):
        for mask in range(1 << 5):
            by_mask = RoundRobinArbiter(5)
            for _ in range(pointer):
                by_mask.grant_mask(0b11111)
            requests = [i for i in range(5) if mask >> i & 1]
            # The cyclic scan, spelled out.
            expected = next(
                (
                    (pointer + k) % 5
                    for k in range(5)
                    if (pointer + k) % 5 in requests
                ),
                None,
            )
            for _ in range(3):
                winner = by_mask.grant_mask(mask)
                assert winner == expected
                if expected is not None:
                    expected = next(
                        (winner + 1 + k) % 5
                        for k in range(5)
                        if (winner + 1 + k) % 5 in requests
                    )


def test_empty_mask_no_grant_and_pointer_unmoved():
    arb = RoundRobinArbiter(4)
    assert arb.grant_mask(0b0100) == 2
    assert arb.grant_mask(0) is None
    assert arb.grant_mask(0b1111) == 3
