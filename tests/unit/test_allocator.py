"""Unit tests for the priority-based VC allocator."""

import random

from repro.router.allocator import VaGrant, allocate_vcs as allocate_tuples
from repro.router.output import OutputPort
from repro.router.vcstate import VcState
from repro.routing.requests import Priority, VcRequest
from repro.topology.ports import Direction

from tests.conftest import mask_of, waiting_head


def allocate_vcs(requests, outputs, rng):
    """One round's grants — plain ``(input_vc, direction, out_vc,
    priority)`` tuples — unpacked into the shape that names them."""
    grants = allocate_tuples(requests, outputs, rng)
    assert all(type(grant) is tuple for grant in grants)
    return [VaGrant(*grant) for grant in grants]


def make_outputs(num_vcs=4):
    return {
        d: OutputPort(
            direction=d,
            num_vcs=num_vcs,
            downstream_depth=4,
            fifo_depth=8,
            speedup=2,
            escape_vc=None,
            atomic_realloc=False,
        )
        for d in (Direction.EAST, Direction.SOUTH)
    }


def make_input(direction=Direction.WEST, index=0, dst=9):
    ivc = waiting_head(dst, index, direction)
    assert ivc.state is VcState.ROUTING
    return ivc


def req(vcs, pri=Priority.LOW, direction=Direction.EAST):
    """One request record; a bare int requests that single VC."""
    if isinstance(vcs, int):
        vcs = (vcs,)
    return VcRequest(direction, mask_of(vcs), pri)


def test_single_request_granted():
    outputs = make_outputs()
    ivc = make_input()
    grants = allocate_vcs([(ivc, [req(1)])], outputs, random.Random(1))
    assert len(grants) == 1
    assert grants[0].input_vc is ivc
    assert grants[0].direction is Direction.EAST
    assert grants[0].out_vc == 1


def test_busy_vc_not_granted():
    outputs = make_outputs()
    outputs[Direction.EAST].allocate(1, dst=5)
    ivc = make_input()
    grants = allocate_vcs([(ivc, [req(1)])], outputs, random.Random(1))
    assert grants == []


def test_priority_wins_contention():
    outputs = make_outputs()
    low = make_input(index=0)
    high = make_input(index=1)
    grants = allocate_vcs(
        [(low, [req(2, Priority.LOW)]), (high, [req(2, Priority.HIGH)])],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 1
    assert grants[0].input_vc is high
    assert grants[0].priority is Priority.HIGH


def test_input_prefers_its_highest_priority_request():
    outputs = make_outputs()
    ivc = make_input()
    grants = allocate_vcs(
        [(ivc, [req(0, Priority.LOW), req(3, Priority.HIGHEST)])],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 1
    assert grants[0].out_vc == 3


def test_one_grant_per_input_vc():
    outputs = make_outputs()
    ivc = make_input()
    grants = allocate_vcs(
        [(ivc, [req(range(4), Priority.LOW)])],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 1


def test_busy_vcs_inside_a_group_are_skipped():
    outputs = make_outputs()
    for v in (0, 1, 3):
        outputs[Direction.EAST].allocate(v, dst=5)
    ivc = make_input()
    for seed in range(10):
        grants = allocate_vcs(
            [(ivc, [req([0, 1, 2, 3])])], outputs, random.Random(seed)
        )
        assert [g.out_vc for g in grants] == [2]


def test_falls_through_a_top_group_with_nothing_grantable():
    outputs = make_outputs()
    outputs[Direction.EAST].allocate(3, dst=5)
    ivc = make_input()
    grants = allocate_vcs(
        [(ivc, [req([3], Priority.HIGHEST), req([1], Priority.LOW)])],
        outputs,
        random.Random(1),
    )
    assert [(g.out_vc, g.priority) for g in grants] == [(1, Priority.LOW)]


def test_lower_group_ignored_while_a_higher_one_is_grantable():
    outputs = make_outputs()
    ivc = make_input()
    for seed in range(10):
        grants = allocate_vcs(
            [(ivc, [req([0, 1], Priority.LOW), req([2], Priority.HIGH)])],
            outputs,
            random.Random(seed),
        )
        assert [g.out_vc for g in grants] == [2]


def test_equal_priority_groups_pool_their_vcs_across_ports():
    picked = set()
    for seed in range(40):
        outputs = make_outputs()
        ivc = make_input()
        (grant,) = allocate_vcs(
            [
                (
                    ivc,
                    [
                        req([0, 1], direction=Direction.EAST),
                        req([2], direction=Direction.SOUTH),
                    ],
                )
            ],
            outputs,
            random.Random(seed),
        )
        picked.add((grant.direction, grant.out_vc))
    assert picked == {
        (Direction.EAST, 0),
        (Direction.EAST, 1),
        (Direction.SOUTH, 2),
    }


def test_distinct_vcs_allow_parallel_grants():
    outputs = make_outputs()
    a = make_input(index=0)
    b = make_input(index=1)
    grants = allocate_vcs(
        [(a, [req(0)]), (b, [req(1)])], outputs, random.Random(1)
    )
    assert len(grants) == 2
    assert {g.out_vc for g in grants} == {0, 1}


def test_collision_on_same_vc_grants_exactly_one():
    outputs = make_outputs()
    a = make_input(index=0)
    b = make_input(index=1)
    grants = allocate_vcs(
        [(a, [req(2)]), (b, [req(2)])], outputs, random.Random(1)
    )
    assert len(grants) == 1


def test_requests_to_different_ports():
    outputs = make_outputs()
    a = make_input(index=0)
    b = make_input(index=1)
    grants = allocate_vcs(
        [
            (a, [req(0, direction=Direction.EAST)]),
            (b, [req(0, direction=Direction.SOUTH)]),
        ],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 2
    assert {g.direction for g in grants} == {Direction.EAST, Direction.SOUTH}


def test_deterministic_given_seed():
    def run(seed):
        outputs = make_outputs()
        inputs = [make_input(index=i) for i in range(3)]
        grants = allocate_vcs(
            [(ivc, [req(range(4))]) for ivc in inputs],
            outputs,
            random.Random(seed),
        )
        return sorted((g.input_vc.index, g.out_vc) for g in grants)

    assert run(5) == run(5)
