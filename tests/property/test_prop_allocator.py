"""Property-based tests for the VC allocator.

For any set of requests over any port state, one allocation round must be
a *matching*: at most one grant per input VC, at most one grant per
(port, VC), only grantable VCs granted, and the output-stage winner never
has lower priority than a losing contender for the same VC.

The mask request form (one record per priority class, its VCs one
integer) must also be a pure re-encoding of Algorithm 1's individual
``ADD(P, v, pri)`` calls: a per-VC reference allocator kept in this file,
fed the records expanded in ascending-VC order, has to produce the same
grants in the same order and leave the tie-break stream in the same
state — including records that name busy VCs (legal, filtered) and
equal-priority records pooled across ports.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.router.allocator import VaGrant, allocate_vcs as allocate_tuples
from repro.router.output import OutputPort
from repro.router.vcstate import InputVc
from repro.routing.requests import Priority, VcRequest, bits
from repro.topology.ports import Direction

from tests.conftest import mask_of, waiting_head

NUM_VCS = 4
DIRECTIONS = (Direction.EAST, Direction.SOUTH)


def allocate_vcs(requests, outputs, rng):
    """One round's grants (plain tuples) unpacked into the named shape."""
    return [VaGrant(*g) for g in allocate_tuples(requests, outputs, rng)]


@st.composite
def allocation_round(
    draw,
    inputs=st.integers(1, 6),
    masks=st.integers(1, (1 << NUM_VCS) - 1),
):
    outputs = {}
    for d in DIRECTIONS:
        port = OutputPort(
            direction=d,
            num_vcs=NUM_VCS,
            downstream_depth=4,
            fifo_depth=8,
            speedup=2,
            escape_vc=None,
            atomic_realloc=False,
        )
        for v in range(NUM_VCS):
            if draw(st.booleans()):
                port.allocate(v, dst=draw(st.integers(0, 15)))
        outputs[d] = port

    requests = []
    n_inputs = draw(inputs)
    for i in range(n_inputs):
        ivc = waiting_head(draw(st.integers(0, 15)), index=i)
        # Groups may contain busy VCs (so a top-priority group can be
        # empty after filtering) and may share a priority across ports.
        reqs = draw(
            st.lists(
                st.builds(
                    VcRequest,
                    direction=st.sampled_from(DIRECTIONS),
                    mask=masks,
                    priority=st.sampled_from(list(Priority)),
                ),
                max_size=4,
            )
        )
        requests.append((ivc, reqs))
    seed = draw(st.integers(0, 999))
    return outputs, requests, seed


@given(allocation_round())
def test_allocation_is_a_valid_matching(round_):
    outputs, requests, seed = round_
    grantable_before = {
        (d, v): outputs[d].grantable(v)
        for d in DIRECTIONS
        for v in range(NUM_VCS)
    }
    grants = allocate_vcs(requests, outputs, random.Random(seed))

    # At most one grant per input VC.
    input_ids = [id(g.input_vc) for g in grants]
    assert len(input_ids) == len(set(input_ids))

    # At most one grant per output VC, and only previously-free VCs.
    out_keys = [(g.direction, g.out_vc) for g in grants]
    assert len(out_keys) == len(set(out_keys))
    for key in out_keys:
        assert grantable_before[key]

    # Every grant corresponds to a request made by that input VC.
    by_input = {id(ivc): reqs for ivc, reqs in requests}
    for g in grants:
        assert any(
            r.direction is g.direction and g.out_vc in r.vcs
            for r in by_input[id(g.input_vc)]
        )


@given(allocation_round())
def test_work_conserving(round_):
    """A round issues a grant exactly when some grantable request exists
    (the allocator never wastes a cycle entirely)."""
    outputs, requests, seed = round_
    any_grantable = any(
        outputs[r.direction].grantable(vc)
        for _, reqs in requests
        for r in reqs
        for vc in r.vcs
    )
    grants = allocate_vcs(requests, outputs, random.Random(seed))
    assert bool(grants) == any_grantable


@given(allocation_round())
def test_allocation_deterministic_for_seed(round_):
    """allocate_vcs is a pure function of (requests, ports, rng seed)."""
    outputs, requests, seed = round_

    def run():
        return [
            (id(g.input_vc), g.direction, g.out_vc, g.priority)
            for g in allocate_vcs(requests, outputs, random.Random(seed))
        ]

    assert run() == run()


def _reference_allocate(requests, outputs, rng):
    """The per-VC allocator the grouped one replaced, verbatim in
    behaviour: ``requests`` pairs each input VC with individual
    ``(direction, vc, priority)`` requests."""
    selections = {}
    for input_vc, reqs in requests:
        grantable = [
            r for r in reqs if outputs[r[0]].grantable(r[1])
        ]
        if not grantable:
            continue
        top = max(priority for _, _, priority in grantable)
        best = [r for r in grantable if r[2] == top]
        direction, vc, priority = (
            best[0] if len(best) == 1 else best[rng.randrange(len(best))]
        )
        selections.setdefault((direction, vc), []).append(
            (priority, input_vc)
        )
    grants = []
    for (direction, vc), contenders in selections.items():
        top = max(priority for priority, _ in contenders)
        finalists = [ivc for priority, ivc in contenders if priority == top]
        winner = (
            finalists[0]
            if len(finalists) == 1
            else finalists[rng.randrange(len(finalists))]
        )
        grants.append((id(winner), direction, vc, top))
    return grants


def _assert_matches_per_vc_reference(round_):
    outputs, requests, seed = round_
    per_vc = [
        (
            ivc,
            [(r.direction, vc, r.priority) for r in reqs for vc in r.vcs],
        )
        for ivc, reqs in requests
    ]
    reference_rng = random.Random(seed)
    expected = _reference_allocate(per_vc, outputs, reference_rng)

    rng = random.Random(seed)
    grants = allocate_vcs(requests, outputs, rng)
    assert [
        (id(g.input_vc), g.direction, g.out_vc, g.priority) for g in grants
    ] == expected
    assert rng.getstate() == reference_rng.getstate()


@given(allocation_round())
@settings(max_examples=300)
def test_grouped_requests_match_per_vc_reference(round_):
    _assert_matches_per_vc_reference(round_)


@given(allocation_round(inputs=st.just(1)))
@settings(max_examples=200)
def test_one_head_round_matches_per_vc_reference(round_):
    """A round with one waiting head is answered from its stage-1 pick
    alone: the same filter, the same draw, the same (at most one) grant."""
    _assert_matches_per_vc_reference(round_)


@given(
    allocation_round(
        masks=st.sampled_from([1 << v for v in range(NUM_VCS)])
    )
)
@settings(max_examples=200)
def test_single_bit_records_match_per_vc_reference(round_):
    """Records naming one VC each: a best class of one live bit is
    taken without a draw (and without ``bits``), several pool."""
    _assert_matches_per_vc_reference(round_)


@given(allocation_round())
def test_pooled_multi_port_draw_matches_reference(round_):
    """One head, one priority, both ports, busy VCs named: the pooled
    draw walks the records in order, so it must pick what the reference
    picks from the flat per-VC list."""
    outputs, _requests, seed = round_
    ivc = InputVc(Direction.WEST, 0, depth=4)
    reqs = [VcRequest(d, (1 << NUM_VCS) - 1, Priority.LOW) for d in DIRECTIONS]
    flat = [(d, vc, Priority.LOW) for d in DIRECTIONS for vc in range(NUM_VCS)]
    reference_rng = random.Random(seed)
    expected = _reference_allocate([(ivc, flat)], outputs, reference_rng)
    rng = random.Random(seed)
    grants = allocate_vcs([(ivc, reqs)], outputs, rng)
    assert [
        (id(g.input_vc), g.direction, g.out_vc, g.priority) for g in grants
    ] == expected
    assert rng.getstate() == reference_rng.getstate()


def test_kth_set_bit_is_list_indexing_for_every_small_mask():
    """The allocator's selection step — ``bits(live)[k]`` is the k-th set
    bit of ``live``, ascending — exhaustively below 2**12 (twice round,
    so memoized answers are checked as well as computed ones)."""
    for _ in range(2):
        for mask in range(1 << 12):
            vcs = [v for v in range(12) if mask & (1 << v)]
            assert list(bits(mask)) == vcs
            assert mask_of(vcs) == mask
            # k-th set bit by the textbook route: clear the lowest k.
            rest = mask
            for k, vc in enumerate(vcs):
                assert (rest & -rest).bit_length() - 1 == vc == bits(mask)[k]
                rest &= rest - 1
