"""Property test: ``candidate_mask`` against the scalar request oracle.

For any reachable output-port VC state (built by mutating real
:class:`OutputPort` objects, then snapshotted with
:meth:`VcStateArrays.capture`) and any packet, the batched
``candidate_mask`` row — enumerated in (priority descending, VC
ascending) order, exactly as the vector engine reconstructs request
lists — must equal the scalar ``vc_requests_at`` list for the same
committed direction, request for request and in order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.router.output import OutputPort
from repro.routing.batch import VcStateArrays
from repro.routing.registry import available_algorithms, create_routing
from repro.routing.requests import Priority, bits
from repro.topology.mesh import Mesh2D
from repro.topology.ports import NUM_PORTS, Direction

from tests.conftest import make_context

ALGOS = available_algorithms()

_VC_STATES = ("idle", "busy", "established", "fresh")


@st.composite
def network_case(draw):
    mesh = Mesh2D(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    name = draw(st.sampled_from(ALGOS))
    algo = create_routing(name)
    num_vcs = draw(st.integers(2, 5))
    escape = 0 if algo.uses_escape else None
    depth = draw(st.integers(1, 4))
    dests = st.integers(0, mesh.num_nodes - 1)

    ports_by_node = []
    for node in range(mesh.num_nodes):
        ports = {}
        for d in mesh.router_ports(node):
            port_escape = escape if d is not Direction.LOCAL else None
            port = OutputPort(
                direction=d,
                num_vcs=num_vcs,
                downstream_depth=depth,
                fifo_depth=2,
                speedup=1,
                escape_vc=port_escape,
                atomic_realloc=algo.atomic_vc_reallocation,
            )
            adaptive = bits(port.adaptive)
            states = [
                draw(st.sampled_from(_VC_STATES)) for _ in adaptive
            ]
            # Pass 1 — VCs released in an *earlier* round: idle with a
            # stale owner, no longer fresh.
            for v, s in zip(adaptive, states):
                if s == "established":
                    port.allocate(v, draw(dests))
                    port._release(v)
            port.clear_fresh()
            # Pass 2 — this round's state: busy VCs and fresh releases.
            for v, s in zip(adaptive, states):
                if s == "busy":
                    port.allocate(v, draw(dests))
                elif s == "fresh":
                    port.allocate(v, draw(dests))
                    port._release(v)
            if port_escape is not None and draw(st.booleans()):
                port.allocate(port_escape, draw(dests))
            ports[d] = port
        ports_by_node.append(ports)

    cur = draw(dests)
    dst = draw(dests)
    src = draw(dests)
    threshold = draw(st.integers(1, num_vcs))
    limit = draw(st.one_of(st.none(), st.integers(1, 3)))
    seed = draw(st.integers(0, 1000))
    return (
        mesh,
        algo,
        ports_by_node,
        num_vcs,
        escape,
        cur,
        dst,
        src,
        threshold,
        limit,
        seed,
    )


@given(network_case())
@settings(max_examples=120, deadline=None)
def test_candidate_mask_matches_scalar_requests(case):
    (
        mesh,
        algo,
        ports_by_node,
        num_vcs,
        escape,
        cur,
        dst,
        src,
        threshold,
        limit,
        seed,
    ) = case

    ctx = make_context(
        mesh,
        cur,
        dst,
        ports_by_node[cur],
        source=src,
        num_vcs=num_vcs,
        congestion_threshold=threshold,
        footprint_vc_limit=limit,
        seed=seed,
    )
    direction = algo.select_output(ctx)
    scalar = [
        (int(r.direction), vc, int(r.priority))
        for r in algo.vc_requests_at(ctx, direction)
        for vc in r.vcs
    ]

    state = VcStateArrays.capture(
        mesh,
        num_vcs,
        ports_by_node,
        congestion_threshold=threshold,
        footprint_vc_limit=limit,
        escape_vc=escape,
    )
    mask = algo.candidate_mask(
        state,
        np.array([cur], dtype=np.int64),
        np.array([dst], dtype=np.int64),
        np.array([int(direction)], dtype=np.int64),
    )
    assert mask.shape == (1, NUM_PORTS, num_vcs)
    entries = [
        (int(mask[0, d, v]), d, v)
        for d in range(NUM_PORTS)
        for v in range(num_vcs)
        if mask[0, d, v] >= 0
    ]
    # The vector engine's reconstruction order: priority descending, VC
    # ascending (the LOWEST escape request lands last automatically).
    entries.sort(key=lambda e: (-e[0], e[2]))
    batched = [(d, v, p) for p, d, v in entries]
    assert batched == scalar

    # Well-formedness, mirroring the scalar property test: every request
    # targets a grantable VC, non-escape requests stay on the committed
    # port, and the only off-port request is the DOR escape.
    escape_dir = int(mesh.dor_direction(cur, dst))
    for d, v, p in batched:
        g = cur * NUM_PORTS + d
        assert not state.busy[g, v]
        if p == int(Priority.LOWEST):
            assert v == escape
            assert d == escape_dir
        else:
            assert d == int(direction)
