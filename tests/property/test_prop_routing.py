"""Property-based tests for routing algorithms."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.routing.registry import available_algorithms, create_routing
from repro.routing.requests import Priority, bits
from repro.routing.xordet import xordet_vc
from repro.topology.base import create_topology
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context

ALGOS = available_algorithms()

dims = st.integers(min_value=2, max_value=10)


@st.composite
def routing_case(draw):
    name = draw(st.sampled_from(ALGOS))
    topology = draw(st.sampled_from(create_routing(name).topologies))
    mesh = create_topology(topology, draw(dims), draw(dims))
    src = draw(st.integers(0, mesh.num_nodes - 1))
    dst = draw(st.integers(0, mesh.num_nodes - 1))
    cur = draw(st.integers(0, mesh.num_nodes - 1))
    return mesh, name, cur, dst, src


@given(routing_case())
def test_allowed_directions_are_minimal_and_productive(case):
    """On every topology the algorithm runs on: the deadlock-freedom
    proof models route computation as any of these directions."""
    mesh, name, cur, dst, src = case
    algo = create_routing(name)
    dirs = algo.allowed_directions(mesh, cur, dst, src)
    if cur == dst:
        assert dirs == [Direction.LOCAL]
        return
    assert dirs
    minimal = set(mesh.minimal_directions(cur, dst))
    assert set(dirs) <= minimal


@st.composite
def request_case(draw):
    mesh = Mesh2D(draw(st.integers(2, 6)))
    cur = draw(st.integers(0, mesh.num_nodes - 1))
    dst = draw(st.integers(0, mesh.num_nodes - 1))
    name = draw(st.sampled_from(ALGOS))
    num_vcs = draw(st.integers(2, 6))
    algo = create_routing(name)
    escape = 0 if algo.uses_escape else None
    adaptive = [v for v in range(num_vcs) if v != escape]
    outputs = {}
    for d in mesh.router_ports(cur):
        idle = draw(st.lists(st.sampled_from(adaptive), unique=True))
        owners = {
            v: draw(st.integers(0, mesh.num_nodes - 1))
            for v in adaptive
            if draw(st.booleans())
        }
        fresh = {v for v in idle if v in owners and draw(st.booleans())}
        established = [v for v in idle if v not in fresh]
        view = FakeOutputView(
            num_vcs=num_vcs,
            escape_vc=escape if d is not Direction.LOCAL else None,
            idle=sorted(idle),
            established=established,
            owners=owners,
            fresh=fresh,
        )
        outputs[d] = view
    threshold = draw(st.integers(1, num_vcs))
    seed = draw(st.integers(0, 1000))
    return mesh, algo, cur, dst, outputs, num_vcs, threshold, seed


@given(request_case())
@settings(max_examples=200)
def test_requests_are_well_formed(case):
    """For any local state: the committed port is legal, every request
    targets a grantable VC at an existing port, and priorities are valid."""
    mesh, algo, cur, dst, outputs, num_vcs, threshold, seed = case
    ctx = make_context(
        mesh,
        cur,
        dst,
        outputs,
        num_vcs=num_vcs,
        congestion_threshold=threshold,
        seed=seed,
    )
    direction = algo.select_output(ctx)
    if cur == dst:
        assert direction is Direction.LOCAL
    else:
        assert direction in algo.allowed_directions(mesh, cur, dst, cur)
    requests = algo.vc_requests_at(ctx, direction)
    escape_dir = mesh.dor_direction(cur, dst)
    for req_direction, mask, priority in requests:
        vcs = bits(mask)
        assert req_direction in outputs
        assert isinstance(priority, Priority)
        # Empty priority classes emit no record, so "nothing to request"
        # is exactly ``not requests``.
        assert len(vcs) > 0
        assert len(set(vcs)) == len(vcs)
        view = outputs[req_direction]
        for vc in vcs:
            assert 0 <= vc < num_vcs
            assert view.grantable(vc)
        # Non-escape requests stay on the committed port; the only other
        # port a request may name is the DOR escape port.
        if req_direction is not direction:
            assert req_direction is escape_dir
            assert vcs == (view.escape_vc,)
    # One record per (port, priority) class.
    classes = [(d, priority) for d, _mask, priority in requests]
    assert len(set(classes)) == len(classes)


def test_a_dead_port_is_avoided_while_an_allowed_port_lives():
    """Route computation steers around a faulted output port
    (``RouteContext.dead_ports``) whenever another allowed port is live:
    every algorithm, every (current, destination, source) of a 4x4 mesh,
    each allowed port dead in turn."""
    mesh = Mesh2D(4)
    nodes = range(mesh.num_nodes)
    for name in ALGOS:
        algo = create_routing(name)
        for cur, dst, src in itertools.product(nodes, nodes, nodes):
            allowed = algo.allowed_directions(mesh, cur, dst, src)
            if len(allowed) < 2:
                continue
            outputs = {d: FakeOutputView() for d in mesh.router_ports(cur)}
            for dead in allowed:
                ctx = make_context(
                    mesh, cur, dst, outputs, source=src, dead_ports=1 << dead
                )
                assert algo.select_output(ctx) is not dead, (
                    name, cur, dst, src, dead,
                )


@given(
    st.integers(2, 16),
    st.integers(2, 16),
    st.integers(1, 12),
)
def test_xordet_mapping_total_and_stable(w, h, vcs):
    mesh = Mesh2D(w, h)
    for dst in range(mesh.num_nodes):
        vc = xordet_vc(mesh, dst, vcs)
        assert 0 <= vc < vcs
        assert xordet_vc(mesh, dst, vcs) == vc


@given(routing_case())
def test_escape_users_declare_atomic_reallocation(case):
    _mesh, name, *_ = case
    algo = create_routing(name)
    if algo.uses_escape:
        assert algo.atomic_vc_reallocation
