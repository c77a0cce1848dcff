"""Unit tests for the fault subsystem: schedule model, parser, manager."""

import json

import pytest

from repro.exceptions import ConfigurationError, FaultError
from repro.faults import (
    FaultEvent,
    FaultManager,
    FaultSchedule,
    parse_fault_spec,
    random_link_faults,
    random_router_faults,
)
from repro.harness.cache import config_cache_key
from repro.sim.config import SimulationConfig
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction
from repro.topology.torus import Torus2D


# ----------------------------------------------------------------------
# FaultEvent
# ----------------------------------------------------------------------
def test_event_validation():
    with pytest.raises(FaultError):
        FaultEvent(-1, "link", 0, Direction.EAST)
    with pytest.raises(FaultError):
        FaultEvent(0, "wire", 0)
    with pytest.raises(FaultError):
        FaultEvent(0, "link", 0)  # missing direction
    with pytest.raises(FaultError):
        FaultEvent(0, "link", 0, Direction.LOCAL)
    with pytest.raises(FaultError):
        FaultEvent(0, "router", 0, Direction.EAST)  # spurious direction
    with pytest.raises(FaultError):
        FaultEvent(0, "router", 0, duration=0)


def test_event_properties_and_round_trip():
    transient = FaultEvent(10, "link", 3, Direction.WEST, duration=5)
    assert not transient.permanent
    assert transient.end_cycle == 15
    permanent = FaultEvent(0, "router", 7)
    assert permanent.permanent
    assert permanent.end_cycle is None
    for event in (transient, permanent):
        blob = json.dumps(event.to_dict())
        assert FaultEvent.from_dict(json.loads(blob)) == event


def test_event_direction_coerced_to_enum():
    event = FaultEvent(0, "link", 1, 0)  # raw int for EAST
    assert event.direction is Direction.EAST


# ----------------------------------------------------------------------
# FaultSchedule
# ----------------------------------------------------------------------
def test_schedule_normalizes_event_order():
    a = FaultEvent(5, "router", 1)
    b = FaultEvent(0, "link", 2, Direction.EAST)
    assert FaultSchedule((a, b)) == FaultSchedule((b, a))
    assert FaultSchedule((a, b)).events[0] is b


def test_schedule_bool_and_len():
    assert not FaultSchedule()
    assert len(FaultSchedule()) == 0
    schedule = FaultSchedule((FaultEvent(0, "router", 0),))
    assert schedule
    assert len(schedule) == 1


def test_schedule_validate_for_rejects_out_of_mesh():
    with pytest.raises(FaultError):
        FaultSchedule((FaultEvent(0, "router", 16),)).validate_for(4, 4)
    # Node 3 is the NE corner of a 4x4 mesh: no EAST link.
    with pytest.raises(FaultError):
        FaultSchedule(
            (FaultEvent(0, "link", 3, Direction.EAST),)
        ).validate_for(4, 4)
    FaultSchedule((FaultEvent(0, "link", 3, Direction.WEST),)).validate_for(
        4, 4
    )


def test_schedule_round_trip():
    schedule = FaultSchedule(
        (
            FaultEvent(0, "link", 1, Direction.EAST, duration=100),
            FaultEvent(50, "router", 9),
        )
    )
    blob = json.dumps(schedule.to_dict())
    assert FaultSchedule.from_dict(json.loads(blob)) == schedule


@pytest.mark.parametrize("data", ["abc", ["events"], None])
def test_schedule_from_dict_rejects_a_non_dict(data):
    with pytest.raises(FaultError, match="fault schedule must be a dict"):
        FaultSchedule.from_dict(data)


def test_schedule_from_dict_rejects_an_unknown_key():
    with pytest.raises(FaultError, match="unknown fault schedule field 'x'"):
        FaultSchedule.from_dict({"x": 1})


def test_event_from_dict_rejects_a_non_dict_or_an_unknown_key():
    with pytest.raises(FaultError, match="fault event must be a dict"):
        FaultSchedule.from_dict({"events": "abc"})
    event = {**FaultEvent(0, "router", 1).to_dict(), "nodes": 2}
    with pytest.raises(FaultError, match="unknown fault event field 'nodes'"):
        FaultEvent.from_dict(event)


# ----------------------------------------------------------------------
# Config integration and cache keys
# ----------------------------------------------------------------------
def test_config_rejects_non_schedule_faults():
    with pytest.raises(ConfigurationError):
        SimulationConfig(width=4, faults=[("link", 0)])


def test_config_rejects_invalid_schedule_for_mesh():
    schedule = FaultSchedule((FaultEvent(0, "router", 99),))
    with pytest.raises(FaultError):
        SimulationConfig(width=4, faults=schedule)


def test_cache_keys_distinguish_fault_schedules():
    base = SimulationConfig(width=4, num_vcs=4)
    empty = base.with_(faults=FaultSchedule())
    faulted = base.with_(
        faults=FaultSchedule((FaultEvent(0, "router", 5),))
    )
    keys = {
        config_cache_key(base),
        config_cache_key(empty),
        config_cache_key(faulted),
    }
    assert len(keys) == 3


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_random_link_faults_deterministic_and_distinct():
    a = random_link_faults(4, k=5, seed=3)
    b = random_link_faults(4, k=5, seed=3)
    c = random_link_faults(4, k=5, seed=4)
    assert a == b
    assert a != c
    assert len(a) == 5
    keys = {(e.node, e.direction) for e in a.events}
    assert len(keys) == 5  # distinct channels
    a.validate_for(4, 4)


def test_random_router_faults_bounds():
    schedule = random_router_faults(4, k=16, seed=0)
    assert len(schedule) == 16
    with pytest.raises(FaultError):
        random_router_faults(4, k=17, seed=0)
    with pytest.raises(FaultError):
        random_link_faults(4, k=1000, seed=0)


def test_generator_cycle_and_duration_forwarded():
    schedule = random_link_faults(4, k=2, cycle=40, duration=60, seed=1)
    assert all(e.cycle == 40 and e.duration == 60 for e in schedule.events)


# ----------------------------------------------------------------------
# Spec parser
# ----------------------------------------------------------------------
def test_parse_explicit_items():
    schedule = parse_fault_spec("link:5:east@10+20,router:9", 4, 4)
    assert len(schedule) == 2
    link = next(e for e in schedule.events if e.kind == "link")
    router = next(e for e in schedule.events if e.kind == "router")
    assert link.node == 5 and link.direction is Direction.EAST
    assert link.cycle == 10 and link.duration == 20
    assert router.node == 9 and router.permanent


def test_parse_direction_aliases():
    for alias, direction in (
        ("e", Direction.EAST),
        ("West", Direction.WEST),
        ("n", Direction.NORTH),
        ("south", Direction.SOUTH),
    ):
        schedule = parse_fault_spec(f"link:5:{alias}", 4, 4)
        assert schedule.events[0].direction is direction


def test_parse_generator_items_seeded():
    a = parse_fault_spec("links:3~7", 4, 4)
    b = parse_fault_spec("links:3~7", 4, 4)
    assert a == b == random_link_faults(4, 4, k=3, seed=7)
    # Without ~SEED the item index offsets the default seed, so repeated
    # generator items draw different components.
    schedule = parse_fault_spec("routers:1,routers:1", 4, 4, default_seed=0)
    assert schedule == FaultSchedule(
        random_router_faults(4, 4, k=1, seed=0).events
        + random_router_faults(4, 4, k=1, seed=1).events
    )


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "link:5",  # missing direction
        "link:5:up",  # bad direction
        "router:5:east",  # spurious direction
        "links:2:east",  # generator takes no direction
        "wire:5",  # unknown kind
        "link:notanode",
        "router:5~3",  # seed on explicit item
        "router:5@1@2",  # duplicate modifier
        "link:3:east",  # NE corner has no east link in 4x4
        "router:99",  # outside mesh
    ],
)
def test_parse_rejects_malformed(spec):
    with pytest.raises(FaultError):
        parse_fault_spec(spec, 4, 4)


# ----------------------------------------------------------------------
# FaultManager
# ----------------------------------------------------------------------
def _manager(events):
    mesh = Mesh2D(4, 4)
    return FaultManager(FaultSchedule(tuple(events)), mesh), mesh


def test_manager_activation_window():
    fm, _ = _manager([FaultEvent(10, "link", 1, Direction.EAST, duration=5)])
    assert fm.next_transition_cycle() == 10
    assert not fm.pending_at(9)
    assert fm.pending_at(10)

    changed, released = fm.advance_to(10)
    assert changed == [1]
    assert released == []
    assert fm.blocked_out[1] == 1 << Direction.EAST
    assert fm.credit_blocked(1, Direction.EAST)
    assert not fm.credit_blocked(1, Direction.WEST)
    assert fm.next_transition_cycle() == 15

    changed, _ = fm.advance_to(15)
    assert changed == [1]
    assert fm.blocked_out[1] == 0
    assert not fm.has_pending_transitions()


def test_manager_router_fault_blocks_neighbor_launches():
    fm, mesh = _manager([FaultEvent(0, "router", 5)])
    changed, _ = fm.advance_to(0)
    # Node 5's own mask and all four neighbours' masks change.
    assert 5 in changed
    assert fm.router_dead[5]
    for direction in (
        Direction.EAST,
        Direction.WEST,
        Direction.NORTH,
        Direction.SOUTH,
    ):
        nbr = mesh.neighbor(5, direction)
        assert nbr in changed
        # The neighbour's link *toward* node 5 is blocked.
        from repro.topology.ports import OPPOSITE

        assert (fm.blocked_out[nbr] >> OPPOSITE[direction]) & 1
    # Credits into the dead router are blocked on every port.
    assert fm.credit_blocked(5, Direction.LOCAL)
    assert fm.credit_blocked(5, Direction.EAST)


def test_manager_holds_and_releases_credits_in_order():
    fm, _ = _manager([FaultEvent(0, "link", 1, Direction.EAST, duration=10)])
    fm.advance_to(0)
    fm.hold_credit(1, Direction.EAST, 2)
    fm.hold_credit(1, Direction.EAST, 0)
    assert fm.held_credits == 2
    changed, released = fm.advance_to(10)
    assert released == [(1, Direction.EAST, 2), (1, Direction.EAST, 0)]
    assert fm.held_credits == 0


def test_manager_accepts_torus_wrap_link_fault():
    # Regression: the manager re-validated its schedule against a
    # hardcoded mesh, so a wrap-link fault that passed config validation
    # raised "no EAST link at node 3 in Mesh2D(4x4)" at build time.
    fm = FaultManager(
        FaultSchedule(
            (FaultEvent(0, "link", 3, Direction.EAST, duration=5),)
        ),
        Torus2D(4),
    )
    fm.advance_to(0)
    assert fm.blocked_out[3] == 1 << Direction.EAST
    assert fm.credit_blocked(3, Direction.EAST)
    fm.advance_to(5)
    assert fm.blocked_out[3] == 0


def test_manager_overlapping_faults_reference_counted():
    fm, _ = _manager(
        [
            FaultEvent(0, "link", 1, Direction.EAST, duration=10),
            FaultEvent(5, "link", 1, Direction.EAST, duration=10),
        ]
    )
    fm.advance_to(5)
    assert fm.credit_blocked(1, Direction.EAST)
    fm.advance_to(10)  # first fault heals; second still active
    assert fm.credit_blocked(1, Direction.EAST)
    fm.advance_to(15)
    assert not fm.credit_blocked(1, Direction.EAST)
