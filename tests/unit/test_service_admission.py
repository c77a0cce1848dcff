"""Admission of a ``submit``: a known grid is found by its wire form.

The server reads a submission once (:meth:`JobSpec.from_dict`), hashes
its wire dicts (:meth:`JobSpec.wire_hash`) and answers a grid it
already holds without building a config; anything else is admitted by
building each config once, keeping the keys read off the wire where
its configs write out as the wire dicts.  These tests hold the two
outcomes to one answer: the same hash and keys, the same job, and the
same error for a bad request whether or not its grid is known.
"""

import asyncio
import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.schedule import random_link_faults
from repro.harness.parallel import SimTask
from repro.harness.cache import config_cache_key
from repro.service.jobs import JobSpec, payload
from repro.service.protocol import decode, encode
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer
from repro.sim.config import SimulationConfig
from repro.sim.constants import ENGINE_VERSION
from repro.sim.engine import Simulator
from repro.telemetry.config import TelemetryConfig

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def _config(seed=1, **overrides):
    return SimulationConfig(**{
        "width": 4, "num_vcs": 4, "warmup_cycles": 10, "measure_cycles": 30,
        "drain_cycles": 120, "seed": seed, **overrides,
    })


SUBMIT = {
    "verb": "submit",
    "engine_version": ENGINE_VERSION,
    **payload(
        "grid", [SimTask(_config(seed), rate=0.05) for seed in (1, 2, 3)], "a"
    ),
}
SPEC = JobSpec.from_dict(SUBMIT)


@pytest.fixture(scope="module")
def canned():
    return Simulator(_config()).run()


def _admit(requests, run_task):
    """Dispatch ``requests`` in turn to one in-process server, letting
    each job settle before the next request; the replies."""

    async def main():
        server = ExperimentServer(
            ExperimentScheduler(jobs=1, run_task=run_task)
        )
        replies = []
        for request in requests:
            replies.append(server.dispatch(copy.deepcopy(request)))
            await server.scheduler.drain()
        await server.close()
        return replies

    return asyncio.run(main())


def _active_telemetry(request):
    request["tasks"][1]["config"]["telemetry"] = TelemetryConfig(
        sample_every=10
    ).to_dict()


def _base_load_out_of_range(request):
    # The rate replaces the base value, which must still be valid.
    request["tasks"][0]["config"]["injection_rate"] = 5.0


def _config_edit(**fields):
    """Set ``fields`` in the first task's config dict."""
    return lambda request: request["tasks"][0]["config"].update(fields)


BAD = {
    "empty_name": lambda r: r.update(name=""),
    "empty_stream": lambda r: r.update(stream=""),
    "name_not_a_string": lambda r: r.update(name=7),
    "active_telemetry": _active_telemetry,
    "engine_version_skew": lambda r: r.update(engine_version=-1),
    "base_load_out_of_range": _base_load_out_of_range,
    "unknown_config_field": _config_edit(bogus=1),
    "no_tasks": lambda r: r.update(tasks=[]),
    "task_not_a_dict": lambda r: r["tasks"].append(3),
    "int_field_a_float": _config_edit(width=4.0),
    "int_field_a_bool": _config_edit(seed=True),
    "fractional_cycles": _config_edit(warmup_cycles=10.5),
    "size_bound_a_float": _config_edit(packet_size_range=[1, 2.5]),
    "str_field_an_int": _config_edit(traffic=3),
    "faults_not_a_dict": _config_edit(faults="abc"),
    "faults_unknown_key": _config_edit(faults={"x": 1}),
    "engine_version_a_string": lambda r: r.update(
        engine_version=str(ENGINE_VERSION)
    ),
    "unknown_routing": _config_edit(routing="bogus"),
    "unknown_traffic": _config_edit(traffic="bogus"),
    "overlay_twice": _config_edit(routing="dor+xordet+xordet"),
    "routing_wrong_case": _config_edit(routing="FOOTPRINT"),
    "trace_without_events": _config_edit(traffic="trace"),
    "pattern_off_its_grid": _config_edit(width=6, traffic="shuffle"),
}


@pytest.mark.parametrize("edit", sorted(BAD))
def test_a_known_grid_gets_the_error_a_new_grid_gets(edit, canned):
    bad = copy.deepcopy(SUBMIT)
    BAD[edit](bad)
    [fresh] = _admit([bad], lambda task: canned)
    known, again = _admit([SUBMIT, bad], lambda task: canned)
    assert known["ok"] and not fresh["ok"]
    assert again == fresh
    assert not fresh["error"].startswith("internal error"), fresh


def test_a_version_skew_names_the_clients_value_as_sent(canned):
    bad = {**SUBMIT, "engine_version": str(ENGINE_VERSION)}
    [reply] = _admit([bad], lambda task: canned)
    assert f"ENGINE_VERSION '{ENGINE_VERSION}'," in reply["error"]


def test_a_known_grid_is_answered_by_its_job(canned):
    resubmit = {**SUBMIT, "name": "again", "stream": "b"}
    first, again = _admit([SUBMIT, resubmit], lambda task: canned)
    assert JobSpec.from_dict(resubmit).wire_hash() == SPEC.spec_hash()
    assert first["hash"] == SPEC.spec_hash()
    assert (first["deduped"], again["deduped"]) == (False, True)
    assert again == {**first, "deduped": True, "state": "done"}


def test_an_older_clients_dict_is_found_by_its_wire_form(canned):
    """A stream ``weight`` from an older client is ignored both ways."""
    weighted = {**SUBMIT, "weight": 2.5}
    assert JobSpec.from_dict(weighted).wire_hash() == SPEC.spec_hash()
    _, again = _admit([SUBMIT, weighted], lambda task: canned)
    assert again["deduped"] and again["job_id"] == "j1"


DEFAULTS = SimulationConfig().to_dict()
HAND_WRITTEN = {
    "defaults_left_out": lambda config: {
        k: v for k, v in config.items() if v != DEFAULTS[k]
    },
    "height_null": lambda config: {**config, "height": None},
}


@pytest.mark.parametrize("form", sorted(HAND_WRITTEN))
def test_a_hand_written_dict_reaches_the_known_job_the_full_way(
    form, canned
):
    """A dict that is no config's ``to_dict`` form hashes to no known
    grid from the wire; its built configs' keys find the job."""
    hand = copy.deepcopy(SUBMIT)
    for task in hand["tasks"]:
        task["config"] = HAND_WRITTEN[form](task["config"])
    spec = JobSpec.from_dict(hand)
    assert spec.wire_hash() != SPEC.spec_hash()
    # The spec derives its own keys where the wire's are not its configs'.
    assert spec.keys == SPEC.keys
    _, again = _admit([SUBMIT, hand], lambda task: canned)
    assert again["deduped"] and again["job_id"] == "j1"
    assert again["hash"] == SPEC.spec_hash()


def test_a_failed_grid_is_not_deduped(canned):
    def boom(task):
        raise RuntimeError("boom")

    status = {"verb": "status", "job_id": "j1"}
    first, failed, again = _admit([SUBMIT, status, SUBMIT], boom)
    assert failed["job"]["state"] == "failed"
    assert (first["job_id"], again["job_id"]) == ("j1", "j2")
    assert not again["deduped"]


def test_a_cancelled_grid_is_not_deduped(canned):
    async def main():
        server = ExperimentServer(
            ExperimentScheduler(jobs=1, run_task=lambda task: canned)
        )
        first = server.dispatch(copy.deepcopy(SUBMIT))
        cancelled = server.dispatch(
            {"verb": "cancel", "job_id": first["job_id"]}
        )
        again = server.dispatch(copy.deepcopy(SUBMIT))
        await server.scheduler.drain()
        await server.close()
        return cancelled, again

    cancelled, again = asyncio.run(main())
    assert cancelled["state"] == "cancelled"
    assert not again["deduped"] and again["job_id"] == "j2"


RATES = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0, 1)))


@st.composite
def grids(draw):
    """Grids of a sweep's shapes: hotspot traffic (its load field is
    ``hotspot_rate``), packet-size ranges, fault schedules, and tasks
    with and without a rate."""
    tasks = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(1, 3))
        config = _config(
            seed=draw(st.integers(0, 2**31)),
            traffic=draw(st.sampled_from(("uniform", "hotspot", "transpose"))),
            routing=draw(st.sampled_from(("footprint", "dbar", "dor"))),
            injection_rate=draw(RATES),
            hotspot_rate=draw(RATES),
            packet_size_range=draw(st.one_of(
                st.none(), st.tuples(st.just(lo), st.integers(lo, 6))
            )),
            faults=draw(st.one_of(st.none(), st.builds(
                random_link_faults, st.just(4), k=st.integers(1, 3),
                cycle=st.integers(0, 50), seed=st.integers(0, 99),
            ))),
        )
        tasks.append(SimTask(config, rate=draw(st.one_of(st.none(), RATES))))
    return tasks


@settings(max_examples=80, deadline=None)
@given(grids())
def test_the_wire_keys_are_the_spec_keys(tasks):
    spec = JobSpec.from_dict(decode(encode(payload("g", tasks))))
    resolved = tuple(config_cache_key(t.resolved_config()) for t in tasks)
    assert spec.wire_keys == spec.keys == resolved
    assert spec.wire_hash() == spec.spec_hash()
