"""Work budget of the dedup path: configs resolved and keys derived.

A grid's tasks are resolved and keyed once where they enter — a
service ``submit``, or a ``run_tasks`` call — and read from there on:
``status`` and ``result`` derive nothing, a deduplicated resubmission
derives only its own spec's keys, and the cache probes reuse the keys
already in hand.  Counted by wrapping the cache's ``_config_dict_key``
(the one place a key is hashed, by :func:`config_cache_key` or by a
probe without a key) and :meth:`SimTask.resolved_config` on the class.
"""

import asyncio

import pytest

from repro.harness import cache as cache_module
from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask, run_tasks
from repro.harness.runner import run_simulation
from repro.service.jobs import JobSpec
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer
from repro.sim.config import SimulationConfig

# A service client keeps its socket between calls: one left open (or a
# handler left running) fails the test instead of warning at collection.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)

GRID = tuple(
    SimTask(
        SimulationConfig(
            width=4, num_vcs=4, warmup_cycles=10, measure_cycles=30,
            drain_cycles=120, seed=seed,
        ),
        rate=0.03,
    )
    for seed in (1, 2, 3, 4)
)
N = len(GRID)
NOTHING = {"keys": 0, "resolves": 0}
ONCE = {"keys": N, "resolves": N}


@pytest.fixture(scope="module")
def results():
    """Each grid task's result, by seed (read without resolving)."""
    return {
        task.config.seed: run_simulation(task.resolved_config())
        for task in GRID
    }


@pytest.fixture
def counts(monkeypatch):
    counts = dict(NOTHING)
    key = cache_module._config_dict_key
    resolve = SimTask.resolved_config

    def counting_key(config_dict):
        counts["keys"] += 1
        return key(config_dict)

    def counting_resolve(task):
        counts["resolves"] += 1
        return resolve(task)

    monkeypatch.setattr(cache_module, "_config_dict_key", counting_key)
    monkeypatch.setattr(SimTask, "resolved_config", counting_resolve)
    return counts


def test_service_verbs_derive_each_key_once(counts, results, tmp_path):
    wire = JobSpec(name="grid", tasks=GRID).to_dict()

    async def main():
        def serve(run_task):
            return ExperimentServer(ExperimentScheduler(
                jobs=1, cache=ResultCache(tmp_path), run_task=run_task
            ))

        def verb(server, name, fields):
            counts.update(NOTHING)
            reply = server.dispatch({**fields, "verb": name})
            assert reply["ok"], reply
            return reply, dict(counts)

        # Simulated: the stub reads the seed without resolving, so the
        # worker thread counts nothing while a verb is being counted.
        server = serve(lambda task: results[task.config.seed])
        reply, spent = verb(server, "submit", wire)
        assert spent == ONCE
        job_id = reply["job_id"]
        await server.scheduler.drain()
        for name, fields in (
            ("status", {"job_id": job_id}),
            ("status", {}),
            ("result", {"job_id": job_id}),
            ("result", {"job_id": job_id, "full": True}),
        ):
            reply, spent = verb(server, name, fields)
            assert spent == NOTHING, (name, fields)
        assert reply["ready"]
        again, spent = verb(
            server, "submit", {**wire, "name": "again", "stream": "b"}
        )
        assert again["deduped"] and again["job_id"] == job_id
        assert spent == ONCE
        await server.close()

        # A restarted server answers the same grid from the cache at
        # admission; its probes use the keys the spec derived.
        server = serve(None)
        reply, spent = verb(server, "submit", wire)
        assert not reply["deduped"] and reply["state"] == "done"
        assert spent == ONCE
        await server.close()

    asyncio.run(main())


def test_warm_run_tasks_resolves_each_task_once(counts, results, tmp_path):
    cache = ResultCache(tmp_path)
    for result in results.values():
        cache.put(result)
    counts.update(NOTHING)
    got = run_tasks(GRID, cache=cache)
    assert counts == ONCE
    assert cache.hits == N and cache.misses == 0
    assert [r.config.seed for r in got] == [1, 2, 3, 4]
