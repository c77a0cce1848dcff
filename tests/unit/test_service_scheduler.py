"""Unit tests for the FIFO scheduler.

The order and dedup tests inject a stub ``run_task`` (it returns a
canned result, and the 1-worker executor serializes reaps); the cache
tests run real — tiny — simulations because the cache keys results by
their own config, and the dead-worker test runs them in a process pool.
"""

import asyncio
import json
import os
import threading

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask
from repro.service import ServiceError
from repro.service.jobs import JobSpec, JobState, payload
from repro.service.protocol import Encoded, decode, encode
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult

# A service client keeps its socket between calls: one left open (or a
# handler left running) fails the test instead of warning at collection.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def _config(seed=1, **overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        injection_rate=0.05,
        warmup_cycles=10,
        measure_cycles=30,
        drain_cycles=120,
        seed=seed,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _spec(name, stream, seeds):
    tasks = [SimTask(_config(seed=seed)) for seed in seeds]
    return JobSpec.from_dict(payload(name, tasks, stream))


@pytest.fixture(scope="module")
def canned_result():
    return Simulator(_config(seed=999)).run()


def _stub_runner(result, block_on=None, fail_keys=(), started=None):
    """A run_task stub: optionally records the seeds it starts, blocks,
    and fails per seed."""

    def run(task):
        if started is not None:
            started.append(task.resolved_config().seed)
        if block_on is not None:
            block_on.wait(timeout=30)
        if task.resolved_config().seed in fail_keys:
            raise ValueError(f"seed {task.resolved_config().seed} refused")
        return result

    return run


class TestLifecycleAndDedup:
    def test_job_runs_to_done(self, canned_result):
        async def main():
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result)
            )
            job, deduped = sched.submit(_spec("g", "s", (1, 2)))
            assert deduped is False
            await sched.close()
            assert job.state is JobState.DONE
            assert job.counts()["simulated"] == 2
            assert sched.totals()["simulated"] == 2

        asyncio.run(main())

    def test_identical_grid_dedupes_to_same_job(self, canned_result):
        async def main():
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result)
            )
            first, _ = sched.submit(_spec("a", "s1", (1, 2)))
            await sched.drain()
            # Content hash ignores name, stream, and task order.
            again, deduped = sched.submit(_spec("b", "s2", (2, 1)))
            assert deduped is True
            assert again is first
            assert sched.totals()["simulated"] == 2
            await sched.close()

        asyncio.run(main())

    def test_inflight_task_is_shared_not_rerun(self, canned_result):
        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1,
                run_task=_stub_runner(canned_result, block_on=gate),
            )
            job_a, _ = sched.submit(_spec("a", "s1", (1,)))
            # Same task plus a fresh one => different grid hash, so this
            # is a new job whose overlapping task must subscribe to the
            # simulation job A already started.
            job_b, deduped = sched.submit(_spec("b", "s2", (1, 2)))
            assert deduped is False
            assert job_b.tasks[0] == "shared_waiting"
            gate.set()
            await sched.close()
            assert job_a.state is JobState.DONE
            assert job_b.state is JobState.DONE
            totals = sched.totals()
            assert totals["simulated"] == 2  # seeds 1 and 2, once each
            assert totals["shared"] == 1
            assert job_b.counts()["shared"] == 1

        asyncio.run(main())

    def test_persistent_cache_answers_overlap(self, tmp_path):
        async def main():
            cache = ResultCache(tmp_path / "cache")
            first = ExperimentScheduler(jobs=1, cache=cache)
            job, _ = first.submit(_spec("warm", "s", (1,)))
            await first.close()
            assert job.counts()["simulated"] == 1

            second = ExperimentScheduler(
                jobs=1, cache=ResultCache(tmp_path / "cache")
            )
            job2, _ = second.submit(_spec("reuse", "s", (1, 2)))
            await second.close()
            assert job2.state is JobState.DONE
            counts = job2.counts()
            assert counts["cached"] == 1
            assert counts["simulated"] == 1
            assert job2.tasks == ["cached", "simulated"]
            assert second.totals()["cached"] == 1
            # Cache hits are bit-exact round trips of the stored run.
            direct = Simulator(_config(seed=1)).run()
            hit = SimulationResult.from_dict(json.loads(job2.results[0].wire))
            assert hit.accepted_flits == direct.accepted_flits
            assert sorted(hit.latency._samples) == sorted(
                direct.latency._samples
            )

        asyncio.run(main())

    def test_unknown_job_raises(self, canned_result):
        async def main():
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result)
            )
            with pytest.raises(ServiceError, match="unknown job") as excinfo:
                sched.get_job("j999")
            message = str(excinfo.value)
            assert "'j999'" in message
            assert "does not survive a restart" in message
            assert "resubmit" in message and "cache hits" in message
            await sched.close()

        asyncio.run(main())


def _dies_on_seed_13(task):
    """A pool worker that kills its own process on seed 13."""
    config = task.resolved_config()
    if config.seed == 13:
        os._exit(1)
    return Simulator(config).run()


class TestFifo:
    def test_tasks_start_in_submission_order_whatever_the_stream(
        self, canned_result
    ):
        async def main():
            started = []
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result, started=started)
            )
            sched.submit(_spec("ga", "b", (1, 2, 3)))
            sched.submit(_spec("gb", "a", (11, 12)))
            sched.submit(_spec("gc", "b", (21,)))
            await sched.close()
            assert started == [1, 2, 3, 11, 12, 21]

        asyncio.run(main())

    def test_a_cached_grid_finishes_while_the_executor_is_full(
        self, canned_result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        for seed in (11, 12):
            cache.put(Simulator(_config(seed=seed)).run())

        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1,
                cache=cache,
                run_task=_stub_runner(canned_result, block_on=gate),
            )
            busy, _ = sched.submit(_spec("busy", "s", (1, 2)))
            warm, _ = sched.submit(_spec("warm", "s", (11, 12)))
            # The one worker is held by `busy`, which has a task still
            # queued; `warm` needs no worker, so it is not behind it.
            assert warm.state is JobState.DONE
            assert warm.counts()["cached"] == 2
            assert busy.tasks == ["running", "pending"]
            gate.set()
            await sched.close()
            assert busy.state is JobState.DONE

        asyncio.run(main())

    def test_a_dead_pool_worker_fails_only_its_own_tasks(self):
        async def main():
            sched = ExperimentScheduler(jobs=2, run_task=_dies_on_seed_13)
            doomed, _ = sched.submit(_spec("doomed", "s", (13,)))
            await asyncio.wait_for(sched.drain(), timeout=60)
            assert doomed.state is JobState.FAILED
            assert doomed.error.startswith("BrokenProcessPool")
            later, _ = sched.submit(_spec("later", "s", (1, 2)))
            await asyncio.wait_for(sched.drain(), timeout=60)
            assert later.state is JobState.DONE
            assert sched.totals()["active_workers"] == 0
            # A failed grid is not deduped.
            retry, deduped = sched.submit(_spec("doomed", "s", (13,)))
            assert deduped is False and retry is not doomed
            await asyncio.wait_for(sched.close(), timeout=60)
            assert retry.state is JobState.FAILED
            assert sched.totals()["simulated"] == 2

        asyncio.run(main())


class TestCancellationAndFailure:
    def test_cancel_mid_job_drops_pending(self, canned_result):
        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1,
                run_task=_stub_runner(canned_result, block_on=gate),
            )
            job, _ = sched.submit(_spec("g", "s", (1, 2, 3)))
            assert job.tasks[0] == "running"
            assert job.cancel() is True
            assert job.state is JobState.CANCELLED
            assert job.tasks == ["cancelled"] * 3
            gate.set()
            await sched.close()
            # The in-flight simulation completed but its late result was
            # dropped; only one task ever reached the executor.
            assert job.state is JobState.CANCELLED
            assert job.results == [None, None, None]
            assert sched.totals()["simulated"] == 1
            # A cancelled grid does not shadow resubmission.
            retry, deduped = sched.submit(_spec("g", "s", (1, 2, 3)))
            assert deduped is False
            await sched.close()
            assert retry.state is JobState.DONE

        asyncio.run(main())

    def test_cancel_strips_shared_waiters(self, canned_result):
        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1,
                run_task=_stub_runner(canned_result, block_on=gate),
            )
            job_a, _ = sched.submit(_spec("a", "s1", (1,)))
            job_b, _ = sched.submit(_spec("b", "s2", (1, 2)))
            assert job_b.tasks[0] == "shared_waiting"
            assert job_b.cancel() is True
            gate.set()
            await sched.close()
            assert job_a.state is JobState.DONE
            assert job_b.state is JobState.CANCELLED
            assert sched.totals()["shared"] == 0

        asyncio.run(main())

    def test_worker_exception_fails_job_not_scheduler(self, canned_result):
        async def main():
            sched = ExperimentScheduler(
                jobs=1,
                run_task=_stub_runner(canned_result, fail_keys={2}),
            )
            job, _ = sched.submit(_spec("g", "s", (1, 2)))
            await sched.drain()
            assert job.state is JobState.FAILED
            assert "seed 2 refused" in job.error
            # The scheduler keeps serving after a task failure, and a
            # failed grid does not block resubmission.
            retry, deduped = sched.submit(_spec("g", "s", (3,)))
            await sched.close()
            assert deduped is False
            assert retry.state is JobState.DONE

        asyncio.run(main())


class TestServedOnce:
    """A finished result is held in wire form, serialized when it lands."""

    @pytest.fixture
    def to_dict_calls(self, monkeypatch):
        calls = []
        to_dict = SimulationResult.to_dict

        def counting(result):
            calls.append(result)
            return to_dict(result)

        monkeypatch.setattr(SimulationResult, "to_dict", counting)
        return calls

    def test_a_shared_run_is_serialized_once(
        self, canned_result, to_dict_calls
    ):
        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result, block_on=gate)
            )
            job_a, _ = sched.submit(_spec("a", "s1", (1,)))
            # A different grid (two copies of the task) shares A's run
            # twice over.
            job_b, _ = sched.submit(_spec("b", "s2", (1, 1)))
            assert job_b.tasks == ["shared_waiting"] * 2
            gate.set()
            await sched.close()
            return job_a, job_b

        job_a, job_b = asyncio.run(main())
        assert job_b.tasks == ["shared", "shared"]
        assert to_dict_calls == [canned_result]
        assert json.loads(job_a.results[0].wire) == canned_result.to_dict()
        assert all(held is job_a.results[0] for held in job_b.results)

    def test_with_a_cache_each_run_or_hit_is_served_once(
        self, canned_result, to_dict_calls, tmp_path
    ):
        """The cache encodes its own copy of a run (its entry drops the
        telemetry), and a hit is decoded from disk: so one wire form per
        run and one per hit, on top of one entry per run."""

        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1, cache=ResultCache(tmp_path),
                run_task=_stub_runner(canned_result, block_on=gate),
            )
            job_a, _ = sched.submit(_spec("a", "s1", (999,)))
            job_b, _ = sched.submit(_spec("b", "s2", (999, 999)))
            gate.set()
            await sched.close()
            ran = len(to_dict_calls)
            later = ExperimentScheduler(jobs=1, cache=ResultCache(tmp_path))
            job_c, _ = later.submit(_spec("c", "s3", (999,)))
            await later.close()
            return ran, job_a, job_b, job_c

        ran, job_a, job_b, job_c = asyncio.run(main())
        assert ran == 2  # the cache entry, the wire form
        assert len(to_dict_calls) == 3  # + the hit's wire form
        assert job_c.tasks == ["cached"]
        assert all(held is job_a.results[0] for held in job_b.results)
        assert job_c.results[0] == job_a.results[0]

    def test_an_encoded_field_is_written_as_is_after_the_others(self):
        line = encode({"ok": True, "results": Encoded(b"[{},null]"), "n": 2})
        assert line == b'{"ok":true,"n":2,"results":[{},null]}\n'
        assert encode({"results": Encoded(b"[]")}) == b'{"results":[]}\n'

    def test_a_job_fetched_twice_returns_identical_results(
        self, canned_result, to_dict_calls
    ):
        async def main():
            server = ExperimentServer(ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result)
            ))
            job, _ = server.scheduler.submit(_spec("g", "s", (1, 2)))
            await server.scheduler.drain()
            served = len(to_dict_calls)
            request = {"verb": "result", "job_id": job.id, "full": True}
            first = encode(server.dispatch(request))
            second = encode(server.dispatch(request))
            await server.close()
            return served, first, second

        served, first, second = asyncio.run(main())
        assert served == len(to_dict_calls) == 2
        assert first == second
        assert decode(first)["results"] == [canned_result.to_dict()] * 2
