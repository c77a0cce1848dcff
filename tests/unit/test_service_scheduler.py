"""Unit tests for the multi-stream weighted-fair scheduler.

The fairness and dedup tests inject a stub ``run_task`` so dispatch
ordering is driven purely by the scheduler's virtual-time policy (the
stub returns instantly and the 1-worker executor serializes reaps); the
cache tests run real — tiny — simulations because the cache keys results
by their own config.
"""

import asyncio
import threading

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask
from repro.service import ServiceError
from repro.service.jobs import JobSpec, JobState
from repro.service.scheduler import ExperimentScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


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


def _spec(name, stream, seeds, weight=1.0):
    tasks = tuple(SimTask(_config(seed=seed)) for seed in seeds)
    return JobSpec(name=name, tasks=tasks, stream=stream, weight=weight)


@pytest.fixture(scope="module")
def canned_result():
    return Simulator(_config(seed=999)).run()


def _stub_runner(result, block_on=None, fail_keys=()):
    """A run_task stub: optionally blocks, optionally fails per seed."""

    def run(task):
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
            assert job_b.task_states[0] == "shared"
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
            kinds = [kind for _, _, _, kind in second.dispatch_log]
            assert kinds.count("cached") == 1
            # Cache hits are bit-exact round trips of the stored run.
            direct = Simulator(_config(seed=1)).run()
            hit = job2.results[0]
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
            with pytest.raises(ServiceError, match="unknown job"):
                sched.get_job("j999")
            await sched.close()

        asyncio.run(main())


class TestFairness:
    def test_equal_weight_streams_alternate(self, canned_result):
        async def main():
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result)
            )
            sched.submit(_spec("ga", "a", (1, 2, 3, 4)))
            sched.submit(_spec("gb", "b", (11, 12, 13, 14)))
            await sched.close()
            order = [stream for stream, _, _, kind in sched.dispatch_log]
            # b joins at a's vtime (the newborn floor) after a banked
            # one dispatch, so the alternation is offset by one at each
            # edge — but strictly alternating in steady state.
            assert order == ["a", "a", "b", "a", "b", "a", "b", "b"]
            assert order.count("a") == order.count("b") == 4

        asyncio.run(main())

    def test_weighted_stream_gets_proportional_share(self, canned_result):
        async def main():
            sched = ExperimentScheduler(
                jobs=1, run_task=_stub_runner(canned_result)
            )
            sched.submit(_spec("gw", "w", (1, 2, 3, 4, 5, 6), weight=2.0))
            sched.submit(_spec("gx", "x", (11, 12, 13), weight=1.0))
            await sched.close()
            order = [stream for stream, _, _, _ in sched.dispatch_log]
            # Weight 2 earns two dispatches per weight-1 dispatch; the
            # light stream is interleaved, not starved to the end.
            assert order.count("w") == 6
            assert order.count("x") == 3
            first_six = order[:6]
            assert first_six.count("w") == 4
            assert first_six.count("x") == 2

        asyncio.run(main())

    def test_late_stream_joins_at_vtime_floor(self, canned_result):
        async def main():
            gate = threading.Event()
            sched = ExperimentScheduler(
                jobs=1,
                run_task=_stub_runner(canned_result, block_on=gate),
            )
            sched.submit(_spec("ga", "a", (1, 2, 3, 4)))
            gate.set()
            await sched.drain()
            gate.clear()
            # Stream b arrives after a has banked vtime; it starts at
            # a's clock, so it cannot monopolize the executor.
            sched.submit(_spec("gb", "b", (11, 12)))
            sched.submit(_spec("ga2", "a", (5, 6)))
            gate.set()
            await sched.close()
            tail = [
                stream for stream, _, _, _ in sched.dispatch_log[4:]
            ]
            assert tail.count("a") == 2
            assert tail.count("b") == 2
            assert tail != ["b", "b", "a", "a"]

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
            assert job.task_states[0] == "running"
            assert sched.cancel(job.id) is True
            assert job.state is JobState.CANCELLED
            assert job.task_states[1] == "cancelled"
            assert job.task_states[2] == "cancelled"
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
            assert job_b.task_states[0] == "shared"
            assert sched.cancel(job_b.id) is True
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
