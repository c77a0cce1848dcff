"""Unit tests for the experiment-service job model."""

import asyncio
import threading

import pytest

from repro.service import ServiceError
from repro.service.jobs import Job, JobSpec, JobState, Served, payload
from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask
from repro.service.scheduler import ExperimentScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.telemetry.config import TelemetryConfig

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


def _read(tasks, name="g", stream="default"):
    """The spec a server reads off the wire for ``tasks``."""
    return JobSpec.from_dict(payload(name, tasks, stream))


def _spec(name="grid", stream="s", seeds=(1, 2), rate=None):
    tasks = [SimTask(_config(seed=seed), rate=rate) for seed in seeds]
    return _read(tasks, name, stream)


@pytest.fixture(scope="module")
def tiny_result():
    return Simulator(_config()).run()


@pytest.fixture(scope="module")
def tiny_served(tiny_result):
    return Served.of(tiny_result)


class TestJobSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ServiceError):
            _read([SimTask(_config())], name="")

    def test_rejects_empty_stream(self):
        with pytest.raises(ServiceError):
            _read([SimTask(_config())], stream="")

    def test_rejects_empty_grid(self):
        with pytest.raises(ServiceError):
            _read([])

    def test_rejects_active_telemetry(self):
        config = _config(telemetry=TelemetryConfig(sample_every=10))
        with pytest.raises(ServiceError, match="telemetry"):
            _read([SimTask(config)])

    def test_inactive_telemetry_accepted(self):
        config = _config(telemetry=TelemetryConfig(sample_every=0))
        assert not config.telemetry.active
        _read([SimTask(config)])

    def test_hash_ignores_task_order_name_and_stream(self):
        a = _spec(name="a", stream="x", seeds=(1, 2))
        b = _spec(name="b", stream="y", seeds=(2, 1))
        assert a.spec_hash() == b.spec_hash()

    def test_hash_distinguishes_grids(self):
        assert _spec(seeds=(1, 2)).spec_hash() != _spec(seeds=(1, 3)).spec_hash()

    def test_hash_uses_resolved_rates(self):
        # A task's rate override participates via the resolved config.
        base = _spec(seeds=(1,), rate=0.07)
        resolved = _read([SimTask(_config(seed=1, injection_rate=0.07))])
        assert base.spec_hash() == resolved.spec_hash()

    def test_round_trip(self):
        tasks = [SimTask(_config(seed=seed), rate=0.08) for seed in (3, 4)]
        sent = payload("rt", tasks, "z")
        spec = JobSpec.from_dict(sent)
        assert (spec.name, spec.stream) == ("rt", "z")
        assert spec.configs == tuple(t.resolved_config() for t in tasks)
        assert spec.wire_keys == spec.keys
        assert spec.wire_hash() == spec.spec_hash()
        # An older client still sends a stream weight; it is ignored.
        assert JobSpec.from_dict({**sent, "weight": 2.5}) == spec

    def test_from_dict_malformed(self):
        with pytest.raises(ServiceError, match="malformed"):
            JobSpec.from_dict({"name": "g"})
        with pytest.raises(ServiceError, match="malformed"):
            JobSpec.from_dict({"name": "g", "tasks": [{}]})
        config = _config().to_dict()
        for rate in (-1, 5, float("nan")):
            with pytest.raises(ServiceError, match="malformed job spec"):
                JobSpec.from_dict(
                    {"name": "g", "tasks": [{"config": config, "rate": rate}]}
                )
        # A config that only its build refuses is refused when built:
        # the scheduler builds every config at admission.
        spec = JobSpec.from_dict(
            {"name": "g", "tasks": [{"config": {**config, "width": 4.0}}]}
        )
        with pytest.raises(ServiceError, match="malformed job spec"):
            spec.configs


class TestJobLifecycle:
    def test_initial_state(self):
        job = Job(id="j1", spec=_spec())
        assert job.state is JobState.QUEUED
        assert not job.state.terminal
        assert job.tasks == ["pending", "pending"]

    def test_completes_when_all_tasks_land(self, tiny_served):
        job = Job(id="j1", spec=_spec())
        job.start(0, "running")
        assert job.state is JobState.RUNNING
        job.finish_task(0, tiny_served, "simulated")
        assert job.state is JobState.RUNNING
        job.finish_task(1, tiny_served, "cached")
        assert job.state is JobState.DONE
        assert job.state.terminal
        assert job.finished_at is not None
        counts = job.counts()
        assert counts["done"] == 2
        assert counts["simulated"] == 1
        assert counts["cached"] == 1

    def test_any_failed_task_fails_the_job(self, tiny_served):
        job = Job(id="j1", spec=_spec())
        job.fail_task(0, "boom")
        job.finish_task(1, tiny_served, "simulated")
        assert job.state is JobState.FAILED
        assert job.error == "boom"

    def test_cancel_drops_undone_keeps_done(self, tiny_served):
        job = Job(id="j1", spec=_spec(seeds=(1, 2, 3)))
        job.finish_task(0, tiny_served, "simulated")
        job.start(1, "running")
        assert job.cancel() is True
        assert job.state is JobState.CANCELLED
        assert job.tasks == ["simulated", "cancelled", "cancelled"]
        # Cancelling twice is a no-op.
        assert job.cancel() is False

    def test_late_result_on_terminal_job_is_dropped(self, tiny_served):
        job = Job(id="j1", spec=_spec())
        job.cancel()
        job.finish_task(0, tiny_served, "simulated")
        assert job.state is JobState.CANCELLED
        assert job.results[0] is None

    def test_a_finished_task_costs_no_walk_over_the_grid(
        self, tiny_served, monkeypatch
    ):
        """Progress lines and the last-task check come from counters;
        `counts()` is for `summary()`."""

        def recount(self):
            raise AssertionError("counts() called per finished task")

        monkeypatch.setattr(Job, "counts", recount)
        job = Job(id="j1", spec=_spec(seeds=(1, 2, 3)))
        job.finish_task(2, tiny_served, "cached")
        job.fail_task(0, "boom")
        assert job.state is JobState.RUNNING
        job.finish_task(1, tiny_served, "simulated")
        assert job.state is JobState.FAILED
        assert [message for _, message in job.events[-4:]] == [
            "task 2 cached (1/3)",
            "task 0 failed: boom",
            "task 1 simulated (2/3)",
            "failed",
        ]

    def test_events_are_bounded(self):
        job = Job(id="j1", spec=_spec())
        for i in range(Job.MAX_EVENTS * 3):
            job.record(f"event {i}")
        assert len(job.events) == Job.MAX_EVENTS
        assert job.events[-1][1] == f"event {Job.MAX_EVENTS * 3 - 1}"

    def test_summary_and_result_points(self, tiny_served):
        job = Job(id="j1", spec=_spec(seeds=(1, 2)))
        job.finish_task(0, tiny_served, "simulated")
        summary = job.summary()
        assert summary["job_id"] == "j1"
        assert summary["state"] == "running"
        assert summary["hash"] == job.spec.spec_hash()
        assert summary["counts"]["done"] == 1
        points = job.result_points()
        assert len(points) == 2
        assert points[0]["kind"] == "simulated"
        assert points[0]["avg_latency"] is not None
        assert points[0]["drained"] is True
        assert points[1]["state"] == "pending"
        assert "avg_latency" not in points[1]
        assert [p["rate"] for p in points] == [0.05, 0.05]

    def test_result_points_carry_the_swept_load(self):
        """A hotspot row shows its hotspot rate, not the constant
        injection rate the grid never swept."""
        tasks = tuple(
            SimTask(_config(traffic="hotspot"), rate=rate)
            for rate in (0.02, 0.3)
        )
        job = Job(id="j1", spec=_read(tasks, name="hot"))
        assert [p["rate"] for p in job.result_points()] == [0.02, 0.3]


class TestWireFormat:
    """What `status` and `result` say about a task in every status.

    The literals are the wire format clients read; a change to the job
    model must reproduce them.  The job is driven through the scheduler
    (one worker, held by a gate), so the test names no transition
    method: task 0 runs, task 1 repeats task 0's config and waits on its
    run, task 2 is in the cache, tasks 3-6 queue; three of those are
    then finished or failed by hand.
    """

    def test_counts_and_points_of_every_status(
        self, tiny_result, tiny_served, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        cache.put(Simulator(_config(seed=11)).run())
        gate = threading.Event()

        def run(task):
            gate.wait(timeout=30)
            return tiny_result

        def wire(job):
            rows = [(p["state"], p["kind"]) for p in job.result_points()]
            return job.summary()["counts"], rows

        async def main():
            sched = ExperimentScheduler(jobs=1, cache=cache, run_task=run)
            job, _ = sched.submit(_spec(seeds=(1, 1, 11, 2, 3, 4, 5)))
            job.finish_task(3, tiny_served, "simulated")
            job.finish_task(4, tiny_served, "shared")
            job.fail_task(5, "boom")
            live = wire(job)
            job.cancel()
            cancelled = wire(job)
            gate.set()
            await sched.close()
            return live, cancelled

        live, cancelled = asyncio.run(main())
        assert live == (
            {
                "total": 7,
                "pending": 1,
                "running": 1,
                "shared_waiting": 1,
                "done": 3,
                "failed": 1,
                "cancelled": 0,
                "simulated": 1,
                "cached": 1,
                "shared": 1,
            },
            [
                ("running", None),
                ("shared", None),
                ("done", "cached"),
                ("done", "simulated"),
                ("done", "shared"),
                ("failed", None),
                ("pending", None),
            ],
        )
        assert cancelled == (
            {
                "total": 7,
                "pending": 0,
                "running": 0,
                "shared_waiting": 0,
                "done": 3,
                "failed": 1,
                "cancelled": 3,
                "simulated": 1,
                "cached": 1,
                "shared": 1,
            },
            [
                ("cancelled", None),
                ("cancelled", None),
                ("done", "cached"),
                ("done", "simulated"),
                ("done", "shared"),
                ("failed", None),
                ("cancelled", None),
            ],
        )
