"""Unit tests for the experiment-service job model."""

import pytest

from repro.service import ServiceError
from repro.service.jobs import (
    KIND_CACHED,
    KIND_SIMULATED,
    TASK_CANCELLED,
    TASK_DONE,
    TASK_PENDING,
    Job,
    JobSpec,
    JobState,
)
from repro.harness.parallel import SimTask
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.telemetry.config import TelemetryConfig


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


def _spec(name="grid", stream="s", seeds=(1, 2), rate=None):
    tasks = tuple(SimTask(_config(seed=seed), rate=rate) for seed in seeds)
    return JobSpec(name=name, tasks=tasks, stream=stream)


@pytest.fixture(scope="module")
def tiny_result():
    return Simulator(_config()).run()


class TestJobSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ServiceError):
            JobSpec(name="", tasks=(SimTask(_config()),))

    def test_rejects_empty_stream(self):
        with pytest.raises(ServiceError):
            JobSpec(name="g", tasks=(SimTask(_config()),), stream="")

    def test_rejects_empty_grid(self):
        with pytest.raises(ServiceError):
            JobSpec(name="g", tasks=())

    def test_rejects_active_telemetry(self):
        config = _config(telemetry=TelemetryConfig(sample_every=10))
        with pytest.raises(ServiceError, match="telemetry"):
            JobSpec(name="g", tasks=(SimTask(config),))

    def test_inactive_telemetry_accepted(self):
        config = _config(telemetry=TelemetryConfig(sample_every=0))
        assert not config.telemetry.active
        JobSpec(name="g", tasks=(SimTask(config),))

    def test_hash_ignores_task_order_name_and_stream(self):
        a = _spec(name="a", stream="x", seeds=(1, 2))
        b = _spec(name="b", stream="y", seeds=(2, 1))
        assert a.spec_hash() == b.spec_hash()

    def test_hash_distinguishes_grids(self):
        assert _spec(seeds=(1, 2)).spec_hash() != _spec(seeds=(1, 3)).spec_hash()

    def test_hash_uses_resolved_rates(self):
        # A task's rate override participates via the resolved config.
        base = _spec(seeds=(1,), rate=0.07)
        resolved = JobSpec(
            name="g", tasks=(SimTask(_config(seed=1, injection_rate=0.07)),)
        )
        assert base.spec_hash() == resolved.spec_hash()

    def test_round_trip(self):
        spec = _spec(name="rt", stream="z", seeds=(3, 4), rate=0.08)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        # An older client still sends a stream weight; it is ignored.
        assert JobSpec.from_dict({**spec.to_dict(), "weight": 2.5}) == spec

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


class TestJobLifecycle:
    def test_initial_state(self):
        job = Job(id="j1", spec=_spec())
        assert job.state is JobState.QUEUED
        assert not job.state.terminal
        assert job.task_states == [TASK_PENDING, TASK_PENDING]

    def test_completes_when_all_tasks_land(self, tiny_result):
        job = Job(id="j1", spec=_spec())
        job.mark_running(0)
        assert job.state is JobState.RUNNING
        job.finish_task(0, tiny_result, KIND_SIMULATED)
        assert job.state is JobState.RUNNING
        job.finish_task(1, tiny_result, KIND_CACHED)
        assert job.state is JobState.DONE
        assert job.state.terminal
        assert job.finished_at is not None
        counts = job.counts()
        assert counts["done"] == 2
        assert counts[KIND_SIMULATED] == 1
        assert counts[KIND_CACHED] == 1

    def test_any_failed_task_fails_the_job(self, tiny_result):
        job = Job(id="j1", spec=_spec())
        job.fail_task(0, "boom")
        job.finish_task(1, tiny_result, KIND_SIMULATED)
        assert job.state is JobState.FAILED
        assert job.error == "boom"

    def test_cancel_drops_undone_keeps_done(self, tiny_result):
        job = Job(id="j1", spec=_spec(seeds=(1, 2, 3)))
        job.finish_task(0, tiny_result, KIND_SIMULATED)
        job.mark_running(1)
        assert job.cancel() is True
        assert job.state is JobState.CANCELLED
        assert job.task_states[0] == TASK_DONE
        assert job.task_states[1] == TASK_CANCELLED
        assert job.task_states[2] == TASK_CANCELLED
        # Cancelling twice is a no-op.
        assert job.cancel() is False

    def test_late_result_on_terminal_job_is_dropped(self, tiny_result):
        job = Job(id="j1", spec=_spec())
        job.cancel()
        job.finish_task(0, tiny_result, KIND_SIMULATED)
        assert job.state is JobState.CANCELLED
        assert job.results[0] is None

    def test_a_finished_task_costs_no_walk_over_the_grid(
        self, tiny_result, monkeypatch
    ):
        """Progress lines and the last-task check come from counters;
        `counts()` is for `summary()`."""

        def recount(self):
            raise AssertionError("counts() called per finished task")

        monkeypatch.setattr(Job, "counts", recount)
        job = Job(id="j1", spec=_spec(seeds=(1, 2, 3)))
        job.finish_task(2, tiny_result, KIND_CACHED)
        job.fail_task(0, "boom")
        assert job.state is JobState.RUNNING
        job.finish_task(1, tiny_result, KIND_SIMULATED)
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

    def test_summary_and_result_points(self, tiny_result):
        job = Job(id="j1", spec=_spec(seeds=(1, 2)))
        job.finish_task(0, tiny_result, KIND_SIMULATED)
        summary = job.summary()
        assert summary["job_id"] == "j1"
        assert summary["state"] == "running"
        assert summary["hash"] == job.spec.spec_hash()
        assert summary["counts"]["done"] == 1
        points = job.result_points()
        assert len(points) == 2
        assert points[0]["kind"] == KIND_SIMULATED
        assert points[0]["avg_latency"] is not None
        assert points[0]["drained"] is True
        assert points[1]["state"] == TASK_PENDING
        assert "avg_latency" not in points[1]
        assert [p["rate"] for p in points] == [0.05, 0.05]

    def test_result_points_carry_the_swept_load(self):
        """A hotspot row shows its hotspot rate, not the constant
        injection rate the grid never swept."""
        tasks = tuple(
            SimTask(_config(traffic="hotspot"), rate=rate)
            for rate in (0.02, 0.3)
        )
        job = Job(id="j1", spec=JobSpec(name="hot", tasks=tasks))
        assert [p["rate"] for p in job.result_points()] == [0.02, 0.3]
