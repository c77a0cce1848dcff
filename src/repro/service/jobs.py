"""Job model of the experiment service.

A *job* is a named grid of :class:`~repro.harness.parallel.SimTask`s,
with a free-text *stream* label naming its submitter.  Jobs are
content-addressed: the job hash is a SHA-256 over the sorted multiset
of per-task result-cache keys (:func:`repro.harness.cache.
config_cache_key` of each resolved config), so two submissions of the
same grid — regardless of task order, name or stream — hash
identically and the scheduler can answer the second from the first.
The same per-task keys drive the finer dedup levels: a task already in
the persistent cache completes without simulating, and a task currently
simulating for another job is *shared* rather than re-run.

:class:`Job` is the mutable runtime record.  Its lifecycle is::

    QUEUED -> RUNNING -> DONE
                      -> FAILED
    QUEUED/RUNNING ---> CANCELLED

Per-task terminal states carry a *kind* — ``simulated``, ``cached`` or
``shared`` — so dedup is observable: a resubmitted grid finishes with
zero ``simulated`` tasks, and the acceptance demo's "overlapping tasks
run exactly once" claim is checked from these counters.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError
from repro.harness.cache import config_cache_key
from repro.harness.parallel import SimTask, _wants_telemetry
from repro.service import ServiceError
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult


class JobState(enum.Enum):
    """Lifecycle state of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Per-task states.  ``pending`` and ``running`` are transient;
#: ``shared`` means the task is waiting on another job's identical
#: in-flight simulation; the rest are terminal.
TASK_PENDING = "pending"
TASK_RUNNING = "running"
TASK_SHARED = "shared"
TASK_DONE = "done"
TASK_FAILED = "failed"
TASK_CANCELLED = "cancelled"

#: Task kinds recorded on completion (how the result was obtained).
KIND_SIMULATED = "simulated"
KIND_CACHED = "cached"
KIND_SHARED = "shared"


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a submitted job.

    ``stream`` is a label only: it is shown by ``status`` and does not
    change when the job runs.  Tasks requesting active telemetry are
    rejected: the service dedupes through the telemetry-blind result
    cache, so it could not honor a request for collected series.
    """

    name: str
    tasks: tuple[SimTask, ...]
    stream: str = "default"

    def __post_init__(self) -> None:
        for field_name in ("name", "stream"):
            value = getattr(self, field_name)
            if not isinstance(value, str) or not value:
                raise ServiceError(
                    f"job {field_name} must be a non-empty string, "
                    f"got {value!r}"
                )
        if not self.tasks:
            raise ServiceError(f"job '{self.name}' has no tasks")
        for task in self.tasks:
            if _wants_telemetry(task.resolved_config()):
                raise ServiceError(
                    f"job '{self.name}' requests active telemetry; the "
                    f"service dedupes through the telemetry-blind result "
                    f"cache and cannot serve collected series — run "
                    f"telemetry configs through the local harness instead"
                )

    # ------------------------------------------------------------------
    def task_keys(self) -> tuple[str, ...]:
        """Per-task result-cache keys, in task order."""
        return tuple(
            config_cache_key(task.resolved_config()) for task in self.tasks
        )

    def spec_hash(self) -> str:
        """Content hash of the grid (order- and stream-insensitive)."""
        blob = "\n".join(sorted(self.task_keys()))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Wire form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "stream": self.stream,
            "tasks": [
                {
                    "config": task.config.to_dict(),
                    "rate": task.rate,
                }
                for task in self.tasks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (or parsed JSON);
        a ``weight`` field from an older client is ignored."""
        try:
            raw_tasks = data["tasks"]
            tasks = tuple(
                SimTask(
                    config=SimulationConfig.from_dict(item["config"]),
                    rate=item.get("rate"),
                )
                for item in raw_tasks
            )
            return cls(
                name=data["name"],
                tasks=tasks,
                stream=data.get("stream", "default"),
            )
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise ServiceError(f"malformed job spec: {exc!r}") from None


@dataclass
class Job:
    """Mutable runtime record of one submitted job."""

    id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    error: str | None = None
    #: Per-task state (TASK_* constants), kind, and result, task-indexed.
    task_states: list[str] = field(default_factory=list)
    task_kinds: list[str | None] = field(default_factory=list)
    results: list[SimulationResult | None] = field(default_factory=list)
    #: Progress events: (wall time, message), oldest first, bounded.
    events: list[tuple[float, str]] = field(default_factory=list)

    MAX_EVENTS = 64

    def __post_init__(self) -> None:
        count = len(self.spec.tasks)
        self.task_states = [TASK_PENDING] * count
        self.task_kinds = [None] * count
        self.results = [None] * count
        self._keys = self.spec.task_keys()
        #: Tasks done, and tasks not yet in a terminal state: what one
        #: finished task needs to know, without a walk over the grid.
        self._done = 0
        self._remaining = count
        self.record(f"queued on stream '{self.spec.stream}' ({count} tasks)")

    # ------------------------------------------------------------------
    def task_key(self, index: int) -> str:
        return self._keys[index]

    def counts(self) -> dict[str, int]:
        """Task totals by terminal kind plus live-state buckets."""
        out = {
            "total": len(self.task_states),
            "pending": 0,
            "running": 0,
            "shared_waiting": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            KIND_SIMULATED: 0,
            KIND_CACHED: 0,
            KIND_SHARED: 0,
        }
        for state in self.task_states:
            if state == TASK_PENDING:
                out["pending"] += 1
            elif state == TASK_RUNNING:
                out["running"] += 1
            elif state == TASK_SHARED:
                out["shared_waiting"] += 1
            elif state == TASK_DONE:
                out["done"] += 1
            elif state == TASK_FAILED:
                out["failed"] += 1
            elif state == TASK_CANCELLED:
                out["cancelled"] += 1
        for kind in self.task_kinds:
            if kind is not None:
                out[kind] += 1
        return out

    def record(self, message: str) -> None:
        """Append a bounded progress event."""
        self.events.append((time.time(), message))
        if len(self.events) > self.MAX_EVENTS:
            del self.events[: len(self.events) - self.MAX_EVENTS]

    # ------------------------------------------------------------------
    # Transitions (driven by the scheduler)
    # ------------------------------------------------------------------
    def mark_running(self, index: int) -> None:
        self.task_states[index] = TASK_RUNNING
        self._now_running()

    def mark_shared(self, index: int) -> None:
        self.task_states[index] = TASK_SHARED
        self._now_running()

    def _now_running(self) -> None:
        if self.state == JobState.QUEUED:
            self.state = JobState.RUNNING
            self.record("running")

    def finish_task(
        self, index: int, result: SimulationResult, kind: str
    ) -> None:
        """Record one task's result; late results on a dead job are
        dropped (the simulation still fed the cache and any sharers)."""
        if self.state.terminal:
            return
        self.task_states[index] = TASK_DONE
        self.task_kinds[index] = kind
        self.results[index] = result
        self._now_running()
        self._done += 1
        self.record(
            f"task {index} {kind} ({self._done}/{len(self.task_states)})"
        )
        self._task_settled()

    def fail_task(self, index: int, error: str) -> None:
        if self.state.terminal:
            return
        self.task_states[index] = TASK_FAILED
        self.record(f"task {index} failed: {error}")
        if self.error is None:
            self.error = error
        self._task_settled()

    def cancel(self) -> bool:
        """Cancel the job: drop undone tasks, keep finished results.

        Tasks currently simulating are not interrupted — their results
        still enter the cache (and satisfy sharers) but no longer count
        toward this job.  Returns False when already terminal.
        """
        if self.state.terminal:
            return False
        for index, state in enumerate(self.task_states):
            if state in (TASK_PENDING, TASK_RUNNING, TASK_SHARED):
                self.task_states[index] = TASK_CANCELLED
        self._remaining = 0
        self._finish(JobState.CANCELLED)
        return True

    def _task_settled(self) -> None:
        """One live task reached a terminal state; the last ends the job."""
        self._remaining -= 1
        if not self._remaining:
            # `error` is set by, and only by, a failed task.
            failed = self.error is not None
            self._finish(JobState.FAILED if failed else JobState.DONE)

    def _finish(self, state: JobState) -> None:
        self.state = state
        self.finished_at = time.time()
        self.record(state.value)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Status-verb payload: state, counters, recent events."""
        counts = self.counts()
        elapsed = (
            (self.finished_at or time.time()) - self.submitted_at
        )
        return {
            "job_id": self.id,
            "name": self.spec.name,
            "stream": self.spec.stream,
            "state": self.state.value,
            "hash": self.spec.spec_hash(),
            "error": self.error,
            "counts": counts,
            "elapsed_s": round(elapsed, 3),
            "events": [
                [round(ts, 3), message] for ts, message in self.events[-8:]
            ],
        }

    def result_points(self) -> list[dict[str, Any]]:
        """Compact per-task outcome rows for the ``result`` verb."""
        points = []
        for task, state, kind, result in zip(
            self.spec.tasks, self.task_states, self.task_kinds, self.results
        ):
            config = task.resolved_config()
            point: dict[str, Any] = {
                "routing": config.routing,
                "traffic": config.traffic,
                "rate": getattr(config, config.load_field),
                "state": state,
                "kind": kind,
            }
            if result is not None:
                avg = result.avg_latency
                point.update(
                    avg_latency=None if avg != avg else round(avg, 4),
                    accepted_rate=round(result.accepted_rate, 6),
                    offered_rate=round(result.offered_rate, 6),
                    drained=result.drained,
                )
            points.append(point)
        return points
