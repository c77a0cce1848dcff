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

Each task has one status in ``Job.tasks``.  A live task is ``pending``,
``running`` (simulating for this job) or ``shared_waiting`` (subscribed
to another task's identical run).  A finished task holds the *kind* it
finished by — ``simulated``, ``cached`` or ``shared`` — so dedup is
observable: a resubmitted grid finishes with zero ``simulated`` tasks.
The rest end ``failed`` or ``cancelled``.  On the wire a finished task
reads ``state: "done"`` with its kind, and a waiting one ``state:
"shared"`` with none (:meth:`Job.result_points`).
"""

from __future__ import annotations

import enum
import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
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


#: How a finished task got its result; the statuses a live task holds;
#: the wire ``(state, kind)`` of each status not sent as itself.
KINDS = ("simulated", "cached", "shared")
_LIVE = ("pending", "running", "shared_waiting")
_WIRE = {"shared_waiting": ("shared", None), **{k: ("done", k) for k in KINDS}}


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a submitted job.

    ``stream`` is a label only: it is shown by ``status`` and does not
    change when the job runs.  Tasks requesting active telemetry are
    rejected: the service dedupes through the telemetry-blind result
    cache, so it could not honor a request for collected series.

    Tasks are resolved once, on construction; keys and hash once, on
    first use (a spec built only to be sent derives none).
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
        # Resolving checks each task's rate; the configs are kept.
        for config in self.configs:
            if _wants_telemetry(config):
                raise ServiceError(
                    f"job '{self.name}' requests active telemetry; the "
                    f"service dedupes through the telemetry-blind result "
                    f"cache and cannot serve collected series — run "
                    f"telemetry configs through the local harness instead"
                )

    # ------------------------------------------------------------------
    @cached_property
    def configs(self) -> tuple[SimulationConfig, ...]:
        """Per-task resolved configs, in task order."""
        return tuple(task.resolved_config() for task in self.tasks)

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """Per-task result-cache keys, in task order."""
        return tuple(map(config_cache_key, self.configs))

    @cached_property
    def _hash(self) -> str:
        blob = "\n".join(sorted(self.keys))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def spec_hash(self) -> str:
        """Content hash of the grid (order- and stream-insensitive)."""
        return self._hash

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
    #: Per-task status (module docstring) and result, task-indexed.
    tasks: list[str] = field(default_factory=list)
    results: list[SimulationResult | None] = field(default_factory=list)
    #: Progress events: (wall time, message), oldest first, bounded.
    events: list[tuple[float, str]] = field(default_factory=list)

    MAX_EVENTS = 64

    def __post_init__(self) -> None:
        count = len(self.spec.tasks)
        self.tasks = ["pending"] * count
        self.results = [None] * count
        #: Tasks done, and tasks not yet in a terminal state: what one
        #: finished task needs to know, without a walk over the grid.
        self._done = 0
        self._remaining = count
        self.record(f"queued on stream '{self.spec.stream}' ({count} tasks)")

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Tasks by status; ``done`` totals the three kinds."""
        tally = Counter(self.tasks)
        return {
            "total": len(self.tasks),
            **{status: tally[status] for status in _LIVE},
            "done": self._done,
            "failed": tally["failed"],
            "cancelled": tally["cancelled"],
            **{kind: tally[kind] for kind in KINDS},
        }

    def record(self, message: str) -> None:
        """Append a bounded progress event."""
        self.events.append((time.time(), message))
        if len(self.events) > self.MAX_EVENTS:
            del self.events[: len(self.events) - self.MAX_EVENTS]

    # ------------------------------------------------------------------
    # Transitions (driven by the scheduler)
    # ------------------------------------------------------------------
    def start(self, index: int, status: str) -> None:
        """Set task ``index``'s status; a queued job starts running."""
        self.tasks[index] = status
        if self.state is JobState.QUEUED:
            self.state = JobState.RUNNING
            self.record("running")

    def finish_task(
        self, index: int, result: SimulationResult, kind: str
    ) -> None:
        """Record one task's result; late results on a dead job are
        dropped (the simulation still fed the cache and any sharers)."""
        if self.state.terminal:
            return
        self.start(index, kind)  # a cache hit starts and ends at once
        self.results[index] = result
        self._done += 1
        self.record(f"task {index} {kind} ({self._done}/{len(self.tasks)})")
        self._task_settled()

    def fail_task(self, index: int, error: str) -> None:
        if self.state.terminal:
            return
        self.tasks[index] = "failed"
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
        for index, status in enumerate(self.tasks):
            if status in _LIVE:
                self.tasks[index] = "cancelled"
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
        elapsed = (self.finished_at or time.time()) - self.submitted_at
        return {
            "job_id": self.id,
            "name": self.spec.name,
            "stream": self.spec.stream,
            "state": self.state.value,
            "hash": self.spec.spec_hash(),
            "error": self.error,
            "counts": self.counts(),
            "elapsed_s": round(elapsed, 3),
            "events": [
                [round(ts, 3), message] for ts, message in self.events[-8:]
            ],
        }

    def result_points(self) -> list[dict[str, Any]]:
        """Compact per-task outcome rows for the ``result`` verb."""
        points = []
        for config, status, result in zip(
            self.spec.configs, self.tasks, self.results
        ):
            state, kind = _WIRE.get(status, (status, None))
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
