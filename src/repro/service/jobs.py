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
:func:`payload` writes a ``submit`` payload and :meth:`JobSpec.from_dict`
reads it, once: its keys are read off the wire dicts, so a resubmitted
grid is found before any config is built, and a new grid builds each
config once and keeps those keys.

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
"shared"`` with none (:meth:`Job.result_points`).  A finished task's
result is held :class:`Served`: encoded when it lands, so a repeated
``result`` re-encodes nothing.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, NamedTuple

from repro.exceptions import ConfigurationError, FaultError
from repro.harness import cache
from repro.harness.parallel import SimTask
from repro.service import ServiceError
from repro.sim.config import SimulationConfig, check_rate, load_field_of
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


class Served(NamedTuple):
    """A finished task's result as the job table holds it: its wire
    JSON (``SimulationResult.to_dict()`` encoded, the bytes a ``result
    full`` line is put together from) and its ``result_points`` fields,
    both taken once, when it lands."""

    wire: bytes
    point: dict[str, Any]

    @classmethod
    def of(cls, result: SimulationResult) -> "Served":
        avg = result.avg_latency
        return cls(
            json.dumps(result.to_dict(), separators=(",", ":")).encode(),
            {
                "avg_latency": None if avg != avg else round(avg, 4),
                "accepted_rate": round(result.accepted_rate, 6),
                "offered_rate": round(result.offered_rate, 6),
                "drained": result.drained,
            },
        )


@dataclass(frozen=True)
class JobSpec:
    """A submitted grid as read off the wire (:meth:`from_dict`): each
    task's config dict, its rate written into the :func:`load_field_of`
    field and telemetry dropped, and that dict's cache key.  The wire
    keys find a resubmitted grid before any config is built
    (:meth:`wire_hash`); a new grid builds each config once.

    ``stream`` is a label only: it is shown by ``status`` and does not
    change when the job runs.  Tasks requesting active telemetry are
    rejected: the service dedupes through the telemetry-blind result
    cache, so it could not honor a request for collected series.
    """

    name: str
    stream: str
    dicts: tuple[dict[str, Any], ...]
    wire_keys: tuple[str, ...]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Read a ``submit`` payload (:func:`payload`, parsed); a
        ``weight`` field from an older client is ignored.  A malformed
        payload is a :class:`ServiceError`."""
        name, stream = data.get("name"), data.get("stream", "default")
        for field_name, value in (("name", name), ("stream", stream)):
            if not (isinstance(value, str) and value):
                raise ServiceError(
                    f"job {field_name} must be a non-empty string, "
                    f"got {value!r}"
                )
        try:
            dicts = []
            for item in data["tasks"]:
                config = dict(item["config"])
                telemetry = config.pop("telemetry", None)
                if telemetry is not None and _active(telemetry):
                    raise ServiceError(
                        f"job '{name}' requests active telemetry, which the "
                        f"telemetry-blind result cache cannot serve; run "
                        f"it through the local harness"
                    )
                rate = item.get("rate")
                if rate is not None:
                    # The base value it replaces must still be valid.
                    load = load_field_of(
                        config.get("traffic", SimulationConfig.traffic)
                    )
                    if load in config:
                        check_rate(load, config[load])
                    check_rate(load, rate)
                    config[load] = rate
                dicts.append(config)
            keys = tuple(map(cache._config_dict_key, dicts))
        except _MALFORMED as exc:
            raise ServiceError(f"malformed job spec: {exc!r}") from None
        if not dicts:
            raise ServiceError(f"job '{name}' has no tasks")
        return cls(name, stream, tuple(dicts), keys)

    # ------------------------------------------------------------------
    @cached_property
    def configs(self) -> tuple[SimulationConfig, ...]:
        """Per-task configs, each built once, in task order."""
        try:
            return tuple(map(SimulationConfig.from_dict, self.dicts))
        except _MALFORMED as exc:
            raise ServiceError(f"malformed job spec: {exc!r}") from None

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """Per-task result-cache keys, in task order: the wire key where
        a config writes out as its dict, else derived from the config."""
        return tuple(map(_key_of, self.configs, self.dicts, self.wire_keys))

    def wire_hash(self) -> str:
        """The grid's hash by its wire keys: :meth:`spec_hash` wherever
        the dicts are :meth:`SimulationConfig.to_dict` forms."""
        return _grid_hash(self.wire_keys)

    @cached_property
    def _hash(self) -> str:
        return _grid_hash(self.keys)

    def spec_hash(self) -> str:
        """Content hash of the grid (order- and stream-insensitive)."""
        return self._hash


#: What reading or building a malformed task raises.
_MALFORMED = (KeyError, TypeError, ValueError, ConfigurationError, FaultError)


def payload(
    name: str, tasks: Iterable[SimTask], stream: str = "default"
) -> dict[str, Any]:
    """The ``submit`` fields of a grid, which :meth:`JobSpec.from_dict`
    reads; no config is built or checked here."""
    tasks = [{"config": t.config.to_dict(), "rate": t.rate} for t in tasks]
    return {"name": name, "stream": stream, "tasks": tasks}


def _active(telemetry: dict[str, Any]) -> bool:
    """Whether a config's telemetry dict asks for collected series."""
    # Imported lazily, as SimulationConfig.from_dict does.
    from repro.telemetry.config import TelemetryConfig

    return TelemetryConfig.from_dict(telemetry).active


def _grid_hash(keys: Iterable[str]) -> str:
    """The job hash of a grid's per-task keys (any order)."""
    blob = "\n".join(sorted(keys))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _key_of(config: SimulationConfig, seen: dict[str, Any], key: str) -> str:
    """``config``'s cache key: ``key`` if ``config`` writes out as
    ``seen``, the dict ``key`` was taken from (telemetry aside)."""
    asking = config.to_dict()
    del asking["telemetry"]
    if cache._same_json(asking, seen):
        return key
    return cache._config_dict_key(asking)


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
    results: list[Served | None] = field(default_factory=list)
    #: Progress events: (wall time, message), oldest first, bounded.
    events: list[tuple[float, str]] = field(default_factory=list)

    MAX_EVENTS = 64

    def __post_init__(self) -> None:
        count = len(self.spec.dicts)
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

    def finish_task(self, index: int, served: Served, kind: str) -> None:
        """Record one task's result; late results on a dead job are
        dropped (the simulation still fed the cache and any sharers)."""
        if self.state.terminal:
            return
        self.start(index, kind)  # a cache hit starts and ends at once
        self.results[index] = served
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
        for config, status, held in zip(
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
            if held is not None:
                point.update(held.point)
            points.append(point)
        return points
