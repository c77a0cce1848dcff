"""Multi-stream weighted-fair scheduler over a bounded executor.

Each client *stream* owns a FIFO of jobs; the scheduler interleaves
tasks from all active streams onto at most ``max_workers`` concurrent
simulations.  Fairness is start-time fair queueing over the harness's
deterministic cost model: every stream carries a *virtual time* that
advances by ``estimate_task_cycles(task) / weight`` whenever one of its
tasks starts simulating, and the dispatcher always serves the ready
stream with the smallest virtual time (ties broken by stream name).
Equal-weight streams therefore alternate in proportion to simulated
work; a weight-2 stream receives twice the share of a weight-1 stream.

Dedup happens at dispatch time, newest information first:

1. **in-flight** — a task whose cache key is currently simulating for
   any job *subscribes* to that run instead of dispatching again;
2. **cache** — a task whose key is already in the persistent
   :class:`~repro.harness.cache.ResultCache` completes immediately;
3. otherwise the task simulates on the executor and its result is
   stored back, so later submissions hit level 2.

Deduped completions cost no virtual time — they consume no executor
slot — which keeps the fair share defined over *actual compute*.

The scheduler is single-threaded asyncio: all bookkeeping runs on the
event loop, simulations run in worker threads (``max_workers == 1``) or
processes, and no locks are needed.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness.cache import ResultCache
from repro.harness.cost import estimate_task_cycles
from repro.harness.parallel import SimTask, _run_task, resolve_jobs
from repro.service import ServiceError
from repro.service.jobs import (
    KIND_CACHED,
    KIND_SHARED,
    KIND_SIMULATED,
    Job,
    JobSpec,
    JobState,
)
from repro.sim.results import SimulationResult

# The default worker simulates, and imports the engine when it first
# does.  Loading it here puts that in the server's boot instead of its
# first job, and ahead of the executor: pool workers are forked with
# the engine's pages already shared.
import repro.sim.engine  # noqa: F401


@dataclass
class StreamState:
    """One client stream: a FIFO of jobs plus its fair-share clock."""

    name: str
    weight: float = 1.0
    vtime: float = 0.0
    jobs: deque[Job] = field(default_factory=deque)
    dispatched: int = 0

    def next_ready(self) -> tuple[Job, int] | None:
        """First (job, task index) with a pending task, FIFO order."""
        for job in self.jobs:
            if job.state.terminal:
                continue
            index = job.next_pending()
            if index is not None:
                return job, index
        return None

    def compact(self) -> None:
        """Drop terminal jobs from the front of the FIFO."""
        while self.jobs and self.jobs[0].state.terminal:
            self.jobs.popleft()

    def info(self) -> dict[str, Any]:
        return {
            "stream": self.name,
            "weight": self.weight,
            "vtime": round(self.vtime, 1),
            "queued_jobs": sum(
                1 for job in self.jobs if not job.state.terminal
            ),
            "dispatched_tasks": self.dispatched,
        }


class _Inflight:
    """One running simulation plus the (job, task) pairs awaiting it."""

    __slots__ = ("owner", "waiters")

    def __init__(self, owner: tuple[Job, int]) -> None:
        self.owner = owner
        self.waiters: list[tuple[Job, int]] = []


class ExperimentScheduler:
    """Admits jobs, interleaves streams, dedupes, and runs tasks.

    ``run_task`` is the per-task worker callable (defaults to the
    harness's :func:`~repro.harness.parallel._run_task`); tests inject
    stubs here.  With ``jobs`` resolving to 1 the executor is a single
    worker thread — simulations block the thread, not the event loop —
    and above 1 it is a process pool sized to ``jobs``.
    """

    def __init__(
        self,
        jobs: int | str | None = None,
        cache: ResultCache | None = None,
        run_task: Callable[[SimTask], SimulationResult] | None = None,
    ) -> None:
        self.max_workers = resolve_jobs(jobs)
        self.cache = cache
        self._run_task = run_task if run_task is not None else _run_task
        self._executor: Executor | None = None
        self._streams: dict[str, StreamState] = {}
        self._jobs: dict[str, Job] = {}
        self._jobs_by_hash: dict[str, Job] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._active = 0
        self._reapers: set[asyncio.Task] = set()
        self._ids = itertools.count(1)
        #: Dispatch decisions, oldest first, for tests and `streams`:
        #: (stream, job id, task index, "simulate"|"cached"|"shared").
        self.dispatch_log: list[tuple[str, str, int, str]] = []
        self.total_simulated = 0
        self.total_cached = 0
        self.total_shared = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit ``spec``; returns ``(job, deduped)``.

        A grid whose content hash matches a live or completed job is
        answered by that job (``deduped=True``) — nothing is scheduled.
        Failed or cancelled jobs do not block resubmission.
        """
        spec_hash = spec.spec_hash()
        existing = self._jobs_by_hash.get(spec_hash)
        if existing is not None and existing.state not in (
            JobState.FAILED,
            JobState.CANCELLED,
        ):
            return existing, True
        job = Job(id=f"j{next(self._ids)}", spec=spec)
        self._jobs[job.id] = job
        self._jobs_by_hash[spec_hash] = job
        stream = self._streams.get(spec.stream)
        if stream is None:
            # A newborn stream starts at the minimum live vtime instead
            # of zero, so idling never banks unbounded credit.
            floor = min(
                (s.vtime for s in self._streams.values()), default=0.0
            )
            stream = StreamState(name=spec.stream, vtime=floor)
            self._streams[spec.stream] = stream
        stream.weight = spec.weight
        stream.jobs.append(job)
        self._pump()
        return job, False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get_job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job '{job_id}'")
        return job

    def jobs(self) -> list[Job]:
        """All jobs, oldest first."""
        return list(self._jobs.values())

    def stream_info(self) -> list[dict[str, Any]]:
        return [
            self._streams[name].info() for name in sorted(self._streams)
        ]

    def totals(self) -> dict[str, int]:
        return {
            "jobs": len(self._jobs),
            "streams": len(self._streams),
            "active_workers": self._active,
            "max_workers": self.max_workers,
            KIND_SIMULATED: self.total_simulated,
            KIND_CACHED: self.total_cached,
            KIND_SHARED: self.total_shared,
        }

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel ``job_id``; True if it was still live.

        Pending and shared tasks are dropped immediately; tasks already
        simulating run to completion (feeding the cache and any other
        subscribers) but their results no longer count toward the job.
        """
        job = self.get_job(job_id)
        # Drop the job from every in-flight waiter list first so a
        # finishing simulation does not resurrect it.
        for entry in self._inflight.values():
            entry.waiters = [
                (wjob, widx)
                for wjob, widx in entry.waiters
                if wjob is not job
            ]
        cancelled = job.cancel()
        if cancelled:
            # A cancelled grid must not shadow future resubmissions.
            spec_hash = job.spec.spec_hash()
            if self._jobs_by_hash.get(spec_hash) is job:
                del self._jobs_by_hash[spec_hash]
            self._streams[job.spec.stream].compact()
            self._pump()
        return cancelled

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Dispatch until no stream can make progress.

        Each round serves the smallest-vtime ready stream; when its head
        task needs an executor slot and none is free, the scan falls
        through to later streams so cache- and inflight-resolvable tasks
        never wait behind a full executor.
        """
        while True:
            progressed = False
            ready = sorted(
                (
                    stream
                    for stream in self._streams.values()
                    if stream.next_ready() is not None
                ),
                key=lambda stream: (stream.vtime, stream.name),
            )
            for stream in ready:
                picked = stream.next_ready()
                if picked is None:
                    continue
                job, index = picked
                key = job.task_key(index)
                entry = self._inflight.get(key)
                if entry is not None:
                    job.mark_shared(index)
                    entry.waiters.append((job, index))
                    self._log(stream, job, index, KIND_SHARED)
                    progressed = True
                    break
                cached = self._cache_get(job.spec.tasks[index])
                if cached is not None:
                    self.total_cached += 1
                    self._log(stream, job, index, KIND_CACHED)
                    job.finish_task(index, cached, KIND_CACHED)
                    progressed = True
                    break
                if self._active < self.max_workers:
                    self._start(stream, job, index, key)
                    progressed = True
                    break
            if not progressed:
                return

    def _start(
        self, stream: StreamState, job: Job, index: int, key: str
    ) -> None:
        task = job.spec.tasks[index]
        job.mark_running(index)
        self._inflight[key] = _Inflight(owner=(job, index))
        self._active += 1
        stream.vtime += estimate_task_cycles(task) / stream.weight
        stream.dispatched += 1
        self._log(stream, job, index, "simulate")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._ensure_executor(), self._run_task, task
        )
        reaper = loop.create_task(self._reap(future, key))
        self._reapers.add(reaper)
        reaper.add_done_callback(self._reapers.discard)

    async def _reap(self, future: asyncio.Future, key: str) -> None:
        try:
            result = await future
            error = None
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # worker death included
            result, error = None, f"{type(exc).__name__}: {exc}"
        self._active -= 1
        entry = self._inflight.pop(key)
        job, index = entry.owner
        if error is not None:
            job.fail_task(index, error)
            for wjob, widx in entry.waiters:
                wjob.fail_task(widx, error)
        else:
            assert result is not None
            self._cache_put(result)
            self.total_simulated += 1
            job.finish_task(index, result, KIND_SIMULATED)
            for wjob, widx in entry.waiters:
                self.total_shared += 1
                wjob.finish_task(widx, result, KIND_SHARED)
        self._streams[job.spec.stream].compact()
        self._pump()

    def _log(
        self, stream: StreamState, job: Job, index: int, kind: str
    ) -> None:
        self.dispatch_log.append((stream.name, job.id, index, kind))
        if len(self.dispatch_log) > 4096:
            del self.dispatch_log[:2048]

    # ------------------------------------------------------------------
    # Cache and executor plumbing
    # ------------------------------------------------------------------
    def _cache_get(self, task: SimTask) -> SimulationResult | None:
        if self.cache is None:
            return None
        return self.cache.get(task.resolved_config())

    def _cache_put(self, result: SimulationResult) -> None:
        if self.cache is None:
            return
        try:
            self.cache.put(result)
        except OSError:
            # A full or vanished cache directory degrades dedup to the
            # in-flight table; it must not fail the job.
            pass

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.max_workers > 1:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-service"
                )
        return self._executor

    async def drain(self) -> None:
        """Wait for every in-flight simulation to settle (tests/shutdown)."""
        while self._reapers:
            await asyncio.gather(*list(self._reapers), return_exceptions=True)

    async def close(self) -> None:
        """Drain in-flight work and shut the executor down."""
        await self.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
