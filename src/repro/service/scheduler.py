"""FIFO scheduler over a bounded executor.

Jobs are admitted task by task, and every task is resolved by the
newest information first:

1. **in-flight** — a task whose cache key is currently simulating for
   any job *subscribes* to that run instead of dispatching again;
2. **cache** — a task whose key is already in the persistent
   :class:`~repro.harness.cache.ResultCache` completes immediately;
3. otherwise the task joins one queue of ``(job, task index)`` pairs,
   in submission order, and simulates on the executor when it reaches
   the head and a worker is free; its result is stored back, so later
   submissions hit level 2.

Levels 1 and 2 are tried at admission, so a task that needs no worker
never waits behind a full executor, and again when the task reaches the
head, for what finished while it queued.  A job's ``stream`` is a label
shown by ``status``; it does not change the order.

The scheduler is single-threaded asyncio: all bookkeeping runs on the
event loop, simulations run in worker threads (``max_workers == 1``) or
processes, and no locks are needed.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable

from repro.harness.cache import ResultCache
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


class _Inflight:
    """One running simulation plus the (job, task) pairs awaiting it."""

    __slots__ = ("owner", "waiters")

    def __init__(self, owner: tuple[Job, int]) -> None:
        self.owner = owner
        self.waiters: list[tuple[Job, int]] = []


class ExperimentScheduler:
    """Admits jobs, dedupes, and runs their tasks in submission order.

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
        self._queue: deque[tuple[Job, int]] = deque()
        self._jobs: dict[str, Job] = {}
        self._jobs_by_hash: dict[str, Job] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._active = 0
        self._reapers: set[asyncio.Task] = set()
        self._ids = itertools.count(1)
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
        for index in range(len(spec.tasks)):
            if not self._resolve(job, index):
                self._queue.append((job, index))
        self._pump()
        return job, False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get_job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(
                f"unknown job '{job_id}' (the job table lives in server "
                f"memory and does not survive a restart; resubmit the "
                f"grid: its finished tasks are cache hits)"
            )
        return job

    def jobs(self) -> list[Job]:
        """All jobs, oldest first."""
        return list(self._jobs.values())

    def totals(self) -> dict[str, int]:
        return {
            "jobs": len(self._jobs),
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

        Pending and shared tasks are dropped immediately (queued ones
        leave the queue when they reach its head); tasks already
        simulating run to completion (feeding the cache and any other
        subscribers) but their results no longer count toward the job.
        """
        return self.get_job(job_id).cancel()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _resolve(self, job: Job, index: int) -> bool:
        """Answer a task from a run in flight or the cache, if either
        has it; False when it has to simulate."""
        entry = self._inflight.get(job.task_key(index))
        if entry is not None:
            job.mark_shared(index)
            entry.waiters.append((job, index))
            return True
        cached = self._cache_get(job.spec.tasks[index])
        if cached is None:
            return False
        self.total_cached += 1
        job.finish_task(index, cached, KIND_CACHED)
        return True

    def _pump(self) -> None:
        """Serve the queue head until it needs a worker and none is free."""
        while self._queue:
            job, index = self._queue[0]
            if not job.state.terminal and not self._resolve(job, index):
                if self._active >= self.max_workers:
                    return
                try:
                    self._start(job, index)
                except BrokenExecutor:
                    # A worker died: the tasks that were on its pool
                    # fail in their reapers, the head starts on a new one.
                    self._executor.shutdown(wait=False)
                    self._executor = None
                    continue
            self._queue.popleft()

    def _start(self, job: Job, index: int) -> None:
        # Nothing is recorded until the executor has taken the task.
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._ensure_executor(), self._run_task, job.spec.tasks[index]
        )
        key = job.task_key(index)
        job.mark_running(index)
        self._inflight[key] = _Inflight(owner=(job, index))
        self._active += 1
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
            # A job that ended while it waited (cancelled, or failed on
            # another task) takes nothing.
            for wjob, widx in entry.waiters:
                if not wjob.state.terminal:
                    self.total_shared += 1
                    wjob.finish_task(widx, result, KIND_SHARED)
        self._pump()

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
