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
from repro.service.jobs import KINDS, Job, JobSpec, JobState
from repro.sim.results import SimulationResult

# The default worker simulates, and imports the engine when it first
# does.  Loading it here puts that in the server's boot instead of its
# first job, and ahead of the executor: pool workers are forked with
# the engine's pages already shared.
import repro.sim.engine  # noqa: F401


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
        #: Running simulation's key -> (job, index) pairs, owner first.
        self._inflight: dict[str, list[tuple[Job, int]]] = {}
        self._active = 0
        self._reapers: set[asyncio.Task] = set()
        self._ids = itertools.count(1)
        #: Tasks finished, by kind, over the server's life.
        self._totals = dict.fromkeys(KINDS, 0)

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
        if not isinstance(job_id, str):
            raise ServiceError(f"malformed job_id {job_id!r}: not a string")
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
            **self._totals,
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _resolve(self, job: Job, index: int) -> bool:
        """Answer a task from a run in flight or the cache, if either
        has it; False when it has to simulate."""
        waiters = self._inflight.get(job.spec.keys[index])
        if waiters is not None:
            job.start(index, "shared_waiting")
            waiters.append((job, index))
            return True
        if self.cache is None:
            return False
        cached = self.cache.get(job.spec.configs[index], job.spec.keys[index])
        if cached is None:
            return False
        self._finish(job, index, cached, "cached")
        return True

    def _finish(
        self, job: Job, index: int, result: SimulationResult, kind: str
    ) -> None:
        self._totals[kind] += 1
        job.finish_task(index, result, kind)

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
        key = job.spec.keys[index]
        job.start(index, "running")
        self._inflight[key] = [(job, index)]
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
        owner, *waiters = self._inflight.pop(key)
        if error is not None:
            for job, index in (owner, *waiters):
                job.fail_task(index, error)
        else:
            self._cache_put(result)
            self._finish(*owner, result, "simulated")
            # A job that ended while it waited (cancelled, or failed on
            # another task) takes nothing.
            for job, index in waiters:
                if not job.state.terminal:
                    self._finish(job, index, result, "shared")
        self._pump()

    # ------------------------------------------------------------------
    # Cache and executor plumbing
    # ------------------------------------------------------------------
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
