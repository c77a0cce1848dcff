"""Parallel simulation execution across worker processes.

Experiment drivers produce *grids* of independent simulations (algorithm x
pattern x injection rate); this module runs such grids through a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping results
bit-identical to a serial run:

* each :class:`SimTask` is a self-contained, picklable unit — the worker
  rebuilds the simulator from the task's config, so results depend only
  on the task, never on which worker ran it or in what order;
* results are collected **in task order** regardless of completion order;
* ``jobs=1`` bypasses the pool entirely and runs in-process, which is
  also the fallback for single-task grids;
* the pool runs one task per worker at a time, heaviest first by a
  config-only weight (:func:`_pool_weight`), and hands each result back
  the moment it exists.

The worker count is ``jobs`` (CLI ``--jobs``), else ``$REPRO_JOBS``,
else the caller's fallback (:func:`resolve_jobs`): serial for the
library, so programmatic callers never fork implicitly, and ``"auto"``
for ``repro experiment`` and ``repro tune`` (:mod:`repro.cli`), which is
:func:`usable_cpus` — the CPUs this process may run on.
"""

from __future__ import annotations

import os
import sys
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro import settings
from repro.exceptions import SimulationError
from repro.harness.cost import estimate_config_cycles, estimate_task_cycles
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

if TYPE_CHECKING:
    from repro.harness.cache import ResultCache

__all__ = [
    "SimTask",
    "derive_task_seed",
    "estimate_config_cycles",
    "estimate_task_cycles",
    "partition_tasks",
    "resolve_jobs",
    "run_tasks",
    "usable_cpus",
]


@dataclass(frozen=True)
class SimTask:
    """One picklable unit of simulation work.

    ``rate`` sets the config's offered load (the common sweep case):
    the field :attr:`SimulationConfig.load_field` names, ``hotspot_rate``
    on hotspot traffic and ``injection_rate`` otherwise; ``None`` runs
    the config as-is.  ``key`` is an opaque label carried alongside the
    task for the caller's bookkeeping — it is not interpreted here.
    """

    config: SimulationConfig
    rate: float | None = None
    key: object = None

    def resolved_config(self) -> SimulationConfig:
        """The exact configuration the worker will simulate."""
        if self.rate is None:
            return self.config
        return self.config.at_load(self.rate)


def derive_task_seed(base_seed: int, name: str) -> int:
    """Derive a stable per-task seed from a base seed and a task name.

    Uses CRC-32 rather than :func:`hash` so the value is identical across
    interpreter runs and across process boundaries (``hash`` of a string
    is salted per process via ``PYTHONHASHSEED``).  Mirrors the stream
    derivation of :class:`repro.sim.rng.RngStreams`.
    """
    return (base_seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) % 2**63


#: Where the cgroup CPU controller's files are mounted.
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cgroup_cpu_quota() -> int | None:
    """CPUs the cgroup CPU quota allows, rounded up; ``None`` = no cap.

    cgroup v2 keeps ``"<quota|max> <period>"`` in ``cpu.max``; v1 keeps
    the quota (-1 = none) and the period in two files.  A file that is
    missing, unreadable or not two integers means no cap.
    """
    for names in (
        ("cpu.max",),
        ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"),
    ):
        try:
            fields: list[str] = []
            for name in names:
                with open(os.path.join(_CGROUP_ROOT, name)) as handle:
                    fields += handle.read().split()
            quota, period = map(int, fields)  # "max" is a ValueError
        except (OSError, ValueError):
            continue
        if quota > 0 and period > 0:
            return -(-quota // period)
    return None


def usable_cpus() -> int:
    """How many CPUs this process may actually use (always >= 1).

    The scheduler affinity set where the platform has one (``taskset``,
    ``docker --cpuset-cpus``, batch schedulers), else the machine's CPU
    count, capped by the cgroup CPU quota (``docker --cpus``, CI
    runners).  ``os.cpu_count()`` alone oversubscribes under all of
    those.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        count = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        count = min(count, quota)
    return max(1, count)


def resolve_jobs(
    jobs: int | str | None = None, default: int | str = 1
) -> int:
    """Resolve a worker count from ``jobs`` / ``$REPRO_JOBS`` / ``default``.

    ``None`` defers to ``$REPRO_JOBS`` (:mod:`repro.settings`); an unset
    or empty variable means ``default`` — serial for library callers.
    ``"auto"`` is :func:`usable_cpus`.  The result is always >= 1;
    anything else is a :class:`~repro.exceptions.ConfigurationError`
    naming where the value came from.
    """
    if jobs is None:
        jobs = settings.read("REPRO_JOBS") or default
    jobs = settings.parse("REPRO_JOBS", str(jobs), source="jobs")
    return usable_cpus() if jobs == "auto" else jobs


def _wants_telemetry(config: SimulationConfig) -> bool:
    """Whether a run of ``config`` must produce collected telemetry."""
    telemetry = config.telemetry
    return telemetry is not None and telemetry.active


def partition_tasks(
    costs: list[float], buckets: int
) -> list[list[int]]:
    """Split task indices into ``buckets`` batches balanced by ``costs``
    (LPT greedy), each sorted, ordered by their first index."""
    # No caller in src/: perf/child.py reads it for
    # harness.parallel.batch_imbalance; ROADMAP item 0 drops that import.
    buckets = min(buckets, len(costs))
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    loads = [0] * buckets
    batches: list[list[int]] = [[] for _ in range(buckets)]
    for i in order:
        lightest = loads.index(min(loads))
        batches[lightest].append(i)
        loads[lightest] += costs[i]
    for batch in batches:
        batch.sort()
    batches.sort(key=lambda b: b[0])
    return batches


def _pool_weight(config: SimulationConfig) -> float:
    """Relative wall time of simulating ``config``: estimated cycle-nodes
    (load-blind, the tuner's budget currency) times offered flits per
    node and cycle, since a rate sweep's tasks cost 1 : 6 first to last.
    """
    from repro.traffic.factory import offered_flits_per_cycle

    load = offered_flits_per_cycle(config) / config.num_nodes
    return estimate_config_cycles(config) * load


def _run_task(task: SimTask) -> SimulationResult:
    # Imported lazily: a grid answered from the cache never simulates
    # (run_tasks imports the runner once it knows a task is pending).
    from repro.harness.runner import run_simulation

    # $REPRO_VALIDATE reaches pool workers through the environment, so
    # validated grids need no per-task plumbing.  Cache hits skip this
    # path: only simulated misses are checked.
    return run_simulation(task.resolved_config())


def _run_local(
    tasks: list[SimTask],
    configs: list[SimulationConfig],
    jobs: int | str | None,
    finished: Callable[[int, SimulationResult], None],
) -> None:
    """Run ``tasks`` here, serially or over a local pool, calling
    ``finished(j, result)`` the moment task ``j`` has its result
    (``configs`` are the tasks' resolved configs); :func:`run_tasks`
    says what a failure, a dead worker or an interrupt leaves."""
    workers = min(resolve_jobs(jobs), len(tasks))
    if tasks:
        # Loaded (the engine with it) before any worker is forked:
        # workers share the parent's pages, and no import lands inside
        # the first simulation.
        import repro.harness.runner  # noqa: F401
    if workers <= 1:
        for j, task in enumerate(tasks):
            finished(j, _run_task(task))
        return
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # pop() takes the heaviest first, ties in task order, so a grid
    # does not end on one worker's long task.
    queue = sorted(
        range(len(tasks)), key=lambda j: (_pool_weight(configs[j]), -j)
    )
    running = {}
    left = len(tasks)  # neither finished nor failed
    failure: Exception | None = None
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            while queue or running:
                # One task per idle worker: the executor starts every
                # call it holds, even after shutdown(cancel_futures=True),
                # so an interrupt can stop only what is not yet submitted.
                while queue and len(running) < workers:
                    j = queue.pop()
                    running[pool.submit(_run_task, tasks[j])] = j
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    j = running.pop(future)
                    try:
                        finished(j, future.result())
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # raised once the rest are done
                        failure = failure or exc
                    left -= 1
    except BrokenProcessPool:
        pass  # a worker died: ``left`` counts what it took with it
    finally:
        # Whatever an interrupt or a dead worker left running and
        # finished is kept: the pool has waited for it.
        for future, j in running.items():
            if future.done() and future.exception() is None:
                finished(j, future.result())
                left -= 1
    if left:
        raise SimulationError(
            f"a pool worker was killed (by a signal, or by the kernel "
            f"when memory ran out) with {left} of {len(tasks)} "
            f"simulations unfinished; those that finished are kept, so "
            f"with a result cache a re-run resumes from there, and "
            f"--jobs 1 (or REPRO_JOBS=1) runs without the pool"
        )
    if failure is not None:
        raise failure


def run_tasks(
    tasks: Iterable[SimTask],
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> list[SimulationResult]:
    """Run every task, returning results in task order.

    With ``jobs`` resolving to 1, or at most one task left to simulate
    once the cache has answered, the tasks run serially in-process and
    no pool machinery is imported; otherwise each worker takes one task
    at a time, heaviest first by estimated cycle-nodes weighted by
    offered load (:func:`_pool_weight`).

    When a :class:`~repro.harness.cache.ResultCache` is supplied it is
    consulted per task before simulating; only misses are executed, and
    each is stored back the moment it finishes, serial or pooled — a
    task that fails, a pool worker that dies (one
    :class:`~repro.exceptions.SimulationError`, no retry) or an
    interrupt (which starts no queued task) leaves every result that
    already existed in the cache, so a re-run simulates only what is
    missing.  A warm cache completes the grid with zero simulations.
    Cache hits are bit-exact round trips of the original results, so the
    returned list is identical either way.
    Tasks whose config requests active telemetry always simulate:
    cached entries carry no telemetry (it is stripped on store), so a
    hit could not deliver the series the caller asked for — they still
    store their (telemetry-stripped) outcome back for telemetry-free
    reuse.

    When ``$REPRO_SERVICE`` names a running experiment service
    (``host:port``), the misses run there as one job instead (see
    :mod:`repro.service`) and are stored like any other: a warm grid
    never contacts the service, and the cache counts the same served
    or local.  Under ``$REPRO_VALIDATE`` they stay local, like
    telemetry tasks: the service would run them unchecked.
    """
    task_list = list(tasks)
    # Resolved once, for the telemetry test and the cache probe.
    configs = [task.resolved_config() for task in task_list]
    results: list[SimulationResult | None] = [
        None
        if cache is None or _wants_telemetry(config)
        else cache.get(config)
        for config in configs
    ]
    pending = [i for i, r in enumerate(results) if r is None]
    pending_tasks = [task_list[i] for i in pending]

    def finished(j: int, result: SimulationResult) -> None:
        # Stored as soon as it exists: a later task that fails, or a
        # Ctrl-C, must not discard the simulations already done.
        if cache is not None:
            cache.put(result)
        results[pending[j]] = result

    service = settings.read("REPRO_SERVICE")
    local = settings.read("REPRO_VALIDATE") or any(
        map(_wants_telemetry, configs)
    )
    if service and pending and not local:
        # The misses go to the experiment service (repro serve) as one
        # job.  $REPRO_VALIDATE or a telemetry task (never a hit) keeps
        # them local: the server runs with its own environment, so it
        # would run them unchecked, and it dedupes through the
        # telemetry-blind cache, so it cannot serve collected series.
        # An *unreachable* service degrades to the local pool with a
        # loud stderr warning instead of failing the sweep: the env var
        # is ambient configuration, and a driver should not die because
        # the shared server restarted.  Imported lazily because the
        # service package imports this module.
        from repro.service import ServiceUnreachable
        from repro.service.client import run_tasks_via_service

        address = "{}:{}".format(*service)
        try:
            served = run_tasks_via_service(pending_tasks, address=address)
        except ServiceUnreachable as exc:
            print(
                f"warning: $REPRO_SERVICE={address} is unreachable "
                f"({exc}); falling back to the local pool",
                file=sys.stderr,
            )
        else:
            for j, result in enumerate(served):
                finished(j, result)
            return results  # type: ignore[return-value]
    _run_local(pending_tasks, [configs[i] for i in pending], jobs, finished)
    return results  # type: ignore[return-value]  # every slot is filled
