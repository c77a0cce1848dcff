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
* worker batches are balanced over a config-only weight — estimated
  cycle-nodes (:mod:`repro.harness.cost`) times offered load, since a
  sweep's last rate costs several times its first — so the same grid
  makes the same batches on every machine.

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
from typing import TYPE_CHECKING, Iterable

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
    """Split task indices into ``buckets`` balanced batches (LPT greedy).

    Returns index batches ordered by first task index; every index
    appears exactly once.  Longest-processing-time-first assignment onto
    the least-loaded bucket keeps the makespan near-optimal, which is
    what makes one-submission-per-worker cheaper than per-task
    round-trips for grids of many small simulations.
    """
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


#: Per-cycle fixed cost of a simulated node (clock, sinks, the active
#: set), in units of the cost of one offered flit per node and cycle;
#: fitted to measured task seconds (DESIGN.md §2, "Pool batch weights").
_LOAD_FLOOR = 0.05


def _pool_weight(task: SimTask) -> float:
    """Relative wall time of ``task``, for balancing pool batches.

    :func:`estimate_task_cycles` is load-blind on purpose (it is the
    service's virtual time and the tuner's budget currency), but wall
    time is close to linear in offered load: the tasks of a rate sweep
    cost 1 : 6 from its first rate to its last.  Config-only like the
    estimate, so the batches are the same on every machine.
    """
    from repro.traffic.factory import offered_flits_per_cycle

    config = task.resolved_config()
    load = offered_flits_per_cycle(config) / config.num_nodes
    return estimate_task_cycles(task) * (_LOAD_FLOOR + load)


def _run_task(task: SimTask) -> SimulationResult:
    # Imported lazily: a grid answered from the cache never simulates
    # (run_tasks imports the runner once it knows a task is pending).
    from repro.harness.runner import run_simulation

    # $REPRO_VALIDATE reaches pool workers through the environment, so
    # validated grids need no per-task plumbing.  Cache hits skip this
    # path: only simulated misses are checked.
    return run_simulation(task.resolved_config())


def _run_task_batch(tasks: list[SimTask]) -> list[SimulationResult]:
    """Worker entry point: run one pre-balanced batch of tasks."""
    return [_run_task(task) for task in tasks]


def run_tasks(
    tasks: Iterable[SimTask],
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> list[SimulationResult]:
    """Run every task, returning results in task order.

    With ``jobs`` resolving to 1, or at most one task left to simulate
    once the cache has answered, the tasks run serially in-process and
    no pool machinery is imported; otherwise they are chunked into one
    batch per worker, balanced over estimated cycle-nodes weighted by
    offered load (:func:`partition_tasks` over :func:`_pool_weight`),
    and each batch is a single pool submission — per-task round-trips
    through the executor cost more than a short simulation, so small
    grids would otherwise run slower pooled than serial.  Both paths
    produce identical results because each task is an independent,
    deterministic simulation.

    When a :class:`~repro.harness.cache.ResultCache` is supplied it is
    consulted per task before simulating; only misses are executed, and
    each is stored back as soon as it finishes (serially per task,
    pooled per batch) — a task that fails, a pool worker that dies
    (one :class:`~repro.exceptions.SimulationError`, no retry) or an
    interrupt leaves every result that already existed in the cache,
    so a re-run simulates only what is missing.  A warm cache completes
    the grid with zero simulations.  Cache hits are bit-exact round
    trips of the original results, so the returned list is identical
    either way.
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
    workers = min(resolve_jobs(jobs), len(pending_tasks))
    if pending_tasks:
        # Loaded (the engine with it) before any worker is forked:
        # workers share the parent's pages, and no import lands inside
        # the first simulation.
        import repro.harness.runner  # noqa: F401

    if workers <= 1:
        for j, task in enumerate(pending_tasks):
            finished(j, _run_task(task))
        return results  # type: ignore[return-value]  # every slot is filled
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    batches = partition_tasks(
        [_pool_weight(task) for task in pending_tasks], workers
    )
    failure: Exception | None = None
    unfinished = 0
    with ProcessPoolExecutor(max_workers=len(batches)) as pool:
        batch_of = {
            pool.submit(
                _run_task_batch, [pending_tasks[j] for j in batch]
            ): batch
            for batch in batches
        }
        for future in as_completed(batch_of):
            try:
                batch_results = future.result()
            except BrokenProcessPool:
                # A worker died; the executor fails every batch still
                # out, and the ones that came back first are kept.
                unfinished += len(batch_of[future])
                continue
            except Exception as exc:  # re-raised once the others are kept
                failure = failure or exc
                continue
            for j, result in zip(batch_of[future], batch_results):
                finished(j, result)
    if unfinished:
        raise SimulationError(
            f"a pool worker was killed (by a signal, or by the kernel "
            f"when memory ran out) with {unfinished} of "
            f"{len(pending_tasks)} simulations unfinished; those that "
            f"finished are kept, so with a result cache a re-run resumes "
            f"from there, and --jobs 1 (or REPRO_JOBS=1) runs without "
            f"the pool"
        )
    if failure is not None:
        raise failure
    return results  # type: ignore[return-value]  # every slot is filled
