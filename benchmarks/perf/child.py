"""One workload in a fresh interpreter: set up, measure, verify, report.

``run.py`` spawns this file once per measurement (and a few more times
with ``--setup-only`` to sample set-up time).  The flow is

1. **set-up** (untimed, reported as ``setup_s``): import ``repro``, one
   4x4 warm-up run to finish lazy imports, build the workload's inputs
   from ``--seed``, make the temp dir, boot ``repro serve`` if needed;
2. **untraced rounds** for ``--seconds`` (half of it with ``--trace 1``):
   every operation of the workload once per round, each timed, with
   readings of the host's speed in between (:class:`HostSpeed`);
3. with ``--trace 1`` only: one-off **layer probes**, then **traced
   rounds** for the other half with spans on and the hot-call wrappers
   installed;
4. **verify** (untimed): local reference runs that CLI output and
   service results are compared against — traced when tracing is on, so
   workloads that simulate out of process still get a stage breakdown;
5. tear down, print one JSON line.

Engine mode is never named on the measured paths: in-process runs go
through ``run_simulation(config)`` / ``run_tasks(...)`` with
``engine_mode=None``, the CLI and ``serve`` run without
``--engine-mode``, so the numbers are what a user gets by default and
survive the deletion of any mode.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

from checks import Ledger
from tracing import Tracer
from workloads import (
    END_TO_END,
    FAULT_SPEC,
    GRID_RATES,
    GRID_ROUTINGS,
    PER_LAYER,
    TRACED_ROUTINGS,
    WORKLOAD_BY_NAME,
    worker_cap,
)

from repro.harness import experiments as exp
from repro.harness import reporting
from repro.harness.cache import ResultCache, config_cache_key
from repro.harness.parallel import (
    SimTask,
    derive_task_seed,
    estimate_task_cycles,
    partition_tasks,
    run_tasks,
)
from repro.harness.runner import run_simulation
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.validate.differential import result_signature

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Ceiling on any one subprocess or service wait: far above what the
#: sizes need, far below the driver's 180 s per run.
OP_TIMEOUT = 120.0

#: JSON rebuilds per in-process result and round: sub-millisecond
#: operations, so their mean needs the samples.
REBUILDS = 6

#: Mean reading of :class:`HostSpeed`'s kernel on the baseline host while
#: it is quiet.  Times are reported as "seconds on a host of that speed".
KERNEL_REFERENCE_S = 0.0046

_HITS = re.compile(r"(\d+) hits, (\d+) misses")
_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _p75(values):
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[2]


def _seconds(ops, label: str) -> list[float]:
    """Durations of the successful operations called ``label``."""
    return [op.seconds for op in ops
            if op.label == label and op.failure is None]


class HostSpeed:
    """How fast the host ran, on average, while a pass was measured.

    For minutes at a time the baseline host runs at half speed in
    stretches of 0.1-0.5 s, up to two thirds of the time; nothing in
    ``/proc/stat`` shows it.  An operation longer than a stretch cannot
    dodge it, so no statistic of raw seconds repeats from one quarter of
    an hour to the next (medians and best-of-rounds moved by 20-40 %).
    What does repeat is time relative to a fixed piece of work exposed
    to the same stretches: a short pure-Python kernel, read after every
    operation that ended ``INTERVAL`` or more after the last reading.
    Mean time per operation over mean kernel time moved by 2-4 % between
    quiet and disturbed phases (10 % inter-quartile spread inside the
    disturbed one, 4-5 % outside).  The kernel touches no code of the
    repository, so a change to the program never moves it.
    """

    INTERVAL = 0.15

    def __init__(self) -> None:
        self.total = 0.0
        self.readings = 0
        self._last = time.perf_counter()

    def read(self) -> None:
        # Two passes recorded after one that is not: straight after a
        # wait (a subprocess, the pool, the server) the kernel reads
        # 3-6 % slow.
        for reading in range(-1, 2):
            start = time.perf_counter()
            acc = 0
            table = {}
            ring = [0] * 64
            for i in range(30000):
                acc += i % 7
                table[i & 255] = acc
                ring[i & 63] = table.get((i * 5) & 255, 0) + 1
            self._last = time.perf_counter()
            if reading >= 0:
                self.total += self._last - start
                self.readings += 1

    def read_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.read()

    @property
    def speed(self) -> float:
        """Reference kernel time over the mean reading: 0.5 = half speed."""
        return KERNEL_REFERENCE_S * self.readings / self.total


def _at_reference_speed(values: dict, units: dict, speed: float) -> dict:
    """Times and rates as they would read on the reference host."""
    out = {}
    for name, value in values.items():
        unit = units.get(name, "")
        if unit in ("s", "ms", "us"):
            value *= speed
        elif unit.endswith("/s"):
            value /= speed
        out[name] = value
    return out


def _signature(result) -> tuple:
    """``result_signature`` with the latency samples as a multiset.

    Sample *order* is not part of a result's contract (``LatencyStats``
    sorts in place on the first percentile query, which the service does
    before it serializes), so two surfaces agree when the sorted samples
    do."""
    *counts, samples = result_signature(result)
    return (*counts, tuple(sorted(samples)))


def _signatures(results) -> list[tuple]:
    return [_signature(result) for result in results]


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter this child runs under, output captured."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Runners: one per workload kind
# ----------------------------------------------------------------------
class Runner:
    """What the flow in :func:`run_workload` needs from a workload kind."""

    def __init__(self, workload, seed: int, tmp: Path, ledger: Ledger,
                 tracer: Tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.ledger = ledger
        self.tracer = tracer
        #: Per-layer numbers the runner measured directly.
        self.layer: dict[str, float] = {}
        #: Printed and saved, but not part of BENCHMARK.json (e.g. the
        #: engine modes that may be deleted).
        self.extras: dict[str, float] = {}
        #: First-round results, for the model hash and the serialization
        #: probes.
        self.first_results: list[SimulationResult] = []
        #: Rounds run so far, both passes.
        self.rounds_run = 0

    def derive(self, name: str) -> int:
        return derive_task_seed(self.seed, f"{self.workload.name}/{name}")

    def setup(self) -> None:
        """Build inputs from the seed; untimed."""

    def round(self, index: int, traced: bool) -> None:
        raise NotImplementedError

    def probes(self) -> None:
        """One-off layer measurements of the traced pass."""

    def verify(self, traced: bool) -> None:
        """Local reference runs, after the timed rounds."""

    def layer_metrics(self, ops) -> None:
        """Fill ``self.layer`` from the untraced rounds' operations."""

    def close(self) -> None:
        """Stop what :meth:`setup` started."""

    # ------------------------------------------------------------------
    def _note_first(self, index: int, traced: bool, results) -> None:
        if index == 0 and not traced:
            self.first_results.extend(results)

    def _check_results(self, op, results) -> None:
        """Repeat rule for every result of an operation."""
        for result in results:
            self.ledger.check_repeat(
                op, config_cache_key(result.config), _signature(result)
            )


class SimsRunner(Runner):
    """In-process simulations through ``run_simulation(config)``."""

    def setup(self) -> None:
        from repro.faults.schedule import parse_fault_spec
        from repro.telemetry.config import TelemetryConfig

        self.configs = {}
        for case in self.workload.cases:
            kwargs = dict(case.config)
            kwargs["seed"] = self.derive(case.seed_name or case.label)
            if case.observer == "faults":
                kwargs["faults"] = parse_fault_spec(
                    FAULT_SPEC, kwargs["width"], kwargs["width"]
                )
            elif case.observer == "telemetry:sampling":
                kwargs["telemetry"] = TelemetryConfig()
            elif case.observer == "telemetry:tracing":
                kwargs["telemetry"] = TelemetryConfig(trace_flits=True)
            self.configs[case.label] = SimulationConfig(**kwargs)

    def _simulate(self, case) -> SimulationResult:
        config = self.configs[case.label]
        if case.observer and case.observer.startswith("validate:"):
            # The user-facing switch for checkers on harness-driven runs.
            os.environ["REPRO_VALIDATE"] = case.observer.split(":", 1)[1]
            try:
                return run_simulation(config)
            finally:
                del os.environ["REPRO_VALIDATE"]
        return run_simulation(config)

    def _run_case(self, case, phase: str, index: int, traced: bool):
        with self.ledger.op(phase, case.label, index, traced,
                            counts=case.counts) as op:
            with self.tracer.span("task", label=case.label):
                result = self._simulate(case)
            op.cycles = result.cycles_run
            op.value = result
        if op.failure is None:
            self.ledger.check_drained(op, result, case.must_drain)
            self._check_results(op, [result])
        return op

    def round(self, index: int, traced: bool) -> None:
        done = []
        for case in self.workload.cases:
            if not case.probe:
                op = self._run_case(case, "sim", index, traced)
                if op.failure is None:
                    done.append(op)
        self._note_first(index, traced, [op.value for op in done])
        # Replay: rebuild each result from its saved (JSON) form.
        for op in done:
            with self.tracer.span("serialize", label=op.label):
                blob = json.dumps(op.value.to_dict())
            want = _signature(op.value)
            for _ in range(REBUILDS):
                with self.ledger.op("replay", op.label, index, traced,
                                    replay=True) as replay:
                    with self.tracer.span("deserialize", label=op.label):
                        rebuilt = SimulationResult.from_dict(json.loads(blob))
                if replay.failure is None:
                    self.ledger.check_same(
                        replay, [_signature(rebuilt)], [want],
                        "replayed != original",
                    )

    def probes(self) -> None:
        for case in self.workload.cases:
            if case.probe:
                self._run_case(case, "probe", -1, False)
        anchor = self.workload.params.get("mode_anchor")
        if anchor is not None:
            self._probe_engine_modes(anchor)

    def _probe_engine_modes(self, label: str) -> None:
        """Size the non-default engines while they exist (extras only)."""
        from repro.sim.engine import ENGINE_MODES, Simulator

        config = self.configs[label]
        for mode in ("vector", "legacy"):
            if mode not in ENGINE_MODES:
                continue
            sim = Simulator(config, engine_mode=mode)
            sim.collect_stage_times = True
            start = time.perf_counter()
            result = sim.run()
            elapsed = time.perf_counter() - start
            self.extras[f"sim.{mode}.cycles_per_s"] = (
                result.cycles_run / elapsed
            )
            for stage, seconds in (sim.stage_times or {}).items():
                self.extras[f"sim.{mode}.stage.{stage}_s"] = seconds

    def layer_metrics(self, ops) -> None:
        def rate(op):
            return op.cycles / op.seconds

        ops = [op for op in ops if op.failure is None
               and op.phase in ("sim", "probe")]
        unobserved = [op for op in ops if op.label == "unobserved"]

        def slowdown(op):
            # Against the unobserved run of the same round where there
            # is one (host drift cancels), else against all of them.
            same = [b for b in unobserved if b.round == op.round]
            return _median(map(rate, same or unobserved)) / rate(op)

        for case in self.workload.cases:
            mine = [op for op in ops if op.label == case.label]
            if not mine:
                continue
            observer = case.observer or ""
            if self.configs[case.label].topology == "torus":
                self.layer["topology.torus.cycles_per_s"] = _median(
                    map(rate, mine))
            if observer == "faults":
                self.layer["faults.cycles_per_s"] = _median(map(rate, mine))
            metric = {
                "validate:all": "validate.slowdown",
                "telemetry:sampling": "telemetry.sampling_slowdown",
                "telemetry:tracing": "telemetry.tracing_slowdown",
            }.get(observer)
            if metric is None and observer.startswith("validate:"):
                metric = f"validate.{observer.split(':', 1)[1]}.slowdown"
            if metric is not None and unobserved:
                self.layer[metric] = _median(map(slowdown, mine))


class CliRunner(Runner):
    """``python -m repro experiment fig9`` as a subprocess."""

    def setup(self) -> None:
        self.scale = self.workload.params["scale"]
        self.fig_seed = self.derive("fig9")
        self.first_report: str | None = None
        self.local = None  #: in-process fig9 series, from verify()

    def _invoke(self, op, cache_dir: Path) -> str:
        """One CLI run inside ``op``; returns the report without the
        trailing cache line."""
        with self.tracer.span("subprocess", label=op.label):
            proc = _python(
                "-m", "repro", "experiment", "fig9", "--scale", self.scale,
                "--seed", str(self.fig_seed), "--cache-dir", str(cache_dir),
            )
        self.ledger.check_exit(op, proc.returncode, proc.stderr)
        report, _, cache_line = proc.stdout.rstrip("\n").rpartition("\n")
        match = _HITS.search(cache_line)
        op.value = tuple(map(int, match.groups())) if match else None
        return report

    def round(self, index: int, traced: bool) -> None:
        cache_dir = Path(tempfile.mkdtemp(prefix="fig9-", dir=self.tmp))
        with self.ledger.op("cli", "cold", index, traced, counts=True) as cold:
            cold_report = self._invoke(cold, cache_dir)
        if cold.failure is not None:
            return
        results = [
            SimulationResult.from_dict(json.loads(path.read_text()))
            for path in ResultCache(cache_dir).entry_paths()
        ]
        cold.cycles = sum(result.cycles_run for result in results)
        if not results or cold.value is None or cold.value[0] != 0:
            self.ledger.fail(cold, f"cold run was not cold: {cold.value}")
        self._check_results(cold, results)
        self._note_first(index, traced, results)
        if index == 0 and not traced:
            self.first_report = cold_report
        for i in range(self.workload.params["warm_replays"]):
            with self.ledger.op("cli", f"warm_{i}", index, traced,
                                replay=True) as warm:
                warm_report = self._invoke(warm, cache_dir)
            if warm.failure is None:
                self.ledger.check_same(
                    warm, warm_report, cold_report, "warm != cold")
                if warm.value is None or warm.value[1] != 0:
                    self.ledger.fail(warm, f"warm run missed: {warm.value}")
        shutil.rmtree(cache_dir, ignore_errors=True)

    def probes(self) -> None:
        commands = {
            "cli.interpreter_s": ("-c", "pass"),
            "cli.import_s": ("-c", "import repro.cli"),
            "cli.list_s": ("-m", "repro", "list"),
            "cli.tiny_run_s": (
                "-m", "repro", "run", "--width", "4", "--vcs", "4",
                "--warmup", "20", "--measure", "50", "--drain", "100",
                "--seed", str(self.fig_seed),
            ),
        }
        for metric, args in commands.items():
            samples = []
            for i in range(3):
                with self.ledger.op("probe", f"{metric}_{i}", -1,
                                    False) as op:
                    proc = _python(*args)
                    self.ledger.check_exit(op, proc.returncode, proc.stderr)
                samples.append(op.seconds)
            self.layer[metric] = _median(samples)

    def verify(self, traced: bool) -> None:
        """The CLI must print what the library computes in process."""
        scale = {"smoke": exp.SMOKE, "bench": exp.BENCH}[self.scale]
        cache = ResultCache(Path(tempfile.mkdtemp(prefix="local-",
                                                  dir=self.tmp)))
        with self.ledger.op("verify", "local_fig9", -1, traced) as op:
            with self.tracer.span("task", label="local_fig9"):
                self.local = exp.fig9_hotspot(
                    scale, seed=self.fig_seed, cache=cache)
            report = reporting.report_fig9(self.local)
        if op.failure is None and self.first_report is not None:
            self.ledger.check_same(
                op, self.first_report, report, "CLI report != in-process")
        if not traced:
            return
        warm, render = [], []
        for _ in range(5):
            with self.tracer.span("harness.experiments.warm_fig9"):
                start = time.perf_counter()
                series = exp.fig9_hotspot(
                    scale, seed=self.fig_seed, cache=cache)
                warm.append(time.perf_counter() - start)
            start = time.perf_counter()
            reporting.report_fig9(series)
            render.append(time.perf_counter() - start)
        self.layer["harness.experiments.warm_fig9_s"] = _median(warm)
        self.layer["harness.reporting.fig9_us"] = _median(render) * 1e6
        self.layer["harness.cache.hits"] = cache.hits
        self.layer["harness.cache.misses"] = cache.misses

    def layer_metrics(self, ops) -> None:
        warm = [op.seconds for op in ops if op.replay]
        self.layer["cli.cold_figure_s"] = _median(_seconds(ops, "cold"))
        self.layer["cli.warm_figure_s_p50"] = _median(warm)
        self.layer["cli.warm_figure_s_p75"] = _p75(warm)
        if self.local is not None:
            mean = {}
            for algorithm, series in self.local.items():
                finite = [lat for _, lat, _ in series if lat == lat]
                mean[algorithm] = statistics.fmean(finite or [0.0])
            if mean["dbar"]:
                self.layer["model.fig9_fp_over_dbar_latency"] = (
                    mean["footprint"] / mean["dbar"])


def _grid(runner: Runner, name: str) -> list[SimTask]:
    """{footprint, dbar} x the grid rates; one base config per routing,
    the rate carried by the task as sweeps do."""
    tasks = []
    for routing in GRID_ROUTINGS:
        base = SimulationConfig(
            width=8, routing=routing, traffic="uniform",
            seed=runner.derive(f"{name}/{routing}"),
            **runner.workload.params["cycles"],
        )
        tasks.extend(
            SimTask(base, rate=rate, key=(routing, rate))
            for rate in GRID_RATES
        )
    return tasks


class PoolRunner(Runner):
    """``run_tasks`` serial, pooled into a fresh cache, then warm."""

    def setup(self) -> None:
        self.tasks = _grid(self, "grid")
        self.workers = worker_cap()
        self.caches: list[ResultCache] = []

    def round(self, index: int, traced: bool) -> None:
        ledger, tracer = self.ledger, self.tracer
        with ledger.op("pool", "serial", index, traced) as serial:
            with tracer.span("task", label="serial"):
                want = run_tasks(self.tasks, jobs=1)
            serial.cycles = sum(r.cycles_run for r in want)
        if serial.failure is not None:
            return
        self._check_results(serial, want)
        self._note_first(index, traced, want)
        want = _signatures(want)
        cache = ResultCache(Path(tempfile.mkdtemp(prefix="pool-",
                                                  dir=self.tmp)))
        with ledger.op("pool", "pooled", index, traced, counts=True) as pooled:
            with tracer.span("task", label="pooled", workers=self.workers):
                got = run_tasks(self.tasks, jobs=self.workers, cache=cache)
            pooled.cycles = sum(r.cycles_run for r in got)
        if pooled.failure is None:
            ledger.check_same(pooled, _signatures(got), want,
                              "pooled != serial")
        for i in range(self.workload.params["warm_replays"]):
            with ledger.op("pool", f"warm_{i}", index, traced,
                           replay=True) as warm:
                with tracer.span("task", label="warm"):
                    got = run_tasks(self.tasks, jobs=self.workers,
                                    cache=cache)
            if warm.failure is None:
                ledger.check_same(warm, _signatures(got), want,
                                  "warm != cold")
        if not traced:
            self.caches.append(cache)

    def layer_metrics(self, ops) -> None:
        serial = _median(_seconds(ops, "serial"))
        pool = _median(_seconds(ops, "pooled"))
        costs = [estimate_task_cycles(task) for task in self.tasks]
        batches = [sum(costs[i] for i in batch)
                   for batch in partition_tasks(costs, self.workers)]
        self.layer.update({
            "harness.parallel.serial_s": serial,
            "harness.parallel.pool_s": pool,
            "harness.parallel.speedup": serial / pool if pool else 0.0,
            "harness.parallel.overhead_s": pool - serial / self.workers,
            "harness.parallel.batch_imbalance":
                max(batches) / (sum(batches) / len(batches)),
            "harness.parallel.warm_replay_ms": 1e3 * _median(
                op.seconds for op in ops if op.replay),
            # Per round: every round fills and replays a cache of its own.
            "harness.cache.hits": _median(c.hits for c in self.caches),
            "harness.cache.misses": _median(c.misses for c in self.caches),
        })


class ServiceRunner(Runner):
    """``repro serve`` in a subprocess, one closed-loop client."""

    proc = None

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        state = self.tmp / "service-state"
        self.log = open(self.tmp / "server.log", "w+")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(state), "--jobs", str(worker_cap())],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT, text=True,
        )
        port = None
        while port is None and time.perf_counter() - start < OP_TIMEOUT:
            match = _LISTENING.search(Path(self.log.name).read_text())
            if match:
                port = int(match.group(2))
            elif self.proc.poll() is not None:
                break
            else:
                time.sleep(0.005)
        if port is None:
            raise RuntimeError(
                "repro serve never listened: "
                + Path(self.log.name).read_text()[-500:]
            )
        self.layer["service.boot_s"] = time.perf_counter() - start
        self.client = ServiceClient("127.0.0.1", port, timeout=OP_TIMEOUT)
        self.samples: dict[str, list[float]] = {}
        self.first_grid: list[SimTask] = []
        self.first_signatures: list[tuple] = []

    def _timed_call(self, name: str, fn, *args, **kwargs):
        with self.tracer.span("client." + name):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            self.samples.setdefault(name, []).append(
                time.perf_counter() - start)
        return value

    def _job(self, name: str, tasks, stream: str):
        """submit -> wait -> full results; returns (submit reply, job
        summary, results)."""
        client = self.client
        reply = self._timed_call(
            "submit", client.submit_tasks, name, tasks, stream=stream)
        summary = self._timed_call(
            "wait", client.wait, reply["job_id"], poll_interval=0.01,
            timeout=OP_TIMEOUT)
        if summary["state"] != "done":
            raise RuntimeError(
                f"job {name} ended {summary['state']}: {summary.get('error')}")
        results = self._timed_call("results", client.results, reply["job_id"])
        return reply, summary, results

    def round(self, index: int, traced: bool) -> None:
        ledger = self.ledger
        # The server deduplicates by content, so a fresh job needs fresh
        # seeds: every round derives its own grid.
        tag = f"{'t' if traced else 'u'}{index}"
        grid = _grid(self, f"round-{tag}")
        self._timed_call("ping", self.client.ping)
        with ledger.op("service", "job", index, traced, counts=True) as job:
            _, _, fresh = self._job(f"grid-{tag}", grid, "stream-a")
            job.cycles = sum(r.cycles_run for r in fresh)
        if job.failure is not None:
            return
        want = _signatures(fresh)
        if index == 0 and not traced:
            self.first_grid, self.first_signatures = grid, want
            self.first_results.extend(fresh)
        for i in range(self.workload.params["dedup_replays"]):
            with ledger.op("service", f"dedup_{i}", index, traced,
                           replay=True) as dedup:
                reply, _, got = self._job(f"again-{tag}-{i}", grid, "stream-b")
            if dedup.failure is None:
                if not reply["deduped"]:
                    ledger.fail(dedup, "identical grid was not deduplicated")
                ledger.check_same(dedup, _signatures(got), want,
                                  "dedup != fresh")
        half = len(grid) // 2
        overlap = grid[:half] + _grid(self, f"overlap-{tag}")[half:]
        with ledger.op("service", "overlap", index, traced) as op:
            _, summary, got = self._job(f"overlap-{tag}", overlap, "stream-b")
        if op.failure is None:
            counts = summary["counts"]
            if (counts["simulated"] != len(grid) - half
                    or counts["cached"] + counts["shared"] != half):
                ledger.fail(op, f"overlap was not shared: {counts}")
            ledger.check_same(op, _signatures(got)[:half], want[:half],
                              "overlap != fresh")

    def verify(self, traced: bool) -> None:
        with self.ledger.op("verify", "local_grid", -1, traced) as op:
            with self.tracer.span("task", label="local_grid"):
                local = run_tasks(self.first_grid, jobs=1)
        if op.failure is None:
            self.ledger.check_same(op, self.first_signatures,
                                   _signatures(local), "service != local")

    def layer_metrics(self, ops) -> None:
        def ms(name):
            return 1e3 * _median(self.samples.get(name, []))

        self.layer.update({
            "service.ping_ms": ms("ping"),
            "service.submit_ms": ms("submit"),
            "service.result_fetch_ms": ms("results"),
            "service.job_s": _median(_seconds(ops, "job")),
            "service.dedup_job_ms": 1e3 * _median(
                op.seconds for op in ops if op.replay),
            "service.overlap_job_s": _median(_seconds(ops, "overlap")),
        })

    def close(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                with self.ledger.op("service", "shutdown", -1, False) as op:
                    totals = self.client.ping()["totals"]
                    for kind in ("simulated", "cached", "shared"):
                        # Per round: each submits the same mix of jobs.
                        self.layer[f"service.tasks_{kind}"] = (
                            totals[kind] / max(1, self.rounds_run))
                    self.client.shutdown()
                    code = proc.wait(timeout=30)
                    self.ledger.check_exit(op, code, "")
                self.layer["service.shutdown_s"] = op.seconds
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.log.close()


RUNNERS = {
    "sims": SimsRunner,
    "cli": CliRunner,
    "pool": PoolRunner,
    "service": ServiceRunner,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _round_ops(ops, traced: bool) -> tuple[list, int]:
    """The operations of one pass's rounds, and how many rounds it ran."""
    mine = [op for op in ops if op.round >= 0 and op.traced == traced]
    return mine, len({op.round for op in mine})


def _round_wall(ops, traced: bool) -> float:
    """Mean seconds of a round: the sum of its timed operations."""
    mine, rounds = _round_ops(ops, traced)
    return sum(op.seconds for op in mine) / max(1, rounds)


def _live_descendants() -> list[int]:
    """Pids of every live process below this one (Linux ``/proc``)."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue  # exited while we were looking
            parent_of[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb() -> float:
    """Largest resident set so far: this process, the largest child it
    has waited for (pool workers, CLI runs), or the live process tree
    below it taken together (the server and its workers).

    The live tree is summed because it is one system whose split is not:
    which of the server's workers ran the costly tasks moves the largest
    single worker by 7 % from run to run and their total not at all."""
    live_kb = 0
    for pid in _live_descendants():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            live_kb += int(match.group(1))
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        live_kb,
    )
    return peak_kb / 1024.0


def end_to_end(ops, setup_s: float, rss_mb: float) -> dict[str, float]:
    """The untraced rounds, reduced to the BENCHMARK.json metrics.

    Every timing is a mean over all rounds (see :class:`HostSpeed` for
    why neither a median nor a best-of is used)."""
    mine, _ = _round_ops(ops, False)
    cold = [op for op in mine if op.counts]
    return {
        "setup_s": setup_s,
        "wall_s": _round_wall(ops, False),
        "sim_cycles_per_s": (
            sum(op.cycles for op in cold)
            / (sum(op.seconds for op in cold) or 1.0)),
        "replay_ms": 1e3 * statistics.fmean(
            op.seconds for op in mine if op.replay),
        "peak_rss_mb": rss_mb,
    }


def probe_serialization(runner: Runner) -> None:
    """Config/result/cache micro-costs on the workload's own results."""
    results = runner.first_results
    if not results:
        return
    clock = time.perf_counter
    layer = runner.layer
    cache = ResultCache(Path(tempfile.mkdtemp(prefix="probe-",
                                              dir=runner.tmp)))
    spent = dict.fromkeys(
        ("config", "to_dict", "from_dict", "key", "put", "get"), 0.0)
    sizes = []
    repeats = 5
    for _ in range(repeats):
        for result in results:
            config_dict = result.config.to_dict()
            t0 = clock()
            SimulationConfig.from_dict(config_dict)
            t1 = clock()
            blob = json.dumps(result.to_dict())
            t2 = clock()
            SimulationResult.from_dict(json.loads(blob))
            t3 = clock()
            config_cache_key(result.config)
            t4 = clock()
            cache.put(result)
            t5 = clock()
            cache.get(result.config)
            t6 = clock()
            sizes.append(len(blob))
            for name, seconds in zip(
                spent, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)
            ):
                spent[name] += seconds
    per_call = 1e6 / (repeats * len(results))
    layer["sim.config.construct_us"] = spent["config"] * per_call
    layer["sim.results.to_dict_us"] = spent["to_dict"] * per_call
    layer["sim.results.from_dict_us"] = spent["from_dict"] * per_call
    layer["sim.results.json_bytes"] = sum(sizes) / len(sizes)
    layer["harness.cache.key_us"] = spent["key"] * per_call
    layer["harness.cache.put_us"] = spent["put"] * per_call
    layer["harness.cache.get_us"] = spent["get"] * per_call
    stats = cache.stats()
    layer["harness.cache.bytes_per_entry"] = (
        stats["total_bytes"] / max(1, stats["entries"]))


def stage_metrics(tracer: Tracer) -> dict[str, float]:
    """Spans and hot-call aggregates, reduced to the per-layer names.

    Sums are per traced round (every round does the same work, so a
    count is exact however many rounds fitted) plus whatever ran once
    outside the rounds (the reference runs of :meth:`Runner.verify`).
    """
    in_rounds = tracer.ids_under("round")
    rounds = max(1, len(tracer.spans_named("round")))
    sums: dict[str, list] = {}  # name -> [inside the rounds, outside]

    def add(name: str, value, span) -> None:
        sums.setdefault(name, [0, 0])[span["id"] not in in_rounds] += value

    for span in tracer.spans:
        add("trace.spans", 1, span)
    runs = tracer.spans_named("sim.run")
    for span in runs:
        for stage, (calls, _busy, self_s) in span["hot"].items():
            if stage == "sim.step":
                add("sim.stepped_cycles", calls, span)
            else:
                add(f"{stage}_s", self_s, span)
                add(f"{stage}_calls", calls, span)
        add("sim.run_s", span["end"] - span["start"], span)
        add("sim.run_calls", 1, span)
        add("sim.cycles", span["cycles"], span)
        add("sim.loop_self_s",
            span["end"] - span["start"] - span["covered_s"], span)
        add("accepted_flits", span["accepted_flits"], span)
    constructs = tracer.spans_named("sim.construct")
    for span in constructs:
        add("sim.construct_s", span["end"] - span["start"], span)
        add("sim.construct_calls", 1, span)

    out = {name: inside / rounds + outside
           for name, (inside, outside) in sums.items()}
    flits = out.pop("accepted_flits", 0)
    if runs:
        out["sim.flits_per_s"] = flits / out["sim.run_s"]
        out["sim.idle_skip_ratio"] = (
            1.0 - out.get("sim.stepped_cycles", 0) / out["sim.cycles"])
    torus = [s["end"] - s["start"] for s in constructs
             if s["topology"] == "torus"]
    if torus:
        out["topology.torus.construct_s"] = _median(torus)
    return out


def model_metrics(runner: Runner, seed: int) -> dict[str, float]:
    """Simulated statistics of the first round: exact for a given seed.

    A drift against ``expected.json`` is reported loudly and never
    failed — a semantics bugfix may legitimately move it."""
    crc = 0
    for result in runner.first_results:
        crc = zlib.crc32(repr(_signature(result)).encode(), crc)
    out = {
        "model.signature_crc32": crc,
        "model.accepted_flits": sum(
            r.accepted_flits for r in runner.first_results),
        "model.drift": 0,
    }
    expected = json.loads((HERE / "expected.json").read_text())
    want = expected.get(runner.workload.name, {}).get(str(seed))
    if want is not None and want != crc:
        out["model.drift"] = 1
        print(
            f"MODEL DRIFT on {runner.workload.name} seed {seed}: "
            f"signature crc32 {crc} != expected {want} — simulated "
            f"results changed; update expected.json if that was intended",
            file=sys.stderr,
        )
    return out


# ----------------------------------------------------------------------
# The flow
# ----------------------------------------------------------------------
def _run_rounds(runner: Runner, seconds: float, traced: bool) -> float:
    """Whole rounds until ``seconds`` are used up; at least one.

    A further round starts only if about half of it still fits, so a
    run measures for ``seconds`` give or take half a round.  Returns the
    peak resident set after the *first* round: a fixed amount of work,
    where the peak at exit would grow with however many rounds fitted.
    """
    start = time.perf_counter()
    index = 0
    while True:
        with runner.tracer.span("round", index=index):
            runner.round(index, traced)
        runner.rounds_run += 1
        if index == 0:
            rss_mb = peak_rss_mb()
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / index > seconds:
            return rss_mb


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spawned_at: float | None = None, setup_only: bool = False,
                 output_dir: str | None = None) -> dict:
    """Run one workload in this process; returns the result document."""
    if spawned_at is None:
        spawned_at = time.time()
    workload = WORKLOAD_BY_NAME[name]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    ledger = Ledger()
    tracer = Tracer(name, enabled=False)
    runner = RUNNERS[workload.kind](workload, seed, tmp, ledger, tracer)
    try:
        # One untimed warm-up run finishes lazy imports.
        run_simulation(SimulationConfig(
            width=4, num_vcs=4, warmup_cycles=20, measure_cycles=50,
            drain_cycles=100))
        runner.setup()
        setup_raw_s = time.time() - spawned_at
        if setup_only:
            return {"setup_raw_s": setup_raw_s}

        host = HostSpeed()
        host.read()
        ledger.after_op = host.read_if_due
        rss_mb = _run_rounds(
            runner, seconds / 2 if trace else seconds, False)
        if trace:
            runner.probes()
            probe_serialization(runner)
            traced_host = HostSpeed()
            traced_host.read()
            ledger.after_op = traced_host.read_if_due
            tracer.enabled = True
            with tracer.hot_wrappers(TRACED_ROUTINGS):
                with tracer.span("workload"):
                    _run_rounds(runner, seconds / 2, True)
                    runner.verify(True)
        else:
            runner.verify(False)
    finally:
        try:
            runner.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                scratch.rmdir()
            except OSError:
                pass  # another child is still using it

    ops = ledger.ops
    untraced = [op for op in ops if not op.traced]
    units = {m.name: m.unit for m in END_TO_END}
    metrics = _at_reference_speed(
        end_to_end(ops, setup_raw_s, rss_mb), units, host.speed)
    model = model_metrics(runner, seed)
    # Extras are printed and saved but are not part of BENCHMARK.json;
    # the engine-mode ones are raw, not at reference speed.
    extras = dict(runner.extras)
    extras["host.speed"] = host.speed
    extras["host.kernel_readings"] = host.readings
    extras["rounds"] = _round_ops(ops, False)[1]
    if trace:
        units = {m.name: m.unit for m in PER_LAYER}
        runner.layer_metrics(untraced)
        # A layer the workload never touched reports 0.
        layers = dict.fromkeys(units, 0.0)
        layers.update(_at_reference_speed(
            stage_metrics(tracer), units, traced_host.speed))
        layers.update(_at_reference_speed(runner.layer, units, host.speed))
        layers.update(model)
        layers["trace.overhead_ratio"] = (
            _round_wall(ops, True) * traced_host.speed / metrics["wall_s"])
        extras.update({k: v for k, v in layers.items() if k not in units})
        extras.update({f"untraced.{k}": v for k, v in metrics.items()})
        extras["host.traced_speed"] = traced_host.speed
        metrics = {k: layers[k] for k in units}
        if output_dir is not None:
            Path(output_dir).mkdir(parents=True, exist_ok=True)
            tracer.dump(Path(output_dir) / f"TRACE_{name}.json")
    else:
        extras.update(model)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures(),
        "setup_raw_s": setup_raw_s,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
        "extras": extras,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)
    document = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spawned_at=args.spawned_at, setup_only=args.setup_only,
        output_dir=args.output_dir,
    )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
