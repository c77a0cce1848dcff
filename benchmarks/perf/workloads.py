"""The benchmark's one declarative table: workloads, metrics, sizes.

``run.py`` (what to run, what to print), ``child.py`` (what to execute)
and ``BENCHMARK.json`` (what the driver checks) all read this module, so
a workload or metric name cannot drift between them:
``python3 benchmarks/perf/workloads.py`` prints the ``BENCHMARK.json``
this table generates and ``test_perf_bench.py`` asserts the committed
file equals it.

The module imports nothing from ``repro``: configs are plain keyword
dicts that ``child.py`` turns into ``SimulationConfig`` objects, so the
parent process can read the table without the simulator on its path.

Sizes are the ISSUE's cycle counts shrunk uniformly per workload until
one *round* (every operation of the workload once) takes 0.5-2.5 s on
the baseline host: a run repeats rounds for ``--seconds`` and reports
means over all of them, which needs many repeats more than long ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

#: Seconds one driver run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 12

#: Pools, ``repro serve --jobs`` and client connections are capped here:
#: a single load-generating process on a small sandbox.
MAX_WORKERS = 2


def worker_cap() -> int:
    """``min(2, nproc)`` — the benchmark's only parallelism knob."""
    return max(1, min(MAX_WORKERS, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    """One named number.  ``bound`` is set for end-to-end metrics only."""

    name: str
    unit: str
    better: str
    what: str
    bound: float | None = None


#: Every time and rate below is *at reference speed*: a mean over the
#: whole run, scaled by how fast the host ran during the same run (see
#: ``child.HostSpeed``), because raw seconds do not repeat on the
#: baseline host.
END_TO_END = (
    Metric(
        "setup_s", "s", "lower",
        "child interpreter start to first timed operation: imports, one "
        "untimed 4x4 warm-up run, input and temp-dir creation, `repro "
        "serve` boot to 'listening'; median over SETUP_REPEATS children",
        bound=0.25,
    ),
    Metric(
        "wall_s", "s", "lower",
        "host seconds of one round: the sum of its timed operations, "
        "mean over the rounds, tracing off",
        bound=0.25,
    ),
    Metric(
        "sim_cycles_per_s", "cycles/s", "higher",
        "simulated cycles delivered per host second on the workload's "
        "cold (simulating) path at the surface it drives: inside "
        "run_simulation in process, cold `repro experiment` wall for "
        "the CLI, pooled cold pass for the pool, submit-to-last-result "
        "for the service; all rounds' cycles over all rounds' seconds",
        bound=0.25,
    ),
    Metric(
        "replay_ms", "ms", "lower",
        "mean time to get again a result the system already holds: "
        "rebuild one SimulationResult from its JSON form (in-process "
        "workloads), one warm `repro experiment fig9` (CLI), one warm "
        "grid replay from ResultCache (pool), one deduplicated job "
        "(service)",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "largest resident set after the first round: the child, the "
        "largest child it waited for (pool worker, CLI run), or the live "
        "process tree below it summed (the server and its workers)",
        bound=0.10,
    ),
)


def _timed(prefix: str, what: str) -> tuple[Metric, Metric]:
    """A hot-call pair, per traced round: self time and its exactly
    repeating call count."""
    return (
        Metric(f"{prefix}_s", "s", "lower", f"self time in {what}"),
        Metric(f"{prefix}_calls", "count", "lower", f"calls of {what}"),
    )


#: Checker names as ``ValidationConfig`` spells them (``$REPRO_VALIDATE``
#: accepts the same list).
CHECKERS = (
    "flit_conservation",
    "credit_accounting",
    "vc_states",
    "routing_conformance",
)

#: Routing algorithms whose ``select_output``/``vc_requests_at`` the
#: traced pass times (the only two the workloads use).
TRACED_ROUTINGS = ("footprint", "dbar")

#: The per-cycle stages the traced pass times (prefix, what): for every
#: run their self times and ``sim.loop_self_s`` add up to ``sim.run_s``.
STAGES = (
    ("sim.endpoints.sink", "Sink.drain"),
    ("sim.endpoints.inject", "Source.enqueue + Source.inject"),
    ("router.receive", "Router.receive_flit + receive_credit"),
    ("router.link", "Router.link_traversal"),
    ("router.route_alloc",
     "Router.route_and_allocate + clear_fresh_only, routing excluded"),
    ("router.switch", "Router.switch_traversal"),
    *(
        (f"routing.{routing}.route",
         f"{routing} select_output + vc_requests_at")
        for routing in TRACED_ROUTINGS
    ),
    ("traffic.generate", "traffic generate + next_event_cycle"),
)

PER_LAYER = (
    # -- sim ------------------------------------------------------------
    *_timed("sim.construct", "Simulator.__init__"),
    Metric("sim.run_s", "s", "lower",
       "host seconds inside Simulator.run(), per traced round"),
    Metric("sim.run_calls", "count", "lower",
       "Simulator.run() calls per traced round"),
    Metric("sim.cycles", "cycles", "lower", "sum of cycles_run over those runs"),
    Metric("sim.flits_per_s", "flits/s", "higher",
       "accepted (window) flits per host second of sim.run_s"),
    Metric("sim.stepped_cycles", "cycles", "lower",
       "Simulator.step() calls: cycles actually simulated, not skipped"),
    Metric("sim.idle_skip_ratio", "x", "higher",
       "1 - stepped_cycles / cycles (base: cycles_run)"),
    Metric("sim.loop_self_s", "s", "lower",
       "sim.run_s minus the stage times below: engine loop, active "
       "set, watchdog, phase bookkeeping, observers"),
    # -- sim.endpoints / router / routing / traffic -------------------------
    *(metric for stage in STAGES for metric in _timed(*stage)),
    # -- topology / faults ------------------------------------------------
    Metric("topology.torus.cycles_per_s", "cycles/s", "higher",
       "8x8 torus uniform 0.2 through run_simulation"),
    Metric("topology.torus.construct_s", "s", "lower",
       "Simulator construction on the torus (traced pass)"),
    Metric("faults.cycles_per_s", "cycles/s", "higher",
       "8x8 mesh 0.1 under the fault schedule"),
    # -- validate / telemetry (base: the unobserved run of the same round)
    Metric("validate.slowdown", "x", "lower",
       "unobserved cycles/s over all-checkers cycles/s"),
    *(
        Metric(f"validate.{checker}.slowdown", "x", "lower",
           f"unobserved cycles/s over cycles/s with only {checker}")
        for checker in CHECKERS
    ),
    Metric("telemetry.sampling_slowdown", "x", "lower",
       "unobserved cycles/s over default-TelemetryConfig cycles/s"),
    Metric("telemetry.tracing_slowdown", "x", "lower",
       "unobserved cycles/s over trace_flits=True cycles/s"),
    # -- sim.config / sim.results -----------------------------------------
    Metric("sim.config.construct_us", "us", "lower",
       "SimulationConfig.from_dict (construct + validate) per config"),
    Metric("sim.results.to_dict_us", "us", "lower",
       "SimulationResult.to_dict + json.dumps per result"),
    Metric("sim.results.from_dict_us", "us", "lower",
       "json.loads + SimulationResult.from_dict per result"),
    Metric("sim.results.json_bytes", "bytes", "lower",
       "mean serialized size of the workload's results"),
    # -- harness ------------------------------------------------------------
    Metric("harness.cache.key_us", "us", "lower", "config_cache_key per config"),
    Metric("harness.cache.get_us", "us", "lower", "ResultCache.get hit"),
    Metric("harness.cache.put_us", "us", "lower", "ResultCache.put"),
    Metric("harness.cache.hits", "count", "higher",
       "cache hits of one round"),
    Metric("harness.cache.misses", "count", "lower",
       "cache misses of one round"),
    Metric("harness.cache.bytes_per_entry", "bytes", "lower",
       "mean on-disk entry size"),
    Metric("harness.parallel.serial_s", "s", "lower", "grid through jobs=1"),
    Metric("harness.parallel.pool_s", "s", "lower",
       "grid through jobs=min(2,nproc) into a fresh ResultCache"),
    Metric("harness.parallel.speedup", "x", "higher",
       "serial_s / pool_s (base: serial)"),
    Metric("harness.parallel.overhead_s", "s", "lower",
       "pool_s - serial_s / workers"),
    Metric("harness.parallel.batch_imbalance", "x", "lower",
       "max / mean estimated batch cost from partition_tasks"),
    Metric("harness.parallel.warm_replay_ms", "ms", "lower",
       "grid replay from the warm ResultCache"),
    Metric("harness.experiments.warm_fig9_s", "s", "lower",
       "in-process fig9_hotspot on a warm cache"),
    Metric("harness.reporting.fig9_us", "us", "lower", "report_fig9 rendering"),
    # -- cli ----------------------------------------------------------------
    Metric("cli.interpreter_s", "s", "lower", "`python -c pass`"),
    Metric("cli.import_s", "s", "lower", "`python -c 'import repro.cli'`"),
    Metric("cli.list_s", "s", "lower", "`python -m repro list`"),
    Metric("cli.tiny_run_s", "s", "lower", "`python -m repro run` on a 4x4"),
    Metric("cli.cold_figure_s", "s", "lower",
       "`repro experiment fig9` into a fresh cache dir"),
    Metric("cli.warm_figure_s_p50", "s", "lower", "the same command, warm"),
    Metric("cli.warm_figure_s_p75", "s", "lower", "the same command, warm"),
    # -- service --------------------------------------------------------------
    Metric("service.boot_s", "s", "lower", "`repro serve` spawn to 'listening'"),
    Metric("service.ping_ms", "ms", "lower", "ping round trip"),
    Metric("service.submit_ms", "ms", "lower", "submit verb of a fresh grid"),
    Metric("service.result_fetch_ms", "ms", "lower",
       "full `result` verb + decoding"),
    Metric("service.job_s", "s", "lower", "fresh grid: submit to last result"),
    Metric("service.dedup_job_ms", "ms", "lower",
       "identical grid resubmitted on a second stream"),
    Metric("service.overlap_job_s", "s", "lower",
       "grid sharing half its tasks with a finished one"),
    Metric("service.shutdown_s", "s", "lower", "shutdown verb to process exit"),
    Metric("service.tasks_simulated", "count", "lower",
       "server totals per round"),
    Metric("service.tasks_cached", "count", "higher",
       "server totals per round"),
    Metric("service.tasks_shared", "count", "higher",
       "server totals per round"),
    # -- model (simulated statistics: exact for a given seed) -----------------
    Metric("model.signature_crc32", "id", "lower",
       "CRC-32 over every first-run result_signature, in order"),
    Metric("model.accepted_flits", "count", "higher",
       "sum of accepted_flits over the first round"),
    Metric("model.fig9_fp_over_dbar_latency", "x", "lower",
       "mean background latency, footprint over dbar (base: dbar)"),
    Metric("model.drift", "count", "lower",
       "1 when signature_crc32 differs from expected.json for this "
       "seed (reported loudly, never failed); 0 otherwise"),
    # -- trace ------------------------------------------------------------------
    Metric("trace.overhead_ratio", "x", "lower",
       "traced round wall over untraced round wall (base: untraced)"),
    Metric("trace.spans", "count", "lower", "spans recorded per traced round"),
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimCase:
    """One in-process simulation of a round.

    ``config`` holds ``SimulationConfig`` keyword arguments; the seed is
    ``derive_task_seed(--seed, "<workload>/<seed_name or label>")``.
    ``observer`` selects how the run is watched (see ``child.py``);
    ``counts`` says whether the run enters ``sim_cycles_per_s``;
    ``must_drain`` makes an undrained run a failed operation.
    """

    label: str
    config: dict
    observer: str | None = None
    counts: bool = True
    must_drain: bool = True
    seed_name: str | None = None
    probe: bool = False  #: run once in the traced pass only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  #: "sims" | "cli" | "pool" | "service"
    cases: tuple[SimCase, ...] = ()
    params: dict = field(default_factory=dict)


def _cycles(warmup: int, measure: int, drain: int) -> dict:
    return dict(
        warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain
    )


_SATURATED = _cycles(50, 100, 300)  # ISSUE 500/1000/3000, x0.1
_LOWLOAD = _cycles(100, 2000, 200)  # ISSUE 1000/20000/2000, x0.1
_FEATURES = _cycles(30, 70, 200)  # ISSUE 300/700/2000, x0.1
_SAMPLED = _cycles(150, 350, 1000)  # x0.5: a ~10 % tax needs the length
_GRID = _cycles(10, 30, 60)  # ISSUE 100/300/600, x0.1

_MID = dict(width=8, routing="footprint", traffic="uniform", injection_rate=0.05)

#: Fixed fault placement (four permanent link faults and one transient
#: router): where faults sit changes what a run costs, and the cost must
#: be comparable across ``--seed`` values.  The traffic still varies.
FAULT_SPEC = "links:4~11,router:27@40+30"

#: {footprint, dbar} x four rates: deliberately cost-imbalanced, so the
#: LPT partition has something to balance.
GRID_ROUTINGS = ("footprint", "dbar")
GRID_RATES = (0.05, 0.1, 0.2, 0.3)

WORKLOADS = (
    Workload(
        "mesh_saturated",
        "8x8 Table-2 router at the loads where sweeps spend their time; "
        "router/routing do ~85 % of the work, harness/cli/service none",
        "sims",
        params=dict(mode_anchor="fp_uniform_0.30"),
        cases=(
            SimCase("fp_uniform_0.30", dict(
                width=8, routing="footprint", traffic="uniform",
                injection_rate=0.3, **_SATURATED)),
            SimCase("dbar_uniform_0.30", dict(
                width=8, routing="dbar", traffic="uniform",
                injection_rate=0.3, **_SATURATED)),
            SimCase("fp_transpose_0.25_1to6", dict(
                width=8, routing="footprint", traffic="transpose",
                injection_rate=0.25, packet_size_range=(1, 6),
                **_SATURATED)),
            SimCase("fp_hotspot_0.45", dict(
                width=8, routing="footprint", traffic="hotspot",
                hotspot_rate=0.45, background_rate=0.3, **_SATURATED),
                must_drain=False),
        ),
    ),
    Workload(
        "mesh_lowload",
        "zero-load to sub-saturation ladder: idle-skip and the active "
        "set do the work and route_and_allocate little, so a "
        "saturated-loop optimisation predicts no change here",
        "sims",
        params=dict(mode_anchor="fp_uniform_0.002"),
        cases=(
            *(
                SimCase(f"fp_uniform_{rate}", dict(
                    width=8, routing="footprint", traffic="uniform",
                    injection_rate=rate, **_LOWLOAD))
                for rate in (0.0005, 0.002, 0.01, 0.02)
            ),
            SimCase("fp_uniform_16x16_0.001", dict(
                width=16, routing="footprint", traffic="uniform",
                injection_rate=0.001, **_LOWLOAD)),
        ),
    ),
    Workload(
        "scalar_features",
        "torus wrap links, a fault schedule and the plain scalar loop at "
        "mid load: the paths only the scalar engine runs, unobserved",
        "sims",
        cases=(
            SimCase("torus_uniform_0.20", dict(
                width=8, topology="torus", routing="footprint",
                traffic="uniform", injection_rate=0.2, **_FEATURES)),
            SimCase("mesh_faulted_0.10", dict(
                width=8, routing="footprint", traffic="uniform",
                injection_rate=0.1, **_FEATURES),
                observer="faults", must_drain=False),
            # The same config three times: every repeat must reproduce
            # the first run's signature.
            *(
                SimCase(f"unobserved_0.05_{i}", dict(**_MID, **_FEATURES),
                        seed_name="unobserved_0.05")
                for i in (1, 2, 3)
            ),
        ),
    ),
    Workload(
        "checkers_on",
        "8x8 at 0.05 with every ValidationConfig checker on (through "
        "$REPRO_VALIDATE, as a user turns them on); a checker rewrite "
        "moves this row, a core speed-up that taxes hooks moves it the "
        "other way",
        "sims",
        cases=(
            SimCase("unobserved", dict(**_MID, **_FEATURES),
                    counts=False, seed_name="mid"),
            SimCase("checked_all", dict(**_MID, **_FEATURES),
                    observer="validate:all", seed_name="mid"),
            *(
                SimCase(f"checked_{checker}", dict(**_MID, **_FEATURES),
                        observer=f"validate:{checker}", counts=False,
                        seed_name="mid", probe=True)
                for checker in CHECKERS
            ),
        ),
    ),
    Workload(
        "sampling_on",
        "8x8 at 0.05 with the default TelemetryConfig() sampling on, "
        "beside the same run unobserved: the cost of leaving "
        "observability on",
        "sims",
        cases=(
            SimCase("unobserved", dict(**_MID, **_SAMPLED),
                    counts=False, seed_name="mid"),
            SimCase("sampled_1", dict(**_MID, **_SAMPLED),
                    observer="telemetry:sampling", seed_name="mid"),
            SimCase("sampled_2", dict(**_MID, **_SAMPLED),
                    observer="telemetry:sampling", seed_name="mid"),
            SimCase("flit_traced", dict(**_MID, **_SAMPLED),
                    observer="telemetry:tracing", counts=False,
                    seed_name="mid", probe=True),
        ),
    ),
    Workload(
        "fig9_cli",
        "the headline experiment as a user runs it: `python -m repro "
        "experiment fig9` cold into a fresh cache dir, then warm replays "
        "(interpreter start, imports, cache probe, reporting; no "
        "simulation)",
        "cli",
        # The CLI offers smoke/bench/paper only; bench is 17 s cold.
        params=dict(scale="smoke", warm_replays=8),
    ),
    Workload(
        "grid_pool",
        "an 8-task cost-imbalanced grid through run_tasks: serial, "
        "pooled into a fresh ResultCache, then warm replays; isolates "
        "dispatch, partitioning, pickling and cache put/get",
        "pool",
        params=dict(cycles=_GRID, warm_replays=12),
    ),
    Workload(
        "service_roundtrip",
        "the same grid through `repro serve`: fresh job, deduplicated "
        "resubmissions on a second stream, a half-overlapping grid; the "
        "difference from grid_pool is wire + scheduling",
        "service",
        params=dict(cycles=_GRID, dedup_replays=12),
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this table defines."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
