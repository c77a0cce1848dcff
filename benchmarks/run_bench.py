#!/usr/bin/env python
"""Benchmark the simulation engine, the result cache, and the pool layer.

Eight measurements, written to ``BENCH_<timestamp>.json``:

* **engine** — single-simulation cycles/sec for a fixed config matrix,
  comparing three engine modes: ``vector`` (the structure-of-arrays
  batch core), ``skip`` (idle-cycle skipping on top of the active-set
  scheduler, the default), and ``legacy`` (the original every-router
  loop, kept in-tree for exactly this before/after comparison).  All
  three modes produce bit-identical results; the harness asserts it on every run.  The matrix emphasizes
  low offered loads because that is where saturation studies spend most
  of their runs (the whole sub-saturation ladder plus the zero-load
  reference) and where quiescence-based skipping pays off; entries at
  or below ``ZERO_LOAD_RATE`` form the ``zero_load`` summary bucket.
  ``vector_speedup`` is vector vs skip — the number to watch for the
  vector core.  ``--stage-times`` additionally records per-stage wall
  time of one instrumented vector run per entry (a separate diagnostic
  run; off by default because the timing wrappers add overhead).

* **auto** — ``engine_mode="auto"`` timed against both engines it
  arbitrates at the zero-load and saturation anchors, asserting
  bit-identical results and recording which engine it resolved to;
  ``auto_speedup`` (auto vs skip) should sit at ~1.0 at zero load and
  track ``vector_speedup`` at saturation.

* **baseline** — the same matrix timed against the *pre-optimization
  tree*: the repo's root commit is checked out into a temporary git
  worktree and each config is timed there in a subprocess.  This is the
  true before/after number, free of the shared-gains bias above.
  Skipped (with a note) when git or the worktree is unavailable.

* **cache** — one sweep grid executed twice against a fresh cache
  directory: a cold pass that simulates and stores every point, then a
  warm pass that must complete with **zero simulations** (asserted via
  the cache's miss counter) and point-for-point identical results.

* **parallel** — wall-clock for one sweep grid executed serially
  (``jobs=1``) and through the process pool, with a point-by-point
  equality check between both result lists.  The pool chunks tasks into
  one cost-balanced batch per worker (one submission each), so its
  overhead is bounded by worker startup rather than per-task
  round-trips.  On a multi-CPU machine the run **asserts**
  ``speedup > 1``; on a single-CPU machine true speedup is impossible
  (the pool can only add overhead), so the assertion is recorded as
  skipped instead.

* **telemetry** — the cost of observation.  Each config is timed with
  telemetry off (no hub, the ``tel is None`` fast path), with sampling
  on, and with full flit tracing on; simulated results must be
  bit-identical in all three.  The matrix is also timed against the
  *overhead baseline* — by default ``HEAD``, i.e. the previous PR's
  tip, checked out into a git worktree — and the run **asserts** that
  the working tree's disabled-probe overhead vs that tree stays under
  ``TELEMETRY_OVERHEAD_BUDGET`` (2%) geomean.  This is a **per-PR
  delta** gate: each PR may add at most the budget on top of the tree
  it grew from (fixed historical revisions would instead accumulate
  every PR's cost and eventually exceed any budget).
  ``--overhead-baseline-rev`` re-aims the gate (e.g. at a merge base);
  the comparison is skipped (with a note) under ``--no-baseline`` or
  when git is unavailable.

* **validate** — the cost of runtime invariant checking.  Each config is
  timed with validation off (the ``val is None`` fast path) and with
  every checker of :mod:`repro.validate` on; simulated results must be
  bit-identical in both.  The matrix is also timed against the same
  per-PR overhead baseline, and the run **asserts** that the
  disabled-hook overhead stays under ``VALIDATE_OVERHEAD_BUDGET`` (2%)
  geomean.  Skipped notes as above.

* **tuner** — a tiny budgeted ``repro tune`` (successive halving plus
  one refinement round) executed twice against a fresh cache: the cold
  pass simulates every evaluation, and the warm pass must replay the
  **identical search** — same frontier, same per-round survivors —
  with **zero fresh simulations**, because tune budgets are charged in
  estimated cycle-nodes rather than actual simulation work.  Both
  properties are asserted on every run.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py           # full matrix
    PYTHONPATH=src python benchmarks/run_bench.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --jobs 4
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.harness.parallel import SimTask, resolve_jobs, run_tasks
from repro.metrics.sweep import point_from_result
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig

#: (width, routing, injection rate) — zero-load points first (rates at or
#: below ``ZERO_LOAD_RATE`` form the ``zero_load`` summary bucket; they
#: correspond to the zero-load latency references of the figure sweeps,
#: where the network is quiescent almost every cycle), then the climb to
#: saturation.
ENGINE_MATRIX = (
    (8, "footprint", 0.0001),
    (8, "dor", 0.0002),
    (16, "footprint", 0.0001),
    (8, "footprint", 0.001),
    (8, "footprint", 0.02),
    (8, "footprint", 0.05),
    (8, "footprint", 0.3),
    (16, "footprint", 0.05),
)

QUICK_MATRIX = (
    (8, "footprint", 0.0002),
    (8, "footprint", 0.02),
    # The saturation anchor: kept in the quick matrix so the CI smoke
    # can guard the vector/skip ratio where the vector core matters.
    (8, "footprint", 0.3),
)

ZERO_LOAD_RATE = 0.0002

#: The saturation point of the engine matrix — the anchor the auto
#: section and the CI perf-regression smoke key on.
SATURATION_POINT = (8, "footprint", 0.3)

#: Torus configs for the cross-engine identity section.  Loaded points
#: (but not the mesh saturation anchor's triple — the perf-regression
#: guard first-matches entries by (width, routing, rate) and must keep
#: keying on the mesh entry): wrap links and dateline escape VCs are
#: exercised hardest when the network is busy.
TORUS_MATRIX = (
    (8, "dor", 0.2),
    (8, "footprint", 0.2),
)
QUICK_TORUS_MATRIX = (
    (8, "footprint", 0.2),
)

PARALLEL_RATES = (0.05, 0.1, 0.15, 0.2)
QUICK_PARALLEL_RATES = (0.05, 0.15)

CACHE_RATES = (0.01, 0.02, 0.05, 0.1)
QUICK_CACHE_RATES = (0.01, 0.05)

#: Configs timed with telemetry off / sampling / tracing.  Loaded points
#: dominate: that is where probes fire most and overhead shows first.
TELEMETRY_MATRIX = (
    (8, "footprint", 0.0002),
    (8, "footprint", 0.02),
    (8, "footprint", 0.05),
    (8, "dor", 0.05),
)
QUICK_TELEMETRY_MATRIX = (
    (8, "footprint", 0.02),
)

#: Default revision the overhead gates compare against: the committed
#: tip the working tree grew from.  The gates measure the *per-PR*
#: cost delta, not the total since some fixed historical commit —
#: fixed anchors accumulate every intervening PR's cost and eventually
#: bust any budget regardless of what the current change did.
#: ``--overhead-baseline-rev`` overrides (e.g. with a merge base).
OVERHEAD_BASELINE_REV = "HEAD"

#: Maximum acceptable geomean slowdown of a telemetry-off run vs the
#: overhead-baseline tree (fraction; 0.02 = 2%).
TELEMETRY_OVERHEAD_BUDGET = 0.02

#: Configs timed with invariant validation off vs all checkers on.  Same
#: emphasis as the telemetry matrix: loaded points are where the checker
#: hook sites fire most.
VALIDATE_MATRIX = (
    (8, "footprint", 0.0002),
    (8, "footprint", 0.02),
    (8, "footprint", 0.05),
    (8, "dor", 0.05),
)
QUICK_VALIDATE_MATRIX = (
    (8, "footprint", 0.02),
)

#: Maximum acceptable geomean slowdown of a validation-off run vs the
#: overhead-baseline tree (fraction; 0.02 = 2%).
VALIDATE_OVERHEAD_BUDGET = 0.02


def _bench_config(
    width: int,
    routing: str,
    rate: float,
    quick: bool,
    topology: str = "mesh",
):
    cycles = (100, 200, 500) if quick else (200, 400, 1000)
    return SimulationConfig(
        width=width,
        topology=topology,
        routing=routing,
        injection_rate=rate,
        warmup_cycles=cycles[0],
        measure_cycles=cycles[1],
        drain_cycles=cycles[2],
        seed=1,
    )


def _result_signature(result):
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_ejected,
        tuple(result.latency._samples),
    )


def _time_mode(config: SimulationConfig, mode: str, reps: int):
    """Best-of-``reps`` cycles/sec plus the result signature."""
    best = 0.0
    signature = None
    for _ in range(reps):
        sim = Simulator(config, engine_mode=mode)
        t0 = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - t0
        best = max(best, result.cycles_run / elapsed)
        signature = _result_signature(result)
    return best, signature


def _stage_times_us(config: SimulationConfig) -> dict | None:
    """Per-stage wall time of one instrumented vector run, µs/cycle.

    Instrumentation wraps every stage method in a timing closure, so the
    run is *not* comparable to the uninstrumented timings above — it is
    a separate diagnostic run whose absolute numbers carry the wrapper
    overhead.  Returns ``None`` when the config fell back to ``skip``
    (scalar engines have no per-stage hook points).
    """
    sim = Simulator(config, engine_mode="vector")
    if sim.engine_mode != "vector":
        return None
    sim.collect_stage_times = True
    result = sim.run()
    cycles = max(result.cycles_run, 1)
    assert sim.stage_times is not None
    return {
        stage: round(seconds * 1e6 / cycles, 1)
        for stage, seconds in sim.stage_times.items()
    }


def bench_engine(quick: bool, reps: int, stage_times: bool = False) -> dict:
    matrix = QUICK_MATRIX if quick else ENGINE_MATRIX
    entries = []
    for width, routing, rate in matrix:
        config = _bench_config(width, routing, rate, quick)
        vector_cps, vector_sig = _time_mode(config, "vector", reps)
        skip_cps, skip_sig = _time_mode(config, "skip", reps)
        legacy_cps, legacy_sig = _time_mode(config, "legacy", reps)
        if not (vector_sig == skip_sig == legacy_sig):
            raise AssertionError(
                f"vector/skip/legacy results diverge for "
                f"{width}x{width} {routing} @ {rate}"
            )
        speedup = skip_cps / legacy_cps
        vector_speedup = vector_cps / skip_cps
        entry = {
            "width": width,
            "routing": routing,
            "injection_rate": rate,
            "vector_cycles_per_sec": round(vector_cps, 1),
            "skip_cycles_per_sec": round(skip_cps, 1),
            "legacy_cycles_per_sec": round(legacy_cps, 1),
            "speedup": round(speedup, 3),
            "vector_speedup": round(vector_speedup, 3),
            "results_identical": True,
            # For the baseline cross-check (signature = cycles_run,
            # accepted flits, offered flits, ejected, samples).
            "cycles_run": skip_sig[0],
            "accepted_flits": skip_sig[1],
        }
        if stage_times:
            entry["stage_times_us_per_cycle"] = _stage_times_us(config)
        entries.append(entry)
        print(
            f"  {width}x{width} {routing:10s} rate={rate:<7} "
            f"vector={vector_cps:8.0f} skip={skip_cps:8.0f} "
            f"legacy={legacy_cps:8.0f} c/s  "
            f"skip/legacy {speedup:.2f}x  vector/skip "
            f"{vector_speedup:.2f}x"
        )

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    speedups = [e["speedup"] for e in entries]
    vector_speedups = [e["vector_speedup"] for e in entries]
    zero_load = [
        e["speedup"]
        for e in entries
        if e["injection_rate"] <= ZERO_LOAD_RATE + 1e-9
    ]
    # The vector core amortizes numpy batch overhead over the number of
    # concurrently-routing packets, so it crosses over: slower than skip
    # on (near-)quiescent runs, faster on loaded ones.  Report the
    # loaded bucket separately so the crossover is visible, not averaged
    # away.
    loaded_vector = [
        e["vector_speedup"]
        for e in entries
        if e["injection_rate"] > ZERO_LOAD_RATE + 1e-9
    ] or vector_speedups
    return {
        "reps": reps,
        "matrix": entries,
        "summary": {
            "geomean_speedup": round(geomean(speedups), 3),
            "zero_load_geomean_speedup": round(geomean(zero_load), 3),
            "max_speedup": round(max(speedups), 3),
            "geomean_vector_speedup": round(geomean(vector_speedups), 3),
            "loaded_geomean_vector_speedup": round(
                geomean(loaded_vector), 3
            ),
            "max_vector_speedup": round(max(vector_speedups), 3),
        },
    }


def bench_auto(quick: bool, reps: int) -> dict:
    """Time ``engine_mode="auto"`` against both engines it arbitrates.

    Two anchor points: the zero-load reference (where idle-skipping wins
    and ``auto`` must resolve to ``skip``) and the saturation point
    (where the vector core wins and ``auto`` must resolve to
    ``vector``).  For each, all three modes are timed and must produce
    bit-identical signatures; the number to watch is ``auto_speedup``
    (auto vs skip), which should sit at ~1.0 at zero load and match
    ``vector_speedup`` at saturation — the "never loses" contract,
    modulo timing noise.
    """
    from repro.sim.engine import AUTO_ACTIVITY_THRESHOLD, resolve_auto_mode

    anchors = (
        (8, "footprint", ZERO_LOAD_RATE, "zero_load"),
        (*SATURATION_POINT, "saturation"),
    )
    entries = []
    for width, routing, rate, label in anchors:
        config = _bench_config(width, routing, rate, quick)
        resolved = resolve_auto_mode(config)
        # Zero-load runs finish in milliseconds, so single-rep timing is
        # all jitter; extra best-of reps there are free and keep the
        # auto-vs-skip comparison (same engine on both sides) honest.
        anchor_reps = max(reps, 5) if label == "zero_load" else reps
        auto_cps, auto_sig = _time_mode(config, "auto", anchor_reps)
        skip_cps, skip_sig = _time_mode(config, "skip", anchor_reps)
        vector_cps, vector_sig = _time_mode(config, "vector", anchor_reps)
        if not (auto_sig == skip_sig == vector_sig):
            raise AssertionError(
                f"auto/skip/vector results diverge for {width}x{width} "
                f"{routing} @ {rate}"
            )
        entries.append(
            {
                "anchor": label,
                "width": width,
                "routing": routing,
                "injection_rate": rate,
                "resolved_mode": resolved,
                "auto_cycles_per_sec": round(auto_cps, 1),
                "skip_cycles_per_sec": round(skip_cps, 1),
                "vector_cycles_per_sec": round(vector_cps, 1),
                "auto_speedup": round(auto_cps / skip_cps, 3),
                "results_identical": True,
            }
        )
        print(
            f"  {label:10s} {width}x{width} {routing} rate={rate:<7} "
            f"-> {resolved:6s}  auto={auto_cps:8.0f} skip={skip_cps:8.0f} "
            f"vector={vector_cps:8.0f} c/s  auto/skip "
            f"{auto_cps / skip_cps:.2f}x"
        )
    return {
        "reps": reps,
        "activity_threshold": AUTO_ACTIVITY_THRESHOLD,
        "matrix": entries,
        "summary": {
            e["anchor"] + "_auto_speedup": e["auto_speedup"]
            for e in entries
        },
    }


def bench_torus(quick: bool, reps: int) -> dict:
    """Cross-engine identity and drain on the 2D torus.

    The scalar engines (skip/legacy) must stay bit-identical on
    wrap links and dateline escape VCs exactly as they do on the mesh,
    every run must drain (the dateline argument is the deadlock-freedom
    story — a hung drain here is a routing bug, not noise), and the
    vector core must refuse the topology loudly with a field-named
    fallback reason rather than silently computing mesh routes.
    """
    from repro.sim.vector import vector_unsupported_reason

    matrix = QUICK_TORUS_MATRIX if quick else TORUS_MATRIX
    entries = []
    for width, routing, rate in matrix:
        config = _bench_config(width, routing, rate, quick, topology="torus")
        reason = vector_unsupported_reason(config)
        if reason is None or "config.topology" not in reason:
            raise AssertionError(
                f"vector core accepted a torus config (fallback reason: "
                f"{reason!r}); it must name config.topology"
            )
        skip_cps, skip_sig = _time_mode(config, "skip", reps)
        legacy_cps, legacy_sig = _time_mode(config, "legacy", reps)
        if skip_sig != legacy_sig:
            raise AssertionError(
                f"skip/legacy results diverge on torus for "
                f"{width}x{width} {routing} @ {rate}"
            )
        result = Simulator(config, engine_mode="skip").run()
        if not result.drained:
            raise AssertionError(
                f"torus run failed to drain for {width}x{width} "
                f"{routing} @ {rate} — dateline escape VCs are not "
                f"breaking the wrap-link cycle"
            )
        entries.append(
            {
                "width": width,
                "routing": routing,
                "injection_rate": rate,
                "topology": "torus",
                "skip_cycles_per_sec": round(skip_cps, 1),
                "legacy_cycles_per_sec": round(legacy_cps, 1),
                "speedup": round(skip_cps / legacy_cps, 3),
                "vector_fallback": reason,
                "drained": True,
                "results_identical": True,
                "cycles_run": skip_sig[0],
                "accepted_flits": skip_sig[1],
            }
        )
        print(
            f"  {width}x{width} torus {routing:10s} rate={rate:<7} "
            f"skip={skip_cps:8.0f} "
            f"legacy={legacy_cps:8.0f} c/s  skip/legacy "
            f"{skip_cps / legacy_cps:.2f}x  drained=True"
        )
    return {
        "reps": reps,
        "matrix": entries,
        "summary": {
            "geomean_speedup": round(
                _geomean([e["speedup"] for e in entries]), 3
            ),
            "all_drained": True,
            "results_identical": True,
        },
    }


_CHILD_TIMER = """\
import json, sys, time
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

params = json.loads(sys.argv[1])
reps = params.pop("reps")
config = SimulationConfig(**params)
best = 0.0
result = None
for _ in range(reps):
    sim = Simulator(config)
    t0 = time.perf_counter()
    result = sim.run()
    best = max(best, result.cycles_run / (time.perf_counter() - t0))
print(json.dumps({
    "cps": best,
    "cycles_run": result.cycles_run,
    "accepted_flits": result.accepted_flits,
    "avg_latency": result.avg_latency,
}))
"""


def _time_in_tree(tree: Path, config: SimulationConfig, reps: int) -> dict:
    """Time ``config`` with the simulator from another source tree."""
    params = {
        "width": config.width,
        "routing": config.routing,
        "injection_rate": config.injection_rate,
        "warmup_cycles": config.warmup_cycles,
        "measure_cycles": config.measure_cycles,
        "drain_cycles": config.drain_cycles,
        "seed": config.seed,
        "reps": reps,
    }
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_TIMER, json.dumps(params)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tree,
        check=True,
        timeout=600,
    )
    return json.loads(proc.stdout)


def bench_baseline(quick: bool, reps: int, engine: dict) -> dict:
    """Time the matrix on the repo's root commit (the seed tree)."""
    repo = Path(__file__).resolve().parent.parent
    try:
        rev = subprocess.run(
            ["git", "rev-list", "--max-parents=0", "HEAD"],
            capture_output=True,
            text=True,
            cwd=repo,
            check=True,
            timeout=60,
        ).stdout.split()[0]
    except (subprocess.SubprocessError, OSError, IndexError) as exc:
        print(f"  skipped: cannot resolve root commit ({exc})")
        return {"skipped": str(exc)}

    entries = []
    with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tmp:
        tree = Path(tmp) / "tree"
        try:
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(tree), rev],
                capture_output=True,
                text=True,
                cwd=repo,
                check=True,
                timeout=120,
            )
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"  skipped: cannot create worktree ({exc})")
            return {"skipped": str(exc), "baseline_rev": rev}
        try:
            for entry in engine["matrix"]:
                config = _bench_config(
                    entry["width"],
                    entry["routing"],
                    entry["injection_rate"],
                    quick,
                )
                try:
                    child = _time_in_tree(tree, config, reps)
                except (
                    subprocess.SubprocessError,
                    OSError,
                    ValueError,
                ) as exc:
                    print(f"  skipped: baseline run failed ({exc})")
                    return {"skipped": str(exc), "baseline_rev": rev}
                speedup = entry["skip_cycles_per_sec"] / child["cps"]
                matches = (
                    child["cycles_run"] == entry["cycles_run"]
                    and child["accepted_flits"] == entry["accepted_flits"]
                )
                entries.append(
                    {
                        "width": entry["width"],
                        "routing": entry["routing"],
                        "injection_rate": entry["injection_rate"],
                        "baseline_cycles_per_sec": round(child["cps"], 1),
                        "skip_cycles_per_sec": entry["skip_cycles_per_sec"],
                        "speedup_vs_baseline": round(speedup, 3),
                        "results_match_baseline": matches,
                    }
                )
                print(
                    f"  {entry['width']}x{entry['width']} "
                    f"{entry['routing']:10s} "
                    f"rate={entry['injection_rate']:<7} "
                    f"baseline={child['cps']:8.0f} c/s  "
                    f"skip={entry['skip_cycles_per_sec']:8.0f} c/s  "
                    f"{speedup:.2f}x"
                )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                capture_output=True,
                cwd=repo,
                timeout=120,
            )

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    speedups = [e["speedup_vs_baseline"] for e in entries]
    return {
        "baseline_rev": rev,
        "matrix": entries,
        "summary": {
            "geomean_speedup": round(geomean(speedups), 3),
            "max_speedup": round(max(speedups), 3),
        },
    }


def bench_cache(quick: bool) -> dict:
    """Cold-populate a fresh cache, then prove a warm re-run is free."""
    from repro.harness.cache import ResultCache

    rates = QUICK_CACHE_RATES if quick else CACHE_RATES
    config = _bench_config(8, "footprint", 0.05, quick)
    tasks = [SimTask(config, rate=rate) for rate in rates]

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        cold_cache = ResultCache(tmp)
        t0 = time.perf_counter()
        cold = run_tasks(tasks, jobs=1, cache=cold_cache)
        cold_seconds = time.perf_counter() - t0

        warm_cache = ResultCache(tmp)
        t0 = time.perf_counter()
        warm = run_tasks(tasks, jobs=1, cache=warm_cache)
        warm_seconds = time.perf_counter() - t0

    if warm_cache.misses != 0 or warm_cache.hits != len(tasks):
        raise AssertionError(
            f"warm cache pass simulated: {warm_cache.misses} misses, "
            f"{warm_cache.hits} hits for {len(tasks)} tasks"
        )
    cold_points = [
        point_from_result(r, rate) for r, rate in zip(cold, rates)
    ]
    warm_points = [
        point_from_result(r, rate) for r, rate in zip(warm, rates)
    ]
    if cold_points != warm_points:
        raise AssertionError("cached results diverge from fresh results")

    speedup = cold_seconds / warm_seconds
    print(
        f"  {len(tasks)} tasks: cold={cold_seconds:.2f}s  "
        f"warm={warm_seconds:.3f}s  {speedup:.0f}x  "
        f"warm_simulations=0  identical=True"
    )
    return {
        "tasks": len(tasks),
        "rates": list(rates),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 3),
        "warm_hits": warm_cache.hits,
        "warm_misses": warm_cache.misses,
        "warm_simulations": 0,
        "results_identical": True,
    }


def bench_parallel(quick: bool, jobs: int | str | None) -> dict:
    rates = QUICK_PARALLEL_RATES if quick else PARALLEL_RATES
    config = _bench_config(8, "footprint", 0.05, quick)
    tasks = [SimTask(config, rate=rate) for rate in rates]
    workers = resolve_jobs(jobs if jobs is not None else "auto")

    t0 = time.perf_counter()
    serial = run_tasks(tasks, jobs=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = run_tasks(tasks, jobs=workers)
    parallel_seconds = time.perf_counter() - t0

    serial_points = [
        point_from_result(r, rate) for r, rate in zip(serial, rates)
    ]
    pooled_points = [
        point_from_result(r, rate) for r, rate in zip(pooled, rates)
    ]
    identical = serial_points == pooled_points
    if not identical:
        raise AssertionError("parallel sweep diverged from serial sweep")

    # With one resolved worker run_tasks stays in-process, so force the
    # pool once to prove results survive the process boundary unchanged.
    forced = run_tasks(tasks, jobs=max(2, workers))
    forced_points = [
        point_from_result(r, rate) for r, rate in zip(forced, rates)
    ]
    if forced_points != serial_points:
        raise AssertionError("process-pool sweep diverged from serial sweep")

    speedup = serial_seconds / parallel_seconds
    cpus = os.cpu_count() or 1
    multi_cpu = cpus >= 2 and workers >= 2
    print(
        f"  {len(tasks)} tasks: serial={serial_seconds:.2f}s  "
        f"jobs={workers}: {parallel_seconds:.2f}s  "
        f"{speedup:.2f}x  identical={identical}  pool-identical=True"
    )
    if quick:
        assertion = "skipped (grid too short to amortise pool start-up)"
        print(f"  speedup>1 assertion {assertion}")
    elif multi_cpu:
        if speedup <= 1.0:
            raise AssertionError(
                f"pooled sweep slower than serial on a {cpus}-CPU host: "
                f"{speedup:.2f}x (batched submission should beat serial "
                f"whenever real parallelism exists)"
            )
        assertion = "passed"
    else:
        assertion = f"skipped (single-CPU host or jobs={workers})"
        print(f"  speedup>1 assertion {assertion}")
    return {
        "tasks": len(tasks),
        "rates": list(rates),
        "jobs": workers,
        "cpu_count": cpus,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3),
        "speedup_assertion": assertion,
        "results_identical": identical,
        "pool_results_identical": True,
    }


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _resolve_rev(repo: Path, rev: str) -> str | None:
    """Resolve ``rev`` to a commit sha, or ``None`` when git cannot.

    The overhead gates record the resolved sha (not the symbolic name)
    so a stored payload pins exactly which tree it was measured
    against even after the branch moves.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
            capture_output=True,
            text=True,
            cwd=repo,
            check=True,
            timeout=30,
        )
    except (subprocess.SubprocessError, OSError):
        return None
    return proc.stdout.strip() or None


def bench_telemetry(
    quick: bool,
    reps: int,
    no_baseline: bool,
    baseline_rev: str = OVERHEAD_BASELINE_REV,
) -> dict:
    """Time telemetry off / sampling / tracing; bound the disabled cost.

    The off/on comparison runs in-tree and asserts bit-identical
    simulated results.  The disabled-probe overhead is then measured
    against ``baseline_rev`` (default :data:`OVERHEAD_BASELINE_REV` =
    ``HEAD``, the tree this change grew from) in a git worktree — the
    same machinery as :func:`bench_baseline` — and the **per-PR delta**
    must stay under :data:`TELEMETRY_OVERHEAD_BUDGET` geomean.  Both
    sides of that ratio are timed back-to-back in fresh child
    processes — reusing the in-process ``off`` timing taken minutes
    earlier conflates host drift (and the bench process's accumulated
    heap) with probe cost.
    """
    matrix = QUICK_TELEMETRY_MATRIX if quick else TELEMETRY_MATRIX
    sampling = TelemetryConfig(sample_every=100)
    tracing = TelemetryConfig(sample_every=100, trace_flits=True)
    entries = []
    for width, routing, rate in matrix:
        config = _bench_config(width, routing, rate, quick)
        off_cps, off_sig = _time_mode(config, "skip", reps)
        on_cps, on_sig = _time_mode(
            config.with_(telemetry=sampling), "skip", reps
        )
        trace_cps, trace_sig = _time_mode(
            config.with_(telemetry=tracing), "skip", reps
        )
        if not (off_sig == on_sig == trace_sig):
            raise AssertionError(
                f"telemetry changed simulated results for {width}x{width} "
                f"{routing} @ {rate}"
            )
        entries.append(
            {
                "width": width,
                "routing": routing,
                "injection_rate": rate,
                "off_cycles_per_sec": round(off_cps, 1),
                "sampling_cycles_per_sec": round(on_cps, 1),
                "tracing_cycles_per_sec": round(trace_cps, 1),
                "sampling_cost": round(off_cps / on_cps - 1, 4),
                "tracing_cost": round(off_cps / trace_cps - 1, 4),
                "results_identical": True,
            }
        )
        print(
            f"  {width}x{width} {routing:10s} rate={rate:<7} "
            f"off={off_cps:8.0f} sampling={on_cps:8.0f} "
            f"tracing={trace_cps:8.0f} c/s"
        )

    out = {
        "reps": reps,
        "overhead_budget": TELEMETRY_OVERHEAD_BUDGET,
        "matrix": entries,
        "summary": {
            "geomean_sampling_cost": round(
                _geomean([1 + e["sampling_cost"] for e in entries]) - 1, 4
            ),
            "geomean_tracing_cost": round(
                _geomean([1 + e["tracing_cost"] for e in entries]) - 1, 4
            ),
        },
    }

    if no_baseline:
        print("  disabled-probe baseline skipped: --no-baseline")
        out["baseline"] = {"skipped": "--no-baseline"}
        return out
    repo = Path(__file__).resolve().parent.parent
    resolved = _resolve_rev(repo, baseline_rev)
    if resolved is None:
        print(
            f"  disabled-probe baseline skipped: "
            f"cannot resolve {baseline_rev!r}"
        )
        out["baseline"] = {"skipped": f"cannot resolve {baseline_rev!r}"}
        return out
    with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as tmp:
        tree = Path(tmp) / "tree"
        try:
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(tree),
                 resolved],
                capture_output=True,
                text=True,
                cwd=repo,
                check=True,
                timeout=120,
            )
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"  disabled-probe baseline skipped: no worktree ({exc})")
            out["baseline"] = {"skipped": str(exc)}
            return out
        try:
            overheads = []
            for entry in entries:
                config = _bench_config(
                    entry["width"],
                    entry["routing"],
                    entry["injection_rate"],
                    quick,
                )
                try:
                    current = _time_in_tree(repo, config, reps)
                    child = _time_in_tree(tree, config, reps)
                except (
                    subprocess.SubprocessError,
                    OSError,
                    ValueError,
                ) as exc:
                    print(f"  disabled-probe baseline skipped: ({exc})")
                    out["baseline"] = {"skipped": str(exc)}
                    return out
                overhead = child["cps"] / current["cps"] - 1
                entry["off_cycles_per_sec_interleaved"] = round(
                    current["cps"], 1
                )
                entry["baseline_cycles_per_sec"] = round(child["cps"], 1)
                entry["disabled_probe_overhead"] = round(overhead, 4)
                overheads.append(overhead)
                print(
                    f"  {entry['width']}x{entry['width']} "
                    f"{entry['routing']:10s} "
                    f"rate={entry['injection_rate']:<7} "
                    f"baseline={child['cps']:8.0f} c/s  "
                    f"overhead={overhead:+.1%}"
                )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                capture_output=True,
                cwd=repo,
                timeout=120,
            )
    geomean_overhead = _geomean([1 + o for o in overheads]) - 1
    out["baseline"] = {
        "rev": resolved,
        "reference": baseline_rev,
        "geomean_disabled_probe_overhead": round(geomean_overhead, 4),
    }
    print(
        f"  disabled-probe overhead geomean {geomean_overhead:+.1%} "
        f"vs {baseline_rev} (budget {TELEMETRY_OVERHEAD_BUDGET:.0%})"
    )
    if geomean_overhead >= TELEMETRY_OVERHEAD_BUDGET:
        raise AssertionError(
            f"disabled-probe overhead {geomean_overhead:.1%} exceeds the "
            f"{TELEMETRY_OVERHEAD_BUDGET:.0%} per-PR budget vs "
            f"{baseline_rev} ({resolved})"
        )
    return out


def bench_validate(
    quick: bool,
    reps: int,
    no_baseline: bool,
    baseline_rev: str = OVERHEAD_BASELINE_REV,
) -> dict:
    """Time invariant validation off vs all checkers on; bound the
    disabled cost.

    The off/on comparison runs in-tree and asserts bit-identical
    simulated results (the checkers observe, never steer).  The disabled
    hook overhead — the ``val is None`` attribute checks left in the hot
    path — is then measured against ``baseline_rev`` (default ``HEAD``)
    in a git worktree and the per-PR delta must stay under
    :data:`VALIDATE_OVERHEAD_BUDGET` geomean, with both sides timed
    back-to-back in fresh child processes (see :func:`bench_telemetry`).
    """
    from repro.validate import ValidationConfig
    from repro.validate.differential import result_signature

    def time_validated(config, validation):
        best = 0.0
        signature = None
        checks = 0
        for _ in range(reps):
            sim = Simulator(config, validation=validation)
            t0 = time.perf_counter()
            result = sim.run()
            elapsed = time.perf_counter() - t0
            best = max(best, result.cycles_run / elapsed)
            signature = result_signature(result)
            checks = sim.validator.checks_run if sim.validator else 0
        return best, signature, checks

    matrix = QUICK_VALIDATE_MATRIX if quick else VALIDATE_MATRIX
    entries = []
    for width, routing, rate in matrix:
        config = _bench_config(width, routing, rate, quick)
        off_cps, off_sig, _ = time_validated(config, None)
        on_cps, on_sig, checks = time_validated(config, ValidationConfig())
        if off_sig != on_sig:
            raise AssertionError(
                f"validation changed simulated results for {width}x{width} "
                f"{routing} @ {rate}"
            )
        entries.append(
            {
                "width": width,
                "routing": routing,
                "injection_rate": rate,
                "off_cycles_per_sec": round(off_cps, 1),
                "checked_cycles_per_sec": round(on_cps, 1),
                "checker_cost": round(off_cps / on_cps - 1, 4),
                "checks_run": checks,
                "results_identical": True,
            }
        )
        print(
            f"  {width}x{width} {routing:10s} rate={rate:<7} "
            f"off={off_cps:8.0f} checked={on_cps:8.0f} c/s "
            f"({checks} checks)"
        )

    out = {
        "reps": reps,
        "overhead_budget": VALIDATE_OVERHEAD_BUDGET,
        "matrix": entries,
        "summary": {
            "geomean_checker_cost": round(
                _geomean([1 + e["checker_cost"] for e in entries]) - 1, 4
            ),
        },
    }

    if no_baseline:
        print("  disabled-hook baseline skipped: --no-baseline")
        out["baseline"] = {"skipped": "--no-baseline"}
        return out
    repo = Path(__file__).resolve().parent.parent
    resolved = _resolve_rev(repo, baseline_rev)
    if resolved is None:
        print(
            f"  disabled-hook baseline skipped: "
            f"cannot resolve {baseline_rev!r}"
        )
        out["baseline"] = {"skipped": f"cannot resolve {baseline_rev!r}"}
        return out
    with tempfile.TemporaryDirectory(prefix="bench-validate-") as tmp:
        tree = Path(tmp) / "tree"
        try:
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(tree),
                 resolved],
                capture_output=True,
                text=True,
                cwd=repo,
                check=True,
                timeout=120,
            )
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"  disabled-hook baseline skipped: no worktree ({exc})")
            out["baseline"] = {"skipped": str(exc)}
            return out
        try:
            overheads = []
            for entry in entries:
                config = _bench_config(
                    entry["width"],
                    entry["routing"],
                    entry["injection_rate"],
                    quick,
                )
                try:
                    current = _time_in_tree(repo, config, reps)
                    child = _time_in_tree(tree, config, reps)
                except (
                    subprocess.SubprocessError,
                    OSError,
                    ValueError,
                ) as exc:
                    print(f"  disabled-hook baseline skipped: ({exc})")
                    out["baseline"] = {"skipped": str(exc)}
                    return out
                overhead = child["cps"] / current["cps"] - 1
                entry["off_cycles_per_sec_interleaved"] = round(
                    current["cps"], 1
                )
                entry["baseline_cycles_per_sec"] = round(child["cps"], 1)
                entry["disabled_hook_overhead"] = round(overhead, 4)
                overheads.append(overhead)
                print(
                    f"  {entry['width']}x{entry['width']} "
                    f"{entry['routing']:10s} "
                    f"rate={entry['injection_rate']:<7} "
                    f"baseline={child['cps']:8.0f} c/s  "
                    f"overhead={overhead:+.1%}"
                )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                capture_output=True,
                cwd=repo,
                timeout=120,
            )
    geomean_overhead = _geomean([1 + o for o in overheads]) - 1
    out["baseline"] = {
        "rev": resolved,
        "reference": baseline_rev,
        "geomean_disabled_hook_overhead": round(geomean_overhead, 4),
    }
    print(
        f"  disabled-hook overhead geomean {geomean_overhead:+.1%} "
        f"vs {baseline_rev} (budget {VALIDATE_OVERHEAD_BUDGET:.0%})"
    )
    if geomean_overhead >= VALIDATE_OVERHEAD_BUDGET:
        raise AssertionError(
            f"disabled-hook overhead {geomean_overhead:.1%} exceeds the "
            f"{VALIDATE_OVERHEAD_BUDGET:.0%} per-PR budget vs "
            f"{baseline_rev} ({resolved})"
        )
    return out


def bench_tuner(quick: bool) -> dict:
    """Run a tiny budgeted tune cold, then prove the warm replay is free.

    The warm re-run must make the *same decisions* (identical frontier,
    identical per-round survivors) while simulating nothing — budget
    accounting charges estimated cycle-nodes, never actual simulations,
    so a fully warm cache replays the search byte-identically.
    """
    from repro.harness.cache import ResultCache
    from repro.tuner.objectives import make_scenario
    from repro.tuner.runner import run_tune

    width = 4 if quick else 8
    scenario = make_scenario(
        "uniform",
        width=width,
        warmup=40 if quick else 100,
        measure=80 if quick else 200,
        drain=200 if quick else 450,
        rates=(0.02, 0.08, 0.15),
    )
    kwargs = dict(
        strategy="refine",
        budget_cycles=5_000_000,
        seed=1,
        jobs=1,
        n0=4 if quick else 8,
        eta=2,
        refine_rounds=1,
        beam=2,
    )
    with tempfile.TemporaryDirectory(prefix="bench-tuner-") as tmp:
        t0 = time.perf_counter()
        cold = run_tune(scenario, cache=ResultCache(tmp), **kwargs)
        cold_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_tune(scenario, cache=ResultCache(tmp), **kwargs)
        warm_seconds = time.perf_counter() - t0

    if warm.total_fresh_simulations != 0:
        raise AssertionError(
            f"warm tune replay simulated "
            f"{warm.total_fresh_simulations} tasks (expected 0)"
        )
    cold_frontier = sorted(e.candidate.key() for e in cold.frontier)
    warm_frontier = sorted(e.candidate.key() for e in warm.frontier)
    if cold_frontier != warm_frontier:
        raise AssertionError("warm tune frontier diverges from cold")
    cold_rounds = [(r.label, r.survivors) for r in cold.rounds]
    warm_rounds = [(r.label, r.survivors) for r in warm.rounds]
    if cold_rounds != warm_rounds:
        raise AssertionError("warm tune promotions diverge from cold")

    speedup = cold_seconds / warm_seconds
    print(
        f"  {cold.total_tasks} tasks, {len(cold.evals)} full-fidelity "
        f"configs: cold={cold_seconds:.2f}s warm={warm_seconds:.3f}s "
        f"{speedup:.0f}x  warm_fresh=0  frontier={len(cold.frontier)}  "
        f"dominators={len(cold.dominators)}"
    )
    return {
        "scenario": scenario.name,
        "strategy": cold.strategy,
        "tasks": cold.total_tasks,
        "full_fidelity_configs": len(cold.evals),
        "frontier_size": len(cold.frontier),
        "dominators": len(cold.dominators),
        "spent_cycles": cold.spent_cycles,
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 3),
        "cold_fresh_simulations": cold.total_fresh_simulations,
        "warm_fresh_simulations": warm.total_fresh_simulations,
        "warm_cache_hits": warm.total_cache_hits,
        "warm_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small matrix and short runs (CI smoke; ~10s)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="timing repetitions per config (default: 3, or 1 with --quick)",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        metavar="N|auto",
        help="worker count for the parallel section (default: auto)",
    )
    parser.add_argument(
        "--output-dir",
        default=str(Path(__file__).resolve().parent),
        help="where to write BENCH_<timestamp>.json",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip timing the repo's root commit in a git worktree",
    )
    parser.add_argument(
        "--overhead-baseline-rev",
        default=OVERHEAD_BASELINE_REV,
        metavar="REV",
        help=(
            "git revision the telemetry/validate overhead gates compare "
            "against (default: HEAD, i.e. a per-PR delta gate; aim at a "
            "merge base to measure a whole branch)"
        ),
    )
    parser.add_argument(
        "--stage-times",
        action="store_true",
        help=(
            "record per-stage wall time of one instrumented vector run "
            "per engine-matrix entry (separate diagnostic run; off by "
            "default because the timing wrappers add overhead)"
        ),
    )
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)

    print(f"engine: vector vs skip vs legacy "
          f"({'quick' if args.quick else 'full'} matrix, best of {reps})")
    engine = bench_engine(args.quick, reps, stage_times=args.stage_times)
    print("auto: per-config engine arbitration at the two anchors")
    auto = bench_auto(args.quick, reps)
    print("torus: cross-engine identity + drain on wrap links")
    torus = bench_torus(args.quick, reps)
    if args.no_baseline:
        baseline = {"skipped": "--no-baseline"}
    else:
        print("baseline: skip vs seed tree (root commit, subprocess)")
        baseline = bench_baseline(args.quick, reps, engine)
    print("cache: cold populate vs warm re-run")
    cache = bench_cache(args.quick)
    print("parallel: serial vs process pool")
    parallel = bench_parallel(args.quick, args.jobs)
    print("telemetry: off vs sampling vs tracing, disabled-probe overhead")
    telemetry = bench_telemetry(
        args.quick, reps, args.no_baseline, args.overhead_baseline_rev
    )
    print("validate: off vs all checkers on, disabled-hook overhead")
    validate = bench_validate(
        args.quick, reps, args.no_baseline, args.overhead_baseline_rev
    )
    print("tuner: budgeted tune cold vs warm-cache replay")
    tuner = bench_tuner(args.quick)

    payload = {
        "schema": "footprint-noc-bench/10",
        "timestamp": time.strftime("%Y%m%dT%H%M%S"),
        "quick": args.quick,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "engine": engine,
        "auto": auto,
        "torus": torus,
        "baseline": baseline,
        "cache": cache,
        "parallel": parallel,
        "telemetry": telemetry,
        "validate": validate,
        "tuner": tuner,
    }
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{payload['timestamp']}.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    summary = engine["summary"]
    print(
        f"engine speedup vs legacy loop: geomean "
        f"{summary['geomean_speedup']}x, zero-load geomean "
        f"{summary['zero_load_geomean_speedup']}x, "
        f"max {summary['max_speedup']}x"
    )
    print(
        f"vector speedup vs skip: geomean "
        f"{summary['geomean_vector_speedup']}x, loaded geomean "
        f"{summary['loaded_geomean_vector_speedup']}x, "
        f"max {summary['max_vector_speedup']}x"
    )
    asum = auto["summary"]
    print(
        f"auto vs skip: zero-load "
        f"{asum['zero_load_auto_speedup']}x, saturation "
        f"{asum['saturation_auto_speedup']}x"
    )
    print(
        f"torus skip vs legacy: geomean "
        f"{torus['summary']['geomean_speedup']}x, all drained, "
        f"engines identical"
    )
    if "summary" in baseline:
        bsum = baseline["summary"]
        print(
            f"engine speedup vs seed tree: geomean "
            f"{bsum['geomean_speedup']}x, max {bsum['max_speedup']}x"
        )
    tsum = telemetry["summary"]
    line = (
        f"telemetry cost: sampling {tsum['geomean_sampling_cost']:+.1%}, "
        f"tracing {tsum['geomean_tracing_cost']:+.1%} geomean"
    )
    overhead = telemetry["baseline"].get("geomean_disabled_probe_overhead")
    if overhead is not None:
        line += (
            f"; disabled probes {overhead:+.1%} vs "
            f"{args.overhead_baseline_rev}"
        )
    print(line)
    vsum = validate["summary"]
    line = f"validation cost: {vsum['geomean_checker_cost']:+.1%} geomean"
    overhead = validate["baseline"].get("geomean_disabled_hook_overhead")
    if overhead is not None:
        line += (
            f"; disabled hooks {overhead:+.1%} vs "
            f"{args.overhead_baseline_rev}"
        )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
