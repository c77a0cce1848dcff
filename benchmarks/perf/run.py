#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the simulator, harness, CLI and service.

One command runs a workload (or all of them) in fresh child interpreters,
prints every metric by name with its unit, checks the outputs, and ends
with one JSON line::

    python3 benchmarks/perf/run.py --workload mesh_saturated --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (a separate pass with spans and
hot-call wrappers on; ``both`` runs one after the other).  Without
``--workload`` every workload runs; ``--sets N`` repeats the list and
prints per-metric median, quartiles and spread; ``--output-dir`` saves
the runs (``PERF_<stamp>.json``, what ``compare.py`` reads) and the
traces (``TRACE_<workload>.json``).  Nothing is written outside
``.bench_tmp/`` under the checkout otherwise, and that is removed again.

The benchmark claims no gain and validates no model: the repository
holds no machine-readable BookSim reference, so the simulated numbers
are **unvalidated** and no error figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from compare import spread  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS, worker_cap  # noqa: E402

#: Children per run that set up; ``setup_s`` is the median over them.
SETUP_REPEATS = 5

#: Wall-clock ceiling per child (the driver allows 180 s per run).
CHILD_TIMEOUT = 170.0

#: Ambient settings that would change what the defaults mean, or where
#: the interpreter keeps its bytecode: a user's second start finds the
#: ``.pyc`` files of the first, inside the checkout, so must a child's.
_SCRUBBED_ENV = (
    "REPRO_ENGINE_MODE", "REPRO_ENGINE_AUTO_THRESHOLD", "REPRO_VALIDATE",
    "REPRO_SERVICE", "REPRO_SERVICE_DIR", "REPRO_JOBS", "REPRO_CACHE_DIR",
    "REPRO_SCALE", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                *extra: str) -> dict:
    """One child interpreter, waited for; returns its JSON document."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--spawned-at", repr(time.time()), *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            # Interrupt, not kill: the child's ``finally`` blocks stop
            # the server and the pool it started.
            proc.send_signal(signal.SIGINT)
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"child for {workload} exited {proc.returncode}")
    return json.loads(stdout.rstrip("\n").rpartition("\n")[2])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            setup_repeats: int, output_dir: str | None) -> dict:
    """Set-up samples plus one measuring child, merged into one run."""
    setups = [
        spawn_child(workload, seed, seconds, trace,
                    "--setup-only")["setup_raw_s"]
        for _ in range(setup_repeats - 1)
    ]
    extra = ("--output-dir", output_dir) if output_dir else ()
    run = spawn_child(workload, seed, seconds, trace, *extra)
    if "setup_s" in run["metrics"]:
        # At the speed the host ran at while the last child measured.
        setups.append(run["setup_raw_s"])
        run["metrics"]["setup_s"]["value"] = (
            statistics.median(setups) * run["extras"]["host.speed"])
    return run


def print_run(run: dict) -> None:
    print(f"== {run['workload']}  seed={run['seed']} trace={run['trace']}  "
          f"attempted={run['attempted']} failed={run['failed']} "
          f"correct={run['correct']}")
    for name, metric in run["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in sorted(run["extras"].items()):
        print(f"  ({name:38s} {value:>16.6g})")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")


def print_sets(runs: list[dict]) -> None:
    """Per workload and metric: median, quartiles, spread over the sets."""
    print("== sets: median  [q1 .. q3]  spread=(q3-q1)/median")
    groups: dict[tuple, list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            key = (run["workload"], run["trace"], name, metric["unit"])
            groups.setdefault(key, []).append(metric["value"])
    for (workload, trace, name, unit), values in groups.items():
        median, q1, q3, rel = spread(values)
        print(f"  {workload:18s} t{trace} {name:36s} {median:>14.6g} {unit:8s}"
              f" [{q1:.6g} .. {q3:.6g}] {rel:7.2%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    names = [w.name for w in WORKLOADS]
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long each run measures")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole list this many times")
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload, one set-up sample")
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    seconds = 0.0 if args.smoke else args.seconds
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    selected = [args.workload] if args.workload else names
    runs = []
    for set_index in range(args.sets):
        for workload in selected:
            for trace in traces:
                run = run_one(workload, args.seed, seconds, trace,
                              setup_repeats, args.output_dir)
                run["set"] = set_index
                runs.append(run)
                print_run(run)
    if args.sets > 1:
        print_sets(runs)
    if args.output_dir:
        document = {
            "schema": "footprint-noc-perf/1",
            "host": {
                "nproc": os.cpu_count(),
                "workers": worker_cap(),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "seed": args.seed,
            "seconds": seconds,
            "model": "unvalidated: no BookSim reference in the repository",
            "runs": runs,
        }
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = Path(args.output_dir) / f"PERF_{stamp}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1))
        print(f"wrote {path}")

    # The contract's last line: exact for a single run; over several
    # runs the counts add up and the metrics are keyed by workload.
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            f"{run['workload']}.t{run['trace']}.s{run['set']}.{name}": metric
            for run in runs for name, metric in run["metrics"].items()
        }
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
