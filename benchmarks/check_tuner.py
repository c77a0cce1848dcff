#!/usr/bin/env python
"""CI guard: the config auto-tuner beats the paper default and replays free.

Runs a small budgeted successive-halving + refinement tune on the 8x8
hotspot scenario (short smoke-scale cycle counts) against a fresh
cache, then re-runs it warm, and asserts the tuner's core contract:

1. the Pareto frontier over (avg latency, saturation throughput, cost
   bits) is non-empty and every entry is full-fidelity;
2. at least one frontier config **dominates** the paper's Table 2
   default — better on >= 1 objective, worse on none;
3. the warm re-run reports **zero fresh simulations in every round**
   while reproducing the identical frontier and identical per-round
   survivors (budgets are charged in estimated cycle-nodes, so cache
   temperature cannot steer the search);
4. the ``TUNE_*.json`` artifact (schema ``footprint-noc-tune/2``:
   candidates and objectives, no result copies) round-trips through the
   report loader with the same frontier, survivors and default
   objectives.

The artifact is written to ``--output-dir`` so CI can upload it.

Exit 0 on pass, 1 on a semantic failure, 2 on setup problems.

Usage::

    PYTHONPATH=src python benchmarks/check_tuner.py [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.cache import ResultCache  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.tuner.objectives import Scenario  # noqa: E402
from repro.tuner.report import (  # noqa: E402
    load_tune,
    render_tune,
    write_tune_artifact,
)
from repro.tuner.runner import run_tune  # noqa: E402

#: Search shape: small enough for CI, big enough to reach the default's
#: neighborhood (the refinement stage always explores it).
TUNE_KWARGS = dict(
    budget_cycles=2_500_000,
    seed=1,
    n0=6,
    refine_rounds=1,
)


def _fail(message: str, code: int = 1) -> int:
    print(f"check_tuner: FAIL - {message}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        default=str(Path(__file__).resolve().parent),
        help="where the TUNE_*.json artifact lands",
    )
    parser.add_argument(
        "--jobs",
        default="auto",
        metavar="N|auto",
        help="worker processes (default: auto)",
    )
    args = parser.parse_args(argv)

    base = SimulationConfig(
        width=8,
        traffic="hotspot",
        warmup_cycles=60,
        measure_cycles=120,
        drain_cycles=350,
    )
    scenario = Scenario(base, rates=(0.05, 0.15, 0.3, 0.45))
    print(f"  scenario: {scenario.describe()}")

    with tempfile.TemporaryDirectory(prefix="check-tuner-") as tmp:
        t0 = time.perf_counter()
        cold = run_tune(
            scenario, jobs=args.jobs, cache=ResultCache(tmp), **TUNE_KWARGS
        )
        cold_seconds = time.perf_counter() - t0
        print(
            f"  cold: {cold_seconds:.1f}s, {cold.total_tasks} tasks "
            f"({cold.total_fresh_simulations} simulated), "
            f"{len(cold.evals)} full-fidelity configs, frontier "
            f"{len(cold.frontier)}, dominators {len(cold.dominators)}"
        )

        t0 = time.perf_counter()
        warm = run_tune(
            scenario, jobs=args.jobs, cache=ResultCache(tmp), **TUNE_KWARGS
        )
        warm_seconds = time.perf_counter() - t0
        print(
            f"  warm: {warm_seconds:.2f}s, "
            f"{warm.total_fresh_simulations} fresh simulations, "
            f"{warm.total_cache_hits} cache hits"
        )

    # 1. Non-empty, full-fidelity frontier.
    if not cold.frontier:
        return _fail("Pareto frontier is empty")
    off_rung = [e for e in cold.frontier if e.rung != "full"]
    if off_rung:
        return _fail(
            f"frontier contains non-full-fidelity evals: "
            f"{[e.rung for e in off_rung]}"
        )

    # 2. Some frontier config dominates the paper default.
    if not cold.dominators:
        default = cold.default_eval
        return _fail(
            f"no frontier config dominates the Table 2 default "
            f"(lat={default.avg_latency:.2f} "
            f"thr={default.saturation_throughput:.4f} "
            f"cost={default.cost_bits:.0f})"
        )
    best = cold.dominators[0]
    print(
        f"  dominator: {best.candidate.key()} "
        f"(lat {best.avg_latency:.2f} vs "
        f"{cold.default_eval.avg_latency:.2f}, thr "
        f"{best.saturation_throughput:.4f} vs "
        f"{cold.default_eval.saturation_throughput:.4f}, cost "
        f"{best.cost_bits:.0f} vs {cold.default_eval.cost_bits:.0f})"
    )

    # 3. Warm replay: zero fresh simulations in *every* round, and the
    #    same search trajectory.
    hot_rounds = [
        (r.label, r.fresh_simulations)
        for r in warm.rounds
        if r.fresh_simulations != 0
    ]
    if hot_rounds:
        return _fail(f"warm rounds simulated fresh work: {hot_rounds}")
    cold_frontier = sorted(e.candidate.key() for e in cold.frontier)
    warm_frontier = sorted(e.candidate.key() for e in warm.frontier)
    if cold_frontier != warm_frontier:
        return _fail(
            f"warm frontier diverges: {warm_frontier} != {cold_frontier}"
        )
    if [(r.label, r.survivors) for r in cold.rounds] != [
        (r.label, r.survivors) for r in warm.rounds
    ]:
        return _fail("warm per-round survivors diverge from cold")
    if cold.spent_cycles != warm.spent_cycles:
        return _fail(
            f"budget accounting diverges: cold spent "
            f"{cold.spent_cycles}, warm spent {warm.spent_cycles}"
        )

    # 4. Artifact round-trip.
    path = write_tune_artifact(cold, args.output_dir)
    loaded = load_tune(path)
    if sorted(e.candidate.key() for e in loaded.frontier) != cold_frontier:
        return _fail(f"artifact round-trip lost the frontier ({path})")
    if [(r.label, r.survivors) for r in loaded.rounds] != [
        (r.label, r.survivors) for r in cold.rounds
    ]:
        return _fail(f"artifact round-trip lost the survivors ({path})")
    if loaded.default_eval != cold.default_eval:
        return _fail(f"artifact round-trip changed the default ({path})")
    render_tune(loaded)  # must not raise
    print(f"  artifact: {path}")

    print(
        "check_tuner: PASS - frontier dominates the default and the "
        "warm replay ran 0 fresh simulations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
