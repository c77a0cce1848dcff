#!/usr/bin/env python3
"""Compare two result files of ``run.py`` under the BENCHMARK.json bounds.

    python3 benchmarks/perf/compare.py PARENT.json CHANGE.json \\
        [--claim WORKLOAD:METRIC]

Both files come from ``run.py --sets N --output-dir DIR`` at the same
``--seconds``, the runs of the two commits alternated by whoever made
them (set *i* of one file is paired with set *i* of the other).  For
every end-to-end metric on every workload — one row per workload — the
verdict is

* ``regression``  the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``  either side's spread ((q3 - q1) / median over its
  sets) is wider than the bound, so the medians cannot be told apart —
  *not* "unchanged" — unless every run of the change reads better than
  every run of the parent;
* ``ok``          otherwise.

``--claim`` applies the rule for a claimed gain: at least ten pairs, the
change wins at least nine tenths of them (ties count for neither side),
and the medians differ by more than the parent's own spread.  Every
ratio is printed with its base (change / parent).  Exit status: 1 on any
regression or unmet claim, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

MIN_PAIRS = 10
WIN_SHARE = 0.9


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``; one value has no spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values in set order`` of the untraced runs."""
    document = json.loads(Path(path).read_text())
    out: dict[tuple[str, str], list[float]] = {}
    for run in sorted(document["runs"], key=lambda r: r.get("set", 0)):
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(
                metric["value"])
    return out


def worse_by(parent: float, change: float, better: str) -> float:
    """Share of the parent's value by which the change is worse (< 0:
    better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    p_median, _, _, p_spread = spread(parent)
    c_median, _, _, c_spread = spread(change)
    worse = worse_by(p_median, c_median, better)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if max(p_spread, c_spread) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    return "ok", worse


def claim_holds(parent: list[float], change: list[float],
                better: str) -> tuple[bool, str]:
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return False, f"only {len(pairs)} pairs, need {MIN_PAIRS}"
    if better == "lower":
        wins = sum(1 for p, c in pairs if c < p)
    else:
        wins = sum(1 for p, c in pairs if c > p)
    p_median, q1, q3, _ = spread(parent)
    c_median = statistics.median(change)
    enough_wins = wins >= WIN_SHARE * len(pairs)
    clear = abs(c_median - p_median) > (q3 - q1)
    gained = worse_by(p_median, c_median, better) < 0
    text = (f"wins {wins}/{len(pairs)}, medians {p_median:.6g} -> "
            f"{c_median:.6g}, parent IQR {q3 - q1:.6g}")
    return enough_wins and clear and gained, text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark-json",
                        default=str(HERE.parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.benchmark_json).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        cells = []
        for name, metric in metrics.items():
            key = (workload, name)
            if key not in parent or key not in change:
                cells.append(f"{name}: missing")
                continue
            state, worse = verdict(parent[key], change[key],
                                   metric["better"], metric["bound"])
            ratio = (statistics.median(change[key])
                     / statistics.median(parent[key]))
            cells.append(
                f"{name}: {ratio:.3f}x of parent ({worse:+.1%} worse, "
                f"bound {metric['bound']:.0%}) {state}")
            failed |= state == "regression"
        print(f"{workload}\n    " + "\n    ".join(cells))
    for claim in args.claim:
        workload, _, name = claim.partition(":")
        key = (workload, name)
        if key not in parent or key not in change or name not in metrics:
            print(f"claim {claim}: no such workload/metric")
            failed = True
            continue
        held, text = claim_holds(parent[key], change[key],
                                 metrics[name]["better"])
        print(f"claim {claim}: {'met' if held else 'NOT met'} ({text})")
        failed |= not held
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
