"""``TUNE_*.json`` artifacts and the tables ``repro tune`` prints.

An artifact is one self-describing JSON document (schema
``footprint-noc-tune/1``) wrapping :meth:`TuneResult.to_dict` — enough
to re-render the report or rebuild every frontier config via
``SimulationConfig.from_dict`` without re-running anything.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any

from repro.tuner import TunerError
from repro.tuner.objectives import OBJECTIVES, CandidateEval
from repro.tuner.pareto import rank_evals
from repro.tuner.runner import TuneResult

TUNE_SCHEMA = "footprint-noc-tune/1"


def tune_payload(result: TuneResult) -> dict[str, Any]:
    """The artifact document for one tune."""
    return {
        "schema": TUNE_SCHEMA,
        "generated_unix": int(time.time()),
        "tune": result.to_dict(),
    }


def write_tune_artifact(
    result: TuneResult,
    out_dir: str | Path,
    filename: str | None = None,
) -> Path:
    """Write ``TUNE_<scenario>_<stamp>.json`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if filename is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        filename = f"TUNE_{result.scenario.name}_{stamp}.json"
    path = out / filename
    path.write_text(
        json.dumps(tune_payload(result), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_tune(path: str | Path) -> TuneResult:
    """Load an artifact back into a :class:`TuneResult`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise TunerError(f"no tune artifact at {path}") from None
    except json.JSONDecodeError as exc:
        raise TunerError(f"{path} is not valid JSON: {exc}") from None
    schema = payload.get("schema")
    if schema != TUNE_SCHEMA:
        raise TunerError(
            f"{path} has schema {schema!r}, expected {TUNE_SCHEMA!r}"
        )
    return TuneResult.from_dict(payload["tune"])


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: float, digits: int = 2) -> str:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return "inf"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.{digits}f}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells: list[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _eval_row(evaluation: CandidateEval, tag: str = "") -> list[str]:
    return [
        evaluation.candidate.key(),
        _fmt(evaluation.avg_latency),
        _fmt(evaluation.saturation_throughput, 4),
        _fmt(evaluation.cost_bits, 0),
        tag,
    ]


def render_tune(result: TuneResult) -> str:
    """The human-readable report: frontier, best configs, rounds."""
    lines: list[str] = []
    lines.append(f"tune: {result.scenario.describe()}")
    lines.append(
        f"strategy {result.strategy}, seed {result.seed}, "
        f"space {result.space.describe()}"
    )
    budget = (
        "unlimited"
        if result.budget_cycles is None
        else f"{result.budget_cycles:,}"
    )
    lines.append(
        f"budget {budget} cycle-nodes, spent {result.spent_cycles:,}; "
        f"{result.total_tasks} tasks = "
        f"{result.total_fresh_simulations} simulated + "
        f"{result.total_cache_hits} cache hits"
    )
    lines.append("")

    default_key = result.default_eval.candidate.key()
    dominator_keys = {e.candidate.key() for e in result.dominators}
    lines.append(
        f"Pareto frontier ({len(result.frontier)} of "
        f"{len(result.evals)} full-fidelity configs):"
    )
    rows = []
    for evaluation in rank_evals(result.frontier):
        key = evaluation.candidate.key()
        tags = []
        if key == default_key:
            tags.append("default")
        if key in dominator_keys:
            tags.append("dominates-default")
        rows.append(_eval_row(evaluation, ",".join(tags)))
    headers = [
        "candidate",
        "avg_latency",
        "sat_throughput",
        "cost_bits",
        "notes",
    ]
    lines.append(_table(headers, rows))
    lines.append("")

    lines.append("baseline (paper Table 2 default):")
    lines.append(_table(headers, [_eval_row(result.default_eval)]))
    if result.dominators:
        lines.append(
            f"-> {len(result.dominators)} frontier config(s) dominate "
            f"the default (better on >=1 objective, worse on none)."
        )
    else:
        lines.append(
            "-> no searched config dominates the default outright."
        )
    lines.append("")

    lines.append("best per objective:")
    best_rows = []
    for objective in OBJECTIVES:
        evaluation = result.best(objective.name)
        best_rows.append(
            [objective.name] + _eval_row(evaluation)[:-1]
        )
    lines.append(
        _table(
            ["objective", "candidate", "avg_latency", "sat_throughput",
             "cost_bits"],
            best_rows,
        )
    )
    lines.append("")

    lines.append("rounds:")
    round_rows = [
        [
            stats.label,
            stats.rung,
            str(stats.candidates),
            str(stats.tasks),
            str(stats.fresh_simulations),
            str(stats.cache_hits),
            f"{stats.estimated_cycles:,}",
            f"{stats.seconds:.2f}s",
        ]
        for stats in result.rounds
    ]
    lines.append(
        _table(
            ["round", "rung", "cands", "tasks", "fresh", "hits",
             "est_cycles", "wall"],
            round_rows,
        )
    )
    return "\n".join(lines)
