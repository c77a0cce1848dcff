"""``TUNE_*.json`` artifacts and the tables ``repro tune`` prints.

An artifact (schema ``footprint-noc-tune/2``) holds what a tune cannot
recompute: the scenario, seed, budget and spend, the rounds, and every
full-fidelity evaluation (the default's too) as ``{candidate, rung,
objectives}``; the frontier and dominator keys are written for readers
of the file and recomputed on load.  Nothing stores a config or a
result: a candidate's config is :func:`repro.tuner.space.apply` over the
scenario's base, and its result-cache keys follow from that.
:func:`load_tune` also reads ``footprint-noc-tune/1`` artifacts, whose
extra keys (per-rate points, configs, rungs, space, totals) it ignores.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.tuner import TunerError, space
from repro.tuner.objectives import OBJECTIVES, CandidateEval, Scenario
from repro.tuner.pareto import rank_evals
from repro.tuner.runner import RoundStats, TuneResult
from repro.tuner.space import Candidate

TUNE_SCHEMA = "footprint-noc-tune/2"
#: Every schema :func:`load_tune` reads.
READABLE_SCHEMAS = ("footprint-noc-tune/1", TUNE_SCHEMA)


def _eval_to_dict(evaluation: CandidateEval) -> dict[str, Any]:
    objectives = {name: getattr(evaluation, name) for name in OBJECTIVES}
    if math.isinf(evaluation.avg_latency):
        objectives["avg_latency"] = None
    return {
        "candidate": [list(item) for item in evaluation.candidate.items],
        "rung": evaluation.rung,
        "objectives": objectives,
    }


def _eval_from_dict(data: dict[str, Any]) -> CandidateEval:
    objectives = {name: data["objectives"][name] for name in OBJECTIVES}
    if objectives["avg_latency"] is None:
        objectives["avg_latency"] = math.inf
    return CandidateEval(
        Candidate(tuple(map(tuple, data["candidate"]))),
        data["rung"],
        **{name: float(value) for name, value in objectives.items()},
    )


def write_tune_artifact(result: TuneResult, out_dir: str | Path) -> Path:
    """Write ``result`` as ``TUNE_<scenario>_<stamp>.json`` under
    ``out_dir``, in schema :data:`TUNE_SCHEMA`.

    The file is created exclusively: a second tune of the scenario in
    the same second gets ``-2`` (then ``-3``, ...) after its stamp
    instead of replacing the first.
    """
    tune = {
        "scenario": result.scenario.to_dict(),
        "seed": result.seed,
        "budget_cycles": result.budget_cycles,
        "spent_cycles": result.spent_cycles,
        "rounds": [asdict(stats) for stats in result.rounds],
        "evals": [_eval_to_dict(e) for e in result.evals],
        "frontier": sorted(e.candidate.key() for e in result.frontier),
        "dominators": sorted(e.candidate.key() for e in result.dominators),
        "default": _eval_to_dict(result.default_eval),
    }
    payload = {
        "schema": TUNE_SCHEMA,
        "generated_unix": int(time.time()),
        "tune": tune,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"TUNE_{result.scenario.name}_{time.strftime('%Y%m%d-%H%M%S')}"
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path, attempt = out / f"{stem}.json", 1
    while True:
        try:
            with path.open("x") as handle:
                handle.write(text)
            return path
        except FileExistsError:
            attempt += 1
            path = out / f"{stem}-{attempt}.json"


def load_tune(path: str | Path) -> TuneResult:
    """Load an artifact of any :data:`READABLE_SCHEMAS` into a
    :class:`TuneResult`.

    Only keys every readable schema has are read; the frontier and
    dominators follow from the evaluations, of which a tune always has
    at least the default's.  Anything that is not a readable, complete
    artifact is one :class:`TunerError` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise TunerError(f"no tune artifact at {path}") from None
    except OSError as exc:
        raise TunerError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise TunerError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise TunerError(f"{path} is not a tune artifact (not a JSON object)")
    schema = payload.get("schema")
    if schema not in READABLE_SCHEMAS:
        raise TunerError(
            f"{path} has schema {schema!r}, expected one of "
            f"{', '.join(map(repr, READABLE_SCHEMAS))}"
        )
    try:
        data = payload["tune"]
        if not data["evals"]:
            raise ValueError("no evaluations")
        return TuneResult(
            scenario=Scenario.from_dict(data["scenario"]),
            seed=data["seed"],
            budget_cycles=data["budget_cycles"],
            spent_cycles=data["spent_cycles"],
            rounds=[
                RoundStats(**{**stats, "survivors": tuple(stats["survivors"])})
                for stats in data["rounds"]
            ],
            evals=[_eval_from_dict(e) for e in data["evals"]],
            default_eval=_eval_from_dict(data["default"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TunerError(
            f"{path} is not a complete {schema} artifact: {exc!r}"
        ) from None


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]

    def line(cells: list[str]) -> str:
        return "  ".join(map(str.ljust, cells, widths)).rstrip()

    dashes = ["-" * width for width in widths]
    return "\n".join(map(line, [headers, dashes, *rows]))


#: Columns of every evaluation row; an infinite latency prints ``inf``.
_EVAL_HEADERS = ["candidate", "avg_latency", "sat_throughput", "cost_bits"]


def _eval_row(evaluation: CandidateEval) -> list[str]:
    return [
        evaluation.candidate.key(),
        f"{evaluation.avg_latency:.2f}",
        f"{evaluation.saturation_throughput:.4f}",
        f"{evaluation.cost_bits:.0f}",
    ]


def _best(frontier: list[CandidateEval], objective: str) -> CandidateEval:
    """The frontier entry best on ``objective``; the other objectives,
    then the candidate key, break ties."""
    i = OBJECTIVES.index(objective)

    def priority(e: CandidateEval) -> tuple[Any, ...]:
        vector = e.vector()
        return (vector[i], *vector[:i], *vector[i + 1 :], e.candidate.key())

    return min(frontier, key=priority)


def render_tune(result: TuneResult) -> str:
    """The human-readable report: frontier, best configs, rounds."""
    frontier, dominators = result.frontier, result.dominators
    budget = (
        "unlimited"
        if result.budget_cycles is None
        else f"{result.budget_cycles:,}"
    )

    def notes(evaluation: CandidateEval) -> str:
        # No eval dominates itself, so at most one tag applies.
        if evaluation.candidate == result.default_eval.candidate:
            return "default"
        return "dominates-default" if evaluation in dominators else ""

    headers = _EVAL_HEADERS + ["notes"]
    return "\n".join([
        f"tune: {result.scenario.describe()}",
        f"seed {result.seed}, space "
        + ", ".join(f"{a.name}[{len(a.values)}]" for a in space.AXES),
        f"budget {budget} cycle-nodes, spent {result.spent_cycles:,}; "
        f"{result.total_tasks} tasks = "
        f"{result.total_fresh_simulations} simulated + "
        f"{result.total_cache_hits} cache hits",
        "",
        f"Pareto frontier ({len(frontier)} of "
        f"{len(result.evals)} full-fidelity configs):",
        _table(
            headers, [_eval_row(e) + [notes(e)] for e in rank_evals(frontier)]
        ),
        "",
        "baseline (paper Table 2 default):",
        _table(headers, [_eval_row(result.default_eval) + [""]]),
        f"-> {len(dominators)} frontier config(s) dominate the default "
        f"(better on >=1 objective, worse on none)."
        if dominators
        else "-> no searched config dominates the default outright.",
        "",
        "best per objective:",
        _table(
            ["objective"] + _EVAL_HEADERS,
            [[name] + _eval_row(_best(frontier, name)) for name in OBJECTIVES],
        ),
        "",
        "rounds:",
        _table(
            ["round", "rung", "cands", "tasks", "fresh", "hits",
             "est_cycles", "wall"],
            [
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
            ],
        ),
    ])
