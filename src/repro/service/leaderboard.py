"""Persistent leaderboards and regression tracking.

The store is one append-only JSONL file, ``leaderboard.jsonl``, under
the service state directory (``$REPRO_SERVICE_DIR``, default
``.repro-service/``).  Every record is one simulated outcome (``kind``
``result``): a *scenario* key (everything about the run except the
routing algorithm), the routing algorithm as the contender, and its
latency/throughput metrics.  Completed service jobs are ingested
automatically and ``repro leaderboard --ingest-tune`` folds a tuner
artifact's Pareto frontier in; each record's ``source`` names the job
and grid hash (or the artifact), and sources are ingested at most once,
so resubmitted (deduped) jobs do not double-count.

Rendering ranks routing algorithms per scenario by best average latency
(ties broken by accepted throughput) and annotates each contender with
the delta of its *latest* record against its *previous* one — the
regression-tracking view: a positive latency delta on an unchanged
scenario is a regression in whatever produced the newer record.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Iterable

from repro.service import default_state_dir
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

#: File name of the store inside the state directory.
LEADERBOARD_FILE = "leaderboard.jsonl"


def scenario_key(config: SimulationConfig) -> str:
    """Everything that defines a scenario except the routing algorithm.

    Two runs with the same scenario key compete on the same leaderboard;
    the routing algorithm is the contender.
    """
    size = (
        f"{config.packet_size}f"
        if config.packet_size_range is None
        else f"{config.packet_size_range[0]}-{config.packet_size_range[1]}f"
    )
    traffic = config.traffic
    if traffic == "hotspot":
        traffic += (
            f"(hs={config.hotspot_rate:g},bg={config.background_rate:g})"
        )
    fault_note = f" faults={len(config.faults)}" if config.faults else ""
    return (
        f"{config.width}x{config.height} {config.topology} {traffic} "
        f"@ {config.injection_rate:.4f} {size} vcs={config.num_vcs} "
        f"seed={config.seed}{fault_note}"
    )


def result_record(result: SimulationResult, source: str) -> dict[str, Any]:
    """One leaderboard record for a finished simulation."""
    avg = result.avg_latency
    p99 = (
        result.latency.percentile(99) if result.latency.count else math.nan
    )
    return {
        "kind": "result",
        "scenario": scenario_key(result.config),
        "routing": result.config.routing,
        "avg_latency": None if math.isnan(avg) else round(avg, 4),
        "p99_latency": None if math.isnan(p99) else round(p99, 2),
        "accepted_rate": round(result.accepted_rate, 6),
        "offered_rate": round(result.offered_rate, 6),
        "drained": result.drained,
        "source": source,
        "recorded": round(time.time(), 3),
    }


class LeaderboardStore:
    """Append-only JSONL store with idempotent ingest."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_state_dir()
        )
        self.path = self.directory / LEADERBOARD_FILE

    # ------------------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        """All records, oldest first; corrupt lines are skipped."""
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return []
        out = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "kind" in record:
                out.append(record)
        return out

    def sources(self) -> set[str]:
        """Every ``source`` already ingested (the idempotency set)."""
        return {
            record["source"]
            for record in self.records()
            if "source" in record
        }

    def append(self, records: Iterable[dict[str, Any]]) -> int:
        """Append ``records``; returns how many were written.

        One ``write`` call per batch: on POSIX, O_APPEND writes from
        concurrent processes land whole, so parallel ingests interleave
        by record, never mid-line.
        """
        blob = "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        )
        if not blob:
            return 0
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(blob)
        return blob.count("\n")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest_job(self, job) -> int:
        """Ingest a finished job's results; idempotent per grid hash."""
        source = f"job:{job.spec.name}#{job.spec.spec_hash()[:12]}"
        if source in self.sources():
            return 0
        records = [
            result_record(result, source)
            for result in job.results
            if result is not None
        ]
        return self.append(records)

    def ingest_results(
        self, results: Iterable[SimulationResult], source: str
    ) -> int:
        """Ingest loose results under an explicit ``source`` label."""
        if source in self.sources():
            return 0
        return self.append(
            result_record(result, source) for result in results
        )

    def ingest_tune_file(self, path: str | Path) -> int:
        """Fold one ``TUNE_*.json`` artifact's frontier into the store.

        Every Pareto-frontier config becomes one ``result`` record at
        the tune scenario's latency rate, so tuned configs compete on
        the same per-scenario standings as service jobs.  The source
        label is ``tune:<filename>`` — re-ingesting the same file is a
        no-op.
        """
        path = Path(path)
        source = f"tune:{path.name}"
        if source in self.sources():
            return 0
        try:
            payload = json.loads(path.read_text())
            tune = payload["tune"]
            latency_rate = tune["scenario"]["latency_rate"]
            frontier_keys = set(tune["frontier"])
            evals = tune["evals"]
        except (OSError, ValueError, KeyError, TypeError):
            return 0
        records = []
        for entry in evals:
            try:
                key = "/".join(
                    f"{name}={value}"
                    for name, value in entry["candidate"]
                )
                if key not in frontier_keys:
                    continue
                config = SimulationConfig.from_dict(entry["config"])
                point = next(
                    p
                    for p in entry["points"]
                    if p["rate"] == latency_rate
                )
            except (KeyError, TypeError, StopIteration):
                continue
            records.append(
                {
                    "kind": "result",
                    "scenario": scenario_key(config),
                    "routing": config.routing,
                    "avg_latency": point["avg_latency"],
                    "p99_latency": None,
                    "accepted_rate": point["accepted_rate"],
                    "offered_rate": point["offered_rate"],
                    "drained": point["drained"],
                    "source": source,
                    "recorded": round(time.time(), 3),
                }
            )
        return self.append(records)

    def ingest_tune(self, path: str | Path) -> int:
        """Ingest one artifact, or every ``TUNE_*.json`` under a dir."""
        path = Path(path)
        if path.is_dir():
            return sum(
                self.ingest_tune_file(p)
                for p in sorted(path.glob("TUNE_*.json"))
            )
        return self.ingest_tune_file(path)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def standings(self) -> dict[str, list[dict[str, Any]]]:
        """Per-scenario contender rows, ranked best-latency first.

        Each row aggregates every record of one (scenario, routing)
        pair: the best (lowest) average latency, the best accepted
        rate, the record count, and the latest-vs-previous latency
        delta for regression tracking (None with fewer than two
        records).  Contenders that never delivered a measured packet
        sort last.
        """
        by_pair: dict[tuple[str, str], list[dict[str, Any]]] = {}
        for record in self.records():
            if record.get("kind") != "result":
                continue
            key = (record["scenario"], record["routing"])
            by_pair.setdefault(key, []).append(record)

        tables: dict[str, list[dict[str, Any]]] = {}
        for (scenario, routing), history in by_pair.items():
            latencies = [
                r["avg_latency"]
                for r in history
                if r.get("avg_latency") is not None
            ]
            rates = [
                r["accepted_rate"]
                for r in history
                if r.get("accepted_rate") is not None
            ]
            delta = None
            if len(history) >= 2:
                latest = history[-1].get("avg_latency")
                previous = history[-2].get("avg_latency")
                if latest is not None and previous is not None:
                    delta = round(latest - previous, 4)
            tables.setdefault(scenario, []).append(
                {
                    "routing": routing,
                    "best_avg_latency": (
                        min(latencies) if latencies else None
                    ),
                    "best_accepted_rate": max(rates) if rates else None,
                    "runs": len(history),
                    "latest_delta": delta,
                    "drained": history[-1].get("drained"),
                }
            )
        for rows in tables.values():
            rows.sort(
                key=lambda row: (
                    row["best_avg_latency"] is None,
                    row["best_avg_latency"]
                    if row["best_avg_latency"] is not None
                    else 0.0,
                    -(row["best_accepted_rate"] or 0.0),
                    row["routing"],
                )
            )
        return tables

    def render(self) -> str:
        """Human-readable per-scenario standings."""
        lines: list[str] = []
        tables = self.standings()
        if not tables:
            return (
                f"leaderboard {self.path}: empty "
                f"(submit jobs or --ingest-tune to populate)"
            )
        for scenario in sorted(tables):
            lines.append(f"scenario: {scenario}")
            lines.append(
                f"  {'#':>2s} {'routing':<16s} {'avg_lat':>9s} "
                f"{'accepted':>9s} {'runs':>4s} {'Δlatest':>8s}"
            )
            for rank, row in enumerate(tables[scenario], start=1):
                latency = (
                    f"{row['best_avg_latency']:9.2f}"
                    if row["best_avg_latency"] is not None
                    else "      n/a"
                )
                rate = (
                    f"{row['best_accepted_rate']:9.4f}"
                    if row["best_accepted_rate"] is not None
                    else "      n/a"
                )
                delta = (
                    f"{row['latest_delta']:+8.2f}"
                    if row["latest_delta"] is not None
                    else "       -"
                )
                lines.append(
                    f"  {rank:>2d} {row['routing']:<16s} {latency} "
                    f"{rate} {row['runs']:>4d} {delta}"
                )
            lines.append("")
        return "\n".join(lines).rstrip()
