"""Simulation results.

:class:`SimulationResult` is the immutable record returned by one
:class:`~repro.sim.engine.Simulator` run: latency statistics (overall and
per traffic flow), accepted throughput over the measurement window, drain
status, and the blocking-purity counters used by the Fig. 10 analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.metrics.stats import LatencyStats, pack_samples
from repro.router.blocking import BlockingStats
from repro.sim.config import SimulationConfig


#: The scalar counters of a serialized result.
_COUNTERS = (
    "cycles_run",
    "accepted_flits",
    "offered_flits",
    "measured_created",
    "measured_ejected",
)


def _stats_from(stored: Any) -> LatencyStats:
    """Rebuild one stored sample list: packed, or a plain list."""
    if isinstance(stored, str):
        return LatencyStats.from_packed(stored)
    for value in stored:
        if type(value) is not int:
            raise TypeError(f"latency samples must be integers: {value!r}")
    return LatencyStats.from_samples(stored)


def _telemetry_from(data: Any) -> Any:
    """Rebuild an optional TelemetryResult from serialized form."""
    if data is None:
        return None
    from repro.telemetry.result import TelemetryResult

    if isinstance(data, TelemetryResult):
        return data
    return TelemetryResult.from_dict(data)


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run."""

    config: SimulationConfig
    cycles_run: int
    #: Latency over all measured packets (creation to tail ejection).
    latency: LatencyStats
    #: Latency broken down by traffic-flow label.
    latency_by_flow: dict[str, LatencyStats]
    #: Flits ejected during the measurement window (all packets).
    accepted_flits: int
    #: Flits offered (generated) during the measurement window.
    offered_flits: int
    #: Measured packets created / successfully ejected by run end.
    measured_created: int
    measured_ejected: int
    #: Purity-of-blocking counters aggregated over all routers.
    blocking: BlockingStats
    #: Extra per-run annotations (experiment harness use).
    notes: dict[str, float] = field(default_factory=dict)
    #: Collected telemetry (:class:`~repro.telemetry.result.
    #: TelemetryResult`) when the run's config enabled it; ``None``
    #: otherwise.  Stripped before the result enters the persistent
    #: cache — cached entries are pure functions of the simulated state.
    telemetry: Any = None

    # ------------------------------------------------------------------
    @property
    def accepted_rate(self) -> float:
        """Accepted throughput in flits/node/cycle over the window."""
        window = self.config.measure_cycles
        if window == 0:
            return math.nan
        return self.accepted_flits / (self.config.num_nodes * window)

    @property
    def offered_rate(self) -> float:
        """Offered load in flits/node/cycle over the window."""
        window = self.config.measure_cycles
        if window == 0:
            return math.nan
        return self.offered_flits / (self.config.num_nodes * window)

    @property
    def drained(self) -> bool:
        """Whether every measured packet was delivered before the run ended."""
        return self.measured_ejected == self.measured_created

    @property
    def delivered_fraction(self) -> float:
        """Fraction of measured packets delivered by run end.

        The headline resilience metric for fault-laden runs: packets
        destined to (or created at) dead endpoints, or stranded behind
        dead links, are created but never ejected.  NaN when no packet
        was measured.
        """
        if self.measured_created == 0:
            return math.nan
        return self.measured_ejected / self.measured_created

    @property
    def avg_latency(self) -> float:
        return self.latency.mean

    def flow_latency(self, flow: str) -> float:
        """Mean latency of packets in flow ``flow`` (NaN if none ejected)."""
        stats = self.latency_by_flow.get(flow)
        return stats.mean if stats is not None else math.nan

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        Used by the persistent result cache: the full latency sample
        sets are retained so a cache hit answers every percentile query
        exactly as the original run would.  Each list is stored once, in
        packed form (:func:`~repro.metrics.stats.pack_samples`): a flow
        whose samples equal the overall ones (same values, same order —
        every single-flow run) is written as ``None``.
        """
        latency = self.latency.samples()
        by_flow = {}
        for flow, stats in self.latency_by_flow.items():
            samples = stats.samples()
            by_flow[flow] = (
                None if samples == latency else pack_samples(samples)
            )
        return {
            "config": self.config.to_dict(),
            "cycles_run": self.cycles_run,
            "latency": pack_samples(latency),
            "latency_by_flow": by_flow,
            "accepted_flits": self.accepted_flits,
            "offered_flits": self.offered_flits,
            "measured_created": self.measured_created,
            "measured_ejected": self.measured_ejected,
            "blocking": {
                "blocking_events": self.blocking.blocking_events,
                "busy_vc_samples": self.blocking.busy_vc_samples,
                "footprint_vc_samples": self.blocking.footprint_vc_samples,
            },
            "notes": dict(self.notes),
            "telemetry": (
                self.telemetry.to_dict()
                if self.telemetry is not None
                else None
            ),
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], config: SimulationConfig | None = None
    ) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (or parsed JSON).

        ``config``, when given, is the result's config, and
        ``data["config"]`` is not read: the result cache passes the
        config a hit was checked against instead of building it again.

        The scalar counters must be integers (``TypeError`` otherwise):
        nothing downstream would notice a string until it is printed.  A
        ``None`` flow is a copy of the overall samples.  Sample lists
        load packed (``ValueError`` if malformed) or as the plain integer
        lists every earlier tree wrote (``TypeError`` on anything else).
        """
        for name in _COUNTERS:
            if type(data[name]) is not int:
                raise TypeError(f"{name} must be an integer: {data[name]!r}")
        latency = _stats_from(data["latency"])
        blocking = BlockingStats()
        blocking.blocking_events = data["blocking"]["blocking_events"]
        blocking.busy_vc_samples = data["blocking"]["busy_vc_samples"]
        blocking.footprint_vc_samples = data["blocking"][
            "footprint_vc_samples"
        ]
        return cls(
            config=(
                SimulationConfig.from_dict(data["config"])
                if config is None
                else config
            ),
            cycles_run=data["cycles_run"],
            latency=latency,
            latency_by_flow={
                flow: latency.copy() if stored is None else _stats_from(stored)
                for flow, stored in data["latency_by_flow"].items()
            },
            accepted_flits=data["accepted_flits"],
            offered_flits=data["offered_flits"],
            measured_created=data["measured_created"],
            measured_ejected=data["measured_ejected"],
            blocking=blocking,
            notes=dict(data["notes"]),
            telemetry=_telemetry_from(data.get("telemetry")),
        )

    def summary(self) -> str:
        """One-line report used by the CLI and the experiment harness."""
        lat = (
            f"{self.avg_latency:8.2f}" if self.latency.count else "     n/a"
        )
        return (
            f"{self.config.routing:>16s} {self.config.traffic:>10s} "
            f"inj={self.config.injection_rate:.3f} -> "
            f"lat={lat} acc={self.accepted_rate:.4f} "
            f"drained={'yes' if self.drained else 'NO'}"
        )
