"""Simulation configuration.

:class:`SimulationConfig` mirrors Table 2 of the paper: topology size, VC
count, buffer depth, routing algorithm, traffic, packet-size distribution,
flow control, allocator and speedup parameters.  Defaults are the paper's
bold defaults (8x8 mesh, 10 VCs, buffer depth 4, single-flit packets,
internal speedup 2, credit-based wormhole flow control).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any

from repro.exceptions import ConfigurationError, RoutingError
from repro.topology.base import TOPOLOGIES


@dataclass(frozen=True)
class SimulationConfig:
    """Full configuration of one simulation run.

    Parameters map one-to-one onto Table 2 of the paper unless noted.

    Attributes
    ----------
    width, height:
        Network dimensions; ``height`` defaults to ``width``.
    topology:
        Network topology name (``"mesh"`` or ``"torus"``, see
        :data:`repro.topology.base.TOPOLOGIES`).  The default mesh is
        what the paper evaluates.
    num_vcs:
        Virtual channels per physical channel (paper default 10).
    vc_buffer_depth:
        Flit slots per VC (paper: 4).
    routing:
        Routing algorithm name, resolved through
        :func:`repro.routing.registry.create_routing`.  One of ``"dor"``,
        ``"oddeven"``, ``"dbar"``, ``"footprint"``, optionally with an
        ``"+xordet"`` suffix.
    traffic:
        Traffic pattern name (``"uniform"``, ``"transpose"``, ``"shuffle"``,
        ``"hotspot"``, ``"trace"``, and extras).
    injection_rate:
        Offered load in flits/node/cycle for synthetic patterns (the
        :attr:`load_field` of every traffic kind but hotspot).
    packet_size:
        Fixed packet size in flits; ignored when ``packet_size_range`` set.
    packet_size_range:
        Optional ``(lo, hi)``; packet sizes drawn uniformly from
        ``[lo, hi]`` (paper's {1..6}-flit experiment).
    internal_speedup:
        Switch speedup: flits per output per cycle the crossbar can deliver
        into the output staging buffer (paper: 2.0).
    output_buffer_depth:
        Depth of the output staging FIFO that absorbs the speedup.
    ejection_rate:
        Endpoint consumption bandwidth in flits/cycle (1.0 = link rate).
    congestion_threshold:
        Footprint/DBAR congestion threshold as a fraction of ``num_vcs``;
        the paper uses half the VCs (0.5).
    footprint_vc_limit:
        Optional cap on the number of footprint VCs a flow may occupy per
        output port (the paper's §4.2.5 future-work knob); ``None`` means
        unlimited as in the paper.
    warmup_cycles, measure_cycles, drain_cycles:
        Phases of the run.  Statistics cover packets created during the
        measurement window.
    sim_cycles:
        Hard upper bound on total simulated cycles (warmup + measure +
        drain allowance).
    seed:
        Master seed for all RNG streams.
    track_utilization:
        When true, the engine counts every flit per output channel so
        per-link utilization and heatmaps can be reported
        (:mod:`repro.metrics.utilization`).  Off by default — it adds a
        counter update per flit-hop.
    hotspot_rate:
        Injection rate of hotspot flows when ``traffic == "hotspot"``
        (that traffic's :attr:`load_field`).
    background_rate:
        Injection rate of the uniform-random background traffic for the
        hotspot experiment (paper: 0.3).
    trace:
        Pre-generated trace (list of events) for ``traffic == "trace"``;
        see :mod:`repro.traffic.trace`.
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` of
        deterministic link/router faults.  Part of the serialized config,
        so fault-laden runs hash to distinct result-cache keys.
    telemetry:
        Optional :class:`~repro.telemetry.config.TelemetryConfig`
        selecting what the observability layer records (time-series
        sampling, congestion-tree tracking, flit tracing, progress).
        Serialized with the config so it reaches parallel workers, but
        **excluded from result-cache keys**: telemetry observes the run
        without changing it.
    """

    width: int = 8
    height: int | None = None
    num_vcs: int = 10
    vc_buffer_depth: int = 4
    routing: str = "footprint"
    traffic: str = "uniform"
    injection_rate: float = 0.1
    packet_size: int = 1
    packet_size_range: tuple[int, int] | None = None
    internal_speedup: int = 2
    output_buffer_depth: int = 8
    ejection_rate: float = 1.0
    congestion_threshold: float = 0.5
    footprint_vc_limit: int | None = None
    warmup_cycles: int = 1000
    measure_cycles: int = 2000
    drain_cycles: int = 10000
    seed: int = 1
    hotspot_rate: float = 0.1
    background_rate: float = 0.3
    trace: Any = None
    track_utilization: bool = False
    faults: Any = None
    telemetry: Any = None
    topology: str = "mesh"

    def __post_init__(self) -> None:
        if self.height is None:
            object.__setattr__(self, "height", self.width)
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent setting."""
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology '{self.topology}'; "
                f"available: {', '.join(TOPOLOGIES)}"
            )
        if self.width < 2 or (self.height or 0) < 2:
            raise ConfigurationError(f"{self.topology} must be at least 2x2")
        if self.num_vcs < 1:
            raise ConfigurationError("need at least one VC")
        # VC counts first: a config with enough VCs never loads the
        # routing registry to ask.
        if self.num_vcs < 2 and self.routing_needs_escape:
            raise ConfigurationError(
                f"routing '{self.routing}' uses Duato escape channels and "
                f"needs >= 2 VCs, got {self.num_vcs}"
            )
        if self.topology != "mesh":
            # Imported lazily: the registry imports the routing modules,
            # which must stay importable without config.
            from repro.routing.registry import check_topology_support

            check_topology_support(self.routing, self.topology)
        if self.topology == "torus":
            # The dateline scheme needs one VC (escape VC, for Duato
            # algorithms) per wrap class — see Torus2D.wrap_vc_class.
            if self.num_vcs < 3 and self.routing_needs_escape:
                raise ConfigurationError(
                    f"routing '{self.routing}' on a torus needs two "
                    f"dateline escape VCs plus at least one adaptive VC "
                    f"(>= 3 VCs), got {self.num_vcs}"
                )
            if self.num_vcs < 2:
                raise ConfigurationError(
                    f"routing '{self.routing}' on a torus needs one VC "
                    f"per dateline class (>= 2 VCs), got {self.num_vcs}"
                )
        if self.vc_buffer_depth < 1:
            raise ConfigurationError("VC buffer depth must be >= 1")
        for name in ("injection_rate", "hotspot_rate", "background_rate"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigurationError(
                    f"{name.replace('_', ' ')} must be in [0, 1]"
                )
        if self.packet_size < 1:
            raise ConfigurationError("packet size must be >= 1")
        if self.packet_size_range is not None:
            lo, hi = self.packet_size_range
            if lo < 1 or hi < lo:
                raise ConfigurationError(
                    f"invalid packet size range {self.packet_size_range}"
                )
        if self.internal_speedup < 1:
            raise ConfigurationError("internal speedup must be >= 1")
        if self.output_buffer_depth < self.internal_speedup:
            raise ConfigurationError(
                "output buffer must hold at least one speedup burst"
            )
        if not (0.0 < self.ejection_rate <= 1.0):
            raise ConfigurationError("ejection rate must be in (0, 1]")
        if not (0.0 <= self.congestion_threshold <= 1.0):
            raise ConfigurationError("congestion threshold must be in [0, 1]")
        if self.footprint_vc_limit is not None and self.footprint_vc_limit < 1:
            raise ConfigurationError("footprint VC limit must be >= 1 or None")
        for name in ("warmup_cycles", "measure_cycles", "drain_cycles"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.faults is not None:
            # Imported lazily: the faults package imports topology only,
            # but keeping config import-light is the house rule for trace.
            from repro.faults.schedule import FaultSchedule

            if not isinstance(self.faults, FaultSchedule):
                raise ConfigurationError(
                    f"faults must be a FaultSchedule or None, "
                    f"got {type(self.faults).__name__}"
                )
            self.faults.validate_for(
                self.width, self.height, topology=self.topology
            )
        if self.telemetry is not None:
            from repro.telemetry.config import TelemetryConfig

            if not isinstance(self.telemetry, TelemetryConfig):
                raise ConfigurationError(
                    f"telemetry must be a TelemetryConfig or None, "
                    f"got {type(self.telemetry).__name__}"
                )
            self.telemetry.validate_for(self.width, self.height)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.width * (self.height or self.width)

    @property
    def routing_needs_escape(self) -> bool:
        """Whether the routing algorithm reserves escape VCs (Duato).

        Read from the algorithm itself (``uses_escape``, what the router
        reserves VC0 by); a name :func:`create_routing` does not know is
        ``False`` here and reported there.
        """
        # Imported lazily, like the torus check in validate().
        from repro.routing.registry import create_routing

        try:
            return create_routing(self.routing).uses_escape
        except RoutingError:
            return False

    @property
    def load_field(self) -> str:
        """The field a swept offered load sets: ``hotspot_rate`` for
        hotspot traffic (its background load stays put), else
        ``injection_rate``."""
        return "hotspot_rate" if self.traffic == "hotspot" else "injection_rate"

    def at_load(self, rate: float) -> "SimulationConfig":
        """This config at offered load ``rate`` (see :attr:`load_field`)."""
        return self.with_(**{self.load_field: rate})

    def make_topology(self):
        """Instantiate this config's :class:`~repro.topology.base.Topology`."""
        from repro.topology.base import create_topology

        return create_topology(self.topology, self.width, self.height)

    @property
    def max_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles

    @property
    def mean_packet_size(self) -> float:
        if self.packet_size_range is not None:
            lo, hi = self.packet_size_range
            return (lo + hi) / 2.0
        return float(self.packet_size)

    def with_(self, **overrides: Any) -> "SimulationConfig":
        """Return a copy with ``overrides`` applied (and re-validated)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON form; inverse of :meth:`from_dict`.

        Equal to its own JSON round trip, type for type: trace events,
        faults and telemetry become plain dicts, each tuple in them (and
        the packet-size range) a list and fault directions plain ints,
        so the result cache compares a parsed stored config with it.  It
        serializes like ``asdict(self)`` without that deep copy: only
        the nested values are converted.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        if self.packet_size_range is not None:
            data["packet_size_range"] = list(self.packet_size_range)
        if self.trace is not None:
            data["trace"] = [asdict(event) for event in self.trace]
        for name in ("faults", "telemetry"):
            if data[name] is not None:
                data[name] = data[name].to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (or parsed JSON)."""
        data = dict(data)
        if data.get("packet_size_range") is not None:
            data["packet_size_range"] = tuple(data["packet_size_range"])
        if data.get("trace") is not None:
            # Imported lazily: trace.py imports this module.
            from repro.traffic.trace import TraceEvent

            data["trace"] = [
                e if isinstance(e, TraceEvent) else TraceEvent(**e)
                for e in data["trace"]
            ]
        if data.get("faults") is not None:
            from repro.faults.schedule import FaultSchedule

            if not isinstance(data["faults"], FaultSchedule):
                data["faults"] = FaultSchedule.from_dict(data["faults"])
        if data.get("telemetry") is not None:
            from repro.telemetry.config import TelemetryConfig

            if not isinstance(data["telemetry"], TelemetryConfig):
                data["telemetry"] = TelemetryConfig.from_dict(
                    data["telemetry"]
                )
        return cls(**data)

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports."""
        size = (
            f"{self.packet_size}f"
            if self.packet_size_range is None
            else f"{self.packet_size_range[0]}-{self.packet_size_range[1]}f"
        )
        fault_note = (
            f", {len(self.faults)} faults" if self.faults else ""
        )
        return (
            f"{self.width}x{self.height} {self.topology}, {self.num_vcs} VCs, "
            f"{self.routing} routing, {self.traffic} traffic "
            f"@ {self.injection_rate:.3f}, {size} packets, seed {self.seed}"
            f"{fault_note}"
        )


#: Field names in declaration order, which a stored result's JSON keeps.
_FIELD_NAMES = tuple(f.name for f in fields(SimulationConfig))
