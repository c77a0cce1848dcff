"""Scenarios, fidelity rungs, and the objectives scored per candidate.

A :class:`Scenario` fixes everything the search does *not* touch: the
base :class:`~repro.sim.config.SimulationConfig` (topology, traffic,
seed, full-fidelity cycle counts) and the evaluation rate ladder.  One
candidate evaluation simulates the candidate's config at every rung of
the ladder and reduces the resulting sweep to three objectives:

* ``avg_latency`` (minimize) — mean packet latency at the scenario's
  *latency rate* (a moderate, sub-saturation load);
* ``saturation_throughput`` (maximize) — the best accepted throughput
  over the ladder's stable prefix, the sweep-based estimate of where
  the latency curve diverges (saturated points are classified exactly
  like :mod:`repro.metrics.sweep` does, against the ladder's lowest
  rate as the zero-load reference);
* ``cost_bits`` (minimize) — per-port storage from the
  :mod:`repro.core.cost` model: VC flit buffers plus whatever routing
  state the candidate's algorithm actually needs.

A :class:`Rung` is a fidelity level: a multiplier on the base cycle
counts and optionally a smaller mesh.  Rung configs are ordinary
configs, so **each rung addresses distinct result-cache keys**; only
full-fidelity evaluations may enter a Pareto frontier (the runner
enforces this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.cost import CostModel
from repro.harness.parallel import SimTask
from repro.metrics.sweep import point_from_result
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.tuner import TunerError
from repro.tuner.space import Candidate, ParamSpace

#: Flit width assumed by the storage-cost objective (the paper's §4.4
#: example uses 128-bit flit buffers).
FLIT_BITS = 128

#: Floors applied to rung-scaled cycle counts so a probe rung still
#: warms up and measures something.
MIN_WARMUP, MIN_MEASURE, MIN_DRAIN = 10, 20, 50


@dataclass(frozen=True)
class Objective:
    """One scored dimension: its name and optimization direction."""

    name: str
    goal: str  # "min" | "max"

    def __post_init__(self) -> None:
        if self.goal not in ("min", "max"):
            raise TunerError(
                f"objective '{self.name}' goal must be 'min' or 'max'"
            )

    def minimized(self, value: float) -> float:
        """The value mapped so smaller is always better."""
        return -value if self.goal == "max" else value


#: The tuner's objective set, in artifact/report order.
OBJECTIVES: tuple[Objective, ...] = (
    Objective("avg_latency", "min"),
    Objective("saturation_throughput", "max"),
    Objective("cost_bits", "min"),
)


def config_cost_bits(config: SimulationConfig) -> float:
    """Per-port storage cost of ``config`` in bits (minimization target).

    VC flit buffers dominate: ``num_vcs x depth x FLIT_BITS``.  On top,
    congestion-aware algorithms (DBAR, Footprint) need the per-port
    idle-VC counter, and Footprint additionally the destination-owner
    table plus its qualifying state bits — exactly the paper's §4.4
    inventory, taken from :class:`repro.core.cost.CostModel`.
    """
    bits = float(
        config.num_vcs * config.vc_buffer_depth * FLIT_BITS
    )
    base = config.routing.split("+")[0].strip().lower()
    model = CostModel(config.num_nodes, config.num_vcs)
    if base in ("dbar", "footprint"):
        bits += model.idle_counter_bits
    if base == "footprint":
        bits += model.owner_table_bits + model.state_bits
    return bits


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """What the tuner optimizes for: base config + evaluation ladder.

    ``rate_field`` names the config field the ladder sweeps —
    ``injection_rate`` for synthetic patterns, ``hotspot_rate`` for the
    hotspot scenario (its background load stays at the base config's
    value).  ``latency_rate`` must be a ladder member; it defaults to
    the middle rung.
    """

    name: str
    base: SimulationConfig
    rates: tuple[float, ...]
    rate_field: str = "injection_rate"
    latency_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.rates:
            raise TunerError(f"scenario '{self.name}' has an empty ladder")
        if list(self.rates) != sorted(self.rates):
            raise TunerError(
                f"scenario '{self.name}' ladder must ascend: {self.rates}"
            )
        if len(set(self.rates)) != len(self.rates):
            raise TunerError(
                f"scenario '{self.name}' ladder has duplicates: {self.rates}"
            )
        if self.rate_field not in ("injection_rate", "hotspot_rate"):
            raise TunerError(
                f"scenario '{self.name}' rate_field must be "
                f"'injection_rate' or 'hotspot_rate'"
            )
        if self.latency_rate is None:
            object.__setattr__(
                self, "latency_rate", self.rates[len(self.rates) // 2]
            )
        elif self.latency_rate not in self.rates:
            raise TunerError(
                f"scenario '{self.name}' latency rate "
                f"{self.latency_rate} is not on the ladder {self.rates}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "rates": list(self.rates),
            "rate_field": self.rate_field,
            "latency_rate": self.latency_rate,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        return cls(
            name=data["name"],
            base=SimulationConfig.from_dict(data["base"]),
            rates=tuple(data["rates"]),
            rate_field=data.get("rate_field", "injection_rate"),
            latency_rate=data.get("latency_rate"),
        )

    def describe(self) -> str:
        return (
            f"{self.name}: {self.base.width}x{self.base.height} "
            f"{self.base.traffic}, {self.rate_field} ladder "
            f"{'/'.join(f'{r:g}' for r in self.rates)} "
            f"(latency @ {self.latency_rate:g}), seed {self.base.seed}"
        )


#: Default evaluation ladders per traffic kind.
_SYNTHETIC_RATES = (0.02, 0.1, 0.2, 0.35)
_HOTSPOT_RATES = (0.05, 0.15, 0.3, 0.45)


def make_scenario(
    traffic: str,
    width: int = 8,
    warmup: int = 100,
    measure: int = 200,
    drain: int = 450,
    seed: int = 1,
    rates: tuple[float, ...] | None = None,
    latency_rate: float | None = None,
    background_rate: float = 0.3,
    topology: str = "mesh",
) -> Scenario:
    """A standard scenario for one traffic pattern.

    Hotspot scenarios sweep ``hotspot_rate`` with constant background
    load (the Fig. 9 shape); synthetic patterns sweep the injection
    rate.  The base config is otherwise the paper's Table 2 default —
    which is exactly the candidate the tuner's frontier is measured
    against.
    """
    hotspot = traffic == "hotspot"
    base = SimulationConfig(
        width=width,
        topology=topology,
        traffic=traffic,
        injection_rate=0.0 if hotspot else 0.02,
        hotspot_rate=0.05,
        background_rate=background_rate if hotspot else 0.3,
        warmup_cycles=warmup,
        measure_cycles=measure,
        drain_cycles=drain,
        seed=seed,
    )
    suffix = "" if topology == "mesh" else f"-{topology}"
    return Scenario(
        name=f"{traffic}-{width}x{width}{suffix}",
        base=base,
        rates=tuple(rates)
        if rates is not None
        else (_HOTSPOT_RATES if hotspot else _SYNTHETIC_RATES),
        rate_field="hotspot_rate" if hotspot else "injection_rate",
        latency_rate=latency_rate,
    )


# ----------------------------------------------------------------------
# Fidelity rungs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    """One fidelity level of the successive-halving ladder."""

    name: str
    cycle_scale: float = 1.0
    width: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.cycle_scale <= 1.0):
            raise TunerError(
                f"rung '{self.name}' cycle scale must be in (0, 1], "
                f"got {self.cycle_scale}"
            )
        if self.width is not None and self.width < 2:
            raise TunerError(f"rung '{self.name}' width must be >= 2")

    @property
    def full_fidelity(self) -> bool:
        return self.cycle_scale == 1.0 and self.width is None

    def apply(self, config: SimulationConfig) -> SimulationConfig:
        """``config`` at this rung's fidelity (distinct cache key)."""
        if self.full_fidelity:
            return config
        overrides: dict[str, Any] = {
            "warmup_cycles": max(
                MIN_WARMUP, round(config.warmup_cycles * self.cycle_scale)
            ),
            "measure_cycles": max(
                MIN_MEASURE, round(config.measure_cycles * self.cycle_scale)
            ),
            "drain_cycles": max(
                MIN_DRAIN, round(config.drain_cycles * self.cycle_scale)
            ),
        }
        if self.width is not None:
            overrides["width"] = self.width
            overrides["height"] = None
        return config.with_(**overrides)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "cycle_scale": self.cycle_scale,
            "width": self.width,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Rung":
        return cls(data["name"], data["cycle_scale"], data.get("width"))


#: The full-fidelity rung every frontier entry must come from.
FULL_RUNG = Rung("full", 1.0)


def default_rungs(base: SimulationConfig) -> tuple[Rung, ...]:
    """Probe (quarter cycles, half mesh) -> half cycles -> full."""
    probe_width = base.width // 2 if base.width >= 8 else None
    return (
        Rung("probe", 0.25, width=probe_width),
        Rung("half", 0.5),
        FULL_RUNG,
    )


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalPoint:
    """One ladder rung of one candidate evaluation."""

    rate: float
    avg_latency: float
    accepted_rate: float
    offered_rate: float
    drained: bool
    saturated: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "avg_latency": None
            if math.isnan(self.avg_latency)
            else self.avg_latency,
            "accepted_rate": self.accepted_rate,
            "offered_rate": self.offered_rate,
            "drained": self.drained,
            "saturated": self.saturated,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EvalPoint":
        latency = data["avg_latency"]
        return cls(
            rate=data["rate"],
            avg_latency=math.nan if latency is None else latency,
            accepted_rate=data["accepted_rate"],
            offered_rate=data["offered_rate"],
            drained=data["drained"],
            saturated=data["saturated"],
        )


@dataclass(frozen=True)
class CandidateEval:
    """One candidate scored at one fidelity rung."""

    candidate: Candidate
    rung: str
    avg_latency: float
    saturation_throughput: float
    cost_bits: float
    points: tuple[EvalPoint, ...] = field(default=(), repr=False)
    #: The candidate's full config at the scenario's latency rate —
    #: what a follow-up run would use.
    config: SimulationConfig | None = field(default=None, repr=False)

    def value(self, objective: str) -> float:
        try:
            return getattr(self, objective)
        except AttributeError:
            raise TunerError(f"unknown objective '{objective}'") from None

    def vector(
        self, objectives: tuple[Objective, ...] = OBJECTIVES
    ) -> tuple[float, ...]:
        """Objective values mapped so smaller is always better."""
        return tuple(
            obj.minimized(self.value(obj.name)) for obj in objectives
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "candidate": [list(item) for item in self.candidate.items],
            "rung": self.rung,
            "objectives": {
                "avg_latency": None
                if math.isinf(self.avg_latency)
                else self.avg_latency,
                "saturation_throughput": self.saturation_throughput,
                "cost_bits": self.cost_bits,
            },
            "points": [point.to_dict() for point in self.points],
            "config": self.config.to_dict()
            if self.config is not None
            else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CandidateEval":
        objectives = data["objectives"]
        latency = objectives["avg_latency"]
        return cls(
            candidate=Candidate(
                tuple(
                    (name, value) for name, value in data["candidate"]
                )
            ),
            rung=data["rung"],
            avg_latency=math.inf if latency is None else latency,
            saturation_throughput=objectives["saturation_throughput"],
            cost_bits=objectives["cost_bits"],
            points=tuple(
                EvalPoint.from_dict(point) for point in data["points"]
            ),
            config=SimulationConfig.from_dict(data["config"])
            if data.get("config") is not None
            else None,
        )


def tasks_for(
    scenario: Scenario,
    space: ParamSpace,
    candidate: Candidate,
    rung: Rung,
) -> list[SimTask]:
    """The simulation grid of one candidate evaluation at one rung."""
    config = rung.apply(space.apply(scenario.base, candidate))
    return [
        SimTask(
            config.with_(**{scenario.rate_field: rate}),
            key=(candidate.key(), rung.name, rate),
        )
        for rate in scenario.rates
    ]


def eval_from_results(
    scenario: Scenario,
    candidate: Candidate,
    rung: Rung,
    results: list[SimulationResult],
) -> CandidateEval:
    """Reduce one candidate's ladder of results to a scored evaluation.

    The ladder's lowest rate is the zero-load reference and
    :meth:`repro.metrics.sweep.SweepPoint.is_saturated` classifies each
    point against it.  A NaN reference (the lowest rung delivered
    nothing) saturates everything — the candidate scores worst-case on
    both simulated objectives, deterministically, instead of raising.
    """
    if len(results) != len(scenario.rates):
        raise TunerError(
            f"expected {len(scenario.rates)} results for candidate "
            f"{candidate.key()}, got {len(results)}"
        )
    zero_load = results[0].avg_latency
    points = []
    for rate, result in zip(scenario.rates, results):
        saturated = math.isnan(zero_load) or point_from_result(
            result, rate
        ).is_saturated(zero_load)
        points.append(
            EvalPoint(
                rate=rate,
                avg_latency=result.avg_latency,
                accepted_rate=result.accepted_rate,
                offered_rate=result.offered_rate,
                drained=result.drained,
                saturated=saturated,
            )
        )
    stable = []
    for point in points:
        if point.saturated:
            break
        stable.append(point)
    throughput = max(
        (point.accepted_rate for point in stable), default=0.0
    )
    at_latency = points[scenario.rates.index(scenario.latency_rate)]
    latency = at_latency.avg_latency
    latency_config = results[
        scenario.rates.index(scenario.latency_rate)
    ].config
    return CandidateEval(
        candidate=candidate,
        rung=rung.name,
        avg_latency=math.inf if math.isnan(latency) else latency,
        saturation_throughput=throughput,
        cost_bits=config_cost_bits(latency_config),
        points=tuple(points),
        config=latency_config,
    )
