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

A fidelity *rung* is a :class:`~repro.harness.experiments.Scale` derived
from the scenario's cycle counts (:func:`rungs`).  Rung configs are
ordinary configs, so **each rung addresses distinct result-cache keys**;
only full-fidelity evaluations enter a Pareto frontier (the runner
enforces this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import takewhile
from typing import Any

from repro.core.cost import CostModel
from repro.harness.experiments import Scale
from repro.harness.parallel import SimTask
from repro.metrics.sweep import point_from_result
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.tuner import TunerError, space
from repro.tuner.space import Candidate

#: Flit width assumed by the storage-cost objective (the paper's §4.4
#: example uses 128-bit flit buffers).
FLIT_BITS = 128

#: Floors applied to rung-scaled cycle counts so a probe rung still
#: warms up and measures something.
MIN_WARMUP, MIN_MEASURE, MIN_DRAIN = 10, 20, 50

#: The scored objectives, in artifact/report order.  Saturation
#: throughput is maximized; the other two are minimized.
OBJECTIVES = ("avg_latency", "saturation_throughput", "cost_bits")


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
            **vars(self),
            "base": self.base.to_dict(),
            "rates": list(self.rates),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        base = SimulationConfig.from_dict(data["base"])
        return cls(**{**data, "base": base, "rates": tuple(data["rates"])})

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


def rungs(base: SimulationConfig) -> tuple[Scale, Scale, Scale]:
    """Probe (quarter cycles, half mesh) -> half cycles -> full.

    The last rung is ``base``'s own geometry and cycle counts; the
    cheaper ones scale those counts (never below the ``MIN_*`` floors),
    and the probe halves a mesh of width 8 or more.
    """
    full = Scale(
        "full",
        width=base.width,
        height=base.height,
        warmup=base.warmup_cycles,
        measure=base.measure_cycles,
        drain=base.drain_cycles,
    )

    def scaled(name: str, factor: float, **geometry: Any) -> Scale:
        return replace(
            full,
            name=name,
            warmup=max(MIN_WARMUP, round(full.warmup * factor)),
            measure=max(MIN_MEASURE, round(full.measure * factor)),
            drain=max(MIN_DRAIN, round(full.drain * factor)),
            **geometry,
        )

    half_mesh = (
        {"width": base.width // 2, "height": None} if base.width >= 8 else {}
    )
    return scaled("probe", 0.25, **half_mesh), scaled("half", 0.5), full


@dataclass(frozen=True)
class CandidateEval:
    """One candidate scored at one fidelity rung."""

    candidate: Candidate
    rung: str
    avg_latency: float
    saturation_throughput: float
    cost_bits: float

    def vector(self) -> tuple[float, float, float]:
        """The :data:`OBJECTIVES` values mapped so smaller is better."""
        return (
            self.avg_latency,
            -self.saturation_throughput,
            self.cost_bits,
        )


def tasks_for(
    scenario: Scenario, candidate: Candidate, rung: Scale
) -> list[SimTask]:
    """The simulation grid of one candidate evaluation at one rung: the
    candidate's config at the rung's geometry and cycle counts, once
    per ladder rate."""
    config = space.apply(scenario.base, candidate).with_(
        width=rung.width,
        height=rung.height,
        warmup_cycles=rung.warmup,
        measure_cycles=rung.measure,
        drain_cycles=rung.drain,
    )
    return [
        SimTask(config.with_(**{scenario.rate_field: rate}))
        for rate in scenario.rates
    ]


def eval_from_results(
    scenario: Scenario,
    candidate: Candidate,
    rung: Scale,
    results: list[SimulationResult],
) -> CandidateEval:
    """Reduce one candidate's ladder of results to a scored evaluation.

    The ladder's lowest rate is the zero-load reference and
    :meth:`repro.metrics.sweep.SweepPoint.is_saturated` classifies each
    point against it.  Saturation throughput is the best accepted rate
    over the *stable prefix*: the points below the first saturated one.
    A NaN reference (the lowest rate delivered nothing) saturates
    everything — the candidate scores worst-case on both simulated
    objectives, deterministically, instead of raising.
    """
    if len(results) != len(scenario.rates):
        raise TunerError(
            f"expected {len(scenario.rates)} results for candidate "
            f"{candidate.key()}, got {len(results)}"
        )
    zero_load = results[0].avg_latency
    stable = [] if math.isnan(zero_load) else takewhile(
        lambda point: not point.is_saturated(zero_load),
        map(point_from_result, results, scenario.rates),
    )
    at_latency = results[scenario.rates.index(scenario.latency_rate)]
    latency = at_latency.avg_latency
    return CandidateEval(
        candidate=candidate,
        rung=rung.name,
        avg_latency=math.inf if math.isnan(latency) else latency,
        saturation_throughput=max(
            (point.accepted_rate for point in stable), default=0.0
        ),
        cost_bits=config_cost_bits(at_latency.config),
    )
