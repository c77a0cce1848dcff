"""Scenarios, fidelity rungs, and the objectives scored per candidate.

A :class:`Scenario` fixes everything the search does *not* touch: the
base :class:`~repro.sim.config.SimulationConfig` (topology, traffic,
seed, full-fidelity cycle counts) and the evaluation rate ladder.  One
candidate evaluation simulates the candidate's config at every rate of
the ladder and reduces the resulting sweep to three objectives:

* ``avg_latency`` (minimize) — mean packet latency at the scenario's
  *latency rate* (a moderate, sub-saturation load);
* ``saturation_throughput`` (maximize) — the peak accepted throughput
  of the ladder's stable prefix (:func:`repro.metrics.sweep.saturation`,
  the ladder's lowest rate as the zero-load reference);
* ``cost_bits`` (minimize) — per-port storage from the
  :mod:`repro.core.cost` model: VC flit buffers plus whatever routing
  state the candidate's algorithm actually needs.

A fidelity *rung* is the base config at cheaper cycle counts
(:func:`rungs`).  Rung configs are ordinary configs, so **each rung
addresses distinct result-cache keys**; only full-fidelity evaluations
enter a Pareto frontier (the runner enforces this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.cost import CostModel
from repro.metrics.sweep import point_from_result, saturation
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.tuner import TunerError, space
from repro.tuner.space import Candidate

#: Flit width assumed by the storage-cost objective (the paper's §4.4
#: example uses 128-bit flit buffers).
FLIT_BITS = 128

#: Floors applied to rung-scaled cycle counts so a probe rung still
#: warms up and measures something.
MIN_CYCLES = {"warmup_cycles": 10, "measure_cycles": 20, "drain_cycles": 50}

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
    bits = float(config.num_vcs * config.vc_buffer_depth * FLIT_BITS)
    model = CostModel(config.num_nodes, config.num_vcs)
    if space.reads(config.routing, "congestion_threshold"):
        bits += model.idle_counter_bits
    if space.reads(config.routing, "footprint_vc_limit"):
        bits += model.owner_table_bits + model.state_bits
    return bits


#: Default evaluation ladders per traffic kind.
_SYNTHETIC_RATES = (0.02, 0.1, 0.2, 0.35)
_HOTSPOT_RATES = (0.05, 0.15, 0.3, 0.45)


@dataclass(frozen=True)
class Scenario:
    """What the tuner optimizes for: base config + evaluation ladder.

    The ladder sweeps the base's own load field
    (:attr:`SimulationConfig.load_field`: ``hotspot_rate`` on hotspot
    traffic, whose background load stays at the base's value, else
    ``injection_rate``), like every figure driver's rate grid.  It
    defaults by traffic kind; ``latency_rate`` must be a ladder member
    and defaults to the middle rate.
    """

    base: SimulationConfig
    rates: tuple[float, ...] | None = None
    latency_rate: float | None = None

    def __post_init__(self) -> None:
        hotspot = self.base.traffic == "hotspot"
        rates = self.rates
        if rates is None:
            rates = _HOTSPOT_RATES if hotspot else _SYNTHETIC_RATES
        if not rates or any(a >= b for a, b in zip(rates, rates[1:])):
            raise TunerError(
                f"scenario '{self.name}' ladder must strictly ascend: {rates}"
            )
        latency = self.latency_rate
        if latency is None:
            latency = rates[len(rates) // 2]
        elif latency not in rates:
            raise TunerError(
                f"scenario '{self.name}' latency rate {latency} is not on "
                f"the ladder {rates}"
            )
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "latency_rate", latency)

    @property
    def name(self) -> str:
        """``<traffic>-<width>x<height>``, suffixed by a non-mesh
        topology: the artifact's file name."""
        base = self.base
        suffix = "" if base.topology == "mesh" else f"-{base.topology}"
        return f"{base.traffic}-{base.width}x{base.height}{suffix}"

    def to_dict(self) -> dict[str, Any]:
        """The artifact form; ``name`` and ``rate_field`` are written
        for readers of the file (schema ``/2`` has always held them)."""
        return {
            **vars(self),
            "name": self.name,
            "base": self.base.to_dict(),
            "rates": list(self.rates),
            "rate_field": self.base.load_field,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        """The scenario of an artifact; its ``name`` and ``rate_field``
        are not read, because both follow from the base."""
        return cls(
            SimulationConfig.from_dict(data["base"]),
            tuple(data["rates"]),
            data["latency_rate"],
        )

    def describe(self) -> str:
        return (
            f"{self.name}: {self.base.width}x{self.base.height} "
            f"{self.base.traffic}, {self.base.load_field} ladder "
            f"{'/'.join(f'{r:g}' for r in self.rates)} "
            f"(latency @ {self.latency_rate:g}), seed {self.base.seed}"
        )


def rungs(base: SimulationConfig) -> dict[str, SimulationConfig]:
    """``base`` at each fidelity rung, cheapest first: ``probe``
    (quarter cycles, half a mesh of width 8 or more), ``half`` (half
    cycles), ``full`` (``base`` itself).

    Scaled cycle counts never drop below the :data:`MIN_CYCLES`
    floors.  A candidate's config at a rung is
    :func:`repro.tuner.space.apply` over that rung's value.
    """

    def scaled(factor: float) -> SimulationConfig:
        return base.with_(**{
            name: max(floor, round(getattr(base, name) * factor))
            for name, floor in MIN_CYCLES.items()
        })

    probe = scaled(0.25)
    if base.width >= 8:
        probe = probe.with_(width=base.width // 2, height=None)
    return {"probe": probe, "half": scaled(0.5), "full": base}


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
        return self.avg_latency, -self.saturation_throughput, self.cost_bits


def eval_from_results(
    scenario: Scenario,
    candidate: Candidate,
    rung: str,
    results: list[SimulationResult],
) -> CandidateEval:
    """Reduce one candidate's ladder of results to a scored evaluation.

    The ladder's lowest rate is the zero-load reference, and
    saturation throughput is the peak accepted rate of
    :func:`repro.metrics.sweep.saturation`'s stable prefix.
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
    points = list(map(point_from_result, results, scenario.rates))
    peak = 0.0 if math.isnan(zero_load) else saturation(points, zero_load)[1]
    at_latency = results[scenario.rates.index(scenario.latency_rate)]
    latency = at_latency.avg_latency
    return CandidateEval(
        candidate=candidate,
        rung=rung,
        avg_latency=math.inf if math.isnan(latency) else latency,
        saturation_throughput=peak,
        cost_bits=config_cost_bits(at_latency.config),
    )
