"""Injection-rate sweeps and the one saturation walk.

The paper's latency-throughput figures sweep the offered load and plot
mean packet latency against it; *saturation throughput* is the offered
load at which latency diverges.  :func:`saturation` walks a sweep's
stable prefix, classifying each point with :meth:`SweepPoint.is_saturated`
(or, under faults, :meth:`SweepPoint.is_degraded`); DESIGN.md §4 states
the definition.

Sweeps accept a ``jobs`` argument (see :mod:`repro.harness.parallel`):
the rates of a sweep are independent simulations, so with ``jobs > 1``
they run across worker processes, bit-identical to a serial sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

#: Latency multiple over zero-load latency that defines saturation.
SATURATION_LATENCY_FACTOR = 3.0

#: Share of its offered load a stable point must accept: one that
#: accepts less is saturated whatever its latency, since short windows
#: keep a point's latency low while its backlog grows.
SATURATION_ACCEPTANCE_FACTOR = 0.95

#: A faulted point's delivered fraction may fall to this multiple of the
#: baseline (lowest-rate) delivery before it counts as degraded.
DELIVERY_DEGRADATION_FACTOR = 0.9


@dataclass(frozen=True)
class SweepPoint:
    """One point of a latency-throughput curve."""

    injection_rate: float
    avg_latency: float
    accepted_rate: float
    drained: bool
    delivered_fraction: float
    #: Offered load measured over the window (flits/node/cycle), which
    #: ``accepted_rate`` is held to.
    offered_rate: float

    def is_saturated(self, zero_load: float) -> bool:
        """Whether this point is saturated relative to ``zero_load``:
        undrained, without a latency, above
        :data:`SATURATION_LATENCY_FACTOR` times ``zero_load``, or
        accepting less than :data:`SATURATION_ACCEPTANCE_FACTOR` of its
        offered load.

        Raises :class:`ValueError` on a NaN ``zero_load``: a NaN
        reference makes the latency comparison silently False, which
        would classify every drained point as stable and corrupt
        saturation-rate scans downstream.
        """
        if math.isnan(zero_load):
            raise ValueError(
                "zero-load latency is NaN (zero-load run delivered no "
                "measured packets); cannot classify saturation"
            )
        if not self.drained:
            return True
        if math.isnan(self.avg_latency):
            return True
        accepted_share = SATURATION_ACCEPTANCE_FACTOR * self.offered_rate
        if self.accepted_rate < accepted_share:
            return True
        return self.avg_latency > SATURATION_LATENCY_FACTOR * zero_load

    def is_degraded(self, zero_load: float, baseline_delivery: float) -> bool:
        """Whether this faulted point has lost acceptable service.

        A faulted run never drains the packets its faults strand, so
        this replaces :meth:`is_saturated`'s drain test with delivery
        relative to ``baseline_delivery``, which, like ``zero_load``,
        comes from the sweep's lowest rate: a fixed loss of unreachable
        destinations does not count against higher rates.
        """
        if math.isnan(self.avg_latency):
            return True
        if (
            not math.isnan(baseline_delivery)
            and self.delivered_fraction
            < DELIVERY_DEGRADATION_FACTOR * baseline_delivery
        ):
            return True
        return self.avg_latency > SATURATION_LATENCY_FACTOR * zero_load


def saturation(
    points: Sequence[SweepPoint],
    zero_load: float,
    saturated: Callable[[SweepPoint, float], bool] = SweepPoint.is_saturated,
) -> tuple[float, float]:
    """Walk ``points`` up to the first one ``saturated`` against
    ``zero_load``: the stable prefix.

    Returns the prefix's last offered rate and its peak accepted rate,
    ``(0.0, 0.0)`` when the prefix is empty.  A stable point above a
    saturated one does not count.  Raises :class:`ValueError` unless
    the offered rates strictly ascend.
    """
    rates = [point.injection_rate for point in points]
    if any(low >= high for low, high in zip(rates, rates[1:])):
        raise ValueError(f"sweep rates must strictly ascend: {rates}")
    rate = peak = 0.0
    for point in points:
        if saturated(point, zero_load):
            break
        rate, peak = point.injection_rate, max(peak, point.accepted_rate)
    return rate, peak


def run_point(config: SimulationConfig, rate: float) -> SweepPoint:
    """Simulate ``config`` at offered load ``rate`` and summarize it.

    The rate sets :attr:`SimulationConfig.load_field`, as a
    :class:`~repro.harness.parallel.SimTask` rate does, so the serial
    and pooled paths below sweep the same field on every traffic kind.
    """
    # Imported here: the engine itself uses repro.metrics for its
    # statistics, so a module-level import would be circular.
    from repro.harness.runner import run_simulation

    result = run_simulation(config.at_load(rate))
    return point_from_result(result, rate)


def point_from_result(result: SimulationResult, rate: float) -> SweepPoint:
    """Summarize a finished simulation as a sweep point."""
    return SweepPoint(
        injection_rate=rate,
        avg_latency=result.avg_latency,
        accepted_rate=result.accepted_rate,
        drained=result.drained,
        delivered_fraction=result.delivered_fraction,
        offered_rate=result.offered_rate,
    )


def injection_sweep(
    config: SimulationConfig,
    rates: list[float],
    jobs: int | str | None = None,
) -> list[SweepPoint]:
    """Simulate every rate in ``rates`` (ascending, for :func:`saturation`),
    distributing across ``jobs`` workers."""
    from repro.harness.parallel import SimTask, run_tasks

    tasks = [SimTask(config, rate=rate) for rate in rates]
    results = run_tasks(tasks, jobs)
    return [
        point_from_result(result, rate)
        for result, rate in zip(results, rates)
    ]
