"""Injection-rate sweeps and saturation-throughput measurement.

The paper's latency-throughput figures sweep the offered load and plot
mean packet latency against it; *saturation throughput* is the offered
load at which latency diverges.  Following common BookSim practice, a
point counts as saturated when its mean latency exceeds a multiple of the
zero-load latency (default 3x) or the run fails to drain its measured
packets; the saturation throughput is then refined by bisection between
the last stable and the first saturated point.

Sweeps accept a ``jobs`` argument (see :mod:`repro.harness.parallel`):
the rates of a sweep are independent simulations, so with ``jobs > 1``
they run across worker processes.  ``saturation_throughput`` additionally
runs its coarse scan *speculatively* in parallel — the whole rate ladder
is launched at once and the scan result read off the collected points —
which trades some wasted work above the saturation point for wall-clock
time.  Results are bit-identical to the serial scan in every case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

#: Latency multiple over zero-load latency that defines saturation.
SATURATION_LATENCY_FACTOR = 3.0


@dataclass(frozen=True)
class SweepPoint:
    """One point of a latency-throughput curve."""

    injection_rate: float
    avg_latency: float
    accepted_rate: float
    drained: bool

    def is_saturated(self, zero_load: float) -> bool:
        """Whether this point is saturated relative to ``zero_load``.

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
        return self.avg_latency > SATURATION_LATENCY_FACTOR * zero_load


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
    )


def injection_sweep(
    config: SimulationConfig,
    rates: list[float],
    jobs: int | str | None = None,
) -> list[SweepPoint]:
    """Simulate every rate in ``rates`` (ascending recommended),
    distributing across ``jobs`` workers."""
    from repro.harness.parallel import SimTask, run_tasks

    tasks = [SimTask(config, rate=rate) for rate in rates]
    results = run_tasks(tasks, jobs)
    return [
        point_from_result(result, rate)
        for result, rate in zip(results, rates)
    ]


def zero_load_latency(config: SimulationConfig, rate: float = 0.005) -> float:
    """Mean latency at a near-zero offered load."""
    point = run_point(config, rate)
    return point.avg_latency


def saturation_throughput(
    config: SimulationConfig,
    start: float = 0.05,
    stop: float = 1.0,
    coarse_step: float = 0.05,
    refine_steps: int = 3,
    zero_load: float | None = None,
    jobs: int | str | None = None,
) -> float:
    """Find the saturation throughput by coarse scan plus bisection.

    Returns the highest offered load (flits/node/cycle) that is still
    stable.  ``zero_load`` may be supplied to avoid re-measuring it.

    With ``jobs > 1`` the coarse scan is speculative: the whole ladder of
    rates runs at once and the first saturated rung is read off the
    results.  The serial scan stops at that rung instead, but inspects
    the same deterministic points, so both return the same value.  The
    bisection refinement is inherently sequential and always runs
    serially.
    """
    from repro.harness.parallel import resolve_jobs

    if zero_load is None:
        zero_load = zero_load_latency(config)
    if math.isnan(zero_load):
        raise ValueError("zero-load run produced no packets; raise the rate")

    ladder: list[float] = []
    rate = start
    while rate <= stop + 1e-9:
        ladder.append(rate)
        rate = round(rate + coarse_step, 10)

    last_stable = 0.0
    first_saturated = None
    if resolve_jobs(jobs) > 1:
        # Speculative parallel scan: launch every rung, then walk the
        # collected points exactly like the serial scan would.
        points = injection_sweep(config, ladder, jobs)
    else:
        points = (run_point(config, rung) for rung in ladder)
    for point in points:
        if point.is_saturated(zero_load):
            first_saturated = point.injection_rate
            break
        last_stable = point.injection_rate
    if first_saturated is None:
        return last_stable

    lo, hi = last_stable, first_saturated
    for _ in range(refine_steps):
        mid = (lo + hi) / 2.0
        point = run_point(config, mid)
        if point.is_saturated(zero_load):
            hi = mid
        else:
            lo = mid
    return lo
