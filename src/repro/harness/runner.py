"""The one place a configuration becomes a result."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.validate.config import validation_from_env

if TYPE_CHECKING:
    from repro.traffic.patterns import TrafficGenerator


def run_simulation(
    config: SimulationConfig, traffic: TrafficGenerator | None = None
) -> SimulationResult:
    """Run one simulation of ``config``.

    Pool workers, the service's executor, sweeps and the figure drivers
    all end here, so this is the only simulating reader of
    ``$REPRO_VALIDATE``: when set, the run executes with the selected
    invariant checkers enabled (checkers observe without changing
    results, so this only affects speed and failure mode).  ``traffic``
    replaces the generator the config names (Fig. 2's scripted flows).
    """
    return Simulator(
        config, traffic=traffic, validation=validation_from_env()
    ).run()
