"""Single-simulation runner with optional progress output."""

from __future__ import annotations

import sys
import time

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.validate.config import validation_from_env


def run_simulation(
    config: SimulationConfig, verbose: bool = False
) -> SimulationResult:
    """Run one simulation, optionally echoing a one-line summary.

    Honors ``$REPRO_VALIDATE``: when set, the run executes with the
    selected invariant checkers enabled (checkers observe without
    changing results, so this only affects speed and failure mode).
    """
    start = time.perf_counter()
    result = Simulator(config, validation=validation_from_env()).run()
    if verbose:
        elapsed = time.perf_counter() - start
        print(
            f"{result.summary()}  [{result.cycles_run} cycles, "
            f"{elapsed:.1f}s]",
            file=sys.stderr,
        )
    return result
