"""Simulation kernel: configuration, RNG streams, cycle engine, results."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": "SimulationConfig",
        "engine": "Simulator",
        "results": "SimulationResult",
    },
)
