"""Measurement utilities: streaming statistics, sweeps, and curves."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "stats": "LatencyStats",
        "sweep": "SweepPoint injection_sweep saturation",
        "curves": "LatencyThroughputCurve",
    },
)
