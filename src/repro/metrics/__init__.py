"""Measurement utilities: streaming statistics, sweeps, and curves."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "stats": "LatencyStats",
        "sweep": "SweepPoint injection_sweep saturation_throughput",
        "curves": "LatencyThroughputCurve",
        "resilience": (
            "ResiliencePoint degraded_saturation_rate resilience_point"
        ),
    },
)
