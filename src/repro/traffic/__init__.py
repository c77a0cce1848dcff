"""Traffic generation: synthetic patterns, hotspot flows, and traces."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "patterns": (
            "PATTERNS LookaheadTraffic SyntheticTraffic TrafficGenerator "
            "pattern_destination"
        ),
        "hotspot": "HotspotTraffic default_hotspot_flows",
        "trace": "TraceEvent TraceTraffic",
        "factory": "create_traffic",
    },
)
