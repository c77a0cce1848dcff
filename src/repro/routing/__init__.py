"""Routing algorithms: DOR, Odd-Even, DBAR, Footprint, and XORDET overlays."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": "OutputPortView RouteContext RoutingAlgorithm",
        "requests": "Priority VcRequest",
        "registry": "available_algorithms create_routing",
    },
)
