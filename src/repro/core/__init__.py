"""Analyses of the paper's contribution: two-level adaptiveness metrics,
congestion-tree extraction and the implementation-cost model.  Blocking
purity is read off ``SimulationResult.blocking``."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "adaptiveness": (
            "port_adaptiveness vc_adaptiveness mean_port_adaptiveness "
            "qualitative_comparison"
        ),
        "congestion": "CongestionTree extract_congestion_tree",
        "cost": "CostModel",
    },
)
