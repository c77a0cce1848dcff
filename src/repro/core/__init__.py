"""Analyses of the paper's contribution: two-level adaptiveness metrics,
congestion-tree extraction, blocking purity, and the implementation-cost
model."""

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
        "purity": "purity_of_blocking hol_blocking_degree",
    },
)
