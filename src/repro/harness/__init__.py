"""Experiment harness: per-figure drivers and textual reporting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "experiments": (
            "Scale SMOKE BENCH PAPER FaultSweepEntry fault_sweep "
            "fig2_congestion_tree fig5_latency_throughput "
            "fig6_variable_packet_size fig7_vc_sweep fig8_network_size "
            "fig9_hotspot fig10_parsec table1_adaptiveness cost_table"
        ),
    },
)
