"""Experiment harness: per-figure drivers and textual reporting."""

from repro._lazy import lazy_exports

_GRID = ("scale", "seed", "jobs", "cache")

#: Every figure ``repro experiment`` regenerates, in the paper's order:
#: name -> (driver in :mod:`~repro.harness.experiments`, renderer in
#: :mod:`~repro.harness.reporting`, the command-line values the driver
#: takes by keyword).  ``print(render(run(**values)))`` is the whole
#: verb.  The CLI's choices and dispatch and this façade's exports are
#: read from here; the table names functions instead of holding them so
#: that reading it imports neither module.
FIGURES = {
    "fig2": ("fig2_congestion_tree", "report_fig2", ()),
    "fig5": ("fig5_latency_throughput", "report_fig5", _GRID),
    "fig6": ("fig6_variable_packet_size", "report_fig6", _GRID),
    "fig7": ("fig7_vc_sweep", "report_fig7", _GRID),
    "fig8": ("fig8_network_size", "report_fig8", _GRID),
    "fig9": ("fig9_hotspot", "report_fig9", _GRID),
    "fig10": ("fig10_parsec", "report_fig10", _GRID),
    "table1": ("table1_adaptiveness", "report_table1", ()),
    "cost": ("cost_table", "report_cost", ()),
    "fault-sweep": (
        "fault_sweep",
        "report_fault_sweep",
        _GRID + ("fault_counts", "fault_kind"),
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "experiments": "Scale SMOKE BENCH PAPER FaultSweepEntry "
        + " ".join(driver for driver, _, _ in FIGURES.values()),
    },
)
