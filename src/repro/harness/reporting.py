"""Textual rendering of experiment results.

Each renderer prints the same rows/series the paper's figure plots, as an
aligned text table, so benchmark output can be read (and diffed) without a
plotting stack.
"""

from __future__ import annotations

import math

from repro.harness.experiments import (
    FaultSweepEntry,
    Fig2Result,
    Fig8Result,
    Fig10Entry,
)
from repro.core.cost import CostModel
from repro.metrics.curves import LatencyThroughputCurve, render_curves, render_table


def report_fig5(
    results: dict[str, list[LatencyThroughputCurve]],
    title: str = "Fig. 5 — single-flit packets",
) -> str:
    return "\n\n".join(
        render_curves(f"{title} — {pattern}", curves)
        for pattern, curves in results.items()
    )


def report_fig6(results: dict[str, list[LatencyThroughputCurve]]) -> str:
    return report_fig5(results, "Fig. 6 — {1..6}-flit packets")


def report_fig7(
    results: dict[str, dict[int, list[LatencyThroughputCurve]]]
) -> str:
    """One block of tables per pattern, each closed by a blank line."""
    return "\n".join(
        "\n\n".join(
            render_curves(f"Fig. 7 — {pattern}, {vcs} VCs", curves)
            for vcs, curves in sorted(sweep.items())
        )
        + "\n"
        for pattern, sweep in results.items()
    )


def report_fig8(results: list[Fig8Result]) -> str:
    rows = [
        [
            r.pattern,
            f"{r.width}x{r.width}",
            f"{r.dbar_saturation:.3f}",
            f"{r.footprint_saturation:.3f}",
            f"{r.dbar_normalized:.3f}",
            f"{r.dbar_peak:.3f}",
            f"{r.footprint_peak:.3f}",
        ]
        for r in results
    ]
    return render_table(
        "Fig. 8 — saturation throughput, DBAR normalized to Footprint, "
        "and peak accepted throughput",
        [
            "pattern", "mesh", "dbar", "footprint", "dbar/footprint",
            "dbar peak", "footprint peak",
        ],
        rows,
    )


def report_fig9(results: dict[str, list[tuple[float, float, bool]]]) -> str:
    algorithms = sorted(results)
    rates = sorted({rate for series in results.values() for rate, _, _ in series})
    rows = []
    for rate in rates:
        row = [f"{rate:.2f}"]
        for algorithm in algorithms:
            entry = next(
                (e for e in results[algorithm] if e[0] == rate), None
            )
            if entry is None:
                row.append("-")
            else:
                _, latency, drained = entry
                text = "sat" if math.isnan(latency) else f"{latency:.1f}"
                if not drained:
                    text += "*"
                row.append(text)
        rows.append(row)
    return render_table(
        "Fig. 9 — background latency vs hotspot injection rate "
        "(* = not drained)",
        ["hotspot_rate"] + algorithms,
        rows,
    )


def report_fig10(entries: list[Fig10Entry]) -> str:
    rows = [
        [
            "+".join(e.workloads),
            f"{e.dbar_latency:.1f}",
            f"{e.footprint_latency:.1f}",
            f"{100 * e.latency_improvement:+.1f}%",
            f"{100 * e.dbar_purity:.1f}%",
            f"{100 * e.footprint_purity:.1f}%",
            f"{e.dbar_hol_degree:.0f}",
            f"{e.footprint_hol_degree:.0f}",
        ]
        for e in entries
    ]
    return render_table(
        "Fig. 10 — PARSEC-like trace pairs (latency, purity, HoL degree)",
        [
            "pair",
            "dbar_lat",
            "fp_lat",
            "fp_gain",
            "dbar_pur",
            "fp_pur",
            "dbar_hol",
            "fp_hol",
        ],
        rows,
    )


def report_fig2(results: list[Fig2Result]) -> str:
    rows = []
    for r in results:
        for label, tree in (
            ("network(n10)", r.network_tree),
            ("endpoint(n13)", r.endpoint_tree),
        ):
            rows.append(
                [
                    r.routing,
                    label,
                    str(tree.num_branches),
                    str(tree.total_vcs),
                    str(tree.max_thickness),
                    f"{tree.mean_thickness:.2f}",
                ]
            )
    table = render_table(
        "Fig. 2 — congestion-tree shape per routing algorithm",
        ["routing", "tree", "branches", "vcs", "max_thick", "mean_thick"],
        rows,
    )
    growth = [
        [
            r.routing,
            label,
            " ".join(str(b) for b in series),
        ]
        for r in results
        if r.sample_cycles
        for label, series in (
            ("network(n10)", r.network_branch_series),
            ("endpoint(n13)", r.endpoint_branch_series),
        )
    ]
    if not growth:
        return table
    sampled = results[0].sample_cycles
    return "\n\n".join(
        [
            table,
            render_table(
                "Fig. 2 — tree growth, branches per sampled cycle "
                f"(cycles {sampled[0]}..{sampled[-1]})",
                ["routing", "tree", "branches over time"],
                growth,
            ),
        ]
    )


def report_fault_sweep(entries: list[FaultSweepEntry]) -> str:
    def fmt(value: float, spec: str) -> str:
        return "n/a" if math.isnan(value) else format(value, spec)

    rows = [
        [
            e.routing,
            str(e.num_faults),
            e.fault_kind,
            fmt(e.zero_load_latency, ".1f"),
            fmt(e.degraded_saturation, ".3f"),
            fmt(e.delivered_fraction, ".3f"),
        ]
        for e in entries
    ]
    return render_table(
        "Fault sweep — degraded saturation and delivered fraction "
        "vs. fault count",
        ["routing", "faults", "kind", "zl_lat", "degr_sat", "delivered"],
        rows,
    )


def report_table1(metrics: dict[str, dict[str, float]]) -> str:
    rows = [
        [name, f"{m['P_adapt']:.3f}", f"{m['VC_adapt']:.3f}"]
        for name, m in metrics.items()
    ]
    return render_table(
        "Table 1 — two-level adaptiveness (quantitative backing)",
        ["algorithm", "P_adapt", "VC_adapt"],
        rows,
    )


def report_cost(models: list[CostModel]) -> str:
    rows = [
        [
            str(m.num_nodes),
            str(m.num_vcs),
            str(m.owner_table_bits),
            str(m.state_bits),
            str(m.idle_counter_bits),
            str(m.total_bits_per_port),
            f"{m.overhead_vs_flit_buffer():.2f}",
        ]
        for m in models
    ]
    return render_table(
        "§4.4 — Footprint storage cost per port",
        ["nodes", "vcs", "owner_b", "state_b", "idle_b", "total_b", "flits"],
        rows,
    )
