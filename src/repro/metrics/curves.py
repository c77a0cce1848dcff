"""Latency-throughput curve containers and textual rendering.

The benchmark harness prints each figure as an aligned text table — the
same rows/series the paper plots — so results can be inspected and diffed
without a plotting stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.metrics.sweep import SweepPoint


@dataclass
class LatencyThroughputCurve:
    """One labelled latency-throughput series."""

    label: str
    points: list[SweepPoint] = field(default_factory=list)

    def add(self, point: SweepPoint) -> None:
        self.points.append(point)


#: Decimal places used to group injection rates into table rows.  A
#: computed rate (0.1 + 0.2) can differ from a grid rate in the last ulp;
#: exact float comparison would scatter them into separate all-dash rows.
RATE_DECIMALS = 9


def _rate_key(rate: float) -> float:
    return round(rate, RATE_DECIMALS)


def render_curves(
    title: str, curves: list[LatencyThroughputCurve]
) -> str:
    """Render curves as an aligned table: one row per injection rate.

    Rates are grouped after rounding to :data:`RATE_DECIMALS` places, so
    points that differ only by float noise share a row.
    """
    rates = sorted({_rate_key(p.injection_rate) for c in curves for p in c.points})
    header = ["inj_rate"] + [c.label for c in curves]
    widths = [max(10, len(h) + 2) for h in header]
    lines = [title, "".join(h.rjust(w) for h, w in zip(header, widths))]
    for rate in rates:
        row = [f"{rate:.3f}".rjust(widths[0])]
        for curve, width in zip(curves, widths[1:]):
            match = next(
                (
                    p
                    for p in curve.points
                    if _rate_key(p.injection_rate) == rate
                ),
                None,
            )
            if match is None:
                row.append("-".rjust(width))
            elif not match.drained or math.isnan(match.avg_latency):
                row.append("sat".rjust(width))
            else:
                row.append(f"{match.avg_latency:.1f}".rjust(width))
        lines.append("".join(row))
    return "\n".join(lines)


def render_table(
    title: str, header: list[str], rows: list[list[str]]
) -> str:
    """Render a generic aligned text table."""
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0)) + 2
        for i in range(len(header))
    ]
    lines = [title, "".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
