"""Streaming latency statistics.

Latency samples are kept as a compact histogram-backed accumulator: mean,
min/max, and exact percentiles over the retained samples.  Sample counts in
this simulator are modest (at most a few hundred thousand packets per run),
so samples are retained exactly; the class still exposes only aggregate
queries so the representation can change without touching callers.
"""

from __future__ import annotations

import math
from typing import Iterable


class LatencyStats:
    """Accumulates latency samples and answers aggregate queries."""

    def __init__(self) -> None:
        self._samples: list[int] = []
        self._sum = 0

    def add(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        self._samples.append(value)
        self._sum += value

    def extend(self, values: Iterable[int]) -> None:
        """Add many samples in bulk (a cache replay rebuilds thousands).

        Raises as :meth:`add` would on the first negative sample — and
        then adds none of them.
        """
        values = list(values)
        if not values:
            return
        if min(values) < 0:
            raise ValueError(
                f"negative latency {next(v for v in values if v < 0)}"
            )
        if self._samples:
            self._samples.extend(values)
        else:
            # ``values`` is already a private copy: adopt it.
            self._samples = values
        self._sum += sum(values)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return self._sum / len(self._samples)

    @property
    def minimum(self) -> int:
        if not self._samples:
            raise ValueError("no samples")
        return min(self._samples)

    @property
    def maximum(self) -> int:
        if not self._samples:
            raise ValueError("no samples")
        return max(self._samples)

    def percentile(self, q: float) -> float:
        """Exact percentile ``q`` in [0, 100] (nearest-rank); sorts a copy."""
        if not self._samples:
            raise ValueError("no samples")
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile {q} outside [0, 100]")
        rank = max(0, math.ceil(q / 100.0 * len(self._samples)) - 1)
        return float(sorted(self._samples)[rank])

    @property
    def stddev(self) -> float:
        """Sample standard deviation; NaN when empty, like :attr:`mean`.

        A single sample has zero spread (0.0); an empty accumulator has
        *no* spread, and reporting 0.0 there would make a no-deliveries
        run look like a perfectly consistent one.
        """
        n = len(self._samples)
        if n == 0:
            return math.nan
        if n == 1:
            return 0.0
        mean = self.mean
        var = sum((s - mean) ** 2 for s in self._samples) / (n - 1)
        return math.sqrt(var)

    def merge(self, other: "LatencyStats") -> None:
        self._samples.extend(other._samples)
        self._sum += other._sum

    # ------------------------------------------------------------------
    def samples(self) -> list[int]:
        """The retained samples in arrival order (a copy); rebuilding
        from it with :meth:`from_samples` reproduces the accumulator
        exactly."""
        return list(self._samples)

    @classmethod
    def from_samples(cls, values: Iterable[int]) -> "LatencyStats":
        """Rebuild an accumulator from :meth:`samples` output; it keeps
        its own copy of ``values``."""
        stats = cls()
        stats.extend(values)
        return stats

    def __repr__(self) -> str:
        if not self._samples:
            return "LatencyStats(empty)"
        return (
            f"LatencyStats(n={self.count}, mean={self.mean:.2f}, "
            f"p99={self.percentile(99):.0f})"
        )
