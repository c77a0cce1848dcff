"""Streaming latency statistics.

Latency samples are kept exactly, as a plain list in arrival order, with a
running sum: mean, min/max and exact percentiles are computed from it.
Sample counts in this simulator are modest (at most a few hundred thousand
packets per run); the class still exposes only aggregate queries so the
representation can change without touching callers.

:func:`pack_samples` / :func:`unpack_samples` are the stored form of a
sample list (result cache entries, the service wire): one ASCII string, an
unsigned :mod:`array` typecode from ``BHIQ`` (the narrowest that holds the
largest sample) followed by the base64 of the array's little-endian bytes.
"""

from __future__ import annotations

import base64
import math
import sys
from array import array
from typing import Iterable, Sequence

#: Stored widths, narrowest first: (typecode, one past its largest value).
_WIDTHS = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")


def pack_samples(samples: Sequence[int]) -> str:
    """``samples`` (non-negative ints) as one ASCII string; an empty list
    is ``"B"``.  Inverse of :func:`unpack_samples`."""
    top = max(samples, default=0)
    code = next((c for c, limit in _WIDTHS if top < limit), "Q")
    packed = array(code, samples)  # OverflowError past 2**64 - 1
    if sys.byteorder == "big":
        packed.byteswap()
    return code + base64.b64encode(packed.tobytes()).decode("ascii")


def unpack_samples(text: str) -> list[int]:
    """The list :func:`pack_samples` stored in ``text``; ``ValueError`` on
    an unknown typecode, non-alphabet base64 or a partial item."""
    code = text[:1]
    if code not in ("B", "H", "I", "Q"):
        raise ValueError(f"unknown sample typecode {code!r}")
    unpacked = array(code, base64.b64decode(text[1:], validate=True))
    if sys.byteorder == "big":
        unpacked.byteswap()
    return unpacked.tolist()


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

    @classmethod
    def from_packed(cls, text: str) -> "LatencyStats":
        """Rebuild from :func:`pack_samples` output (unsigned: nothing to
        check)."""
        stats = cls()
        stats._samples = unpack_samples(text)
        stats._sum = sum(stats._samples)
        return stats

    def copy(self) -> "LatencyStats":
        """An independent accumulator with the same samples."""
        twin = LatencyStats()
        twin._samples = list(self._samples)
        twin._sum = self._sum
        return twin

    def __repr__(self) -> str:
        if not self._samples:
            return "LatencyStats(empty)"
        return (
            f"LatencyStats(n={self.count}, mean={self.mean:.2f}, "
            f"p99={self.percentile(99):.0f})"
        )
