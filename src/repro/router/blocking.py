"""Purity-of-blocking counters (paper §4.3).

A leaf module — it imports nothing — so :mod:`repro.sim.results` can
rebuild a cached result without loading the router.  :mod:`repro.router.
router` samples into these counters and re-exports the class.
"""


class BlockingStats:
    """Accumulators for the purity-of-blocking analysis (paper §4.3)."""

    __slots__ = ("blocking_events", "busy_vc_samples", "footprint_vc_samples")

    def __init__(self) -> None:
        self.blocking_events = 0
        self.busy_vc_samples = 0
        self.footprint_vc_samples = 0

    @property
    def purity(self) -> float:
        """Ratio of footprint VCs to all busy VCs observed at blockings."""
        if self.busy_vc_samples == 0:
            return 0.0
        return self.footprint_vc_samples / self.busy_vc_samples

    @property
    def hol_degree(self) -> float:
        """Impurity times blocking count — the paper's HoL-blocking degree."""
        return (1.0 - self.purity) * self.blocking_events

    def merge(self, other: "BlockingStats") -> None:
        self.blocking_events += other.blocking_events
        self.busy_vc_samples += other.busy_vc_samples
        self.footprint_vc_samples += other.footprint_vc_samples
