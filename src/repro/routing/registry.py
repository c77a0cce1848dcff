"""Routing-algorithm registry.

Algorithms are addressed by name in :class:`~repro.sim.config.SimulationConfig`,
whose :data:`~repro.sim.config.ROUTING` table is the one list of names;
an ``+xordet`` entry wraps its base algorithm in the
:class:`~repro.routing.xordet.XordetOverlay` VC-mapping combinator, matching
the ``DBAR+XORDET`` style configurations of the paper's evaluation.
"""

from __future__ import annotations

# Every algorithm module loads with the registry, so the first run
# imports what any later run needs (benchmarks/perf times set-up after
# one warm-up run).
from repro.routing import dbar, dor, footprint, oddeven, xordet  # noqa: F401
from repro.routing.base import RoutingAlgorithm
from repro.sim.config import ROUTING


def available_algorithms() -> list[str]:
    """Names accepted by :func:`create_routing`, base and overlay forms."""
    return list(ROUTING)


def create_routing(name: str) -> RoutingAlgorithm:
    """Instantiate the routing algorithm ``name`` (a :data:`ROUTING` key,
    which a config has checked when it was built)."""
    return ROUTING[name]()
