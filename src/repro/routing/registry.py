"""Routing-algorithm registry.

Algorithms are addressed by name in :class:`~repro.sim.config.SimulationConfig`;
an ``+xordet`` suffix wraps the base algorithm in the
:class:`~repro.routing.xordet.XordetOverlay` VC-mapping combinator, matching
the ``DBAR+XORDET`` style configurations of the paper's evaluation.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigurationError, RoutingError
from repro.routing.base import RoutingAlgorithm
from repro.routing.dbar import DbarFineRouting, DbarRouting
from repro.routing.dor import DorRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.xordet import XordetOverlay

_BASE_FACTORIES: dict[str, Callable[[], RoutingAlgorithm]] = {
    "dor": DorRouting,
    "oddeven": OddEvenRouting,
    "dbar": DbarRouting,
    "dbar-fine": DbarFineRouting,
    "footprint": FootprintRouting,
}


def available_algorithms() -> list[str]:
    """Names accepted by :func:`create_routing`, base and overlay forms."""
    bases = ["dor", "oddeven", "dbar", "footprint"]
    return bases + ["dbar-fine"] + [f"{b}+xordet" for b in bases]


def check_topology_support(name: str, topology: str) -> None:
    """Raise :class:`ConfigurationError` if ``name`` cannot run on
    ``topology``.

    Resolves ``name`` through :func:`create_routing` (so overlays combine
    their restrictions with the base's) and checks the algorithm's
    ``topologies`` declaration.  Unknown names fall through silently —
    :func:`create_routing` reports those with its own error at
    construction time.
    """
    try:
        algorithm = create_routing(name)
    except RoutingError:
        return
    if topology not in algorithm.topologies:
        raise ConfigurationError(
            f"routing '{name}' is {'/'.join(algorithm.topologies)}-only "
            f"and cannot run on a {topology}: its deadlock-freedom "
            f"argument does not survive wrap-around links"
        )


def create_routing(name: str) -> RoutingAlgorithm:
    """Instantiate a routing algorithm from its configuration name.

    ``name`` is case-insensitive; an ``+xordet`` suffix applies the XORDET
    VC-mapping overlay to the base algorithm.
    """
    key = name.strip().lower()
    overlay = False
    if "+" in key:
        base_key, suffix = key.split("+", 1)
        if suffix != "xordet":
            raise RoutingError(f"unknown routing overlay '{suffix}' in '{name}'")
        overlay = True
        key = base_key
    factory = _BASE_FACTORIES.get(key)
    if factory is None:
        raise RoutingError(
            f"unknown routing algorithm '{name}'; "
            f"available: {', '.join(available_algorithms())}"
        )
    algorithm = factory()
    if overlay:
        algorithm = XordetOverlay(algorithm)
    return algorithm
