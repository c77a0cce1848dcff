"""Unit tests for the routing-algorithm registry."""

import pytest

from repro.exceptions import RoutingError
from repro.routing.dbar import DbarFineRouting, DbarRouting
from repro.routing.dor import DorRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.registry import available_algorithms, create_routing
from repro.routing.xordet import XordetOverlay


@pytest.mark.parametrize(
    "name,cls",
    [
        ("dor", DorRouting),
        ("oddeven", OddEvenRouting),
        ("dbar", DbarRouting),
        ("dbar-fine", DbarFineRouting),
        ("footprint", FootprintRouting),
    ],
)
def test_base_algorithms(name, cls):
    assert isinstance(create_routing(name), cls)


def test_case_insensitive():
    assert isinstance(create_routing("FootPrint"), FootprintRouting)
    assert isinstance(create_routing(" DBAR "), DbarRouting)


@pytest.mark.parametrize("base", ["dor", "oddeven", "dbar", "footprint"])
def test_xordet_overlays(base):
    algo = create_routing(f"{base}+xordet")
    assert isinstance(algo, XordetOverlay)
    assert algo.name == f"{base}+xordet"


def test_unknown_algorithm():
    with pytest.raises(RoutingError):
        create_routing("warp-speed")


def test_unknown_overlay():
    with pytest.raises(RoutingError):
        create_routing("dor+banana")


def test_available_names_all_resolve():
    for name in available_algorithms():
        create_routing(name)


def test_fresh_instances():
    assert create_routing("footprint") is not create_routing("footprint")


class TestTopologySupport:
    def test_torus_capable_algorithms_pass(self):
        from repro.routing.registry import check_topology_support

        for name in ("dor", "dbar", "dbar-fine", "footprint"):
            check_topology_support(name, "torus")
            check_topology_support(name, "mesh")

    def test_mesh_structural_algorithms_rejected(self):
        from repro.exceptions import ConfigurationError
        from repro.routing.registry import check_topology_support

        for name in ("oddeven", "dor+xordet", "footprint+xordet"):
            with pytest.raises(ConfigurationError, match="mesh-only"):
                check_topology_support(name, "torus")

    def test_unknown_names_fall_through(self):
        from repro.routing.registry import check_topology_support

        # Unknown algorithms are create_routing's problem, not the
        # topology gate's — no exception here.
        check_topology_support("warp-speed", "torus")
