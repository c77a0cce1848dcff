"""Unit tests for the routing-algorithm registry."""

import pytest

from repro.exceptions import ConfigurationError
from repro.routing.dbar import DbarFineRouting, DbarRouting
from repro.routing.dor import DorRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.registry import available_algorithms, create_routing
from repro.routing.xordet import XordetOverlay
from repro.sim.config import ROUTING, SimulationConfig


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


@pytest.mark.parametrize("base", ["dor", "oddeven", "dbar", "footprint"])
def test_xordet_overlays(base):
    algo = create_routing(f"{base}+xordet")
    assert isinstance(algo, XordetOverlay)
    assert algo.name == f"{base}+xordet"


def test_available_names_all_resolve():
    for name in available_algorithms():
        create_routing(name)


def test_every_table_name_builds_the_algorithm_of_that_name():
    assert available_algorithms() == list(ROUTING)
    for name in ROUTING:
        assert create_routing(name).name == name


def test_fresh_instances():
    assert create_routing("footprint") is not create_routing("footprint")


class TestTopologySupport:
    def test_torus_capable_algorithms_pass(self):
        for name in ("dor", "dbar", "dbar-fine", "footprint"):
            SimulationConfig(routing=name, topology="torus", num_vcs=4)
            SimulationConfig(routing=name, topology="mesh", num_vcs=4)

    def test_mesh_structural_algorithms_rejected(self):
        for name in ("oddeven", "dor+xordet", "footprint+xordet"):
            with pytest.raises(ConfigurationError, match="mesh-only"):
                SimulationConfig(routing=name, topology="torus", num_vcs=4)

