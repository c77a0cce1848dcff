"""Result signatures pinned across simulator-speed changes.

A change that only makes the simulator faster must leave every simulated
statistic identical.  The hashes below were recorded at commit ``c36df29``
(the per-VC ``VcRequest`` representation) and cover every routing family
the request/allocation path serves: the four saturated 8x8 configurations
of the perf benchmark plus one each of torus, a ``+xordet`` overlay,
``footprint_vc_limit``, a fault schedule and a low-load point.

Re-record them only together with an ``ENGINE_VERSION`` bump — i.e. when a
change is *meant* to alter simulated behaviour.
"""

import hashlib

import pytest

from repro.faults.schedule import parse_fault_spec
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.validate.differential import result_signature

_RUN = dict(
    width=8, warmup_cycles=50, measure_cycles=100, drain_cycles=300, seed=11
)

PINNED = {
    "fp_uniform_0.30": (
        dict(routing="footprint", traffic="uniform", injection_rate=0.3),
        "165ec70591df9700",
    ),
    "dbar_uniform_0.30": (
        dict(routing="dbar", traffic="uniform", injection_rate=0.3),
        "8e009f4aa021eb39",
    ),
    "fp_transpose_0.25_1to6": (
        dict(
            routing="footprint",
            traffic="transpose",
            injection_rate=0.25,
            packet_size_range=(1, 6),
        ),
        "b8cd53a77dc5c631",
    ),
    "fp_hotspot_0.45": (
        dict(
            routing="footprint",
            traffic="hotspot",
            hotspot_rate=0.45,
            background_rate=0.3,
        ),
        "63bd9d846bb9acf1",
    ),
    "torus_fp_0.20": (
        dict(
            topology="torus",
            routing="footprint",
            traffic="uniform",
            injection_rate=0.2,
        ),
        "1c552157e580b655",
    ),
    "dbar_xordet_0.20": (
        dict(routing="dbar+xordet", traffic="uniform", injection_rate=0.2),
        "a5db79b14b00bf7d",
    ),
    "fp_limit2_0.30": (
        dict(
            routing="footprint",
            traffic="transpose",
            injection_rate=0.3,
            footprint_vc_limit=2,
        ),
        "8407e2badfdafa1a",
    ),
    "fp_faults_0.10": (
        dict(
            routing="footprint",
            traffic="uniform",
            injection_rate=0.1,
            faults=parse_fault_spec("links:4~11,router:27@40+30", 8),
        ),
        "bb3d9e18fe817aaa",
    ),
    "fp_uniform_0.02": (
        dict(routing="footprint", traffic="uniform", injection_rate=0.02),
        "4b00a369902380f2",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_result_signature_unchanged(name):
    overrides, expected = PINNED[name]
    result = Simulator(SimulationConfig(**_RUN, **overrides)).run()
    digest = hashlib.sha256(
        repr(result_signature(result)).encode()
    ).hexdigest()[:16]
    assert digest == expected
