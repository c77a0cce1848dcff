"""End-to-end simulation on the 2D torus.

Both engine modes produce bit-identical results on the torus, the
mesh-only algorithms are rejected loudly at config time, and a short
saturated run obeys, with routing conformance checked, the routing
functions whose deadlock freedom ``tests/property/test_deadlock_freedom``
proves (the dateline VC classes break the wrap-link cycle).
"""

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError
from repro.faults import FaultEvent, FaultSchedule, random_link_faults
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import Direction
from repro.validate.config import ValidationConfig


def _signature(result):
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_created,
        result.measured_ejected,
        tuple(result.latency._samples),
    )


def _torus_config(routing, **overrides):
    base = dict(
        width=4,
        topology="torus",
        num_vcs=4,
        routing=routing,
        traffic="uniform",
        injection_rate=0.15,
        warmup_cycles=60,
        measure_cycles=120,
        drain_cycles=600,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestCrossEngineIdentity:
    @pytest.mark.parametrize(
        "routing", ["dor", "dbar", "dbar-fine", "footprint"]
    )
    def test_scalar_modes_bit_identical(self, routing):
        signatures = {
            mode: _signature(
                Simulator(_torus_config(routing), engine_mode=mode).run()
            )
            for mode in ("legacy", "skip")
        }
        assert signatures["legacy"] == signatures["skip"]

    def test_multiflit_transpose_identical(self):
        config = _torus_config(
            "footprint", traffic="transpose", packet_size=3, injection_rate=0.2
        )
        signatures = [
            _signature(Simulator(config, engine_mode=mode).run())
            for mode in ("legacy", "skip")
        ]
        assert signatures[0] == signatures[1]

    def test_rectangular_mesh_modes_identical(self):
        # Regression for the square-mesh hardcoding: a 4x8 mesh must run
        # and stay bit-identical across engines like the square one.
        config = SimulationConfig(
            width=4,
            height=8,
            num_vcs=4,
            routing="footprint",
            traffic="uniform",
            injection_rate=0.15,
            warmup_cycles=60,
            measure_cycles=120,
            drain_cycles=500,
            seed=5,
        )
        signatures = [
            _signature(Simulator(config, engine_mode=mode).run())
            for mode in ("legacy", "skip")
        ]
        assert signatures[0] == signatures[1]

    def test_rectangular_torus_runs(self):
        result = Simulator(_torus_config("dor", height=6)).run()
        assert result.drained
        assert result.accepted_flits > 0


class TestCheckedSmoke:
    @pytest.mark.parametrize("routing", ["dor", "dbar", "footprint"])
    def test_saturated_torus_drains(self, routing):
        # test_deadlock_freedom proves the routing functions deadlock-free;
        # this saturated wormhole run ties the router's grants to them,
        # on the fewest VCs validation admits, with every grant checked.
        num_vcs = 2 if routing == "dor" else 3
        config = _torus_config(
            routing,
            num_vcs=num_vcs,
            packet_size=5,
            injection_rate=0.9,
            warmup_cycles=0,
            measure_cycles=600,
            drain_cycles=10000,
        )
        validation = ValidationConfig(
            flit_conservation=False,
            credit_accounting=False,
            vc_states=False,
            routing_conformance=True,
        )
        result = Simulator(config, validation=validation).run()
        assert result.drained
        assert result.measured_ejected > 0


class TestTorusFaults:
    """Wrap-link faults must simulate — regression for the FaultManager
    re-validating its schedule against a hardcoded mesh."""

    def test_wrap_link_fault_modes_identical(self):
        # Node 3 is (3, 0): its EAST link is the x-ring wrap channel,
        # which only exists on the torus.
        schedule = FaultSchedule(
            (FaultEvent(50, "link", 3, Direction.EAST, duration=70),)
        )
        config = _torus_config("dor", faults=schedule)
        signatures = {
            mode: _signature(Simulator(config, engine_mode=mode).run())
            for mode in ("legacy", "skip")
        }
        assert signatures["legacy"] == signatures["skip"]

    def test_random_link_faults_on_torus_drain(self):
        # Topology-aware random link faults draw from all torus channels
        # (wrap links included) — the differential sweep's fault path.
        schedule = random_link_faults(
            4, k=4, cycle=30, duration=60, seed=9, topology="torus"
        )
        result = Simulator(_torus_config("footprint", faults=schedule)).run()
        assert result.drained
        assert result.accepted_flits > 0


class TestTopologyGating:
    @pytest.mark.parametrize(
        "routing", ["oddeven", "oddeven+xordet", "dor+xordet"]
    )
    def test_mesh_only_algorithms_rejected(self, routing):
        with pytest.raises(ConfigurationError, match="mesh-only"):
            _torus_config(routing)

    def test_torus_needs_dateline_vcs(self):
        with pytest.raises(ConfigurationError):
            _torus_config("dor", num_vcs=1)

    def test_escape_algorithms_need_three_vcs_on_torus(self):
        with pytest.raises(ConfigurationError):
            _torus_config("footprint", num_vcs=2)
        _torus_config("footprint", num_vcs=3)  # validates fine


class TestCli:
    def test_run_topology_flag(self, capsys):
        code = cli_main(
            [
                "run",
                "--width",
                "4",
                "--topology",
                "torus",
                "--vcs",
                "4",
                "--routing",
                "footprint",
                "--injection-rate",
                "0.1",
                "--warmup",
                "40",
                "--measure",
                "80",
                "--drain",
                "400",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "torus" in out

    def test_mesh_only_routing_on_torus_exits_cleanly(self, capsys):
        code = cli_main(
            [
                "run",
                "--width",
                "4",
                "--topology",
                "torus",
                "--routing",
                "oddeven",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "mesh-only" in captured.err
        assert "Traceback" not in captured.err

    def test_incompatible_traffic_exits_cleanly(self, capsys):
        # Fail-fast traffic validation: a transpose pattern on a
        # non-square network dies at construction with one stderr line.
        code = cli_main(
            [
                "run",
                "--width",
                "4",
                "--height",
                "2",
                "--traffic",
                "transpose",
                "--routing",
                "dor",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "square" in captured.err
        assert "Traceback" not in captured.err

    def test_list_mentions_topologies(self, capsys):
        code = cli_main(["list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "torus" in out
