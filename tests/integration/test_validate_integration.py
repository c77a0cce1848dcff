"""Integration tests for runtime invariant validation.

Pins the observation-only contract (validated runs are bit-identical to
unvalidated ones in every engine mode, including fault-laden and
telemetry-instrumented runs), the mutation self-test (every checker
provably fires), the differential harness, the ``$REPRO_VALIDATE``
plumbing through the harness and the pool, and the CLI surface.
"""

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError, InvariantViolation
from repro.faults.schedule import random_link_faults, random_router_faults
from repro.harness.experiments import fig2_congestion_tree
from repro.harness.parallel import SimTask, run_tasks
from repro.harness.runner import run_simulation
from repro.metrics.sweep import run_point
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig
from repro.validate import MUTATION_CHECKERS, ValidationConfig
from repro.validate.differential import (
    random_configs,
    result_signature,
    run_differential,
    self_test,
)

MODES = ("skip", "legacy")


def _base_config(**overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        injection_rate=0.2,
        warmup_cycles=40,
        measure_cycles=80,
        drain_cycles=400,
        seed=13,
    )
    base.update(overrides)
    return SimulationConfig(**base)


# The full-surface set from the acceptance criteria: baseline adaptive,
# escape-only, fault-laden (dead links and dead routers), and multi-flit.
SURFACE_CONFIGS = {
    "footprint": _base_config(),
    "dor": _base_config(routing="dor", num_vcs=2),
    "dbar-link-faults": _base_config(
        routing="dbar",
        faults=random_link_faults(4, k=2, cycle=30, duration=80, seed=5),
    ),
    "oddeven-router-fault": _base_config(
        routing="oddeven",
        faults=random_router_faults(4, k=1, cycle=25, duration=60, seed=9),
    ),
    "footprint-multiflit": _base_config(
        packet_size=4, packet_size_range=(1, 4)
    ),
}


class TestObservationOnly:
    @pytest.mark.parametrize("name", sorted(SURFACE_CONFIGS))
    @pytest.mark.parametrize("mode", MODES)
    def test_validated_run_is_bit_identical(self, name, mode):
        config = SURFACE_CONFIGS[name]
        plain = Simulator(config, engine_mode=mode).run()
        validated_sim = Simulator(
            config, engine_mode=mode, validation=ValidationConfig()
        )
        validated = validated_sim.run()  # raises on any violation
        assert validated_sim.validator.checks_run > 0
        assert result_signature(validated) == result_signature(plain)

    @pytest.mark.parametrize("mode", MODES)
    def test_validated_telemetry_run(self, mode):
        config = _base_config(
            telemetry=TelemetryConfig(
                sample_every=50, tree_nodes=(5, 10), trace_flits=True
            )
        )
        plain = Simulator(config, engine_mode=mode).run()
        validated = Simulator(
            config, engine_mode=mode, validation=ValidationConfig()
        ).run()
        assert result_signature(validated) == result_signature(plain)
        assert validated.telemetry is not None

    def test_disabled_validation_attaches_no_checker(self):
        sim = Simulator(_base_config())
        assert sim.validator is None
        inactive = ValidationConfig.only()
        assert Simulator(_base_config(), validation=inactive).validator is None


class TestMutationSelfTest:
    def test_every_mutation_is_caught(self):
        outcomes = self_test(seed=0)
        assert sorted(o.mutation for o in outcomes) == sorted(
            MUTATION_CHECKERS
        )
        missed = [o.mutation for o in outcomes if not o.ok]
        assert not missed, f"mutations not caught: {missed}"

    def test_direct_mutation_kill_carries_context(self):
        validation = ValidationConfig.only(
            "flit_conservation", mutate="flit_count", mutate_cycle=30
        )
        with pytest.raises(InvariantViolation) as excinfo:
            Simulator(_base_config(), validation=validation).run()
        assert excinfo.value.checker == "flit_conservation"
        assert excinfo.value.cycle is not None
        assert excinfo.value.cycle >= 30


class TestDifferential:
    def test_random_sweep_is_clean(self):
        report = run_differential(random_configs(3, seed=7), jobs=1)
        assert report.ok
        assert all(e.checks_run > 0 for e in report.entries)
        assert all(e.warm_misses == 0 for e in report.entries)

    def test_pow2_patterns_only_on_pow2_meshes(self):
        for config in random_configs(40, seed=11):
            if config.width == 3:
                assert config.traffic not in ("bitcomp", "bitrev", "shuffle")


class TestEnvPlumbing:
    def test_run_simulation_validates_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        plain_result = Simulator(_base_config()).run()
        result = run_simulation(_base_config())
        assert result_signature(result) == result_signature(plain_result)

    def test_run_simulation_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "not_a_checker")
        with pytest.raises(ConfigurationError):
            run_simulation(_base_config())

    def test_env_mutation_kills_harness_tasks(self, monkeypatch):
        # Proof the env reaches pool workers' engines: a checker subset
        # is honored by run_tasks-driven runs exactly like direct runs.
        monkeypatch.setenv("REPRO_VALIDATE", "flit_conservation,vc_states")
        results = run_tasks([SimTask(_base_config())], jobs=1)
        assert result_signature(results[0]) == result_signature(
            Simulator(_base_config()).run()
        )


    @pytest.mark.parametrize(
        "single_run",
        [
            lambda: run_point(_base_config(), 0.05),
            lambda: fig2_congestion_tree(("dor",)),
        ],
        ids=["run_point", "fig2"],
    )
    def test_a_bad_env_reaches_every_single_run_path(
        self, monkeypatch, single_run
    ):
        """These built their own Simulator and never read the
        variable: a validated sweep's single runs ran unchecked."""
        monkeypatch.setenv("REPRO_VALIDATE", "bogus")
        with pytest.raises(ConfigurationError, match="bogus"):
            single_run()

    def test_the_env_has_one_simulating_reader(self):
        """Everything that simulates goes through run_simulation."""
        import pathlib
        import re

        import repro

        package = pathlib.Path(repro.__file__).parent
        readers = sorted(
            str(path.relative_to(package))
            for path in package.rglob("*.py")
            if re.search(r"(?<!def )validation_from_env\(\)", path.read_text())
        )
        # cli.py reads it for the `validate` report's footer only.
        assert readers == ["cli.py", "harness/runner.py"]


class TestCliSurface:
    def test_validate_subcommand(self, capsys):
        code = cli_main(["validate", "--runs", "2", "--seed", "3", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "2/2 configurations clean (modes skip/legacy + " in out
        assert "vector" not in out

    def test_validate_self_test(self, capsys):
        code = cli_main(["validate", "--self-test"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FIRED" in out and "MISSED" not in out
        assert "6/6 mutations caught" in out

    def test_validate_rejects_zero_runs(self, capsys):
        code = cli_main(["validate", "--runs", "0"])
        assert code == 2
        assert "--runs" in capsys.readouterr().err
