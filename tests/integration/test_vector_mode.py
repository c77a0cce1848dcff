"""The vector (structure-of-arrays) engine must match ``skip`` exactly.

``engine_mode="vector"`` replays the scalar pipeline as whole-network
array operations; these tests pin the contract that doing so never
changes a simulation outcome — same cycles, same accepted flits, same
individual latency samples — across every routing algorithm and traffic
generator, and that unsupported configurations fall back to ``skip``
loudly (recorded reason) rather than erroring or silently diverging.
"""

import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError
from repro.faults.schedule import random_link_faults
from repro.harness.parallel import SimTask, run_tasks
from repro.harness.runner import run_simulation
from repro.sim.config import SimulationConfig
from repro.sim.engine import (
    ENGINE_MODE_ENV,
    Simulator,
    engine_mode_from_env,
    resolve_auto_mode,
)
from repro.telemetry import TelemetryConfig
from repro.traffic.trace import TraceEvent
from repro.validate.config import ValidationConfig
from repro.validate.differential import result_signature

ALGORITHMS = (
    "dor",
    "oddeven",
    "dbar",
    "dbar-fine",
    "footprint",
    "dor+xordet",
    "oddeven+xordet",
    "dbar+xordet",
    "footprint+xordet",
)


def _config(**overrides):
    base = dict(
        width=4,
        num_vcs=4,
        vc_buffer_depth=4,
        routing="footprint",
        traffic="uniform",
        injection_rate=0.15,
        warmup_cycles=40,
        measure_cycles=80,
        drain_cycles=500,
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _sig(mode, **overrides):
    return result_signature(
        Simulator(_config(**overrides), engine_mode=mode).run()
    )


@pytest.mark.parametrize("routing", ALGORITHMS)
def test_vector_matches_skip_every_algorithm(routing):
    """Multi-flit transpose at moderate load, all nine algorithms."""
    overrides = dict(
        routing=routing,
        traffic="transpose",
        injection_rate=0.25,
        packet_size=3,
    )
    assert _sig("vector", **overrides) == _sig("skip", **overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"traffic": "uniform", "packet_size_range": (1, 4)},
        {
            "traffic": "hotspot",
            "ejection_rate": 0.5,
            "footprint_vc_limit": 2,
        },
        {"traffic": "tornado", "width": 5, "height": 3, "routing": "dbar"},
        {"traffic": "bitrev", "routing": "oddeven+xordet", "num_vcs": 2},
        {"injection_rate": 0.0},
    ],
    ids=["multiflit", "hotspot", "tornado-rect", "bitrev", "zero-load"],
)
def test_vector_matches_skip_traffic_surface(overrides):
    assert _sig("vector", **overrides) == _sig("skip", **overrides)


def test_vector_matches_skip_trace_traffic():
    events = [
        TraceEvent(cycle=c, src=(3 * c) % 16, dst=(5 * c + 7) % 16, size=2)
        for c in range(0, 60, 2)
    ]
    overrides = dict(traffic="trace", trace=events, injection_rate=0.0)
    assert _sig("vector", **overrides) == _sig("skip", **overrides)


def test_vector_is_deterministic():
    assert _sig("vector") == _sig("vector")


def test_supported_config_reports_no_fallback():
    sim = Simulator(_config(), engine_mode="vector")
    assert sim.engine_mode == "vector"
    assert sim.requested_engine_mode == "vector"
    assert sim.vector_fallback is None


class TestFallback:
    """Unsupported configs degrade to skip with a recorded reason."""

    def test_fault_schedule_falls_back(self):
        faults = random_link_faults(4, k=1, cycle=20, duration=60, seed=3)
        config = _config(faults=faults)
        sim = Simulator(config, engine_mode="vector")
        assert sim.engine_mode == "skip"
        assert sim.vector_fallback == "config.faults: active fault schedule"
        # The fallback run is exactly the skip run.
        assert result_signature(sim.run()) == result_signature(
            Simulator(config, engine_mode="skip").run()
        )

    def test_telemetry_falls_back(self):
        sim = Simulator(
            _config(telemetry=TelemetryConfig(sample_every=10)),
            engine_mode="vector",
        )
        assert sim.engine_mode == "skip"
        assert (
            sim.vector_fallback == "config.telemetry: active telemetry/tracing"
        )

    def test_utilization_tracking_falls_back(self):
        sim = Simulator(_config(track_utilization=True), engine_mode="vector")
        assert sim.engine_mode == "skip"
        assert sim.vector_fallback == (
            "config.track_utilization: channel-utilization tracking"
        )

    def test_validation_hooks_fall_back(self):
        sim = Simulator(
            _config(), engine_mode="vector", validation=ValidationConfig()
        )
        assert sim.engine_mode == "skip"
        assert sim.vector_fallback == "validation: invariant validation hooks"

    def test_other_modes_never_record_fallback(self):
        faults = random_link_faults(4, k=1, cycle=20, duration=60, seed=3)
        sim = Simulator(_config(faults=faults), engine_mode="skip")
        assert sim.vector_fallback is None


class TestAutoMode:
    """``auto`` resolves to vector or skip per config, never changing
    results."""

    def test_loaded_config_resolves_to_vector(self):
        # 4x4 @ 0.6 offers 9.6 flits/cycle — above the 8.0 threshold.
        sim = Simulator(_config(injection_rate=0.6), engine_mode="auto")
        assert sim.requested_engine_mode == "auto"
        assert sim.auto_resolved == "vector"
        assert sim.engine_mode == "vector"

    def test_quiescent_config_resolves_to_skip(self):
        sim = Simulator(_config(injection_rate=0.001), engine_mode="auto")
        assert sim.auto_resolved == "skip"
        assert sim.engine_mode == "skip"

    def test_auto_matches_skip_either_side_of_threshold(self):
        for rate in (0.001, 0.6):
            assert _sig("auto", injection_rate=rate) == _sig(
                "skip", injection_rate=rate
            )

    def test_auto_checks_vector_coverage_before_picking(self):
        """A loaded config the vector core cannot run resolves straight
        to ``skip``: nothing fell back, so nothing is recorded."""
        sim = Simulator(
            _config(injection_rate=0.6, track_utilization=True),
            engine_mode="auto",
        )
        assert sim.auto_resolved == "skip"
        assert sim.engine_mode == "skip"
        assert sim.vector_fallback is None
        validated = Simulator(
            _config(injection_rate=0.6),
            engine_mode="auto",
            validation=ValidationConfig(),
        )
        assert validated.auto_resolved == "skip"

    def test_threshold_env_is_ignored(self, monkeypatch):
        """``$REPRO_ENGINE_AUTO_THRESHOLD`` is gone: the threshold is a
        constant, and a leftover value — garbage included — is inert."""
        config = _config(injection_rate=0.6)
        for leftover in ("100", "fast-please"):
            monkeypatch.setenv("REPRO_ENGINE_AUTO_THRESHOLD", leftover)
            assert resolve_auto_mode(config) == "vector"

    def test_concrete_modes_record_no_auto_choice(self):
        assert Simulator(_config(), engine_mode="skip").auto_resolved is None

    def test_env_selects_auto(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "auto")
        assert engine_mode_from_env() == "auto"


class TestEngineModeEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        assert engine_mode_from_env() == "skip"
        assert engine_mode_from_env(default="auto") == "auto"

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "vector")
        assert engine_mode_from_env() == "vector"

    def test_garbage_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "turbo")
        with pytest.raises(ConfigurationError):
            engine_mode_from_env()

    def test_legacy_is_not_selectable_from_the_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "legacy")
        with pytest.raises(ConfigurationError, match="auto, vector, skip"):
            engine_mode_from_env()

    def test_runner_honors_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "vector")
        via_env = run_simulation(_config())
        monkeypatch.delenv(ENGINE_MODE_ENV)
        assert result_signature(via_env) == _sig("skip")

    def test_runner_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "turbo")
        result = run_simulation(_config(), engine_mode="vector")
        assert result_signature(result) == _sig("skip")


class TestParallelPlumbing:
    def test_pooled_vector_matches_serial_skip(self):
        tasks = [SimTask(_config(), rate=r) for r in (0.05, 0.2, 0.3)]
        serial = run_tasks(tasks, jobs=1, engine_mode="skip")
        pooled = run_tasks(tasks, jobs=2, engine_mode="vector")
        assert [result_signature(r) for r in pooled] == [
            result_signature(r) for r in serial
        ]

    def test_pool_workers_inherit_env_mode(self, monkeypatch):
        tasks = [SimTask(_config(), rate=r) for r in (0.05, 0.2)]
        serial = run_tasks(tasks, jobs=1)
        monkeypatch.setenv(ENGINE_MODE_ENV, "vector")
        pooled = run_tasks(tasks, jobs=2)
        assert [result_signature(r) for r in pooled] == [
            result_signature(r) for r in serial
        ]


def test_cli_run_engine_mode_vector(capsys):
    code = cli_main(
        [
            "run",
            "--width",
            "4",
            "--vcs",
            "4",
            "--routing",
            "footprint",
            "--injection-rate",
            "0.1",
            "--warmup",
            "30",
            "--measure",
            "60",
            "--drain",
            "300",
            "--engine-mode",
            "vector",
        ]
    )
    assert code == 0
    assert "accepted" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("mode", ["fast", "legacy"])
def test_cli_rejects_non_user_engine_modes(capsys, mode):
    """``fast`` is gone and ``legacy`` is the test oracle: neither is a
    CLI choice, and the refusal is the usual one-line error."""
    code = cli_main(["run", "--width", "4", "--engine-mode", mode])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: --engine-mode=")
    assert "auto, vector, skip" in line


_TORUS_RUN = [
    "run", "--width", "4", "--vcs", "4", "--topology", "torus",
    "--routing", "dor", "--injection-rate", "0.3",
    "--warmup", "20", "--measure", "40", "--drain", "300",
]


@pytest.mark.parametrize(
    "engine_args, warned",
    [(["--engine-mode", "vector"], True), (["--engine-mode", "auto"], False),
     ([], False)],
    ids=["vector", "auto", "default"],
)
def test_only_an_explicit_vector_request_warns_about_falling_back(
    engine_args, warned
):
    """In a real process (no logging configured, as for every CLI run and
    pool worker) the fallback notice must reach stderr — once, naming the
    config field — and only when the user asked for ``vector`` by name."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run(
        [sys.executable, "-m", "repro", *_TORUS_RUN, *engine_args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "drained       : yes" in done.stdout
    lines = done.stderr.splitlines()
    if warned:
        (line,) = lines
        assert "config.topology" in line and "skip" in line
    else:
        assert lines == []
