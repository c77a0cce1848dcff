"""The fast (active-set) engine loop must match the legacy loop exactly.

The optimized scheduler skips routers that provably cannot make progress
in a cycle; these tests pin the invariant that doing so never changes a
simulation outcome, down to individual latency samples.
"""

import pytest

from repro.cli import main as cli_main
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


def _signature(result):
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_created,
        result.measured_ejected,
        tuple(result.latency._samples),
        tuple(
            sorted(
                (flow, tuple(stats._samples))
                for flow, stats in result.latency_by_flow.items()
            )
        ),
    )


def _run(mode, **overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        injection_rate=0.1,
        warmup_cycles=60,
        measure_cycles=120,
        drain_cycles=400,
        seed=4,
    )
    base.update(overrides)
    return Simulator(SimulationConfig(**base), engine_mode=mode).run()


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"routing": "dor", "injection_rate": 0.3},
        {"routing": "dbar", "traffic": "transpose"},
        {"routing": "oddeven+xordet", "injection_rate": 0.02},
        {"traffic": "hotspot", "injection_rate": 0.0},
        {"packet_size_range": (1, 4)},
    ],
    ids=["footprint", "dor-high", "dbar-transpose", "oddeven-xordet-low",
         "hotspot", "multiflit"],
)
def test_fast_matches_legacy(overrides):
    assert _signature(_run("skip", **overrides)) == _signature(
        _run("legacy", **overrides)
    )


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Simulator(SimulationConfig(width=4, num_vcs=2), engine_mode="turbo")


def test_removed_fast_mode_rejected():
    """``fast`` was ``skip`` without the idle skip, ``vector`` a numpy
    core and ``auto`` a pick between it and ``skip``; they are gone."""
    for mode in ("fast", "vector", "auto"):
        with pytest.raises(ValueError, match="unknown engine mode"):
            Simulator(SimulationConfig(width=4, num_vcs=2), engine_mode=mode)


def test_default_mode_is_fast():
    sim = Simulator(SimulationConfig(width=4, num_vcs=2))
    assert sim._step_impl == sim._step_fast


_TINY_RUN = ["run", "--width", "4", "--vcs", "4", "--warmup", "20",
             "--measure", "50", "--drain", "200"]


def test_engine_mode_option_is_gone(capsys):
    """There is one engine, so there is nothing to select: the flag is an
    argparse usage error like any other unknown flag."""
    with pytest.raises(SystemExit) as excinfo:
        cli_main([*_TINY_RUN, "--engine-mode", "skip"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine-mode" in capsys.readouterr().err


def test_engine_mode_variable_is_ignored(monkeypatch, capsys):
    """``$REPRO_ENGINE_MODE`` and ``$REPRO_SERVICE_DIR`` are unknown
    variables: no effect, no warning, whatever they hold."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
    monkeypatch.delenv("REPRO_SERVICE_DIR", raising=False)
    assert cli_main(_TINY_RUN) == 0
    unset = capsys.readouterr()
    for name in ("REPRO_ENGINE_MODE", "REPRO_SERVICE_DIR"):
        for value in ("vector", "garbage"):
            monkeypatch.setenv(name, value)
            assert cli_main(_TINY_RUN) == 0
            assert capsys.readouterr() == unset
        monkeypatch.delenv(name)
    assert unset.err == ""

