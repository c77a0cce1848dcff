"""Integration tests for the tuner: determinism and cache discipline.

The tuner's central contract is that the *search trajectory* — which
candidates are evaluated, in which rounds, and who survives each
promotion — is a pure function of (scenario, seed, budget).
Worker count and cache temperature may only change wall-clock and the
fresh/hit accounting, never a decision.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.harness.cache import ResultCache
from repro.tuner import TunerError
from repro.sim.config import SimulationConfig
from repro.tuner.objectives import Scenario
from repro.tuner.report import (
    TUNE_SCHEMA,
    load_tune,
    render_tune,
    write_tune_artifact,
)
from repro.tuner.runner import run_tune

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _scenario():
    base = SimulationConfig(
        width=4,
        traffic="uniform",
        warmup_cycles=20,
        measure_cycles=40,
        drain_cycles=120,
    )
    return Scenario(base, rates=(0.02, 0.08, 0.15))


def _tune(cache, jobs):
    return run_tune(
        _scenario(),
        budget_cycles=1_500_000,
        seed=5,
        jobs=jobs,
        cache=cache,
        n0=6,
    )


def _trajectory(result):
    return [
        (r.label, r.rung, r.candidates, r.tasks, r.survivors)
        for r in result.rounds
    ]


def _frontier_keys(result):
    return sorted(e.candidate.key() for e in result.frontier)


# ----------------------------------------------------------------------
# The default search, pinned.  Recorded at commit e520459 (the last one
# with pluggable search strategies) from its default ``refine`` strategy
# — successive halving, then beam refinement — on ``_tune``'s scenario.
# A change that only simplifies the tuner must reproduce it exactly.
# Re-pinned once since, when ``SweepPoint.is_saturated`` began to hold a
# point to 95 % of its offered load: at the probe rung (20-cycle window)
# the lowest rate offers 8 flits and accepts 7, so every probe candidate
# scores 0.0 throughput, and the probe's third survivor, ranked on
# latency and cost alone, is oddeven with 16 VCs (was footprint, 8 VCs,
# threshold 0.25, limit 2).  Later rounds, the frontier, the cycles
# spent and the report (``tune_pinned.report.txt``) did not move.
# ----------------------------------------------------------------------
def _k(threshold, limit, vcs, depth, routing):
    return (
        f"congestion_threshold={threshold}/footprint_vc_limit={limit}/"
        f"num_vcs={vcs}/vc_buffer_depth={depth}/routing={routing}"
    )


PINNED_ROUNDS = [
    ("default", "full", 1, 3, ()),
    (
        "halving-probe", "probe", 6, 18,
        (
            _k(0.5, None, 10, 2, "dor"),
            _k(0.5, 1, 2, 2, "footprint"),
            _k(0.5, None, 16, 2, "oddeven"),
        ),
    ),
    (
        "halving-half", "half", 3, 9,
        (_k(0.5, None, 10, 2, "dor"), _k(0.5, 1, 2, 2, "footprint")),
    ),
    (
        "halving-full", "full", 2, 6,
        (_k(0.5, None, 10, 2, "dor"), _k(0.5, 1, 2, 2, "footprint")),
    ),
    (
        "refine-1", "full", 19, 57,
        (
            _k(0.5, None, 8, 2, "dor"),
            _k(0.5, None, 10, 2, "oddeven"),
            _k(0.5, None, 10, 2, "footprint"),
            _k(0.5, 1, 4, 2, "footprint"),
            _k(0.5, None, 2, 2, "dbar"),
        ),
    ),
    (
        "refine-2", "full", 18, 54,
        (
            _k(0.5, None, 10, 2, "footprint"),
            _k(0.5, None, 2, 2, "dbar"),
            _k(0.5, None, 6, 2, "dor"),
            _k(0.25, None, 10, 2, "footprint"),
            _k(0.75, None, 10, 2, "footprint"),
            _k(0.5, None, 10, 2, "dbar"),
            _k(0.5, None, 4, 2, "footprint"),
            _k(0.5, None, 4, 2, "dbar"),
        ),
    ),
]
PINNED_FRONTIER = sorted(
    [
        _k(0.25, None, 10, 2, "footprint"),
        _k(0.5, None, 10, 2, "dbar"),
        _k(0.5, None, 10, 2, "footprint"),
        _k(0.5, None, 2, 2, "dbar"),
        _k(0.5, None, 4, 2, "dbar"),
        _k(0.5, None, 4, 2, "footprint"),
        _k(0.5, None, 6, 2, "dor"),
        _k(0.75, None, 10, 2, "footprint"),
    ]
)
PINNED_SPENT_CYCLES = 187_056
PINNED_DEFAULT_OBJECTIVES = (8.333333333333334, 0.1828125, 5184.0)


def test_default_search_is_pinned():
    result = _tune(None, jobs=1)
    assert _trajectory(result) == PINNED_ROUNDS
    assert _frontier_keys(result) == PINNED_FRONTIER
    assert result.spent_cycles == PINNED_SPENT_CYCLES
    default = result.default_eval
    assert (
        default.avg_latency,
        default.saturation_throughput,
        default.cost_bits,
    ) == PINNED_DEFAULT_OBJECTIVES


def test_live_report_is_pinned():
    """The report ``repro tune`` prints for ``_tune``'s search, byte
    for byte; only the wall column, masked here, varies by run."""
    result = _tune(None, jobs=1)
    for stats in result.rounds:
        stats.seconds = 0.0
    expected = (FIXTURES / "tune_pinned.report.txt").read_text()
    assert render_tune(result) + "\n" == expected


def test_search_identical_across_worker_counts(tmp_path):
    serial = _tune(ResultCache(tmp_path / "serial"), jobs=1)
    pooled = _tune(ResultCache(tmp_path / "pooled"), jobs=4)
    assert _trajectory(serial) == _trajectory(pooled)
    assert _frontier_keys(serial) == _frontier_keys(pooled)
    assert [e.candidate.key() for e in serial.evals] == [
        e.candidate.key() for e in pooled.evals
    ]
    for a, b in zip(serial.evals, pooled.evals):
        assert a.avg_latency == b.avg_latency
        assert a.saturation_throughput == b.saturation_throughput
        assert a.cost_bits == b.cost_bits
    assert serial.spent_cycles == pooled.spent_cycles


def test_warm_cache_replays_search_with_zero_fresh(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = _tune(ResultCache(cache_dir), jobs=1)
    assert cold.total_fresh_simulations > 0
    warm = _tune(ResultCache(cache_dir), jobs=1)
    assert warm.total_fresh_simulations == 0
    assert all(r.fresh_simulations == 0 for r in warm.rounds)
    assert warm.total_cache_hits == warm.total_tasks
    assert _trajectory(cold) == _trajectory(warm)
    assert _frontier_keys(cold) == _frontier_keys(warm)
    assert cold.spent_cycles == warm.spent_cycles


def test_frontier_is_full_fidelity_and_contains_defaults_competitor(
    tmp_path,
):
    result = _tune(ResultCache(tmp_path / "c"), jobs=1)
    assert result.frontier
    assert all(e.rung == "full" for e in result.frontier)
    assert all(e.rung == "full" for e in result.evals)
    # The budget-exempt default baseline is always a full-fidelity eval.
    default_key = result.default_eval.candidate.key()
    assert default_key in {e.candidate.key() for e in result.evals}
    # Dominators, when present, must strictly beat the default somewhere
    # and never lose anywhere.
    for entry in result.dominators:
        assert entry.avg_latency <= result.default_eval.avg_latency
        assert (
            entry.saturation_throughput
            >= result.default_eval.saturation_throughput
        )
        assert entry.cost_bits <= result.default_eval.cost_bits


def test_budget_trims_work(tmp_path):
    scenario = _scenario()
    small = run_tune(
        scenario,
        budget_cycles=10_000,
        seed=5,
        jobs=1,
        cache=ResultCache(tmp_path / "small"),
        n0=6,
    )
    big = run_tune(
        scenario,
        budget_cycles=1_500_000,
        seed=5,
        jobs=1,
        cache=ResultCache(tmp_path / "big"),
        n0=6,
    )
    assert small.spent_cycles <= 10_000
    assert small.total_tasks < big.total_tasks
    # The default baseline is evaluated even when the budget covers
    # nothing else.
    assert small.default_eval is not None
    assert small.frontier


def _objectives(evaluation):
    return (
        evaluation.avg_latency,
        evaluation.saturation_throughput,
        evaluation.cost_bits,
    )


def test_artifact_roundtrip(tmp_path):
    result = _tune(ResultCache(tmp_path / "c"), jobs=1)
    path = write_tune_artifact(result, tmp_path)
    loaded = load_tune(path)
    assert _frontier_keys(loaded) == _frontier_keys(result)
    assert _trajectory(loaded) == _trajectory(result)
    assert loaded.scenario == result.scenario
    assert loaded.spent_cycles == result.spent_cycles
    assert (
        loaded.default_eval.candidate == result.default_eval.candidate
    )
    assert _objectives(loaded.default_eval) == _objectives(
        result.default_eval
    )
    assert render_tune(loaded) == render_tune(result)
    # The artifact stores evaluations, not result copies: no per-rate
    # points, configs, rungs, space or totals.
    payload = json.loads(path.read_text())
    assert payload["schema"] == TUNE_SCHEMA == "footprint-noc-tune/2"
    assert sorted(payload["tune"]) == [
        "budget_cycles", "default", "dominators", "evals", "frontier",
        "rounds", "scenario", "seed", "spent_cycles",
    ]
    for entry in payload["tune"]["evals"] + [payload["tune"]["default"]]:
        assert sorted(entry) == ["candidate", "objectives", "rung"]


def test_same_second_artifacts_do_not_replace_each_other(
    tmp_path, monkeypatch
):
    from repro.tuner import report

    monkeypatch.setattr(report.time, "strftime", lambda _: "20260101-000000")
    result = load_tune(FIXTURES / "tune_v1.json")
    first = write_tune_artifact(result, tmp_path)
    second = write_tune_artifact(result, tmp_path)
    assert first != second
    assert set(tmp_path.glob("TUNE_*.json")) == {first, second}
    for path in (first, second):
        assert render_tune(load_tune(path)) == render_tune(result)


def test_schema_1_artifact_renders_as_recorded(capsys):
    """A ``footprint-noc-tune/1`` artifact (per-rate points, configs,
    rungs and space included) renders byte for byte as the tuner that
    wrote it rendered it."""
    fixture = FIXTURES / "tune_v1.json"
    expected = (FIXTURES / "tune_v1.report.txt").read_text()
    assert json.loads(fixture.read_text())["schema"] == "footprint-noc-tune/1"
    assert render_tune(load_tune(fixture)) + "\n" == expected
    assert cli_main(["tune", "report", str(fixture)]) == 0
    assert capsys.readouterr().out == expected


def test_seeded_search_is_deterministic(tmp_path):
    scenario = _scenario()
    kwargs = dict(budget_cycles=1_500_000, seed=9, jobs=1, n0=5)
    a = run_tune(scenario, cache=ResultCache(tmp_path / "a"), **kwargs)
    b = run_tune(scenario, cache=ResultCache(tmp_path / "b"), **kwargs)
    assert [e.candidate.key() for e in a.evals] == [
        e.candidate.key() for e in b.evals
    ]


def test_tune_without_cache_runs_fresh(tmp_path):
    result = run_tune(
        _scenario(),
        budget_cycles=400_000,
        seed=2,
        jobs=1,
        cache=None,
        n0=3,
        refine_rounds=1,
    )
    assert result.total_fresh_simulations == result.total_tasks
    assert result.total_cache_hits == 0


@pytest.mark.parametrize(
    "kwargs",
    [dict(budget_cycles=0), dict(n0=0), dict(refine_rounds=0)],
    ids=["budget", "n0", "refine-rounds"],
)
def test_invalid_search_shape_rejected(kwargs):
    with pytest.raises(TunerError):
        run_tune(_scenario(), **kwargs)


class _Captured(Exception):
    """Raised by a stand-in ``run_grid`` once it has seen its grid."""


def _first_grid(monkeypatch, module, call):
    """The ``(configs, rates)`` of the first ``run_grid`` call ``call``
    makes through ``module``; nothing is simulated."""
    seen = []

    def capture(configs, rates, jobs, cache):
        seen.append((configs, rates))
        raise _Captured

    monkeypatch.setattr(module, "run_grid", capture)
    with pytest.raises(_Captured):
        call()
    return seen[0]


def test_hotspot_tune_shares_cache_keys_with_fig9(monkeypatch):
    """The default candidate's full-rung grid of a hotspot tune is
    fig9_hotspot's footprint grid wherever their ladders meet."""
    from repro.harness import experiments
    from repro.harness.cache import config_cache_key
    from repro.tuner import runner

    scale = experiments.BENCH
    assert scale.num_vcs == 10  # the Table 2 default candidate's count
    scenario = Scenario(scale.config(traffic="hotspot", background_rate=0.3))
    tune_configs, tune_rates = _first_grid(
        monkeypatch, runner, lambda: run_tune(scenario, jobs=1)
    )
    fig9_configs, fig9_rates = _first_grid(
        monkeypatch, experiments, lambda: experiments.fig9_hotspot(scale)
    )
    [tuned] = tune_configs.values()
    shared = sorted(set(tune_rates) & set(fig9_rates))
    assert shared == [0.15, 0.3, 0.45]
    for rate in shared:
        assert config_cache_key(tuned.at_load(rate)) == config_cache_key(
            fig9_configs["footprint"].at_load(rate)
        )


# ----------------------------------------------------------------------
# The `repro tune` command line
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--n0", "n0 must be >= 1"),
        ("--refine-rounds", "refine rounds must be >= 1"),
        ("--budget", "budget must be a positive"),
    ],
)
def test_tune_rejects_a_zero_search_shape_in_one_line(
    capsys, flag, message
):
    argv = ["tune", "--no-cache", "--no-artifact", "--jobs", "1", flag, "0"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_tune_rejects_an_out_of_range_ladder_in_one_line(capsys):
    argv = ["tune", "--no-cache", "--no-artifact", "--jobs", "1",
            "--rates", "0.1,7"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: hotspot rate must be in [0, 1]\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--strategy", "--eta", "--beam"])
def test_removed_search_flags_are_usage_errors(capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["tune", "--no-artifact", f"{flag}=2"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}=2" in capsys.readouterr().err


def _directory(tmp_path):
    return tmp_path


def _json_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    return path


def _missing_keys(tmp_path):
    path = tmp_path / "TUNE_partial.json"
    path.write_text(json.dumps({"schema": TUNE_SCHEMA, "tune": {}}))
    return path


def _edited(tmp_path, edit):
    """A schema-/2 artifact of the recorded tune, with ``edit`` applied
    to its ``tune`` object."""
    path = write_tune_artifact(load_tune(FIXTURES / "tune_v1.json"), tmp_path)
    payload = json.loads(path.read_text())
    edit(payload["tune"])
    path.write_text(json.dumps(payload))
    return path


def _empty_evals(tmp_path):
    return _edited(tmp_path, lambda tune: tune.update(evals=[]))


def _null_throughput(tmp_path):
    def edit(tune):
        tune["default"]["objectives"]["saturation_throughput"] = None

    return _edited(tmp_path, edit)


@pytest.mark.parametrize(
    "make, message",
    [
        (_directory, "cannot read"),
        (_json_list, "not a JSON object"),
        (_missing_keys, f"not a complete {TUNE_SCHEMA} artifact"),
        (_empty_evals, f"not a complete {TUNE_SCHEMA} artifact"),
        (_null_throughput, f"not a complete {TUNE_SCHEMA} artifact"),
    ],
    ids=[
        "directory", "not-an-object", "missing-keys", "empty-evals",
        "null-throughput",
    ],
)
def test_tune_report_on_bad_input_is_one_error_line(
    capsys, tmp_path, make, message
):
    path = make(tmp_path)
    assert cli_main(["tune", "report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
