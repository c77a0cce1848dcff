"""Additional CLI coverage: argument plumbing into the configuration."""

import re

import pytest

from repro.cli import main as cli_main


def test_run_with_packet_size_range(capsys):
    code = cli_main(
        [
            "run",
            "--width", "4",
            "--vcs", "4",
            "--routing", "footprint",
            "--packet-size-range", "1", "3",
            "--injection-rate", "0.1",
            "--warmup", "30",
            "--measure", "60",
            "--drain", "500",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1-3f packets" in out


def test_run_hotspot_traffic(capsys):
    code = cli_main(
        [
            "run",
            "--width", "4",
            "--vcs", "4",
            "--traffic", "hotspot",
            "--hotspot-rate", "0.3",
            "--background-rate", "0.2",
            "--warmup", "30",
            "--measure", "60",
            "--drain", "500",
        ]
    )
    assert code == 0
    assert "accepted rate" in capsys.readouterr().out


def test_run_with_footprint_vc_limit(capsys):
    code = cli_main(
        [
            "run",
            "--width", "4",
            "--vcs", "4",
            "--routing", "footprint",
            "--footprint-vc-limit", "2",
            "--injection-rate", "0.1",
            "--warmup", "20",
            "--measure", "40",
            "--drain", "400",
        ]
    )
    assert code == 0


def test_invalid_algorithm_exits_cleanly(capsys):
    """Validation problems exit 2 with one stderr line, not a traceback."""
    code = cli_main(
        [
            "run",
            "--routing", "bogus",
            "--warmup", "1",
            "--measure", "1",
            "--drain", "1",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bogus" in err
    assert "Traceback" not in err


def test_invalid_pattern_exits_cleanly(capsys):
    code = cli_main(
        [
            "run",
            "--traffic", "nonesuch",
            "--warmup", "1",
            "--measure", "1",
            "--drain", "1",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_malformed_fault_spec_exits_cleanly(capsys):
    code = cli_main(
        [
            "run",
            "--width", "4",
            "--vcs", "4",
            "--faults", "link:notanode",
            "--warmup", "1",
            "--measure", "1",
            "--drain", "1",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "fault" in err


def test_invalid_jobs_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["experiment", "fig5", "--jobs", "zero"])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


_JOBS_VERBS = {
    "experiment": ["experiment", "fig9"],
    "tune": ["tune"],
    "validate": ["validate"],
    "serve": ["serve"],
}


@pytest.mark.parametrize(
    "flag, env, expected",
    [
        # Nothing said: the verb's own default (auto = 7 CPUs here).
        (None, None, dict(experiment=7, tune=7, validate=1, serve=1)),
        (None, "3", dict.fromkeys(_JOBS_VERBS, 3)),
        (None, "auto", dict.fromkeys(_JOBS_VERBS, 7)),
        ("2", "3", dict.fromkeys(_JOBS_VERBS, 2)),
        ("1", None, dict.fromkeys(_JOBS_VERBS, 1)),
        ("auto", "3", dict.fromkeys(_JOBS_VERBS, 7)),
        ("2", "many", dict.fromkeys(_JOBS_VERBS, 2)),  # env never read
    ],
    ids=["default", "env", "env-auto", "flag-beats-env", "flag-serial",
         "flag-auto", "flag-hides-bad-env"],
)
@pytest.mark.parametrize("verb", _JOBS_VERBS)
def test_jobs_precedence_flag_env_verb_default(
    monkeypatch, verb, flag, env, expected
):
    """--jobs > $REPRO_JOBS > the verb's default; the handler and
    everything below it get the resolved int."""
    import repro.cli
    from repro.harness import parallel

    seen = []
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 7)
    monkeypatch.setattr(
        repro.cli, f"_cmd_{verb}", lambda args: seen.append(args.jobs) or 0
    )
    if env is None:
        monkeypatch.delenv("REPRO_JOBS", raising=False)
    else:
        monkeypatch.setenv("REPRO_JOBS", env)
    argv = _JOBS_VERBS[verb] + ([] if flag is None else ["--jobs", flag])
    assert cli_main(argv) == 0
    assert seen == [expected[verb]]


@pytest.mark.parametrize("verb", _JOBS_VERBS)
@pytest.mark.parametrize("value", ["many", "0"])
def test_bad_jobs_env_is_one_line_before_anything_runs(
    monkeypatch, capsys, verb, value
):
    import repro.cli

    ran = []
    monkeypatch.setattr(repro.cli, f"_cmd_{verb}", ran.append)
    monkeypatch.setenv("REPRO_JOBS", value)
    assert cli_main(_JOBS_VERBS[verb]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: $REPRO_JOBS={value!r} ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert ran == []


def test_ctrl_c_is_one_line_and_exit_130(monkeypatch, capsys):
    import repro.cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(repro.cli, "_cmd_experiment", interrupted)
    assert cli_main(["experiment", "fig9", "--scale", "smoke"]) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "interrupted\n")


@pytest.mark.parametrize(
    "verb, promise",
    [
        ("experiment", "else 'auto'"),
        ("tune", "else 'auto'"),
        ("validate", "else 1, which skips that phase"),
        ("serve", "else 1"),
    ],
)
def test_each_jobs_help_states_its_own_default(capsys, verb, promise):
    with pytest.raises(SystemExit):
        cli_main([verb, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"default: $REPRO_JOBS, {promise}" in text


def test_figure_stdout_is_identical_for_any_worker_count(
    monkeypatch, capsys, tmp_path
):
    """Default, --jobs 1 and REPRO_JOBS=1 into fresh cache dirs print
    the same bytes, cache line included."""
    outputs = {}
    for name, flags, env in (
        ("default", [], ""),
        ("flag", ["--jobs", "1"], ""),
        ("env", [], "1"),
        ("flag-2", ["--jobs", "2"], ""),
    ):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        monkeypatch.setenv("REPRO_JOBS", env)
        assert cli_main(
            ["experiment", "fig9", "--scale", "smoke", "--cache-dir", "c"]
            + flags
        ) == 0
        outputs[name] = capsys.readouterr().out
        assert len(list((tmp_path / name / "c").glob("*.json"))) == 4
    assert "cache c: 0 hits, 4 misses" in outputs["default"]
    assert len(set(outputs.values())) == 1


def test_run_with_faults(capsys):
    code = cli_main(
        [
            "run",
            "--width", "4",
            "--vcs", "4",
            "--routing", "footprint",
            "--faults", "link:1:east,router:10@50+200",
            "--injection-rate", "0.05",
            "--warmup", "30",
            "--measure", "60",
            "--drain", "500",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "faults        :" in out
    assert "delivered frac:" in out
    assert "2 faults" in out


def test_experiment_fault_sweep_end_to_end(capsys, tmp_path):
    code = cli_main(
        [
            "experiment", "fault-sweep",
            "--scale", "smoke",
            "--fault-counts", "0,1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Fault sweep" in out
    # All nine algorithms appear in the sweep table.
    from repro.routing.registry import available_algorithms

    for algorithm in available_algorithms():
        assert algorithm in out
    assert "cache" in out  # hit/miss summary printed via --cache-dir
    # And the cache directory was actually populated.
    assert list((tmp_path / "cache").glob("*.json"))


def test_experiment_rejects_bad_fault_counts(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(
            ["experiment", "fault-sweep", "--fault-counts", "0,two"]
        )
    assert excinfo.value.code == 2
    assert "--fault-counts" in capsys.readouterr().err


def _fake_cache_entries(directory, count):
    import os

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = directory / f"{i:064x}.json"
        path.write_text("{}")
        os.utime(path, (1000 + i, 1000 + i))
        paths.append(path)
    return paths


def test_cache_stats(capsys, tmp_path):
    directory = tmp_path / "cache"
    _fake_cache_entries(directory, 3)
    code = cli_main(["cache", "stats", "--cache-dir", str(directory)])
    assert code == 0
    out = capsys.readouterr().out
    assert str(directory) in out
    assert "3" in out


def test_cache_clear(capsys, tmp_path):
    directory = tmp_path / "cache"
    _fake_cache_entries(directory, 4)
    code = cli_main(["cache", "clear", "--cache-dir", str(directory)])
    assert code == 0
    assert "removed 4" in capsys.readouterr().out
    assert not list(directory.glob("*.json"))


def test_cache_prune_keeps_newest(capsys, tmp_path):
    directory = tmp_path / "cache"
    paths = _fake_cache_entries(directory, 5)
    code = cli_main(
        ["cache", "prune", "--cache-dir", str(directory), "--max-entries", "2"]
    )
    assert code == 0
    assert "removed 3" in capsys.readouterr().out
    survivors = sorted(directory.glob("*.json"))
    assert survivors == sorted(paths[-2:])


def test_cache_prune_rejects_negative(capsys, tmp_path):
    code = cli_main(
        [
            "cache", "prune",
            "--cache-dir", str(tmp_path / "cache"),
            "--max-entries", "-1",
        ]
    )
    assert code == 2
    assert "max-entries" in capsys.readouterr().err


def test_rectangular_mesh(capsys):
    code = cli_main(
        [
            "run",
            "--width", "4",
            "--height", "2",
            "--vcs", "2",
            "--routing", "dor",
            "--injection-rate", "0.05",
            "--warmup", "20",
            "--measure", "40",
            "--drain", "300",
        ]
    )
    assert code == 0
    assert "4x2" in capsys.readouterr().out


def test_validate_reports_what_the_checkers_cost(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    assert cli_main(["validate", "--runs", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    sweeps = sum(int(n) for n in re.findall(r"\[(\d+) checks\]", out))
    (footer,) = [l for l in out.splitlines() if l.startswith("checkers:")]
    assert footer.startswith(f"checkers: {sweeps} sweeps; skip runs ")
    assert "s checked vs" in footer and "s unchecked" in footer
    # With the environment checking the cache pass too, it says so.
    monkeypatch.setenv("REPRO_VALIDATE", "flit_conservation")
    assert cli_main(["validate", "--runs", "1", "--seed", "3"]) == 0
    assert "checked too: $REPRO_VALIDATE" in capsys.readouterr().out
