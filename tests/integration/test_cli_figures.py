"""Every figure through the command line, and the command line itself.

``repro.harness.FIGURES`` is the one list of figures; the ``experiment``
verb's choices and dispatch are read from it.  Before it, six of the ten
figures had never been run through the CLI by any test or CI step.
"""

import pytest

from repro.cli import _build_parser, main as cli_main
from repro.harness import FIGURES, experiments, reporting
from repro.harness.cache import ResultCache


def _subparsers(parser):
    (action,) = [a for a in parser._actions if hasattr(a, "_name_parser_map")]
    return action.choices


def _surface(parser, prefix=""):
    """{verb: sorted (option strings, default, choices, required)}."""
    verbs = {}
    rows = []
    for action in parser._actions:
        if hasattr(action, "_name_parser_map"):
            for name, sub in action.choices.items():
                verbs.update(_surface(sub, f"{prefix} {name}".strip()))
        elif action.dest != "help":
            rows.append(
                (
                    tuple(action.option_strings) or (action.dest,),
                    action.default,
                    None if action.choices is None else tuple(action.choices),
                    action.required,
                )
            )
    verbs[prefix] = sorted(rows, key=repr)
    return verbs


@pytest.mark.parametrize(
    "figure",
    [
        pytest.param(name, marks=pytest.mark.slow) if name == "fig8" else name
        for name in FIGURES
    ],
)
def test_cli_prints_what_the_driver_and_renderer_produce(
    figure, capsys, tmp_path
):
    argv = ["experiment", figure, "--scale", "smoke", "--jobs", "1"]
    assert cli_main(argv + ["--cache-dir", str(tmp_path)]) == 0
    printed, _, cache_line = capsys.readouterr().out.rstrip("\n").rpartition("\n")
    assert cache_line.startswith("cache ") and " 0 hits, " in cache_line

    # The same call in-process, answered by the cache the CLI filled.
    driver, renderer, takes = FIGURES[figure]
    values = dict(
        scale=experiments.SMOKE,
        seed=1,
        jobs=1,
        cache=ResultCache(tmp_path),
        fault_counts=None,
        fault_kind="link",
    )
    result = getattr(experiments, driver)(**{k: values[k] for k in takes})
    assert printed == getattr(reporting, renderer)(result)
    if "cache" in takes:
        assert values["cache"].misses == 0 < values["cache"].hits


def test_the_parser_reads_its_figures_and_scales_from_their_homes():
    experiment = _subparsers(_build_parser())["experiment"]
    choices = {a.dest: a.choices for a in experiment._actions}
    assert list(choices["figure"]) == list(FIGURES)
    assert list(choices["scale"]) == list(experiments.SCALES)
    for driver, renderer, _ in FIGURES.values():
        assert callable(getattr(experiments, driver))
        assert callable(getattr(reporting, renderer))


@pytest.mark.parametrize(
    "argv",
    [
        ["submit", "--rates", "0.1,fast"],
        ["submit", "--rates", ","],
        ["submit", "--routing", " , "],
        ["tune", "--rates", "0.1;0.2"],
        ["experiment", "fault-sweep", "--fault-counts", "0,two"],
    ],
)
def test_a_malformed_list_is_the_same_argparse_error_everywhere(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected comma-separated " in err
    assert repr(argv[-1]) in err


# Recorded from commit 298b250 with `_surface`; the only edits since are
# removals: `experiment --profile` / `--profile-out` (PR 22), and the
# service's standings verb with its three flags (PR 24).
SURFACE = {
    "": [],
    "cache": [],
    "cache clear": [(("--cache-dir",), None, None, False)],
    "cache prune": [
        (("--cache-dir",), None, None, False),
        (("--max-entries",), None, None, True),
    ],
    "cache stats": [(("--cache-dir",), None, None, False)],
    "experiment": [
        (("--cache", "--no-cache"), False, None, False),
        (("--cache-dir",), None, None, False),
        (("--fault-counts",), None, None, False),
        (("--fault-kind",), "link", ("link", "router"), False),
        (("--jobs",), None, None, False),
        (("--scale",), "bench", ("smoke", "bench", "paper"), False),
        (("--seed",), 1, None, False),
        (
            ("figure",),
            None,
            (
                "fig2",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "table1",
                "cost",
                "fault-sweep",
            ),
            True,
        ),
    ],
    "jobs": [
        (("--address",), None, None, False),
        (("--cancel",), None, None, False),
        (("--job",), None, None, False),
    ],
    "list": [],
    "run": [
        (("--background-rate",), 0.3, None, False),
        (("--buffer-depth",), 4, None, False),
        (("--drain",), 5000, None, False),
        (("--faults",), None, None, False),
        (("--footprint-vc-limit",), None, None, False),
        (("--height",), None, None, False),
        (("--hotspot-rate",), 0.1, None, False),
        (("--injection-rate",), 0.1, None, False),
        (("--measure",), 2000, None, False),
        (("--packet-size",), 1, None, False),
        (("--packet-size-range",), None, None, False),
        (("--progress",), False, None, False),
        (("--routing",), "footprint", None, False),
        (("--sample-every",), None, None, False),
        (("--seed",), 1, None, False),
        (("--telemetry",), False, None, False),
        (("--topology",), "mesh", ("mesh", "torus"), False),
        (("--trace-out",), None, None, False),
        (("--traffic",), "uniform", None, False),
        (("--tree-node",), None, None, False),
        (("--vcs",), 10, None, False),
        (("--warmup",), 1000, None, False),
        (("--width",), 8, None, False),
    ],
    "serve": [
        (("--cache-dir",), None, None, False),
        (("--host",), "127.0.0.1", None, False),
        (("--jobs",), None, None, False),
        (("--port",), None, None, False),
        (("--state-dir",), None, None, False),
    ],
    "submit": [
        (("--address",), None, None, False),
        (("--drain",), 5000, None, False),
        (("--height",), None, None, False),
        (("--measure",), 2000, None, False),
        (("--name",), None, None, False),
        (("--packet-size",), 1, None, False),
        (("--rates",), "0.02,0.05", None, False),
        (("--routing",), "footprint", None, False),
        (("--seed",), 1, None, False),
        (("--stream",), "default", None, False),
        (("--timeout",), None, None, False),
        (("--topology",), "mesh", ("mesh", "torus"), False),
        (("--traffic",), "uniform", None, False),
        (("--vcs",), 10, None, False),
        (("--wait", "--no-wait"), True, None, False),
        (("--warmup",), 1000, None, False),
        (("--weight",), 1.0, None, False),
        (("--width",), 8, None, False),
    ],
    "trace": [],
    "trace summarize": [(("file",), None, None, True)],
    "tune": [
        (("--background-rate",), 0.3, None, False),
        (("--beam",), 4, None, False),
        (("--budget",), None, None, False),
        (("--cache", "--no-cache"), True, None, False),
        (("--cache-dir",), None, None, False),
        (("--eta",), 2, None, False),
        (("--jobs",), None, None, False),
        (("--latency-rate",), None, None, False),
        (("--n0",), 16, None, False),
        (("--no-artifact",), False, None, False),
        (("--out-dir",), ".", None, False),
        (("--rates",), None, None, False),
        (("--refine-rounds",), 2, None, False),
        (("--scale",), "bench", ("smoke", "bench", "paper"), False),
        (("--seed",), 1, None, False),
        (("--strategy",), "refine", ("random", "halving", "refine"), False),
        (("--topology",), "mesh", ("mesh", "torus"), False),
        (("--traffic",), "hotspot", None, False),
        (("--width",), 8, None, False),
    ],
    "tune report": [(("file",), None, None, True)],
    "validate": [
        (("--jobs",), None, None, False),
        (("--no-faults",), False, None, False),
        (("--runs",), 8, None, False),
        (("--seed",), 1, None, False),
        (("--self-test",), False, None, False),
    ],
}


def test_the_command_line_surface_is_the_parents_minus_two_flags():
    assert _surface(_build_parser()) == SURFACE
