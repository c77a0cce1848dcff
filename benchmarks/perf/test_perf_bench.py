"""Smoke test of the perf benchmark itself.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q

It runs every workload once at ``--smoke`` scale (one round, both
passes, ~1 min) and checks the contract: every metric ``BENCHMARK.json``
names is emitted with its unit and a finite value, the names are well
formed, the trace nests with non-negative self times, the stage times of
a run never sum past the run, and the harness still passes once the
optional engine modes are gone.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_table():
    assert SPEC == workloads.benchmark_json()


def test_names_units_and_limits():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 6) < 3420


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke --trace both`` over every workload."""
    out = tmp_path_factory.mktemp("perf")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "both",
         "--output-dir", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.rstrip("\n").rpartition("\n")[2])
    (document,) = out.glob("PERF_*.json")
    return last, json.loads(document.read_text()), out


def test_every_metric_is_emitted_finite_with_its_unit(smoke):
    last, document, _ = smoke
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    want = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for run in document["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["correct"], run["failures"]
        got = {k: v["unit"] for k, v in run["metrics"].items()}
        assert got == want[run["trace"]], run["workload"]
        for name, metric in run["metrics"].items():
            assert math.isfinite(metric["value"]), (run["workload"], name)
        if run["trace"] == 0:
            for name, metric in run["metrics"].items():
                assert metric["value"] > 0, (run["workload"], name)
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}


def test_spans_nest_and_stage_times_fit_in_the_run(smoke):
    _, document, out = smoke
    for workload in SPEC["workloads"]:
        trace = json.loads(
            (out / f"TRACE_{workload['name']}.json").read_text())
        spans = {span["id"]: span for span in trace["spans"]}
        assert spans, workload["name"]
        for span in spans.values():
            assert span["workload"] == workload["name"]
            assert span["end"] >= span["start"]
            assert span["self_s"] >= -1e-6, span
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
            if span["name"] == "sim.run":
                stage_self = sum(
                    entry[2] for stage, entry in span["hot"].items()
                    if stage != "sim.step")
                assert stage_self <= span["end"] - span["start"] + 1e-6
    stage_names = [f"{prefix}_s" for prefix, _ in workloads.STAGES]
    for run in document["runs"]:
        if run["trace"]:
            value = lambda name: run["metrics"][name]["value"]  # noqa: E731
            stages = sum(value(name) for name in stage_names)
            assert stages <= value("sim.run_s") + 1e-6
            # Named stages + loop self time account for the whole run.
            assert stages + value("sim.loop_self_s") == pytest.approx(
                value("sim.run_s"), rel=1e-6, abs=1e-6)


def test_survives_deletion_of_the_optional_engine_modes(monkeypatch):
    """The measured paths never name a mode, so removing ``vector`` and
    ``legacy`` may only remove their (extra) probes."""
    import child
    from repro.sim import engine

    monkeypatch.setattr(
        engine, "ENGINE_MODES",
        tuple(m for m in engine.ENGINE_MODES if m not in ("vector", "legacy")),
    )
    run = child.run_workload("mesh_saturated", seed=1, seconds=0, trace=True)
    assert run["correct"], run["failures"]
    assert not [k for k in run["extras"] if k.startswith(("sim.vector",
                                                          "sim.legacy"))]
    assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
