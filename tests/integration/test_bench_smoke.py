"""Smoke test for the benchmark harness (``run_bench.py --quick``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_RUN_BENCH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "run_bench.py"
)


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", _RUN_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_bench_writes_report(run_bench, tmp_path):
    code = run_bench.main(
        ["--quick", "--no-baseline", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    reports = list(tmp_path.glob("BENCH_*.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())

    assert payload["schema"] == "footprint-noc-bench/10"
    assert payload["quick"] is True

    engine = payload["engine"]
    assert len(engine["matrix"]) == len(run_bench.QUICK_MATRIX)
    for entry in engine["matrix"]:
        assert entry["results_identical"] is True
        assert entry["skip_cycles_per_sec"] > 0
        assert entry["legacy_cycles_per_sec"] > 0
        assert entry["vector_cycles_per_sec"] > 0
        assert entry["vector_speedup"] > 0
    assert engine["summary"]["geomean_speedup"] > 0
    assert engine["summary"]["zero_load_geomean_speedup"] > 0
    assert engine["summary"]["geomean_vector_speedup"] > 0
    assert engine["summary"]["loaded_geomean_vector_speedup"] > 0

    auto = payload["auto"]
    assert auto["activity_threshold"] > 0
    assert {e["anchor"] for e in auto["matrix"]} == {
        "zero_load",
        "saturation",
    }
    for entry in auto["matrix"]:
        assert entry["results_identical"] is True
        assert entry["resolved_mode"] in ("vector", "skip")
        assert entry["auto_speedup"] > 0
        assert entry["auto_cycles_per_sec"] > 0

    torus = payload["torus"]
    assert len(torus["matrix"]) == len(run_bench.QUICK_TORUS_MATRIX)
    for entry in torus["matrix"]:
        assert entry["topology"] == "torus"
        assert entry["results_identical"] is True
        assert entry["drained"] is True
        assert "config.topology" in entry["vector_fallback"]
        assert entry["skip_cycles_per_sec"] > 0
        assert entry["legacy_cycles_per_sec"] > 0
    assert torus["summary"]["all_drained"] is True
    assert torus["summary"]["results_identical"] is True

    assert payload["baseline"] == {"skipped": "--no-baseline"}

    cache = payload["cache"]
    assert cache["warm_misses"] == 0
    assert cache["warm_simulations"] == 0
    assert cache["warm_hits"] == cache["tasks"]
    assert cache["results_identical"] is True

    parallel = payload["parallel"]
    assert parallel["results_identical"] is True
    assert parallel["pool_results_identical"] is True
    assert parallel["tasks"] == len(run_bench.QUICK_PARALLEL_RATES)
    assert parallel["cpu_count"] >= 1
    # On multi-CPU hosts bench_parallel raises if the pool loses to
    # serial; single-CPU hosts record why the assertion was skipped.
    assert (
        parallel["speedup_assertion"] == "passed"
        or parallel["speedup_assertion"].startswith("skipped")
    )

    telemetry = payload["telemetry"]
    assert len(telemetry["matrix"]) == len(run_bench.QUICK_TELEMETRY_MATRIX)
    for entry in telemetry["matrix"]:
        assert entry["results_identical"] is True
        assert entry["off_cycles_per_sec"] > 0
        assert entry["sampling_cycles_per_sec"] > 0
        assert entry["tracing_cycles_per_sec"] > 0
    assert telemetry["overhead_budget"] == run_bench.TELEMETRY_OVERHEAD_BUDGET
    assert telemetry["baseline"] == {"skipped": "--no-baseline"}

    validate = payload["validate"]
    assert len(validate["matrix"]) == len(run_bench.QUICK_VALIDATE_MATRIX)
    for entry in validate["matrix"]:
        assert entry["results_identical"] is True
        assert entry["off_cycles_per_sec"] > 0
        assert entry["checked_cycles_per_sec"] > 0
        assert entry["checks_run"] > 0
    assert validate["overhead_budget"] == run_bench.VALIDATE_OVERHEAD_BUDGET
    assert validate["baseline"] == {"skipped": "--no-baseline"}

    tuner = payload["tuner"]
    assert tuner["frontier_size"] > 0
    assert tuner["full_fidelity_configs"] >= tuner["frontier_size"]
    assert tuner["cold_fresh_simulations"] > 0
    assert tuner["warm_fresh_simulations"] == 0
    assert tuner["warm_cache_hits"] == tuner["tasks"]
    assert tuner["warm_identical"] is True
    assert tuner["spent_cycles"] > 0
