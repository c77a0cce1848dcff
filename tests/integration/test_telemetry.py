"""Integration tests for the telemetry subsystem.

Pins the observation-only contract (telemetry never changes a result, in
any engine mode), cross-mode determinism of the recorded series and
events, the cache/parallel plumbing, the CLI surface, and the paper's
congestion-tree claim measured from the sampled time series.
"""

import pytest

from repro.cli import main as cli_main
from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask, run_tasks
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig

MODES = ("skip", "legacy")


def _signature(result):
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_created,
        result.measured_ejected,
        tuple(result.latency._samples),
    )


def _base_config(**overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        injection_rate=0.2,
        warmup_cycles=50,
        measure_cycles=100,
        drain_cycles=400,
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


FULL_TELEMETRY = TelemetryConfig(
    sample_every=50, tree_nodes=(5, 10), trace_flits=True
)


class TestObservationOnly:
    @pytest.mark.parametrize("mode", MODES)
    def test_results_bit_identical_with_telemetry(self, mode):
        config = _base_config()
        plain = Simulator(config, engine_mode=mode).run()
        observed = Simulator(
            config.with_(telemetry=FULL_TELEMETRY), engine_mode=mode
        ).run()
        assert plain.telemetry is None
        assert observed.telemetry is not None
        assert _signature(plain) == _signature(observed)

    def test_inactive_telemetry_yields_none(self):
        config = _base_config(
            telemetry=TelemetryConfig(sample_every=0)
        )
        assert Simulator(config).run().telemetry is None


class TestCrossModeDeterminism:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # Idle-heavy: low load makes the skip engine jump over
            # quiescent stretches, exercising the synthesized-sample
            # path (TelemetryHub.on_skip).
            {"injection_rate": 0.02, "drain_cycles": 600},
            {"routing": "dor", "traffic": "transpose"},
        ],
    )
    def test_series_and_events_identical_across_modes(self, overrides):
        dicts = []
        for mode in MODES:
            config = _base_config(telemetry=FULL_TELEMETRY, **overrides)
            result = Simulator(config, engine_mode=mode).run()
            dicts.append(result.telemetry.to_dict())
        assert dicts[0] == dicts[1]
        # The series really sampled something.
        assert dicts[0]["sample_cycles"]
        assert dicts[0]["events"]


class TestHarnessPlumbing:
    def test_cache_bypassed_for_telemetry_tasks(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _base_config()
        # Warm the cache with a telemetry-free run of the same config.
        [plain] = run_tasks([SimTask(config)], jobs=1, cache=cache)
        assert cache.get(config) is not None
        # A telemetry task must re-simulate (a hit has no series to give)
        # yet produce the identical result.
        tel_config = config.with_(telemetry=FULL_TELEMETRY)
        [observed] = run_tasks([SimTask(tel_config)], jobs=1, cache=cache)
        assert observed.telemetry is not None
        assert observed.telemetry.sample_cycles
        assert _signature(plain) == _signature(observed)
        # What went back into the cache is stripped of telemetry.
        cached = cache.get(config)
        assert cached is not None and cached.telemetry is None

    def test_pool_ships_telemetry_across_processes(self):
        configs = [
            _base_config(telemetry=FULL_TELEMETRY, seed=seed)
            for seed in (11, 12)
        ]
        tasks = [SimTask(c) for c in configs]
        serial = run_tasks(tasks, jobs=1)
        pooled = run_tasks(tasks, jobs=2)
        for s, p in zip(serial, pooled):
            assert p.telemetry is not None
            assert _signature(s) == _signature(p)
            assert s.telemetry.to_dict() == p.telemetry.to_dict()


_CLI_RUN = [
    "run",
    "--width", "4",
    "--vcs", "4",
    "--routing", "footprint",
    "--traffic", "transpose",
    "--injection-rate", "0.2",
    "--warmup", "30",
    "--measure", "60",
    "--drain", "400",
]


class TestCli:
    def test_run_telemetry_prints_summary(self, capsys):
        code = cli_main(_CLI_RUN + ["--telemetry", "--sample-every", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "(every 25 cycles)" in out
        assert "link util" in out

    def test_run_tree_node_summary(self, capsys):
        code = cli_main(_CLI_RUN + ["--telemetry", "--tree-node", "5"])
        assert code == 0
        assert "tree @ n5" in capsys.readouterr().out

    def test_run_trace_out_writes_both_formats(self, capsys, tmp_path):
        chrome = tmp_path / "run.json"
        jsonl = tmp_path / "run.jsonl"
        assert cli_main(_CLI_RUN + ["--trace-out", str(chrome)]) == 0
        assert cli_main(_CLI_RUN + ["--trace-out", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert '"traceEvents"' in chrome.read_text()
        assert jsonl.read_text().startswith('{"kind"')

    def test_run_progress_reports_to_stderr(self, capsys):
        code = cli_main(_CLI_RUN + ["--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "done: cycle" in err
        assert "measured packets" in err

    def test_trace_summarize_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert cli_main(_CLI_RUN + ["--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events over cycles" in out
        assert "packets        :" in out

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        code = cli_main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The paper's congestion-tree claim, measured from the sampled series
# ----------------------------------------------------------------------
#: The four hotspot destinations of the 8x8 scenario (mesh corners).
_HOTSPOT_TREES = (0, 7, 56, 63)


def _hotspot_tree_stats(routing):
    """Mean branch count / mean thickness of the hotspot congestion
    trees, averaged over the sampled time series."""
    config = SimulationConfig(
        width=8,
        num_vcs=10,
        routing=routing,
        traffic="hotspot",
        hotspot_rate=0.9,
        background_rate=0.3,
        warmup_cycles=50,
        measure_cycles=300,
        drain_cycles=50,
        seed=7,
        telemetry=TelemetryConfig(
            sample_every=50, tree_nodes=_HOTSPOT_TREES
        ),
    )
    telemetry = Simulator(config).run().telemetry
    branches = vcs = 0.0
    for node in _HOTSPOT_TREES:
        tree = telemetry.tree_series(node)
        assert tree["branches"], f"no tree samples for node {node}"
        branches += sum(tree["branches"]) / len(tree["branches"])
        vcs += sum(tree["vcs"]) / len(tree["vcs"])
    return branches, vcs / branches


def test_footprint_regulates_congestion_tree_shape():
    """Fig. 2/4 of the paper, from the sampled tree series.

    Under hotspot traffic the congestion trees rooted at the hotspots
    take characteristic shapes per routing class: deterministic DOR
    piles every flow onto one path per source — few branches, each many
    VCs thick — while fully-adaptive DBAR spreads over every minimal
    path, growing the widest tree.  Footprint regulates adaptiveness,
    so its trees must stay strictly smaller than the fully-adaptive
    ones (fewer branches) while remaining strictly thinner-branched
    than DOR's single-path pile-up.
    """
    dor_branches, dor_thickness = _hotspot_tree_stats("dor")
    dbar_branches, _ = _hotspot_tree_stats("dbar")
    fp_branches, fp_thickness = _hotspot_tree_stats("footprint")

    # Adaptive routings grow more branches than deterministic DOR...
    assert dor_branches < fp_branches
    # ...but footprint's regulation keeps the tree strictly smaller
    # than fully-adaptive DBAR's (the paper's "fewer branches" claim).
    assert fp_branches < dbar_branches
    # And footprint's branches stay strictly thinner than the thick
    # single-path trunks DOR builds into the hotspot.
    assert fp_thickness < dor_thickness
