"""Unit tests for the persistent leaderboard store."""

import pytest

from repro.service.leaderboard import (
    LEADERBOARD_FILE,
    LeaderboardStore,
    result_record,
    scenario_key,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


def _config(routing="footprint", seed=1, **overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing=routing,
        injection_rate=0.05,
        warmup_cycles=10,
        measure_cycles=30,
        drain_cycles=120,
        seed=seed,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture(scope="module")
def results():
    return {
        routing: Simulator(_config(routing=routing)).run()
        for routing in ("footprint", "dor")
    }


class TestScenarioKey:
    def test_routing_is_not_part_of_the_scenario(self):
        assert scenario_key(_config(routing="footprint")) == scenario_key(
            _config(routing="dor")
        )

    def test_other_knobs_are(self):
        base = scenario_key(_config())
        assert scenario_key(_config(seed=2)) != base
        assert scenario_key(_config(injection_rate=0.06)) != base
        assert scenario_key(_config(width=8)) != base

    def test_topology_is_part_of_the_scenario(self):
        """`repro submit --topology torus` once ranked on the mesh board."""
        mesh, torus = _config(), _config(topology="torus")
        assert scenario_key(mesh) != scenario_key(torus)
        assert "torus" in scenario_key(torus)

    def test_hotspot_rates_included(self):
        a = _config(
            traffic="hotspot", hotspot_rate=0.4, background_rate=0.01
        )
        b = _config(
            traffic="hotspot", hotspot_rate=0.5, background_rate=0.01
        )
        assert scenario_key(a) != scenario_key(b)
        assert "hs=0.4" in scenario_key(a)


class TestIngest:
    def test_ingest_results_round_trip(self, tmp_path, results):
        store = LeaderboardStore(tmp_path)
        added = store.ingest_results(results.values(), source="test:one")
        assert added == 2
        records = store.records()
        assert len(records) == 2
        assert {r["routing"] for r in records} == {"footprint", "dor"}
        assert all(r["kind"] == "result" for r in records)
        assert store.sources() == {"test:one"}

    def test_ingest_is_idempotent_per_source(self, tmp_path, results):
        store = LeaderboardStore(tmp_path)
        assert store.ingest_results(results.values(), source="s") == 2
        assert store.ingest_results(results.values(), source="s") == 0
        assert len(store.records()) == 2
        # A distinct source appends its own history.
        assert store.ingest_results(results.values(), source="s2") == 2
        assert len(store.records()) == 4

    def test_corrupt_lines_are_skipped(self, tmp_path, results):
        store = LeaderboardStore(tmp_path)
        store.ingest_results(results.values(), source="s")
        with open(store.path, "a") as handle:
            handle.write("not json\n{\"kind\":\n\n")
        assert len(store.records()) == 2

    def test_missing_store_is_empty(self, tmp_path):
        store = LeaderboardStore(tmp_path / "never-created")
        assert store.records() == []
        assert store.sources() == set()
        assert "empty" in store.render()


class TestStandings:
    def test_a_mesh_and_a_torus_run_land_on_two_boards(self, tmp_path, results):
        store = LeaderboardStore(tmp_path)
        torus = Simulator(_config(topology="torus")).run()
        store.ingest_results([results["footprint"], torus], source="s")
        assert len(store.standings()) == 2

    def test_rank_and_delta(self, tmp_path, results):
        store = LeaderboardStore(tmp_path)
        store.ingest_results(results.values(), source="round1")
        # A second, artificially slower footprint record: the delta
        # column must flag the regression while best-latency keeps the
        # original standing.
        slow = result_record(results["footprint"], source="round2")
        slow["avg_latency"] = slow["avg_latency"] + 5.0
        store.append([slow])

        tables = store.standings()
        (scenario,) = tables
        rows = tables[scenario]
        assert [row["routing"] for row in rows] == sorted(
            (row["routing"] for row in rows),
            key=lambda routing: next(
                r["best_avg_latency"] for r in rows if r["routing"] == routing
            ),
        )
        footprint = next(r for r in rows if r["routing"] == "footprint")
        assert footprint["runs"] == 2
        assert footprint["latest_delta"] == pytest.approx(5.0)
        dor = next(r for r in rows if r["routing"] == "dor")
        assert dor["latest_delta"] is None

    def test_render_lists_scenarios_and_contenders(self, tmp_path, results):
        store = LeaderboardStore(tmp_path)
        store.ingest_results(results.values(), source="s")
        text = store.render()
        assert "scenario:" in text
        assert "footprint" in text
        assert "dor" in text
        assert store.path.name == LEADERBOARD_FILE
