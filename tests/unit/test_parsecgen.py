"""Unit tests for the synthetic PARSEC-like trace generator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exceptions import TrafficError
from repro.topology.mesh import Mesh2D
from repro.traffic.parsecgen import (
    PARSEC_PROFILES,
    WorkloadProfile,
    generate_parsec_trace,
    home_tiles,
    merge_traces,
)

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def mesh():
    return Mesh2D(8)


class TestProfiles:
    def test_all_fig10_workloads_present(self):
        for name in ("bodytrack", "fluidanimate", "x264", "canneal"):
            assert name in PARSEC_PROFILES

    def test_calibration_ordering(self):
        """Fig. 10's narrative: bodytrack lightest, fluidanimate heaviest."""
        intensities = {
            name: p.intensity * p.memory_phase_fraction
            for name, p in PARSEC_PROFILES.items()
        }
        assert intensities["bodytrack"] == min(intensities.values())
        assert intensities["fluidanimate"] == max(intensities.values())
        skews = {name: p.hotspot_skew for name, p in PARSEC_PROFILES.items()}
        assert skews["bodytrack"] == min(skews.values())
        assert skews["fluidanimate"] == max(skews.values())

    def test_profile_validation(self):
        with pytest.raises(TrafficError):
            WorkloadProfile("x", intensity=0.0, memory_phase_fraction=0.5,
                            burst_length=10, hotspot_skew=0.1)
        with pytest.raises(TrafficError):
            WorkloadProfile("x", intensity=0.5, memory_phase_fraction=0.5,
                            burst_length=0.5, hotspot_skew=0.1)
        with pytest.raises(TrafficError):
            WorkloadProfile("x", intensity=0.5, memory_phase_fraction=0.5,
                            burst_length=10, hotspot_skew=1.0)


class TestHomeTiles:
    def test_homes_on_east_west_edges(self, mesh):
        for tile in home_tiles(mesh):
            x, _ = mesh.coords(tile)
            assert x in (0, mesh.width - 1)

    def test_home_count(self, mesh):
        assert len(home_tiles(mesh)) == 2 * mesh.height


class TestGeneration:
    def test_deterministic(self, mesh):
        a = generate_parsec_trace("x264", mesh, 200, seed=4)
        b = generate_parsec_trace("x264", mesh, 200, seed=4)
        assert a == b

    def test_trace_is_pinned(self, mesh):
        trace = generate_parsec_trace("x264", mesh, 200, seed=4)
        assert len(trace) == 3438
        assert [(e.cycle, e.src, e.dst, e.size) for e in trace[:3]] == [
            (0, 7, 56, 1), (0, 14, 7, 1), (0, 16, 31, 1)]

    def test_same_trace_under_any_hash_seed(self):
        """A trace is the same in every interpreter: the workload name
        must not reach the seed through the salted ``hash(str)``."""
        script = (
            "from repro.topology.mesh import Mesh2D\n"
            "from repro.traffic.parsecgen import generate_parsec_trace\n"
            "print(generate_parsec_trace('x264', Mesh2D(4), 200, seed=4))"
        )
        traces = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": SRC,
                     "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert "TraceEvent" in traces[0]
        assert traces[0] == traces[1]

    def test_seed_changes_trace(self, mesh):
        a = generate_parsec_trace("x264", mesh, 200, seed=4)
        b = generate_parsec_trace("x264", mesh, 200, seed=5)
        assert a != b

    def test_unknown_workload(self, mesh):
        with pytest.raises(TrafficError):
            generate_parsec_trace("doom", mesh, 100)

    def test_events_sorted_and_valid(self, mesh):
        trace = generate_parsec_trace("canneal", mesh, 300, seed=1)
        assert trace
        cycles = [e.cycle for e in trace]
        assert cycles == sorted(cycles)
        for e in trace:
            assert 0 <= e.src < mesh.num_nodes
            assert 0 <= e.dst < mesh.num_nodes
            assert e.src != e.dst

    def test_request_reply_structure(self, mesh):
        trace = generate_parsec_trace("ferret", mesh, 300, seed=1)
        homes = set(home_tiles(mesh))
        requests = [e for e in trace if e.size == 1 and e.dst in homes]
        replies = [e for e in trace if e.size > 1]
        assert requests and replies
        assert all(e.src in homes for e in replies)

    def test_relative_volume_matches_profiles(self, mesh):
        light = generate_parsec_trace("bodytrack", mesh, 500, seed=2)
        heavy = generate_parsec_trace("fluidanimate", mesh, 500, seed=2)
        assert len(heavy) > 1.5 * len(light)

    def test_scale_multiplies_volume(self, mesh):
        base = generate_parsec_trace("x264", mesh, 500, seed=2, scale=1.0)
        half = generate_parsec_trace("x264", mesh, 500, seed=2, scale=0.5)
        assert len(half) < len(base)


class TestMerge:
    def test_merge_preserves_order_and_count(self, mesh):
        a = generate_parsec_trace("x264", mesh, 200, seed=1)
        b = generate_parsec_trace("canneal", mesh, 200, seed=2)
        merged = merge_traces(a, b)
        assert len(merged) == len(a) + len(b)
        cycles = [e.cycle for e in merged]
        assert cycles == sorted(cycles)
