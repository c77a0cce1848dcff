"""Unit tests for the tuner's parameter space layer."""

from repro.sim.config import SimulationConfig
from repro.tuner import space
from repro.tuner.space import Candidate


BASE = SimulationConfig(
    width=4,
    num_vcs=4,
    routing="footprint",
    injection_rate=0.05,
    warmup_cycles=20,
    measure_cycles=40,
    drain_cycles=100,
)


# ----------------------------------------------------------------------
# Candidates
# ----------------------------------------------------------------------
def test_default_candidate_is_table2():
    overrides = dict(space.candidate().items)
    assert overrides["num_vcs"] == 10
    assert overrides["vc_buffer_depth"] == 4
    assert overrides["routing"] == "footprint"
    assert overrides["congestion_threshold"] == 0.5
    assert overrides["footprint_vc_limit"] is None


def test_candidate_defaults_fill():
    candidate = space.candidate(num_vcs=4)
    assert candidate["num_vcs"] == 4
    assert candidate["routing"] == "footprint"
    assert [name for name, _ in candidate.items] == [
        axis.name for axis in space.AXES
    ]


def test_apply_produces_overridden_config():
    candidate = space.candidate(num_vcs=4, routing="dor")
    config = space.apply(BASE, candidate)
    assert config.num_vcs == 4
    assert config.routing == "dor"
    assert config.width == BASE.width


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def test_canonical_resets_unread_knobs():
    raw = space.candidate(
        routing="dor", congestion_threshold=0.75, footprint_vc_limit=2
    )
    canon = space.canonical(raw)
    assert canon["congestion_threshold"] == 0.5
    assert canon["footprint_vc_limit"] is None


def test_canonical_keeps_read_knobs():
    # dbar reads the threshold but not the footprint VC limit.
    raw = space.candidate(
        routing="dbar", congestion_threshold=0.75, footprint_vc_limit=2
    )
    canon = space.canonical(raw)
    assert canon["congestion_threshold"] == 0.75
    assert canon["footprint_vc_limit"] is None
    # footprint reads both.
    raw = space.candidate(
        routing="footprint", congestion_threshold=0.75, footprint_vc_limit=2
    )
    assert space.canonical(raw) == raw


def test_the_default_candidate_is_canonical():
    # run_tune evaluates the all-defaults candidate as built.
    assert space.canonical(space.candidate()) == space.candidate()


def test_reads_names_the_base_algorithm_of_a_suffixed_routing():
    assert space.reads("footprint+xordet", "footprint_vc_limit")
    assert space.reads("dbar", "congestion_threshold")
    assert not space.reads("dbar+xordet", "footprint_vc_limit")
    assert not space.reads("dor", "congestion_threshold")


def test_canonical_collapses_equivalent_candidates():
    variants = {
        space.canonical(
            space.candidate(
                routing="dor",
                congestion_threshold=t,
                footprint_vc_limit=limit,
            )
        )
        for t in (0.25, 0.5, 0.75)
        for limit in (None, 1, 2, 4)
    }
    assert len(variants) == 1


# ----------------------------------------------------------------------
# Sampling / neighbors
# ----------------------------------------------------------------------
def test_sample_deterministic_and_distinct():
    a = space.sample(10, seed=7, base=BASE)
    b = space.sample(10, seed=7, base=BASE)
    assert a == b
    assert len(set(a)) == len(a)
    assert space.sample(10, seed=8, base=BASE) != a


def test_sample_returns_canonical_valid_candidates():
    for candidate in space.sample(20, seed=3, base=BASE):
        assert space.canonical(candidate) == candidate
        assert space.is_valid(BASE, candidate)


def test_neighbors_one_step_no_origin():
    origin = space.canonical(space.candidate())
    moves = space.neighbors(origin, BASE)
    assert origin not in moves
    assert len(set(moves)) == len(moves)
    for moved in moves:
        diffs = [
            name
            for name, value in moved.items
            if origin[name] != value
        ]
        # One visible axis changed; canonicalization may reset the
        # footprint-only knobs alongside a routing change.
        assert 1 <= len(diffs) <= 3
        assert space.is_valid(BASE, moved)


def test_candidate_key_stable():
    candidate = space.candidate(num_vcs=4)
    assert Candidate(candidate.items).key() == candidate.key()
    assert "num_vcs=4" in candidate.key()
