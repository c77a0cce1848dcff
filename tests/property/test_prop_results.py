"""Property tests: a result's JSON form reproduces every sample list.

``SimulationResult.to_dict`` writes a flow whose samples equal the
overall samples (same values, same order) as ``None`` and every other
flow packed, as the overall list is; ``from_dict`` must rebuild each list
exactly, order included, whatever the flows and the sample widths look
like.
"""

import json
from array import array

from hypothesis import given, strategies as st

from repro.metrics.stats import LatencyStats, pack_samples, unpack_samples
from repro.router.blocking import BlockingStats
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

#: The largest value of each stored width, and the first past it.
BOUNDARIES = (255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**64 - 1)

# Few distinct values on purpose: repeats make reorderings that look
# equal, and subsets that match the whole.  The width boundaries make a
# list's largest sample land on either side of each typecode's range.
sample_values = st.one_of(st.integers(0, 6), st.sampled_from(BOUNDARIES))
overall_lists = st.lists(sample_values, max_size=30)


@st.composite
def flow_lists(draw, overall):
    """One flow: the overall list, a reordering, a proper subset, or
    empty."""
    kind = draw(st.sampled_from(("equal", "reordered", "subset", "empty")))
    if kind == "equal":
        return list(overall)
    if kind == "reordered":
        return draw(st.permutations(overall))
    if kind == "subset" and overall:
        keep = draw(st.lists(st.booleans(), min_size=len(overall),
                             max_size=len(overall)))
        keep[draw(st.integers(0, len(overall) - 1))] = False
        return [v for v, k in zip(overall, keep) if k]
    return []


@st.composite
def results(draw):
    overall = draw(overall_lists)
    count = draw(st.integers(0, 3))
    flows = {f"flow{i}": draw(flow_lists(overall)) for i in range(count)}
    return _result(overall, flows)


def _result(overall, flows):
    return SimulationResult(
        config=SimulationConfig(width=4, measure_cycles=100),
        cycles_run=400,
        latency=LatencyStats.from_samples(overall),
        latency_by_flow={
            flow: LatencyStats.from_samples(samples)
            for flow, samples in flows.items()
        },
        accepted_flits=len(overall),
        offered_flits=len(overall),
        measured_created=len(overall),
        measured_ejected=len(overall),
        blocking=BlockingStats(),
    )


@given(results())
def test_json_round_trip_reproduces_every_list(result):
    data = result.to_dict()
    rebuilt = SimulationResult.from_dict(json.loads(json.dumps(data)))
    overall = result.latency.samples()
    assert rebuilt.latency.samples() == overall
    assert list(rebuilt.latency_by_flow) == list(result.latency_by_flow)
    for flow, stats in result.latency_by_flow.items():
        samples = stats.samples()
        again = rebuilt.latency_by_flow[flow]
        assert again.samples() == samples
        assert again is not rebuilt.latency
        # Stored once: null for exactly the flows equal to the whole.
        assert (data["latency_by_flow"][flow] is None) == (samples == overall)


@given(st.lists(sample_values, max_size=30))
def test_packed_form_is_exact_and_narrowest(samples):
    text = pack_samples(samples)
    assert text.isascii()
    assert unpack_samples(text) == samples
    code = text[0]
    assert max(samples, default=0) < 1 << 8 * array(code).itemsize
    if code != "B":
        # The next narrower width could not hold the largest sample.
        narrower = "BHIQ"["BHIQ".index(code) - 1]
        assert max(samples) >= 1 << 8 * array(narrower).itemsize


def test_every_width_boundary_round_trips_through_json():
    for top in (0, *BOUNDARIES):
        samples = [top, 0, top]
        result = SimulationResult.from_dict(json.loads(json.dumps(
            _result(samples, {"a": samples, "b": [0]}).to_dict()
        )))
        assert result.latency.samples() == samples
        assert result.latency_by_flow["a"].samples() == samples
        assert result.latency_by_flow["b"].samples() == [0]
