"""Property tests: a result's JSON form reproduces every sample list.

``SimulationResult.to_dict`` writes a flow whose samples equal the
overall samples (same values, same order) as ``None`` and every other
flow explicitly; ``from_dict`` must rebuild each list exactly, order
included, whatever the flows look like.
"""

import json

from hypothesis import given, strategies as st

from repro.metrics.stats import LatencyStats
from repro.router.blocking import BlockingStats
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

# Few distinct values on purpose: repeats make reorderings that look
# equal, and subsets that match the whole.
overall_lists = st.lists(st.integers(0, 6), max_size=30)


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
