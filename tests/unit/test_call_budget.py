"""What a simulated cycle costs, in Python calls.

On this simulator calls, not opcodes, are the currency (DESIGN §3a): one
``sys.setprofile`` pass over a fixed congested 8x8 hotspot run counts
every call into a ``repro`` frame, and the budgets below sit 5 % over
what was measured when RC/VA became one pass per waiting head.  They go
red when a per-candidate helper, a lambda, a NamedTuple constructor or a
``dor_direction()`` call comes back onto the per-head path (the parent
of that change reads 12.33 calls per head evaluation and 5 845 per
cycle).  Counts repeat exactly: the run is seeded and ``setprofile``
sees every frame.

``PYTHONPATH=src python tests/unit/test_call_budget.py`` prints the
ten most-called functions of the same run (CI prints it for the log).
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.router.router import Router
from repro.routing.requests import VcRequest
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

PACKAGE = str(Path(repro.__file__).resolve().parent)

#: Footprint under endpoint congestion: blocked heads are re-evaluated,
#: both regimes of Algorithm 1 and the footprint tie-break all run.
CONFIG = dict(
    width=8,
    routing="footprint",
    traffic="hotspot",
    hotspot_rate=0.45,
    background_rate=0.3,
    warmup_cycles=50,
    measure_cycles=100,
    drain_cycles=300,
    seed=11,
)

#: The named record shape's constructor (a ``<string>`` frame, outside
#: the package filter): routing emits bare tuples.
RECORD_CONSTRUCTOR = VcRequest.__new__.__code__

#: Measured + 5 %: 7.42 calls inside ``route_and_allocate`` per head
#: evaluation (the allocator and the grants' bookkeeping included),
#: 4 631 calls per stepped cycle.
CALLS_PER_HEAD_EVALUATION = 7.8
CALLS_PER_CYCLE = 4863


def count_calls():
    """``(calls by function, calls under route_and_allocate, head
    evaluations, stepped cycles)`` of one run of :data:`CONFIG`."""
    simulator = Simulator(SimulationConfig(**CONFIG))
    rcva = Router.route_and_allocate.__code__
    evaluate = type(simulator.routing).vc_requests_at.__code__
    step = Simulator.step.__code__
    calls = Counter()
    # [depth inside route_and_allocate, calls made there]
    inside = [0, 0]

    def profiler(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            if code.co_filename.startswith(PACKAGE):
                calls[code] += 1
                if inside[0]:
                    inside[1] += 1
            elif code is RECORD_CONSTRUCTOR:
                calls[code] += 1
            if code is rcva:
                inside[0] += 1
        elif event == "return" and code is rcva:
            inside[0] -= 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        simulator.run()
    finally:
        sys.setprofile(previous)
    return calls, inside[1], calls[evaluate], calls[step]


@pytest.fixture(scope="module")
def counted():
    return count_calls()


def test_calls_per_head_evaluation_within_budget(counted):
    _calls, under_rcva, evaluations, _cycles = counted
    assert evaluations > 10_000  # the run does re-evaluate blocked heads
    assert under_rcva / evaluations <= CALLS_PER_HEAD_EVALUATION


def test_calls_per_simulated_cycle_within_budget(counted):
    calls, _under_rcva, _evaluations, cycles = counted
    assert cycles > 200
    assert sum(calls.values()) / cycles <= CALLS_PER_CYCLE


def test_no_lambda_and_no_record_constructor_on_the_head_path(counted):
    """No routing class calls a lambda, a per-candidate helper or a
    topology method, or builds a NamedTuple, per evaluation."""
    calls, *_ = counted
    assert not calls[RECORD_CONSTRUCTOR]
    names = {code.co_name for code in calls}
    assert not names & {"<lambda>", "_most", "dor_direction"}


if __name__ == "__main__":
    calls, under_rcva, evaluations, cycles = count_calls()
    total = sum(calls.values())
    print(
        f"{total} calls into repro frames over {cycles} stepped cycles "
        f"({total / cycles:.0f} per cycle); {evaluations} head "
        f"evaluations, {under_rcva / evaluations:.2f} calls each"
    )
    for code, count in calls.most_common(10):
        where = code.co_filename[len(PACKAGE) + 1 :]
        print(f"{count:9d}  {where}:{code.co_name}")
