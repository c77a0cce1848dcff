"""Unit tests for the service client: the ``submit`` line it writes and
its handling of ``result`` payloads."""

import pytest

from repro.harness.parallel import SimTask
from repro.service import ServiceError
from repro.service.client import ServiceClient
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.validate.differential import result_signature

# A service client keeps its socket between calls: one left open (or a
# handler left running) fails the test instead of warning at collection.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


@pytest.fixture(scope="module")
def payload():
    config = SimulationConfig(
        width=4, num_vcs=4, injection_rate=0.05, warmup_cycles=20,
        measure_cycles=60, drain_cycles=200, seed=2,
    )
    return Simulator(config).run().to_dict()


def _client(monkeypatch, results):
    """A client whose ``result`` verb answers ``results``, no socket."""
    client = ServiceClient("127.0.0.1", 1)

    def call(verb, **request):
        assert (verb, request) == ("result", {"job_id": "j1", "full": True})
        return {"ok": True, "ready": True, "state": "done", "error": None,
                "results": results}

    monkeypatch.setattr(client, "call", call)
    return client


CORRUPTIONS = {
    "packed_samples_cut_short": lambda d: d.update(latency="HAA=="),
    "unknown_typecode": lambda d: d.update(latency="Z" + d["latency"][1:]),
    "float_in_a_list": lambda d: d.update(latency=[1, 2.5]),
    "counter_of_the_wrong_type": lambda d: d.update(cycles_run="many"),
    "missing_field": lambda d: d.pop("blocking"),
}


class TestResults:
    def test_intact_payloads_rebuild_in_task_order(self, monkeypatch, payload):
        results = _client(monkeypatch, [payload, payload]).results("j1")
        assert len(results) == 2
        assert result_signature(results[0]) == result_signature(results[1])

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupted_payload_is_a_service_error_naming_the_task(
        self, monkeypatch, payload, case
    ):
        corrupted = dict(payload)
        CORRUPTIONS[case](corrupted)
        client = _client(monkeypatch, [payload, corrupted])
        with pytest.raises(ServiceError, match=r"job j1 task 1: malformed"):
            client.results("j1")

    def test_missing_result_is_a_service_error(self, monkeypatch, payload):
        with pytest.raises(ServiceError, match=r"job j1 task 0"):
            _client(monkeypatch, [None, payload]).results("j1")


#: The ``submit`` line a client wrote for this grid before
#: :func:`repro.service.jobs.payload` wrote it: clients and servers on
#: either side of that change read each other only while it holds.
SUBMIT_LINE = (
    b'{"verb":"submit","engine_version":4,"name":"pin","stream":"s",'
    b'"tasks":[{"config":{"width":4,"height":4,"num_vcs":4,'
    b'"vc_buffer_depth":4,"routing":"footprint","traffic":"hotspot",'
    b'"injection_rate":0.1,"packet_size":1,"packet_size_range":null,'
    b'"internal_speedup":2,"output_buffer_depth":8,'
    b'"ejection_rate":1.0,"congestion_threshold":0.5,'
    b'"footprint_vc_limit":null,"warmup_cycles":1000,'
    b'"measure_cycles":2000,"drain_cycles":10000,"seed":2,'
    b'"hotspot_rate":0.1,"background_rate":0.3,"trace":null,'
    b'"track_utilization":false,"faults":null,"telemetry":null,'
    b'"topology":"mesh"},"rate":0.25},{"config":{"width":4,"height":4,'
    b'"num_vcs":4,"vc_buffer_depth":4,"routing":"footprint",'
    b'"traffic":"uniform","injection_rate":0.1,"packet_size":1,'
    b'"packet_size_range":[1,3],"internal_speedup":2,'
    b'"output_buffer_depth":8,"ejection_rate":1.0,'
    b'"congestion_threshold":0.5,"footprint_vc_limit":null,'
    b'"warmup_cycles":1000,"measure_cycles":2000,"drain_cycles":10000,'
    b'"seed":1,"hotspot_rate":0.1,"background_rate":0.3,"trace":null,'
    b'"track_utilization":false,"faults":null,"telemetry":null,'
    b'"topology":"mesh"},"rate":null}]}\n'
)


def test_the_submit_line_is_the_one_clients_have_always_sent(monkeypatch):
    """A hotspot task with a rate and a uniform one without."""
    client = ServiceClient("127.0.0.1", 1)
    sent = []

    def exchange(line):
        sent.append(line)
        return b'{"ok":true}\n'

    monkeypatch.setattr(client, "_exchange", exchange)
    client.submit_tasks("pin", [
        SimTask(
            SimulationConfig(width=4, num_vcs=4, traffic="hotspot", seed=2),
            rate=0.25,
        ),
        SimTask(SimulationConfig(width=4, num_vcs=4, packet_size_range=(1, 3))),
    ], stream="s")
    assert sent == [SUBMIT_LINE]
