"""Unit tests for the service client's handling of ``result`` payloads."""

import pytest

from repro.service import ServiceError
from repro.service.client import ServiceClient
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.validate.differential import result_signature


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
