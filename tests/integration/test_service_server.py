"""Client-server integration tests over a localhost socket.

Each test boots a real :class:`ExperimentServer` on an ephemeral port
inside ``asyncio.run`` and drives it with the blocking
:class:`ServiceClient` from a worker thread (``asyncio.to_thread``), so
the event loop stays free to serve while the client polls — the same
topology as a figure driver talking to ``repro serve``.
"""

import asyncio
import os
import socket

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask, run_tasks
from repro.service import ServiceError
from repro.service.client import ServiceClient, parse_address
from repro.service.jobs import JobSpec
from repro.service.protocol import encode
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer
from repro.sim.config import SimulationConfig
from repro.sim.constants import ENGINE_VERSION
from repro.sim.engine import Simulator


def _config(seed=1, rate=0.05, routing="footprint", **overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing=routing,
        injection_rate=rate,
        warmup_cycles=10,
        measure_cycles=30,
        drain_cycles=120,
        seed=seed,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _serve(tmp_path, client_fn):
    """Boot a server, run ``client_fn(client)`` in a thread, shut down."""

    async def main():
        scheduler = ExperimentScheduler(
            jobs=1,
            cache=ResultCache(tmp_path / "cache"),
        )
        server = ExperimentServer(scheduler)
        port = await server.start()
        try:
            client = ServiceClient("127.0.0.1", port, timeout=60.0)
            return await asyncio.to_thread(client_fn, client), scheduler
        finally:
            await server.close()

    return asyncio.run(main())


class TestParseAddress:
    def test_forms(self):
        assert parse_address("example:7000") == ("example", 7000)
        assert parse_address(":7000") == ("127.0.0.1", 7000)
        assert parse_address("7000") == ("127.0.0.1", 7000)

    def test_rejects_garbage(self):
        with pytest.raises(ServiceError):
            parse_address("host:notaport")
        with pytest.raises(ServiceError):
            parse_address("host:70000")


class TestServerRoundTrip:
    def test_submit_wait_results_and_dedup(self, tmp_path):
        def drive(client):
            ping = client.ping()
            assert ping["ok"] is True
            assert ping["version"] == ENGINE_VERSION
            tasks = [SimTask(_config(seed=1)), SimTask(_config(seed=2))]
            first = client.submit_tasks("grid", tasks, stream="s1")
            assert first["deduped"] is False
            summary = client.wait(first["job_id"], timeout=60)
            assert summary["state"] == "done"
            assert summary["counts"]["simulated"] == 2

            # Resubmitting the identical grid — different name and
            # stream — answers from the finished job: same id, zero new
            # simulations.
            again = client.submit_tasks("grid-again", tasks, stream="s2")
            assert again["deduped"] is True
            assert again["job_id"] == first["job_id"]
            totals = client.ping()["totals"]
            assert totals["simulated"] == 2

            results = client.results(first["job_id"])
            return results

        results, _ = _serve(tmp_path, drive)
        # Service results are bit-identical to a local run.
        direct = Simulator(_config(seed=1)).run()
        assert results[0].accepted_flits == direct.accepted_flits
        assert sorted(results[0].latency._samples) == sorted(
            direct.latency._samples
        )

    def test_overlapping_grids_share_work(self, tmp_path):
        def drive(client):
            grid_a = [SimTask(_config(seed=1)), SimTask(_config(seed=2))]
            grid_b = [SimTask(_config(seed=2)), SimTask(_config(seed=3))]
            a = client.submit_tasks("a", grid_a, stream="s1")
            b = client.submit_tasks("b", grid_b, stream="s2")
            done_a = client.wait(a["job_id"], timeout=60)
            done_b = client.wait(b["job_id"], timeout=60)
            assert done_a["state"] == "done"
            assert done_b["state"] == "done"
            totals = client.ping()["totals"]
            # Seed 2 overlaps: three distinct simulations, never four.
            assert totals["simulated"] == 3
            assert totals["shared"] + totals["cached"] == 1
            assert (done_a["stream"], done_b["stream"]) == ("s1", "s2")
            return None

        _serve(tmp_path, drive)

    def test_cancel_and_status(self, tmp_path):
        def drive(client):
            # Heavy enough that the 3-task job cannot finish before the
            # cancel round-trip lands (only completion of *all* tasks
            # would make cancel report False).
            tasks = [
                SimTask(_config(seed=s, measure_cycles=4000))
                for s in (1, 2, 3)
            ]
            job = client.submit_tasks("doomed", tasks, stream="s1")
            cancelled = client.cancel(job["job_id"])
            assert cancelled["cancelled"] is True
            assert cancelled["state"] == "cancelled"
            # Cancelling a terminal job reports False, not an error.
            assert client.cancel(job["job_id"])["cancelled"] is False
            status = client.status(job["job_id"])["job"]
            assert status["state"] == "cancelled"
            listing = client.status()
            assert any(
                j["job_id"] == job["job_id"] for j in listing["jobs"]
            )
            return None

        _serve(tmp_path, drive)

    def test_error_paths(self, tmp_path):
        def drive(client):
            with pytest.raises(ServiceError, match="unknown verb"):
                client.call("frobnicate")
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("j999")
            with pytest.raises(ServiceError, match="no tasks"):
                client.call("submit", name="empty", stream="s", tasks=[])
            # Bad input is the client's error, not an internal one.
            config = _config().to_dict()
            for rate in (-1, 5, float("nan")):
                task = {"config": config, "rate": rate}
                with pytest.raises(ServiceError, match="^malformed job spec"):
                    client.call("submit", name="bad", tasks=[task])
            for labels in ({"name": 5}, {"name": "g", "stream": 5}):
                with pytest.raises(ServiceError, match="non-empty string"):
                    client.call(
                        "submit", tasks=[{"config": config}], **labels
                    )
            assert client.ping()["totals"]["jobs"] == 0
            return None

        _serve(tmp_path, drive)

    def test_shutdown_verb_stops_serve_loop(self):
        async def main():
            scheduler = ExperimentScheduler(jobs=1)
            server = ExperimentServer(scheduler)
            port = await server.start()
            loop_task = asyncio.ensure_future(server.serve_until_shutdown())
            client = ServiceClient("127.0.0.1", port, timeout=30.0)
            ack = await asyncio.to_thread(client.shutdown)
            assert ack["stopping"] is True
            await asyncio.wait_for(loop_task, timeout=30)

        asyncio.run(main())


class TestHarnessHook:
    def test_run_tasks_routes_through_service(self, tmp_path, monkeypatch):
        tasks = [SimTask(_config(seed=1)), SimTask(_config(seed=2))]

        def drive(client):
            monkeypatch.setenv(
                "REPRO_SERVICE", f"127.0.0.1:{client.port}"
            )
            via_service = run_tasks(tasks)
            monkeypatch.delenv("REPRO_SERVICE")
            return via_service

        via_service, scheduler = _serve(tmp_path, drive)
        assert scheduler.totals()["simulated"] == 2
        [job] = scheduler.jobs()
        assert job.summary()["stream"] == f"pid-{os.getpid()}"
        direct = [Simulator(t.resolved_config()).run() for t in tasks]
        for ours, theirs in zip(via_service, direct):
            assert ours.accepted_flits == theirs.accepted_flits
            assert sorted(ours.latency._samples) == sorted(
                theirs.latency._samples
            )


class TestSeams:
    """Infrastructure faults at the socket (DESIGN §9)."""

    def test_an_oversized_request_drops_that_connection_only(
        self, tmp_path, monkeypatch
    ):
        from repro.service import server

        monkeypatch.setattr(server, "MAX_LINE", 1024)

        def drive(client):
            with pytest.raises(ServiceError):
                client.call("submit", name="x" * 4096, stream="s", tasks=[])
            # One refused request, one error; the server is still there.
            assert client.ping()["ok"] is True
            job = client.submit_tasks("small", [SimTask(_config())])
            return client.wait(job["job_id"], timeout=60)["state"]

        state, scheduler = _serve(tmp_path, drive)
        assert state == "done"
        assert scheduler.totals()["jobs"] == 1

    def test_a_client_on_another_engine_version_is_refused_unscheduled(
        self, tmp_path, monkeypatch
    ):
        """A server started before a checkout that bumped the engine
        must not answer the new checkout's grids with the old one."""
        from repro.service import client as client_module

        def drive(client):
            monkeypatch.setattr(
                client_module, "ENGINE_VERSION", ENGINE_VERSION + 1
            )
            with pytest.raises(ServiceError) as refused:
                client.submit_tasks("skewed", [SimTask(_config())])
            # The error names both sides, and nothing was admitted.
            assert f"ENGINE_VERSION {ENGINE_VERSION + 1}" in str(refused.value)
            assert f"server with {ENGINE_VERSION}" in str(refused.value)
            assert client.ping()["totals"]["jobs"] == 0
            monkeypatch.undo()
            job = client.submit_tasks("level", [SimTask(_config())])
            # A hand-written JSON client names no version: accepted.
            bare = JobSpec(name="bare", tasks=(SimTask(_config()),))
            assert client.call("submit", **bare.to_dict())["deduped"] is True
            return client.wait(job["job_id"], timeout=60)["state"]

        state, scheduler = _serve(tmp_path, drive)
        assert state == "done"
        assert scheduler.totals()["jobs"] == 1

    def test_a_client_that_hangs_up_mid_result_costs_nobody_else(
        self, tmp_path, caplog
    ):
        """The response to a `full` result outgrows the socket buffers,
        so the server is still writing it when the peer goes away —
        once before reading anything, once a byte into the response."""
        # One simulation answers forty identical tasks: ~0.8 MB of JSON.
        big = [
            SimTask(_config(rate=0.3, measure_cycles=600, drain_cycles=400))
        ] * 40

        def hang_up(port, request, read):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", port))
            sock.sendall(request)
            if read:
                assert sock.recv(read)
            sock.close()

        def drive(client):
            job = client.submit_tasks("big", big)
            assert client.wait(job["job_id"], timeout=60)["state"] == "done"
            request = encode(
                {"verb": "result", "job_id": job["job_id"], "full": True}
            )
            for read in (0, 1):
                hang_up(client.port, request, read)
                assert client.ping()["ok"] is True
            return client.results(job["job_id"])

        results, scheduler = _serve(tmp_path, drive)
        assert len(results) == 40
        assert scheduler.totals()["simulated"] == 1
        assert [r for r in caplog.records if r.exc_info] == []

    def test_a_listener_that_is_not_a_service_is_an_error_not_a_fallback(
        self, monkeypatch, capsys
    ):
        """$REPRO_SERVICE pointing at, say, an HTTP port: somebody
        answered, so this is a misconfiguration to report — only an
        address nobody listens on falls back to the local pool."""
        import threading

        from repro.cli import main as cli_main

        listener = socket.create_server(("127.0.0.1", 0))

        def answer_once():
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        monkeypatch.setenv("REPRO_SERVICE", f"127.0.0.1:{port}")
        try:
            code = cli_main(
                ["experiment", "fig9", "--scale", "smoke", "--jobs", "1"]
            )
        finally:
            thread.join(timeout=10)
            listener.close()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: malformed protocol line")
        assert captured.err.count("\n") == 1
        assert "falling back" not in captured.err
