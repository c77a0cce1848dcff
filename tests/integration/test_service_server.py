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
import threading

import pytest

from repro import cli
from repro.harness.cache import ResultCache, config_cache_key
from repro.harness.parallel import SimTask, run_tasks
from repro.service import ServiceError, ServiceUnreachable
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.protocol import encode
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer
from repro.settings import parse_address
from repro.sim.config import SimulationConfig
from repro.sim.constants import ENGINE_VERSION
from repro.sim.engine import Simulator
from repro.tuner import space
from repro.tuner.objectives import Scenario, rungs
from repro.tuner.runner import TuneResult

# A service client keeps its socket between calls: one left open (or a
# handler left running) fails the test instead of warning at collection.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


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
            with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
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
        with pytest.raises(ValueError):
            parse_address("host:notaport")
        with pytest.raises(ValueError):
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
            # A job id that is not a string is the client's error too.
            for job_id in (["a"], {"a": 1}):
                for verb in ("status", "result", "cancel"):
                    with pytest.raises(ServiceError, match="^malformed"):
                        client.call(verb, job_id=job_id)
            assert client.ping()["totals"]["jobs"] == 0
            return None

        _serve(tmp_path, drive)

    def test_shutdown_verb_stops_serve_loop(self):
        async def main():
            scheduler = ExperimentScheduler(jobs=1)
            server = ExperimentServer(scheduler)
            port = await server.start()
            loop_task = asyncio.ensure_future(server.serve_until_shutdown())
            with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
                ack = await asyncio.to_thread(client.shutdown)
            assert ack["stopping"] is True
            await asyncio.wait_for(loop_task, timeout=30)

        asyncio.run(main())

    def test_a_connection_after_shutdown_is_closed_unanswered(self):
        """A handler that starts once shutdown is requested (accepted
        too late for the server to close it) hangs up by itself, so no
        kept client can hold the server open."""

        async def main():
            server = ExperimentServer(ExperimentScheduler(jobs=1))
            port = await server.start()
            server.request_shutdown()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode({"verb": "ping"}))
            try:
                reply = await asyncio.wait_for(reader.read(), timeout=30)
            except ConnectionResetError:  # hung up with the ping unread
                reply = b""
            finally:
                writer.close()
            await asyncio.wait_for(server.close(), timeout=30)
            return reply

        assert asyncio.run(main()) == b""


class TestServeCommand:
    def test_a_port_it_cannot_listen_on_is_one_error_line(
        self, tmp_path, capsys
    ):
        """In use or out of range: exit 2 and one `error:` line, as
        every other bad CLI input, not a traceback."""
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            for port in (busy.getsockname()[1], 70000):
                argv = ["serve", "--port", str(port)]
                code = cli.main([*argv, "--state-dir", str(tmp_path)])
                out = capsys.readouterr()
                assert (code, out.out) == (2, "")
                assert out.err.startswith(
                    f"error: cannot listen on 127.0.0.1:{port}: "
                )
                assert out.err.count("\n") == 1


class TestHarnessHook:
    def test_run_tasks_routes_through_service(self, tmp_path, monkeypatch):
        """The local cache answers first: with half the grid already
        filed, the one service job holds exactly the other half, and
        what it returns is filed too."""
        tasks = [SimTask(_config(seed=seed)) for seed in (1, 2, 3, 4)]
        run_tasks(tasks[:2], cache=ResultCache(tmp_path / "local"))
        local = ResultCache(tmp_path / "local")

        def drive(client):
            monkeypatch.setenv(
                "REPRO_SERVICE", f"127.0.0.1:{client.port}"
            )
            via_service = run_tasks(tasks, cache=local)
            monkeypatch.delenv("REPRO_SERVICE")
            return via_service

        via_service, scheduler = _serve(tmp_path, drive)
        assert scheduler.totals()["simulated"] == 2
        [job] = scheduler.jobs()
        assert job.summary()["stream"] == f"pid-{os.getpid()}"
        assert job.spec.keys == tuple(
            config_cache_key(t.resolved_config()) for t in tasks[2:]
        )
        assert (local.hits, local.misses) == (2, 2)
        assert len(local.entry_paths()) == 4
        direct = [Simulator(t.resolved_config()).run() for t in tasks]
        for ours, theirs in zip(via_service, direct):
            assert ours.accepted_flits == theirs.accepted_flits
            assert sorted(ours.latency._samples) == sorted(
                theirs.latency._samples
            )

    def test_validated_grid_keeps_its_misses_local(
        self, tmp_path, monkeypatch
    ):
        """The server runs with its own environment, so it cannot run
        the client's $REPRO_VALIDATE checkers: a validated grid
        simulates here, checked, and never submits."""
        tasks = [SimTask(_config(seed=seed)) for seed in (1, 2)]
        local = ResultCache(tmp_path / "local")

        def drive(client):
            monkeypatch.setenv(
                "REPRO_SERVICE", f"127.0.0.1:{client.port}"
            )
            monkeypatch.setenv("REPRO_VALIDATE", "all")
            results = run_tasks(tasks, jobs=1, cache=local)
            monkeypatch.delenv("REPRO_SERVICE")
            monkeypatch.delenv("REPRO_VALIDATE")
            return results

        results, scheduler = _serve(tmp_path, drive)
        assert scheduler.totals()["simulated"] == 0
        assert scheduler.jobs() == []
        assert (local.hits, local.misses) == (0, 2)
        for ours, task in zip(results, tasks):
            theirs = Simulator(task.resolved_config()).run()
            assert ours.latency._samples == theirs.latency._samples

    def test_served_figure_reports_the_local_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        """`repro experiment --cache-dir` under $REPRO_SERVICE prints
        the local cache's own count: every task a miss into an empty
        directory (and filed there), every task a hit on the re-run,
        under the table a local run prints."""
        cache_dir = tmp_path / "local"
        argv = ["experiment", "fig9", "--scale", "smoke", "--jobs", "1"]
        argv += ["--cache-dir", str(cache_dir)]

        def drive(client):
            monkeypatch.setenv(
                "REPRO_SERVICE", f"127.0.0.1:{client.port}"
            )
            outs = []
            for _ in range(2):
                assert cli.main(argv) == 0
                outs.append(capsys.readouterr().out.splitlines())
            monkeypatch.delenv("REPRO_SERVICE")
            return outs

        (cold, warm), scheduler = _serve(tmp_path, drive)
        assert cold[-1] == f"cache {cache_dir}: 0 hits, 4 misses"
        assert warm[-1] == f"cache {cache_dir}: 4 hits, 0 misses"
        assert len(ResultCache(cache_dir).entry_paths()) == 4
        assert len(scheduler.jobs()) == 1
        assert cli.main([*argv[:-1], str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert cold[:-1] == warm[:-1] == plain[:-1]

    def test_tune_round_through_service_counts_every_task(
        self, tmp_path, monkeypatch
    ):
        """A tune round's fresh + hits is its task count when the
        service runs the misses: all fresh cold, all hits warm."""
        scenario = Scenario(_config(), rates=(0.02, 0.08, 0.15))
        full = rungs(scenario.base)[-1]
        default = [space.canonical(space.candidate())]
        cache = ResultCache(tmp_path / "local")

        def drive(client):
            monkeypatch.setenv(
                "REPRO_SERVICE", f"127.0.0.1:{client.port}"
            )
            tune = TuneResult(scenario, seed=1, budget_cycles=None)
            for label in ("cold", "warm"):
                tune.evaluate(default, full, label, 1, cache)
            monkeypatch.delenv("REPRO_SERVICE")
            return tune.rounds

        (cold, warm), _ = _serve(tmp_path, drive)
        for stats in (cold, warm):
            assert stats.fresh_simulations + stats.cache_hits == stats.tasks
        assert cold.fresh_simulations == cold.tasks == 3
        assert warm.cache_hits == warm.tasks


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


def _connections(server):
    """Count the connections ``server`` accepts (patch before start)."""
    accepted = []
    on_client = server._on_client

    async def counting(reader, writer):
        accepted.append(writer)
        await on_client(reader, writer)

    server._on_client = counting
    return accepted


def _scripted(listener, replies, requests):
    """Serve one connection on ``listener``: read a request line, send
    the next reply, and hang up after the last."""
    connection, _ = listener.accept()
    with connection, connection.makefile("rb") as lines:
        for reply in replies:
            requests.append(lines.readline())
            connection.sendall(reply)


def _nothing_pending(listener):
    """True when nobody is waiting to be accepted on ``listener``."""
    listener.setblocking(False)
    try:
        listener.accept()[0].close()
    except BlockingIOError:
        return True
    return False


class TestKeptConnection:
    """One socket per client across calls; a stale one is replaced and
    the request resent once, and only before any reply byte."""

    def test_calls_on_one_client_share_one_connection(self, tmp_path):
        async def main():
            server = ExperimentServer(ExperimentScheduler(jobs=1))
            accepted = _connections(server)
            port = await server.start()

            def drive():
                with ServiceClient("127.0.0.1", port) as client:
                    job = client.submit_tasks("g", [SimTask(_config())])
                    client.wait(job["job_id"], poll_interval=0.01)
                    client.results(job["job_id"])
                    for _ in range(5):
                        client.ping()

            try:
                await asyncio.to_thread(drive)
            finally:
                await server.close()
            return len(accepted)

        assert asyncio.run(main()) == 1

    def test_a_restarted_server_is_reached_by_the_next_call(self):
        async def serve_one(port, client):
            server = ExperimentServer(ExperimentScheduler(jobs=1), port=port)
            accepted = _connections(server)
            port = await server.start()
            try:
                client.port = port
                ping = await asyncio.to_thread(client.ping)
            finally:
                await server.close()
            return port, ping, len(accepted)

        with ServiceClient("127.0.0.1", 1) as client:
            port, first, _ = asyncio.run(serve_one(0, client))
            # The kept socket is now closed by the old server.
            again, second, accepted = asyncio.run(serve_one(port, client))
        assert again == port
        assert first["ok"] and second["ok"]
        assert second["totals"]["jobs"] == 0
        assert accepted == 1

    def test_a_down_server_is_unreachable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        async def ping_then_stop():
            server = ExperimentServer(ExperimentScheduler(jobs=1), port=port)
            await server.start()
            try:
                await asyncio.to_thread(client.ping)
            finally:
                await server.close()

        with ServiceClient("127.0.0.1", port, timeout=5.0) as client:
            # Fresh: nothing listens.
            with pytest.raises(ServiceUnreachable):
                client.ping()
            # Reused: the kept socket is dead and the resend finds no one.
            asyncio.run(ping_then_stop())
            with pytest.raises(ServiceUnreachable):
                client.ping()

    def test_a_port_speaking_http_is_one_service_error(self):
        listener = socket.create_server(("127.0.0.1", 0))
        requests = []
        answer = threading.Thread(target=_scripted, args=(
            listener, [b"HTTP/1.1 400 Bad Request\r\n\r\n"], requests))
        answer.start()
        try:
            with ServiceClient(*listener.getsockname()) as client:
                with pytest.raises(ServiceError) as refused:
                    client.ping()
            answer.join(timeout=10)
            assert type(refused.value) is ServiceError
            assert str(refused.value).startswith("malformed protocol line")
            assert len(requests) == 1
            assert _nothing_pending(listener)
        finally:
            listener.close()

    def test_a_failure_after_a_reply_byte_is_never_resent(self):
        listener = socket.create_server(("127.0.0.1", 0))
        requests = []
        replies = [encode({"ok": True, "n": 1}), b'{"ok":']
        answer = threading.Thread(
            target=_scripted, args=(listener, replies, requests))
        answer.start()
        try:
            with ServiceClient(*listener.getsockname()) as client:
                assert client.ping()["n"] == 1
                with pytest.raises(ServiceError, match="malformed protocol"):
                    client.ping()
            answer.join(timeout=10)
            assert len(requests) == 2
            assert _nothing_pending(listener)
        finally:
            listener.close()

    def test_a_fresh_socket_closed_before_a_reply_is_not_resent(self):
        listener = socket.create_server(("127.0.0.1", 0))
        requests = []
        answer = threading.Thread(
            target=_scripted, args=(listener, [b""], requests))
        answer.start()
        try:
            with ServiceClient(*listener.getsockname()) as client:
                with pytest.raises(ServiceError, match="mid-request"):
                    client.ping()
            answer.join(timeout=10)
            assert len(requests) == 1
            assert _nothing_pending(listener)
        finally:
            listener.close()

    def test_threads_sharing_a_client_each_get_their_own_reply(
        self, tmp_path
    ):
        def drive(client):
            ids = [
                client.submit_tasks(f"g{seed}", [SimTask(_config(seed=seed))])[
                    "job_id"
                ]
                for seed in (1, 2)
            ]
            barrier = threading.Barrier(2)
            mixed = []

            def poll(job_id):
                barrier.wait()
                for _ in range(200):
                    got = client.status(job_id)["job"]["job_id"]
                    if got != job_id:
                        mixed.append((job_id, got))

            threads = [
                threading.Thread(target=poll, args=(i,)) for i in ids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            return mixed

        mixed, _ = _serve(tmp_path, drive)
        assert mixed == []

    def test_run_tasks_via_service_leaves_no_connection_open(self, tmp_path):
        from repro.service.client import run_tasks_via_service

        async def main():
            server = ExperimentServer(ExperimentScheduler(jobs=1))
            accepted = _connections(server)
            port = await server.start()
            try:
                results = await asyncio.to_thread(
                    run_tasks_via_service,
                    [SimTask(_config())],
                    f"127.0.0.1:{port}",
                )
                for _ in range(200):
                    if not server._conn_tasks:
                        break
                    await asyncio.sleep(0.01)
                return len(results), len(accepted), len(server._conn_tasks)
            finally:
                await server.close()

        assert asyncio.run(main()) == (1, 1, 0)
