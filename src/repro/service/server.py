"""The asyncio experiment server.

One :class:`ExperimentServer` owns a
:class:`~repro.service.scheduler.ExperimentScheduler` and speaks the
JSON-lines protocol of :mod:`repro.service.protocol` on a localhost TCP
socket.  A connection carries any number of request lines, each
answered independently; :class:`~repro.service.client.ServiceClient`
keeps one open between calls.

Verbs::

    ping     -> {"ok", "version", "uptime_s", "totals"}; "version" is
                the server's ENGINE_VERSION
    submit   -> {"ok", "job_id", "hash", "deduped", "state", "tasks"};
                an "engine_version" other than the server's is an error
    status   -> one job's summary, or all jobs + scheduler totals
    result   -> per-task outcome rows; "full": true adds complete
                SimulationResult payloads (cache-format dicts)
    cancel   -> {"ok", "cancelled", "state"}
    shutdown -> acks, then stops the server loop
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any

from repro.harness.cache import ResultCache
from repro.service import ServiceError
from repro.service.jobs import JobSpec, JobState
from repro.service.protocol import MAX_LINE, decode, encode, error_response
from repro.service.scheduler import ExperimentScheduler
from repro.sim.constants import ENGINE_VERSION


class ExperimentServer:
    """JSON-lines front end over one scheduler."""

    def __init__(
        self,
        scheduler: ExperimentScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.started_at = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and listen; returns the actual port (for ``port=0``)."""
        try:
            self._server = await asyncio.start_server(
                self._on_client, self.host, self.port, limit=MAX_LINE
            )
        except (OSError, OverflowError) as exc:
            raise ServiceError(
                f"cannot listen on {self.host}:{self.port}: {exc}"
            ) from None
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` verb (or :meth:`request_shutdown`)."""
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        await self._stop_listening()
        await self.scheduler.close()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        """Immediate stop for tests: close the socket, drain the pool."""
        self.request_shutdown()
        if self._server is not None:
            await self._stop_listening()
        await self.scheduler.close()

    async def _stop_listening(self) -> None:
        """Stop accepting, then end open client handlers *normally*.

        Clients keep their connection between calls, so handlers are
        parked in ``readline()``.  Closing a connection's transport
        feeds EOF to it, so the handler task finishes instead of being
        cancelled at loop teardown — where asyncio's stream machinery
        would log a spurious ``CancelledError`` for every parked
        connection (its done-callback calls ``task.exception()``
        unconditionally).  The handlers end before ``wait_closed()``,
        which on Python >= 3.12 waits for every open connection; one
        accepted too late to be closed here ends itself, as its handler
        starts after the shutdown was requested (:meth:`_on_client`).
        """
        self._server.close()
        for writer in list(self._writers):
            writer.close()
        current = asyncio.current_task()
        tasks = [t for t in list(self._conn_tasks) if t is not current]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self._server.wait_closed()

    # ------------------------------------------------------------------
    async def _on_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            # Once shutdown is requested a connection is answered no
            # further, so none outlives _stop_listening().
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Over-long line or reset peer: drop the connection.
                    break
                if not line:
                    break
                try:
                    response = self.dispatch(decode(line))
                except ServiceError as exc:  # a malformed line
                    response = error_response(str(exc))
                writer.write(encode(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            # No wait_closed(): the transport flushes and closes on its
            # own, and awaiting it here turns loop teardown (e.g. the
            # shutdown verb) into spurious CancelledError noise.
            writer.close()

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one decoded request (never raises)."""
        verb = request.get("verb")
        handler = getattr(self, f"_verb_{verb}", None)
        if handler is None:
            return error_response(f"unknown verb {verb!r}")
        try:
            return handler(request)
        except ServiceError as exc:
            return error_response(str(exc))
        except Exception as exc:  # a verb bug must not kill the server
            return error_response(f"internal error: {exc!r}")

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _verb_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "version": ENGINE_VERSION,
            "uptime_s": round(time.time() - self.started_at, 3),
            "totals": self.scheduler.totals(),
        }

    def _verb_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        # A server started before a checkout that bumped the engine
        # would answer with the old semantics; a hand-written client
        # that sends no version is taken at its word.
        theirs = request.get("engine_version", ENGINE_VERSION)
        if theirs != ENGINE_VERSION:
            raise ServiceError(
                f"engine version skew: the client simulates with "
                f"ENGINE_VERSION {theirs}, this server with "
                f"{ENGINE_VERSION}; restart `repro serve` from the "
                f"client's checkout"
            )
        spec = JobSpec.from_dict(request)
        job, deduped = self.scheduler.submit(spec)
        return {
            "ok": True,
            "job_id": job.id,
            "hash": spec.spec_hash(),
            "deduped": deduped,
            "state": job.state.value,
            "tasks": len(spec.tasks),
        }

    def _verb_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = request.get("job_id")
        if job_id is not None:
            return {"ok": True, "job": self.scheduler.get_job(job_id).summary()}
        return {
            "ok": True,
            "totals": self.scheduler.totals(),
            "jobs": [job.summary() for job in self.scheduler.jobs()],
        }

    def _verb_result(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self.scheduler.get_job(request.get("job_id", ""))
        response: dict[str, Any] = {
            "ok": True,
            "job_id": job.id,
            "state": job.state.value,
            "ready": job.state is JobState.DONE,
            "error": job.error,
            "points": job.result_points(),
        }
        if request.get("full"):
            # Held in wire form since each landed: nothing to re-encode.
            response["results"] = [
                None if held is None else held.wire for held in job.results
            ]
        return response

    def _verb_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self.scheduler.get_job(request.get("job_id", ""))
        cancelled = job.cancel()
        return {
            "ok": True,
            "job_id": job.id,
            "cancelled": cancelled,
            "state": job.state.value,
        }

    def _verb_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self.request_shutdown()
        return {"ok": True, "stopping": True}


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    state_dir: str | None = None,
    jobs: int | str | None = None,
    cache_dir: str | None = None,
) -> int:
    """Run a server until shutdown; the ``repro serve`` entry point.

    The result cache defaults to a ``cache/`` subdirectory of the state
    dir, so a bare ``repro serve`` gets persistent dedup without
    touching the CLI-facing ``.repro-cache`` store.
    """
    if cache_dir is None:
        cache_dir = str(Path(state_dir or ".repro-service") / "cache")
    scheduler = ExperimentScheduler(jobs=jobs, cache=ResultCache(cache_dir))
    server = ExperimentServer(scheduler, host=host, port=port)
    bound = await server.start()
    print(
        f"repro service listening on {host}:{bound} "
        f"(cache {cache_dir}, workers {scheduler.max_workers})",
        flush=True,
    )
    try:
        await server.serve_until_shutdown()
    finally:
        totals = scheduler.totals()
        print(
            f"repro service stopped: {totals['jobs']} jobs, "
            f"{totals['simulated']} simulated, {totals['cached']} cached, "
            f"{totals['shared']} shared",
            flush=True,
        )
    return 0
