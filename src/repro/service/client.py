"""Blocking client for the experiment service.

:class:`ServiceClient` keeps one TCP connection and sends each call as
one JSON line on it, reading one JSON line back; the server answers
any number of lines per connection.  A *reused* connection that is
closed or reset before the first byte of its reply (the server
restarted, or dropped it) is replaced and the request resent, once:
``submit`` is deduplicated by content and the other verbs are reads or
idempotent, so a resend is safe.  A failure after a reply byte, or on
a fresh connection, is never resent.  A lock serializes calls, so one
client is safe to share across threads.  ``close()`` (or a ``with``
block) hangs up; the next call would reconnect.

:func:`run_tasks_via_service` submits tasks as one job, waits for it,
and returns full :class:`~repro.sim.results.SimulationResult` objects
in task order.  With ``$REPRO_SERVICE`` set to ``host:port``,
:func:`~repro.harness.parallel.run_tasks` runs a grid's local-cache
misses this way, so every figure driver is a service client with no
code changes.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Iterable

from repro import settings
from repro.harness.parallel import SimTask
from repro.service import ServiceError, ServiceUnreachable
from repro.service.jobs import JobSpec, JobState
from repro.service.protocol import MAX_LINE, decode, encode
from repro.sim.constants import ENGINE_VERSION
from repro.sim.results import SimulationResult


class ServiceClient:
    """One experiment-service endpoint, over one kept connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = settings.DEFAULT_PORT,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    @classmethod
    def from_address(
        cls, address: str | None = None, timeout: float = 60.0
    ) -> "ServiceClient":
        """Build a client from ``host:port``, else ``$REPRO_SERVICE``,
        else ``:7455``."""
        if address is None:
            service = settings.read("REPRO_SERVICE")
        else:
            service = settings.parse("REPRO_SERVICE", address, "address")
        host, port = service or ("127.0.0.1", settings.DEFAULT_PORT)
        return cls(host, port, timeout=timeout)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Hang up the kept connection, if there is one."""
        with self._lock:
            self._hang_up()

    def _hang_up(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # ------------------------------------------------------------------
    def call(self, verb: str, **payload: Any) -> dict[str, Any]:
        """One request/response round trip; raises on ``ok: false``."""
        request = encode({"verb": verb, **payload})
        with self._lock:
            try:
                response = decode(self._exchange(request))
            except BaseException:
                # Whatever is left on the socket belongs to no request.
                self._hang_up()
                raise
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "service returned an error")
            )
        return response

    def _exchange(self, request: bytes) -> bytes:
        """Send one line and read the reply on the kept connection,
        replacing a stale one once (module docstring)."""
        try:
            if self._sock is not None:
                line = self._send(request, reused=True)
                if line is not None:
                    return line
                self._hang_up()
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            return self._send(request, reused=False)
        except OSError as exc:
            raise ServiceUnreachable(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from None

    def _send(self, request: bytes, reused: bool) -> bytes | None:
        """The reply line to ``request``; ``None`` when a reused socket
        hung up before the reply's first byte."""
        chunks = []
        total = 0
        try:
            self._sock.sendall(request)
            while chunk := self._sock.recv(65536):
                chunks.append(chunk)
                total += len(chunk)
                if chunk.endswith(b"\n"):
                    break
                if total > MAX_LINE:
                    raise ServiceError("service response exceeds line limit")
        except ConnectionError:
            if chunks or not reused:
                raise
        if chunks:
            return b"".join(chunks)
        if reused:
            return None
        raise ServiceError("service closed the connection mid-request")

    # ------------------------------------------------------------------
    # Verb wrappers
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.call("ping")

    def submit_tasks(
        self,
        name: str,
        tasks: Iterable[SimTask],
        stream: str = "default",
    ) -> dict[str, Any]:
        """Submit a grid as one job; a server on another engine version
        refuses it."""
        spec = JobSpec(name=name, tasks=tuple(tasks), stream=stream)
        return self.call(
            "submit", engine_version=ENGINE_VERSION, **spec.to_dict()
        )

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        if job_id is None:
            return self.call("status")
        return self.call("status", job_id=job_id)

    def result(self, job_id: str, full: bool = False) -> dict[str, Any]:
        return self.call("result", job_id=job_id, full=full)

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.call("cancel", job_id=job_id)

    def shutdown(self) -> dict[str, Any]:
        return self.call("shutdown")

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        poll_interval: float = 0.05,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Poll until ``job_id`` is terminal; returns its final summary."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.status(job_id)["job"]
            if JobState(job["state"]).terminal:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(state {job['state']})"
                )
            time.sleep(poll_interval)

    def results(self, job_id: str) -> list[SimulationResult]:
        """Full results of a finished job, in task order; a payload that
        does not rebuild is a :class:`ServiceError` naming its task."""
        response = self.result(job_id, full=True)
        if not response["ready"]:
            raise ServiceError(
                f"job {job_id} is not done (state {response['state']}"
                f"{': ' + response['error'] if response['error'] else ''})"
            )
        results = []
        for index, data in enumerate(response["results"]):
            try:
                results.append(SimulationResult.from_dict(data))
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    f"job {job_id} task {index}: malformed result "
                    f"({type(exc).__name__}: {exc})"
                ) from None
        return results


def run_tasks_via_service(
    tasks: list[SimTask], address: str | None = None
) -> list[SimulationResult]:
    """Run tasks (``run_tasks``' cache misses) through the service.

    They become one job on stream ``pid-<this process's pid>``, so
    ``repro jobs`` tells concurrent drivers apart.  Blocks until the job
    finishes; raises :class:`ServiceError` if the service is unreachable
    or the job fails.
    """
    with ServiceClient.from_address(address) as client:
        submitted = client.submit_tasks(
            f"grid-{len(tasks)}", tasks, stream=f"pid-{os.getpid()}"
        )
        job = client.wait(submitted["job_id"])
        if job["state"] != "done":
            raise ServiceError(
                f"service job {submitted['job_id']} ended "
                f"{job['state']}: {job.get('error')}"
            )
        return client.results(submitted["job_id"])
