"""Blocking client for the experiment service.

:class:`ServiceClient` opens one TCP connection per call, writes one
JSON line, and reads one JSON line back — the protocol is stateless per
request, so there is no connection lifecycle to manage and the client
is safe to share across threads (each call owns its socket).

:func:`run_tasks_via_service` adapts the client to the harness's
:func:`~repro.harness.parallel.run_tasks` contract: submit the grid as
one job, wait for it, and return full :class:`~repro.sim.results.
SimulationResult` objects in task order.  Setting ``$REPRO_SERVICE`` to
``host:port`` makes ``run_tasks`` itself take this path, which turns
every existing figure driver into a service client with no code
changes.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Iterable

from repro.harness.parallel import SimTask
from repro.service import (
    DEFAULT_PORT,
    SERVICE_ENV,
    ServiceError,
    ServiceUnreachable,
)
from repro.service.jobs import JobSpec
from repro.service.protocol import MAX_LINE, decode, encode
from repro.sim.constants import ENGINE_VERSION
from repro.sim.results import SimulationResult


def parse_address(address: str | None) -> tuple[str, int]:
    """Parse ``host:port`` / ``:port`` / ``port`` (default localhost)."""
    text = (address or "").strip()
    if not text:
        return "127.0.0.1", DEFAULT_PORT
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"malformed service address {address!r} "
            f"(expected host:port)"
        ) from None
    if not (0 < port < 65536):
        raise ServiceError(f"service port out of range: {port}")
    return host, port


class ServiceClient:
    """One experiment-service endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    @classmethod
    def from_address(
        cls, address: str | None = None, timeout: float = 60.0
    ) -> "ServiceClient":
        """Build a client from ``host:port`` (or ``$REPRO_SERVICE``)."""
        if address is None:
            address = os.environ.get(SERVICE_ENV, "")
        host, port = parse_address(address)
        return cls(host, port, timeout=timeout)

    # ------------------------------------------------------------------
    def call(self, verb: str, **payload: Any) -> dict[str, Any]:
        """One request/response round trip; raises on ``ok: false``."""
        request = {"verb": verb, **payload}
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall(encode(request))
                line = self._read_line(sock)
        except OSError as exc:
            raise ServiceUnreachable(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from None
        response = decode(line)
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "service returned an error")
            )
        return response

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks = []
        total = 0
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            if chunk.endswith(b"\n"):
                break
            if total > MAX_LINE:
                raise ServiceError("service response exceeds line limit")
        if not chunks:
            raise ServiceError("service closed the connection mid-request")
        return b"".join(chunks)

    # ------------------------------------------------------------------
    # Verb wrappers
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.call("ping")

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Submit ``spec``; a server on another engine version refuses."""
        return self.call(
            "submit", engine_version=ENGINE_VERSION, **spec.to_dict()
        )

    def submit_tasks(
        self,
        name: str,
        tasks: Iterable[SimTask],
        stream: str = "default",
    ) -> dict[str, Any]:
        spec = JobSpec(name=name, tasks=tuple(tasks), stream=stream)
        return self.submit(spec)

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
            if job["state"] in ("done", "failed", "cancelled"):
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
    tasks: Iterable[SimTask],
    address: str | None = None,
    stream: str | None = None,
    name: str | None = None,
    timeout: float | None = None,
) -> list[SimulationResult]:
    """Run a task grid through the service; drop-in for ``run_tasks``.

    The grid becomes one job labelled ``stream`` (default: this
    process's pid, so ``repro jobs`` tells concurrent drivers apart).
    Blocks until the job finishes; raises
    :class:`ServiceError` if the service is unreachable or the job
    fails.
    """
    task_list = list(tasks)
    if not task_list:
        return []
    client = ServiceClient.from_address(address)
    if stream is None:
        stream = f"pid-{os.getpid()}"
    if name is None:
        name = f"grid-{len(task_list)}"
    submitted = client.submit_tasks(name, task_list, stream=stream)
    job = client.wait(submitted["job_id"], timeout=timeout)
    if job["state"] != "done":
        raise ServiceError(
            f"service job {submitted['job_id']} ended "
            f"{job['state']}: {job.get('error')}"
        )
    return client.results(submitted["job_id"])
