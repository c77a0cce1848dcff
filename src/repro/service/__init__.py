"""Asynchronous experiment job service.

The CLI harness runs every sweep as a foreground process; this package
turns the simulator into a long-running backend.  A :class:`~repro.
service.server.ExperimentServer` accepts *jobs* — named grids of
:class:`~repro.harness.parallel.SimTask`s — from any number of clients
over a JSON-lines socket protocol, runs their tasks first come, first
served on a bounded executor, and dedupes work against both in-flight
jobs and the persistent :class:`~repro.harness.cache.ResultCache`, its
only store.

Layout:

* :mod:`repro.service.jobs` — job model (``JobSpec``/``Job``/
  ``JobState``) and content hashing;
* :mod:`repro.service.scheduler` — the FIFO scheduler and its dedup
  tables;
* :mod:`repro.service.protocol` — JSON-lines framing shared by server
  and client;
* :mod:`repro.service.server` — the asyncio server and verb handlers;
* :mod:`repro.service.client` — a thin blocking client (also where
  :func:`repro.harness.parallel.run_tasks` sends its cache misses
  under ``$REPRO_SERVICE``).
"""

from __future__ import annotations

from repro.exceptions import ReproError


class ServiceError(ReproError):
    """A service request failed (bad spec, unknown job, protocol error)."""


class ServiceUnreachable(ServiceError):
    """No server answered at the address (connect/transport failure).

    Distinct from :class:`ServiceError` so ambient users of
    ``$REPRO_SERVICE`` — :func:`repro.harness.parallel.run_tasks`, once
    its cache has answered — can run the misses on the local pool when
    the shared server is down, while real request failures (bad spec,
    failed job) still propagate.
    """


__all__ = [
    "ServiceError",
    "ServiceUnreachable",
]
