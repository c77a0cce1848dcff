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

The default cache lives under ``$REPRO_SERVICE_DIR`` (default
``.repro-service/``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.exceptions import ReproError

#: Environment variable naming the service state directory.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Directory used when neither an explicit path nor the env var is set.
DEFAULT_SERVICE_DIR = ".repro-service"

#: Environment variable holding a ``host:port`` service address; when
#: set, :func:`repro.harness.parallel.run_tasks` probes its local cache,
#: then runs the misses on the service and stores what comes back.
SERVICE_ENV = "REPRO_SERVICE"

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 7455


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


def default_state_dir() -> Path:
    """The state directory: ``$REPRO_SERVICE_DIR`` or ``.repro-service``."""
    return Path(
        os.environ.get(SERVICE_DIR_ENV, "").strip() or DEFAULT_SERVICE_DIR
    )


__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_SERVICE_DIR",
    "SERVICE_DIR_ENV",
    "SERVICE_ENV",
    "ServiceError",
    "ServiceUnreachable",
    "default_state_dir",
]
