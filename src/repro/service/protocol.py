"""JSON-lines framing shared by the service server and client.

Every request and response is one JSON object per ``\\n``-terminated
line, UTF-8 encoded.  Requests carry a ``verb`` field; responses carry
``ok`` (bool) and, on failure, ``error`` (string).  The line limit is
generous because ``result`` responses with ``full=true`` embed complete
:class:`~repro.sim.results.SimulationResult` payloads, latency sample
sets included (each packed: :func:`~repro.metrics.stats.pack_samples`).
"""

from __future__ import annotations

import json
from typing import Any

from repro.service import ServiceError

#: Maximum accepted line length (bytes) on both sides of the socket.
MAX_LINE = 64 * 1024 * 1024


def encode(message: dict[str, Any]) -> bytes:
    """One wire line for ``message`` (compact JSON + newline)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> dict[str, Any]:
    """Parse one wire line; raises :class:`ServiceError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(f"malformed protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"protocol line must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}
