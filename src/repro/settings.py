"""The ``$REPRO_*`` environment variables: one table, one reader.

Each row of :data:`SETTINGS` is a variable's parser, default and
meaning; ``repro list`` prints the rows with their current values.
:func:`raw` is the package's one read of the environment; :func:`read`
calls it every time and keeps nothing.  Empty means unset; a value the
parser rejects is one :class:`~repro.exceptions.ConfigurationError`,
``$NAME='value' is not <what>; expected <...>``.  No ``repro`` import
but the exceptions: the CLI loads this before it knows the verb.
"""

from __future__ import annotations

import os
from typing import Any, Callable, NamedTuple

from repro.exceptions import ConfigurationError

#: The per-cycle invariant checkers, in the order they run
#: (:mod:`repro.validate.config` re-exports them).
CHECKER_NAMES = (
    "flit_conservation", "credit_accounting", "vc_states", "routing_conformance"
)

#: TCP port of ``repro serve``, and of an address that names none.
DEFAULT_PORT = 7455


def _worker_count(text: str) -> int | str:
    if text.lower() == "auto":
        return "auto"
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _scale(text: str) -> str:
    if text.lower() not in ("smoke", "bench", "paper"):
        raise ValueError(text)
    return text.lower()


def parse_address(text: str) -> tuple[str, int]:
    """``host:port``, ``:port`` or ``port`` as ``(host, port)``; the
    host defaults to localhost.  A bad form is a :class:`ValueError`."""
    host, _, port_text = text.rpartition(":")
    if not 0 < int(port_text) < 65536:
        raise ValueError(text)
    return host or "127.0.0.1", int(port_text)


def _checkers(text: str) -> tuple[str, ...] | None:
    if text.lower() in ("0", "off", "false", "no"):
        return None
    if text.lower() in ("1", "on", "true", "yes", "all"):
        return CHECKER_NAMES
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not set(names) <= set(CHECKER_NAMES):
        raise ValueError(text)
    return names


class Setting(NamedTuple):
    parse: Callable[[str], Any]  # raises ValueError on a bad value
    default: str | None  # parsed like a set value; None reads as None
    what: str
    expected: str
    meaning: str


SETTINGS = {
    "REPRO_JOBS": Setting(
        _worker_count, None, "a valid worker count",
        "a positive integer or 'auto'",
        "worker processes when --jobs is not given (unset: 1; "
        "experiment and tune: auto)",
    ),
    "REPRO_SCALE": Setting(
        _scale, "bench", "a valid scale", "one of smoke, bench, paper",
        "cycle counts of the benchmarks/ shape assertions",
    ),
    "REPRO_CACHE_DIR": Setting(
        str, ".repro-cache", "a directory", "a path",
        "result cache directory when --cache-dir is not given",
    ),
    "REPRO_SERVICE": Setting(
        parse_address, None, "a valid service address",
        "host:port, :port or port",
        "`repro serve` address: grids run their cache misses there "
        f"(unset: locally); submit and jobs use it (unset: :{DEFAULT_PORT})",
    ),
    "REPRO_VALIDATE": Setting(
        _checkers, None, "a valid checker list",
        "1/all, 0/off or a comma-separated subset of "
        + ", ".join(CHECKER_NAMES),
        "invariant checkers every simulation runs (unset: none)",
    ),
}


def parse(name: str, text: str, source: str | None = None) -> Any:
    """``text`` as a value of ``$name``; an error names ``source``
    (default ``$name``) as where the value came from."""
    setting, text = SETTINGS[name], text.strip()
    try:
        return setting.parse(text)
    except ValueError:
        raise ConfigurationError(
            f"{source or '$' + name}={text!r} is not {setting.what}; "
            f"expected {setting.expected}"
        ) from None


def raw(name: str) -> str:
    """``$name`` as set, stripped; ``""`` when unset."""
    return os.environ.get(name, "").strip()


def read(name: str) -> Any:
    """``$name``'s current value, parsed; its default when unset."""
    text = raw(name) or SETTINGS[name].default
    return None if text is None else parse(name, text)
