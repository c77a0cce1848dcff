"""Persistent, content-addressed cache of simulation results.

Every simulation in this repository is a pure function of its
:class:`~repro.sim.config.SimulationConfig` (the config carries the seed,
the traffic spec — including trace events — and every knob the engine
reads).  That makes results cacheable across processes and sessions: the
cache key is a SHA-256 over the canonical JSON form of the config plus
the engine's :data:`~repro.sim.constants.ENGINE_VERSION` stamp, so any
change to either yields a different key and stale entries simply stop
being addressed — no explicit invalidation pass is needed.  The engine
*mode* (skip, or the legacy reference loop) is deliberately not part of
the key: the two are bit-identical (``repro validate`` proves it per
sweep), so a result is the same whichever produced it.

Entries are one JSON file per key under the cache directory (an
explicit path, else ``$REPRO_CACHE_DIR``, else ``.repro-cache/``).
Writes go through a temporary file and an atomic :func:`os.replace`, so
concurrent ``--jobs`` workers, parallel experiment runs, and the
experiment service's workers can share a directory without torn entries;
unreadable or corrupt files, and entries that turn out to hold another
config's result, are treated as misses and overwritten.  A hit's stored
config must be the asking config's dict form, JSON value for JSON value
(telemetry aside): exactly the entries whose stored config hashes to the
key.  The result is rebuilt around the asking config.  Writers also
tolerate a ``prune``/``clear`` racing them (the store is retried once if
the directory vanishes mid-write), and ``prune`` sweeps temp files
orphaned by dead writers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro import settings
from repro.sim import constants
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

#: Age beyond which an orphaned ``.*.tmp`` file is fair game for
#: ``prune``: far longer than any single simulation's store, so a live
#: concurrent writer can never lose its in-progress temp file.
STALE_TMP_SECONDS = 3600.0


def config_cache_key(config: SimulationConfig) -> str:
    """Content hash addressing ``config``'s result on disk.

    Stable across processes and interpreter runs: the payload is
    canonical JSON (sorted keys, fixed separators) over the config's
    dict form plus the engine-version stamp.  Two configs differing in
    any field hash differently — except ``telemetry``, which is dropped
    from the payload: telemetry observes a run without changing it (the
    engine bit-identity tests assert this), so configs differing only in
    telemetry address the same simulated result.  Field ordering cannot
    matter because the serializer sorts keys.
    """
    return _config_dict_key(config.to_dict())


def _config_dict_key(config_dict: dict) -> str:
    """:func:`config_cache_key` of a config in its dict form (its
    ``telemetry`` entry is removed, nothing else is touched)."""
    config_dict.pop("telemetry", None)
    payload = {
        "engine_version": constants.ENGINE_VERSION,
        "config": config_dict,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _same_json(a: object, b: object) -> bool:
    """Whether parsed-JSON values ``a`` and ``b`` have the same canonical
    JSON text, as their hashes would: ``==``, except that int, float and
    bool differ, ``0.0`` is not ``-0.0``, and NaN equals NaN."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is dict:
        if a.keys() != b.keys():
            return False
        pairs = zip(a.values(), map(b.__getitem__, a))
    elif kind is list:
        if len(a) != len(b):
            return False
        pairs = zip(a, b)
    elif kind is float:
        return str(a) == str(b)
    else:
        return a == b
    for x, y in pairs:
        kind = type(x)
        if kind is not type(y):
            return False
        # An equal scalar of one type is the same JSON, but for the sign
        # of a float zero; containers and unequal values are looked into.
        if (
            kind is dict or kind is list or x != y or kind is float and not x
        ) and not _same_json(x, y):
            return False
    return True


class ResultCache:
    """On-disk result store with hit/miss accounting.

    ``get``/``put`` round-trip :class:`SimulationResult` through its
    JSON form, so a hit reproduces every observable statistic of the
    original run (full latency sample sets included).
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = settings.read("REPRO_CACHE_DIR")
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(
        self, config: SimulationConfig, key: str | None = None
    ) -> SimulationResult | None:
        """The cached result for ``config``, or ``None`` on a miss;
        ``key`` is its :func:`config_cache_key`, if the caller has it.

        An edited or misfiled entry is a miss: the stored config must
        be ``config.to_dict()`` (:func:`_same_json`, telemetry aside).
        A hit is rebuilt around ``config`` (telemetry off, as stored),
        so no second config is built and nothing is hashed twice.
        """
        asking = config.to_dict()
        del asking["telemetry"]
        if key is None:
            key = _config_dict_key(asking)
        try:
            with open(self._path(key), "rb") as handle:
                data = json.loads(handle.read())
            stored = data["config"]
            stored.pop("telemetry", None)
            hit = _same_json(stored, asking)
            if hit:
                result = SimulationResult.from_dict(
                    data,
                    config=(
                        config
                        if config.telemetry is None
                        else config.with_(telemetry=None)
                    ),
                )
        except Exception:
            # Missing, unreadable or corrupt: a file is outside input,
            # so whatever the check or the rebuild tripped over is a miss.
            hit = False
        if not hit:
            # A subsequent put() overwrites the bad file.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, result: SimulationResult) -> None:
        """Store ``result``, atomically replacing any existing entry.

        Telemetry is stripped from the stored payload: the key ignores
        the telemetry config, so an entry must be exactly the simulated
        outcome any telemetry variant of the config would produce.

        Safe under concurrent writers and a racing ``prune``/``clear``:
        the write lands in a hidden temp file first and is published
        with one atomic :func:`os.replace`, and if the directory (or
        the temp file) vanishes mid-write — a concurrent sweep removed
        it — the store is retried once from ``mkdir`` up.
        """
        import tempfile  # only a writer needs it; a warm replay never does

        key = config_cache_key(result.config)
        payload = result.to_dict()
        payload["telemetry"] = None
        # The stored config is normalized the same way the key is, so a
        # hit never claims a telemetry setting it did not serve.
        payload["config"]["telemetry"] = None
        blob = json.dumps(payload, separators=(",", ":"))
        for attempt in (0, 1):
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                fd, tmp_name = tempfile.mkstemp(
                    dir=self.directory, prefix=f".{key}.", suffix=".tmp"
                )
            except FileNotFoundError:
                # Directory removed between mkdir and mkstemp.
                if attempt:
                    raise
                continue
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(blob)
                os.replace(tmp_name, self._path(key))
                return
            except FileNotFoundError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                if attempt:
                    raise
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line hit/miss summary for experiment reports."""
        return (
            f"cache {self.directory}: {self.hits} hits, "
            f"{self.misses} misses"
        )

    # ------------------------------------------------------------------
    # Store management (the `repro cache` CLI)
    # ------------------------------------------------------------------
    def entry_paths(self) -> list[Path]:
        """Paths of all cache entries, sorted by name (i.e. by key)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.glob("*.json") if p.is_file()
        )

    def stats(self) -> dict[str, object]:
        """Entry count and total size of the on-disk store."""
        entries = self.entry_paths()
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                # Entry vanished mid-scan (concurrent prune/clear).
                pass
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": total_bytes,
        }

    def _sweep_tmp(self, max_age_seconds: float) -> int:
        """Remove orphaned ``.*.tmp`` files older than ``max_age_seconds``.

        A writer that died between ``mkstemp`` and ``os.replace`` leaks
        its temp file; ``prune`` sweeps ones old enough that no live
        writer can still own them, ``clear`` sweeps all.  Vanishing
        files (a racing sweep, or the owning writer publishing) are
        skipped.
        """
        if not self.directory.is_dir():
            return 0
        removed = 0
        now = time.time()
        for path in self.directory.glob(".*.tmp"):
            try:
                if now - path.stat().st_mtime >= max_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry (and temp file); return entries removed."""
        removed = 0
        for path in self.entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._sweep_tmp(0.0)
        return removed

    def prune(self, max_entries: int) -> int:
        """Keep the ``max_entries`` most recently written entries.

        Eviction is oldest-first by modification time (ties broken by
        name for determinism); returns the number of entries removed.
        Also sweeps temp files orphaned by dead writers (older than
        :data:`STALE_TMP_SECONDS`); entries that vanish mid-prune — a
        concurrent ``clear`` or another ``prune`` — are tolerated.
        """
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self._sweep_tmp(STALE_TMP_SECONDS)
        entries = self.entry_paths()
        if len(entries) <= max_entries:
            return 0

        def age_key(path: Path) -> tuple[float, str]:
            try:
                mtime = path.stat().st_mtime
            except OSError:
                mtime = 0.0
            return (mtime, path.name)

        entries.sort(key=age_key)
        removed = 0
        excess = len(entries) - max_entries
        for path in entries[:excess]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
