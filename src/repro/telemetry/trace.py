"""Flit lifecycle trace export: JSONL and Chrome ``trace_event`` JSON.

Two interchangeable on-disk forms of the events a
:class:`~repro.telemetry.result.TelemetryResult` carries:

* **JSONL** (``.jsonl``) — one self-describing JSON object per line,
  direction fields spelled as names; the grep/jq-friendly form.
* **Chrome trace** (``.json``) — the ``trace_event`` format understood by
  Perfetto / ``chrome://tracing``.  Each packet becomes one async span
  (``b``/``e``) from creation to ejection on the id of its packet, and
  each VC-allocation / switch / link event becomes an instant event on
  the thread-track of its router, so opening the file shows per-router
  activity lanes with packet lifetimes overlaid.  Timestamps are the
  simulated cycle (display unit: 1 µs = 1 cycle).

:func:`summarize_trace` reads either form back (sniffing the format) and
digests it for ``repro trace summarize``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.result import TelemetryResult
from repro.topology.ports import Direction

#: JSONL field layout per event kind (after the shared kind/cycle pair).
JSONL_FIELDS = {
    "gen": ("packet", "src", "dst", "size", "flow"),
    "inject": ("packet", "flit", "node"),
    "va": ("packet", "node", "out_dir", "out_vc", "footprint_hit"),
    "st": ("packet", "flit", "node", "in_dir", "out_dir", "out_vc"),
    "lt": ("packet", "flit", "node", "dir", "vc"),
    "ej": ("packet", "node"),
}

#: The fields that hold Direction ints in an event tuple (names in a
#: record).
DIRECTION_FIELDS = {"out_dir", "in_dir", "dir"}

#: Chrome ``trace_event`` category per event kind.
_CHROME_CATEGORIES = {
    "gen": "packet",
    "ej": "packet",
    "inject": "flit",
    "va": "vc-alloc",
    "st": "flit",
    "lt": "flit",
}


def event_to_record(event: tuple) -> dict[str, Any]:
    """One event tuple as a self-describing JSONL record."""
    kind = event[0]
    record: dict[str, Any] = {"kind": kind, "cycle": event[1]}
    for name, value in zip(JSONL_FIELDS[kind], event[2:]):
        if name in DIRECTION_FIELDS:
            value = Direction(value).name
        elif name == "footprint_hit":
            value = bool(value)
        record[name] = value
    return record


def write_jsonl(telemetry: TelemetryResult, path: str | Path) -> int:
    """Write the trace as JSON Lines; returns the event count."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for event in telemetry.events:
            fh.write(json.dumps(event_to_record(event)) + "\n")
    return len(telemetry.events)


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def _chrome_event(event: tuple) -> dict[str, Any]:
    """One event tuple as a Chrome ``trace_event`` dict, built from its
    JSONL record: a packet's ``gen``/``ej`` open and close its async
    span, every other kind is an instant on its router's track."""
    record = event_to_record(event)
    kind, cycle = record.pop("kind"), record.pop("cycle")
    category = _CHROME_CATEGORIES[kind]
    if kind in ("gen", "ej"):
        packet = record.pop("packet")
        span = {
            "name": f"pkt {packet}",
            "cat": category,
            "ph": "b" if kind == "gen" else "e",
            "id": packet,
            "pid": 0,
            "tid": record["src"] if kind == "gen" else record["node"],
            "ts": cycle,
        }
        if kind == "gen":
            span["args"] = record
        return span
    node = record.pop("node")
    return {
        "name": kind,
        "cat": category,
        "ph": "i",
        "s": "t",
        "pid": 0,
        "tid": node,
        "ts": cycle,
        "args": record,
    }


def chrome_trace_events(telemetry: TelemetryResult) -> list[dict[str, Any]]:
    """The trace as a list of Chrome ``trace_event`` dicts."""
    metadata = {
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": "footprint-noc"},
    }
    return [metadata, *map(_chrome_event, telemetry.events)]


def write_chrome_trace(telemetry: TelemetryResult, path: str | Path) -> int:
    """Write the trace as Chrome ``trace_event`` JSON; returns the
    ``trace_event`` count (excluding metadata)."""
    path = Path(path)
    events = chrome_trace_events(telemetry)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return len(events) - 1


def write_trace(telemetry: TelemetryResult, path: str | Path) -> int:
    """Write the trace, picking the format from the file suffix.

    ``.jsonl`` → JSON Lines; anything else → Chrome ``trace_event``.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        return write_jsonl(telemetry, path)
    return write_chrome_trace(telemetry, path)


# ----------------------------------------------------------------------
# Readback + summary
# ----------------------------------------------------------------------
def load_trace_records(path: str | Path) -> list[dict[str, Any]]:
    """Load either trace form back as a list of JSONL-style records.

    Chrome traces are translated back to the JSONL vocabulary (packet
    spans become ``gen``/``ej`` records) so downstream analysis handles
    one shape.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        payload = json.loads(text)
        return [
            _chrome_to_record(ev)
            for ev in payload["traceEvents"]
            if ev.get("ph") != "M"
        ]
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _chrome_to_record(event: dict[str, Any]) -> dict[str, Any]:
    args = event.get("args", {})
    ph = event.get("ph")
    if ph == "b":
        return {
            "kind": "gen",
            "cycle": event["ts"],
            "packet": event["id"],
            **args,
        }
    if ph == "e":
        return {
            "kind": "ej",
            "cycle": event["ts"],
            "packet": event["id"],
            "node": event["tid"],
        }
    return {
        "kind": event["name"],
        "cycle": event["ts"],
        "node": event["tid"],
        **args,
    }


def summarize_trace(path: str | Path) -> str:
    """Human-readable digest of a trace file (either format)."""
    records = load_trace_records(path)
    if not records:
        return f"{path}: empty trace"
    kinds = Counter(r["kind"] for r in records)
    cycles = [r["cycle"] for r in records]
    lines = [
        f"{path}: {len(records)} events over cycles "
        f"{min(cycles)}..{max(cycles)}"
    ]
    lines.append(
        "events by kind : "
        + ", ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    )
    lifetimes = iter_packet_lifetimes(records)
    if kinds["gen"]:
        lines.append(
            f"packets        : {kinds['gen']} created, "
            f"{kinds['ej']} ejected ({len(lifetimes)} complete lifetimes)"
        )
    if lifetimes:
        latencies = sorted(end - start for start, end in lifetimes.values())
        mean = sum(latencies) / len(latencies)
        lines.append(
            f"pkt lifetime   : mean {mean:.1f} cycles, "
            f"min {latencies[0]}, max {latencies[-1]}"
        )
    hits = [
        r
        for r in records
        if r["kind"] == "va" and "footprint_hit" in r
    ]
    if hits:
        hit_count = sum(1 for r in hits if r["footprint_hit"])
        lines.append(
            f"footprint hits : {hit_count}/{len(hits)} VC allocations "
            f"({hit_count / len(hits):.1%})"
        )
    traffic = Counter(
        r["node"] for r in records if r["kind"] == "lt"
    )
    if traffic:
        busiest = ", ".join(
            f"n{node} ({count})" for node, count in traffic.most_common(3)
        )
        lines.append(f"busiest routers: {busiest} by link traversals")
    return "\n".join(lines)


def iter_packet_lifetimes(
    records: Iterable[dict[str, Any]],
) -> dict[int, tuple[int, int]]:
    """Map packet id → (creation cycle, ejection cycle) for completed
    packets in a record stream."""
    born: dict[int, int] = {}
    spans: dict[int, tuple[int, int]] = {}
    for r in records:
        if r["kind"] == "gen":
            born[r["packet"]] = r["cycle"]
        elif r["kind"] == "ej" and r["packet"] in born:
            spans[r["packet"]] = (born[r["packet"]], r["cycle"])
    return spans
