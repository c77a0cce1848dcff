#!/usr/bin/env python
"""Validate a flit-lifecycle trace file (JSONL or Chrome trace_event).

Structural schema checker for the traces ``repro run --trace-out`` writes.
Checks every record against the event vocabulary of
:mod:`repro.telemetry.trace`:

* the kind is one of ``gen``/``inject``/``va``/``st``/``lt``/``ej``;
* every field the kind requires is present, with sane types (integral
  cycles/nodes/VCs, direction *names*, boolean footprint hits);
* cycles are non-negative and — for JSONL, which preserves recording
  order — non-decreasing;
* packets with both a ``gen`` and an ``ej`` record are created before
  they are ejected.

Exit status: 0 when the trace is valid, 1 on schema violations (each one
printed), 2 when the file cannot be read or parsed at all.

Usage::

    PYTHONPATH=src python benchmarks/check_trace.py TRACE [--min-events N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.telemetry.result import EVENT_KINDS
from repro.telemetry.trace import (
    DIRECTION_FIELDS,
    JSONL_FIELDS,
    load_trace_records,
)
from repro.topology.ports import Direction

_DIRECTION_NAMES = {d.name for d in Direction}
_INT_FIELDS = {"packet", "flit", "node", "src", "dst", "size", "out_vc", "vc"}


def check_record(index: int, record: dict, errors: list[str]) -> None:
    """Append one message per schema violation in ``record``."""

    def err(message: str) -> None:
        errors.append(f"record {index}: {message}")

    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        err(f"unknown kind {kind!r}")
        return
    cycle = record.get("cycle")
    if not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0:
        err(f"{kind}: bad cycle {cycle!r}")
    for name in JSONL_FIELDS[kind]:
        if name not in record:
            err(f"{kind}: missing field {name!r}")
            continue
        value = record[name]
        if name in DIRECTION_FIELDS:
            if value not in _DIRECTION_NAMES:
                err(f"{kind}: bad direction {name}={value!r}")
        elif name == "footprint_hit":
            if not isinstance(value, bool):
                err(f"{kind}: footprint_hit must be a bool, got {value!r}")
        elif name == "flow":
            if not isinstance(value, str):
                err(f"{kind}: flow must be a string, got {value!r}")
        elif name in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                err(f"{kind}: bad {name}={value!r}")


def check_trace(
    path: str | Path, min_events: int = 0, max_errors: int = 20
) -> list[str]:
    """All schema violations found in the trace at ``path``."""
    path = Path(path)
    records = load_trace_records(path)
    errors: list[str] = []
    if len(records) < min_events:
        errors.append(
            f"expected at least {min_events} events, found {len(records)}"
        )
    ordered = path.suffix == ".jsonl"
    last_cycle = 0
    born: dict[int, int] = {}
    for index, record in enumerate(records):
        check_record(index, record, errors)
        if len(errors) >= max_errors:
            errors.append("... (further checks suppressed)")
            return errors
        cycle = record.get("cycle")
        if not isinstance(cycle, int):
            continue
        if ordered and cycle < last_cycle:
            errors.append(
                f"record {index}: cycle {cycle} precedes cycle {last_cycle}"
            )
        last_cycle = max(last_cycle, cycle)
        kind = record.get("kind")
        packet = record.get("packet")
        if kind == "gen" and isinstance(packet, int):
            born[packet] = cycle
        elif kind == "ej" and packet in born and cycle < born[packet]:
            errors.append(
                f"record {index}: packet {packet} ejected at cycle {cycle} "
                f"before its creation at {born[packet]}"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace file (.jsonl or Chrome .json)")
    parser.add_argument(
        "--min-events",
        type=int,
        default=1,
        metavar="N",
        help="fail unless the trace holds at least N events (default: 1)",
    )
    args = parser.parse_args(argv)
    try:
        errors = check_trace(args.trace, min_events=args.min_events)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"check_trace: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if errors:
        for message in errors:
            print(f"check_trace: {message}", file=sys.stderr)
        print(
            f"check_trace: {args.trace}: {len(errors)} violation(s)",
            file=sys.stderr,
        )
        return 1
    records = load_trace_records(args.trace)
    print(f"check_trace: {args.trace}: {len(records)} events, schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
