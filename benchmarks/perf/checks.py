"""Failed-operation accounting: what counts as an operation, what fails it.

An *operation* is one simulation, one pooled or replayed grid, one CLI
invocation or one service job.  It fails on

* an exception, a non-zero exit or a timeout while it runs;
* an undrained run where the config must drain;
* a repeat whose ``result_signature`` differs from its first run
  (latency samples compared as a multiset, see ``child._signature``);
* warm != cold, pooled != serial, dedup != fresh, service != local;
* CLI output that differs from the in-process report.

``Ledger.failed / Ledger.attempted`` is the benchmark's error rate; the
run is ``correct`` only when nothing failed.  An operation is charged at
most once however many rules it breaks.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Op:
    """One attempted operation and what the runner learned about it."""

    phase: str
    label: str
    round: int
    traced: bool
    start: float = 0.0
    end: float = 0.0
    cycles: int = 0
    counts: bool = False  #: enters sim_cycles_per_s
    replay: bool = False  #: enters replay_ms_*
    failure: str | None = None
    value: object = None  #: whatever the operation produced

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Ledger:
    ops: list[Op] = field(default_factory=list)
    first_signatures: dict[str, tuple] = field(default_factory=dict)
    #: Called after every operation, outside its timed region (the
    #: host-speed readings of ``child.HostSpeed``).
    after_op: Callable[[], None] | None = None

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failure is not None)

    def failures(self) -> list[str]:
        return [
            f"{op.phase}/{op.label} (round {op.round}): {op.failure}"
            for op in self.ops
            if op.failure is not None
        ]

    # ------------------------------------------------------------------
    @contextmanager
    def op(self, phase: str, label: str, round_index: int, traced: bool,
           **flags):
        """Time one operation; an exception fails it and is swallowed.

        This is the boundary that must keep running — one broken
        operation is a counted failure, not the end of the measurement —
        so it catches ``Exception`` and reports the traceback.
        """
        op = Op(phase, label, round_index, traced, **flags)
        self.ops.append(op)
        op.start = time.perf_counter()
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 - see docstring
            traceback.print_exc(file=sys.stderr)
            self.fail(op, f"{type(exc).__name__}: {exc}")
        finally:
            op.end = time.perf_counter()
            if self.after_op is not None:
                self.after_op()

    @staticmethod
    def fail(op: Op, reason: str) -> None:
        if op.failure is None:
            op.failure = reason
            print(f"FAILED {op.phase}/{op.label}: {reason}", file=sys.stderr)

    # ------------------------------------------------------------------
    # The rules
    # ------------------------------------------------------------------
    def check_drained(self, op: Op, result, must_drain: bool) -> None:
        if must_drain and not result.drained:
            self.fail(op, "run did not drain but its config must")

    def check_repeat(self, op: Op, key: str, signature: tuple) -> None:
        """Every run of the config named ``key`` must match its first."""
        first = self.first_signatures.setdefault(key, signature)
        if first != signature:
            self.fail(op, f"signature differs from the first run of {key}")

    def check_same(self, op: Op, got, want, what: str) -> None:
        """Signature lists or report texts of two surfaces must be equal;
        ``what`` names the pair, e.g. ``"pooled != serial"``."""
        if got != want:
            self.fail(op, what)

    def check_exit(self, op: Op, returncode: int, stderr: str) -> None:
        if returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            self.fail(op, f"exit code {returncode}: {tail[0]}")
