"""Benchmark-suite configuration.

Every benchmark regenerates one table or figure of the paper and prints
the same rows/series the paper reports.  The simulated scale is
controlled by ``$REPRO_SCALE`` (``smoke``/``bench``/``paper``, read
through :mod:`repro.settings`); the default ``bench`` scale keeps each
figure within a few minutes while preserving the qualitative shape.

Run with::

    pytest benchmarks/test_*.py
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro import settings
from repro.harness.experiments import SCALES, Scale

#: Rendered figure tables are appended here (pytest captures stdout of
#: passing tests, so the tables would otherwise be invisible).
RESULTS_FILE = pathlib.Path(__file__).resolve().parent.parent / "bench_results.txt"


@pytest.fixture(scope="session")
def scale() -> Scale:
    return SCALES[settings.read("REPRO_SCALE")]


@pytest.fixture
def report(request):
    """Record a rendered figure table: stderr + bench_results.txt."""

    def _report(text: str) -> None:
        print(file=sys.stderr)
        print(text, file=sys.stderr)
        with RESULTS_FILE.open("a") as fh:
            fh.write(f"\n===== {request.node.name} =====\n{text}\n")

    return _report

