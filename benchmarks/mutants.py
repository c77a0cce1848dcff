#!/usr/bin/env python
"""Mutation score of a pytest selection over the simulator's core.

    python benchmarks/mutants.py tests/unit tests/property tests/integration

The arguments are the pytest selection, fast tests first.  It runs it
with ``pytest -x`` against each mutant of a fixed sample (``SEED``) in
``router/``, ``routing/``, ``validate/checker.py`` and ``sim/engine.py``,
and in the code that turns runs into the paper's claims: ``core/``,
``metrics/`` and ``traffic/`` -- a flipped comparison, operator or ``and``/``or``, an integer nudged
by one or a boolean negated, a statement replaced by ``pass``, in a
function body -- and prints the first test that failed on each, then
killed / survived / timed-out (a kill) per area.  Every run happens in
a temporary copy of the files git sees, never in the checkout: without
bytecode (a same-size mutant written within the same second would run
its predecessor's), with ``--hypothesis-seed=0`` and a fresh example
database, under a timeout (three times the unmutated run, which must
pass) that kills the process group: a mutant can loop, or leave a pool
worker or a server behind.
"""

import ast
import contextlib
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
AREAS = {"router": "src/repro/router", "routing": "src/repro/routing",
         "checker": "src/repro/validate/checker.py",
         "engine": "src/repro/sim/engine.py", "core": "src/repro/core",
         "metrics": "src/repro/metrics", "traffic": "src/repro/traffic"}
SEED = 44
KINDS = ("cmp", "op", "const", "del")
PER_KIND = 3  # per area: 12 mutants

FLIPS = {getattr(ast, a): getattr(ast, b) for a, b in map(str.split, (
    "Eq NotEq", "NotEq Eq", "Lt GtE", "GtE Lt", "Gt LtE", "LtE Gt", "Is IsNot",
    "IsNot Is", "In NotIn", "NotIn In", "Add Sub", "Sub Add", "Mult FloorDiv",
    "FloorDiv Mult", "Mod FloorDiv", "BitAnd BitOr", "BitOr BitAnd",
    "BitXor BitAnd", "LShift RShift", "RShift LShift", "And Or", "Or And"))}
DELETABLE = (ast.Assign, ast.AugAssign, ast.Expr, ast.Return, ast.Raise,
             ast.Continue, ast.Break)


class Mutant(NamedTuple):
    area: str
    path: str  # relative to the checkout
    line: int
    kind: str  # one of KINDS
    before: str  # the original node, unparsed (first line)
    after: str  # what replaces it
    source: str  # the whole mutated file


def _mutate(node: ast.AST) -> tuple[str, ast.AST] | None:
    """``(kind, replacement)`` for ``node``, or ``None``: not a site."""
    if isinstance(node, ast.Compare):
        ops = [FLIPS[type(node.ops[0])](), *node.ops[1:]]
        return "cmp", ast.Compare(node.left, ops, node.comparators)
    if isinstance(node, ast.BinOp) and type(node.op) in FLIPS:
        return "op", ast.BinOp(node.left, FLIPS[type(node.op)](), node.right)
    if isinstance(node, ast.AugAssign) and type(node.op) in FLIPS:
        return "op", ast.AugAssign(node.target, FLIPS[type(node.op)](), node.value)
    if isinstance(node, ast.BoolOp):
        return "op", ast.BoolOp(FLIPS[type(node.op)](), node.values)
    if isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        value = not node.value if type(node.value) is bool else node.value + 1
        return "const", ast.Constant(value)
    docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    if isinstance(node, DELETABLE) and not docstring:
        return "del", ast.Pass()
    return None


def _sites(tree: ast.Module) -> list[ast.AST]:
    """Every node inside a function body, minus f-string internals."""
    seen: dict[int, ast.AST] = {}
    skip: set[int] = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in (n for stmt in func.body for n in ast.walk(stmt)):
                if isinstance(node, ast.JoinedStr):
                    skip.update(id(n) for n in ast.walk(node))
                seen.setdefault(id(node), node)
    return [node for key, node in seen.items() if key not in skip]


def _splice(text: str, node: ast.AST, replacement: ast.AST) -> str:
    """``text`` with ``node``'s span (UTF-8 columns) replaced."""
    lines = text.splitlines(keepends=True)

    def offset(line: int, col: int) -> int:
        return sum(map(len, lines[: line - 1])) + len(
            lines[line - 1].encode()[:col].decode())

    new = ast.unparse(replacement)
    new = f"({new})" if isinstance(replacement, ast.expr) else new
    return (text[: offset(node.lineno, node.col_offset)] + new
            + text[offset(node.end_lineno, node.end_col_offset):])


def candidates(area: str) -> list[tuple]:
    """Every site of ``area``: ``(path, node, kind, replacement, text)``."""
    target = ROOT / AREAS[area]
    found = []
    for file in sorted(target.rglob("*.py")) if target.is_dir() else [target]:
        text = file.read_text()
        for node in _sites(ast.parse(text)):
            mutation = _mutate(node)
            if mutation is not None:
                found.append((str(file.relative_to(ROOT)), node, *mutation, text))
    return found


def sample() -> list[Mutant]:
    """The fixed sample: ``PER_KIND`` mutants of each kind in each area."""
    drawn = []
    for area in AREAS:  # a seed per area: an edit re-draws only its own area
        rng = random.Random(f"{SEED}:{area}")
        found = candidates(area)
        picked = [c for kind in KINDS for c in rng.sample(
            [c for c in found if c[2] == kind], PER_KIND)]
        picked.sort(key=lambda c: (c[0], c[1].lineno))
        for path, node, kind, new, text in picked:
            drawn.append(Mutant(
                area, path, node.lineno, kind, ast.unparse(node).splitlines()[0],
                ast.unparse(new), _splice(text, node, new)))
    return drawn


def run(selection: list[str], mutant: Mutant | None, timeout: float):
    """``(status, first failing test, seconds)`` of one run in a copy."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp, \
            tempfile.TemporaryFile("w+") as log:
        for name in listed:
            if name and (ROOT / name).is_file():
                (Path(tmp) / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, Path(tmp) / name)
        if mutant is not None:
            (Path(tmp) / mutant.path).write_text(mutant.source)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        proc = subprocess.Popen(  # output to a file: a leftover child holds a pipe
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *selection],
            cwd=tmp, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            status = "survived" if proc.wait(timeout) == 0 else "killed"
        except subprocess.TimeoutExpired:
            status = "timed out"
        seconds = time.perf_counter() - started
        with contextlib.suppress(ProcessLookupError):  # what it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log.seek(0)
        out = log.read()
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return status, (failed[0] if failed else out.strip()[-200:]), seconds


def main(selection: list[str]) -> int:
    mutants = sample()
    status, detail, pristine = run(selection, None, timeout=3600)
    if status != "survived":
        print(f"the unmutated selection does not pass: {detail}")
        return 1
    timeout = max(60.0, 3 * pristine)
    print(f"seed {SEED}, {len(mutants)} mutants; selection: {' '.join(selection)}"
          f"\nunmutated: passed in {pristine:.1f} s; timeout {timeout:.0f} s")
    tally = {a: {"killed": 0, "survived": 0, "timed out": 0} for a in AREAS}
    for number, m in enumerate(mutants, 1):
        status, detail, seconds = run(selection, m, timeout)
        tally[m.area][status] += 1
        print(f"#{number:02d} {m.path.removeprefix('src/repro/')}:{m.line} "
              f"{m.kind} `{m.before[:50]}` -> `{m.after[:50]}`: {status} "
              f"({seconds:.1f} s) {detail if status == 'killed' else ''}",
              flush=True)
    print("area     killed survived timed-out caught")
    for area, n in tally.items():
        print(f"{area:8} {n['killed']:6} {n['survived']:8} {n['timed out']:9} "
              f"{n['killed'] + n['timed out']}/{sum(n.values())}")
    caught = sum(n["killed"] + n["timed out"] for n in tally.values())
    print(f"total    {caught}/{len(mutants)} caught")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
