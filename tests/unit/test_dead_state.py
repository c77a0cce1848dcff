"""Nothing in ``src/`` is written without a reader.

Every attribute name that ``src/repro`` assigns (``obj.name = ...``,
``obj.name += ...``) must also be loaded somewhere in ``src/repro``.
The check is by name, not by type: a write is dead only when no code of
the package reads any attribute of that name.  A per-flit counter that
nothing reads costs the hot loop a write on every hop and says nothing.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Written in src/ and read only outside it: each entry names its reader.
READ_ELSEWHERE = {
    "checker": "InvariantViolation context; tests/property/"
    "test_prop_checker_equivalence.py and tests/integration/"
    "test_validate_integration.py",
    "survivors": "tuner/report.py writes RoundStats through dataclasses.asdict",
    "vc": "InvariantViolation context; tests/property/"
    "test_prop_checker_equivalence.py and tests/unit/test_validate.py",
}


def attribute_uses(root=SRC):
    """``(stored name -> ["file:line", ...], loaded names)`` over ``root``."""
    stored, loaded = defaultdict(list), set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Store):
                where = f"{path.relative_to(root)}:{node.lineno}"
                stored[node.attr].append(where)
            else:
                loaded.add(node.attr)
    return stored, loaded


def test_every_attribute_src_writes_is_read_in_src():
    stored, loaded = attribute_uses()
    dead = {
        name: places
        for name, places in stored.items()
        if name not in loaded and name not in READ_ELSEWHERE
    }
    assert not dead, f"written, never read in src/: {dead}"


def test_every_allowlist_entry_is_still_needed():
    stored, loaded = attribute_uses()
    stale = {n for n in READ_ELSEWHERE if n not in stored or n in loaded}
    assert not stale, f"drop from READ_ELSEWHERE: {sorted(stale)}"


def test_an_augmented_write_alone_is_not_a_read(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(flit, ctx):\n"
        "    flit.hops += 1\n"
        "    ctx.seen = ctx.current\n"
    )
    stored, loaded = attribute_uses(tmp_path)
    assert set(stored) == {"hops", "seen"}
    assert loaded == {"current"}
