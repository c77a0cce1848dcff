"""What the docs say about each other and about ``repro.settings`` holds.

DESIGN.md is read section by section from the code, the tests and the
other docs: ``DESIGN §<id>``, or ``DESIGN.md §<id>, "<subsection>"``.
When a section is renumbered or a subsection renamed, every such pointer
must move with it; this finds the ones that did not.  CHANGES.md and
ROADMAP.md are logs, written against the DESIGN of their day, and are
not read.

README's ``$REPRO_*`` table restates :data:`repro.settings.SETTINGS`,
so it must list the same variables in the same order.
"""

import re
from pathlib import Path

from repro.settings import SETTINGS

ROOT = Path(__file__).resolve().parents[2]

#: ``DESIGN §<id>``, ``DESIGN.md §<id>`` or `` `DESIGN.md` §<id>``,
#: optionally followed by ``, "<subsection title>"`` (across a line
#: break too).
REFERENCE = re.compile(
    r"DESIGN(?:\.md)?`?\s+§(\d+[a-z]?)\b"
    r"(?:,?\s+\"([^\"]+)\")?"
)
SECTION = re.compile(r"^## (\d+[a-z]?)\. ", re.M)
SUBSECTION = re.compile(r"^### (.+)$", re.M)


def _sources():
    """(path, text) of every file that may point into DESIGN.md."""
    paths = [ROOT / "README.md", ROOT / "EXPERIMENTS.md"]
    for top in ("src", "tests", "benchmarks"):
        paths += sorted((ROOT / top).rglob("*.py"))
    paths += sorted((ROOT / ".claude" / "skills").glob("*/SKILL.md"))
    for path in paths:
        yield path.relative_to(ROOT), path.read_text(encoding="utf-8")


def _design_sections() -> dict[str, list[str]]:
    """Section id -> titles of its ``###`` subsections."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    starts = list(SECTION.finditer(text)) + [None]
    sections = {}
    for here, after in zip(starts, starts[1:]):
        body = text[here.end(): after.start() if after else len(text)]
        sections[here.group(1)] = SUBSECTION.findall(body)
    return sections


def _references():
    """(path:line, section id, subsection title or None) per pointer."""
    for path, text in _sources():
        for match in REFERENCE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            section, title = match.groups()
            if title is not None:
                title = " ".join(title.split())
            yield f"{path}:{line}", section, title


def test_every_design_reference_names_a_design_heading():
    sections = _design_sections()
    found, dangling = 0, []
    for where, section, title in _references():
        found += 1
        if section not in sections:
            dangling.append(f"{where}: no DESIGN §{section}")
        elif title is not None and not any(
            heading.startswith(title) for heading in sections[section]
        ):
            dangling.append(f'{where}: DESIGN §{section} has no "{title}"')
    assert dangling == []
    # The pattern still finds the pointers (28 when written).
    assert found >= 20


def test_readme_environment_table_is_the_settings_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.M)
    assert rows == list(SETTINGS)
