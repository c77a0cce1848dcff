"""The command lines the docs print are command lines the parser takes.

A verb or a flag can be deleted from ``cli.py`` and live on in README.md
for many PRs (``--engine-mode`` and ``--profile`` did).  This pulls every
complete ``python -m repro ...`` / ``footprint-noc ...`` command out of
the fenced blocks of README.md and EXPERIMENTS.md and out of the CLI's
own module docstring, and parses each one; nothing is run.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import repro.cli
from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[2]
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
COMMAND = re.compile(r"(?:^|\s)(?:python3? -m repro|footprint-noc)\s+(.*)$")
#: `<name>`, `figN`, `...`, `[--flag]`: a pattern for commands, not one.
PLACEHOLDER = re.compile(r"<[^>]+>|\bfigN\b|\.\.\.|\[-")
#: Where the shell takes over from the program: `serve &`, `... | tee`.
SHELL = {"&", "&&", "|", ";", ">", ">>", "2>&1"}


def _documented_commands():
    """(source, text after the program name) per documented command."""
    sources = {
        name: FENCED.findall((ROOT / name).read_text())
        for name in ("README.md", "EXPERIMENTS.md")
    }
    sources["repro.cli.__doc__"] = [repro.cli.__doc__]
    for source, blocks in sources.items():
        for block in blocks:
            for line in block.replace("\\\n", " ").splitlines():
                match = COMMAND.search(line)
                if match and not line.lstrip().startswith("#"):
                    yield source, match.group(1)


def test_every_documented_command_line_parses():
    parser = _build_parser()
    parsed, refused = 0, []
    for source, text in _documented_commands():
        if PLACEHOLDER.search(text):
            continue
        argv = shlex.split(text, comments=True)
        argv = argv[: next(
            (i for i, token in enumerate(argv) if token in SHELL), None
        )]
        usage = io.StringIO()
        try:
            with contextlib.redirect_stderr(usage):
                parser.parse_args(argv)
        except SystemExit:
            refused.append((source, text, usage.getvalue().splitlines()[-1]))
        parsed += 1
    assert refused == []
    # The patterns above still find the docs' commands (51 when written).
    assert parsed >= 40

