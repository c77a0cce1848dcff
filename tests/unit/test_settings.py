"""The ``$REPRO_*`` table: every variable read, defaulted and rejected
one way (``repro.settings``)."""

import contextlib
import io

import pytest

from repro import settings
from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError

NAMES = list(settings.SETTINGS)

#: A value each variable's parser rejects ($REPRO_CACHE_DIR takes any
#: path, so it has none).
BAD = {
    "REPRO_JOBS": "many",
    "REPRO_SCALE": "papr",
    "REPRO_SERVICE": "host:notaport",
    "REPRO_VALIDATE": "flit_conservation,bogus",
}

#: A warm figure reads every variable the CLI reads except $REPRO_SCALE,
#: which only the benchmark suite reads.
_WARM_FIG9 = ["experiment", "fig9", "--scale", "smoke", "--jobs", "1"]


def test_there_are_five_variables():
    assert NAMES == [
        "REPRO_JOBS",
        "REPRO_SCALE",
        "REPRO_CACHE_DIR",
        "REPRO_SERVICE",
        "REPRO_VALIDATE",
    ]
    assert sorted(BAD) == sorted(set(NAMES) - {"REPRO_CACHE_DIR"})


@pytest.mark.parametrize("name", NAMES)
def test_unset_and_empty_mean_the_default(monkeypatch, name):
    default = settings.SETTINGS[name].default
    expected = None if default is None else settings.parse(name, default)
    monkeypatch.delenv(name, raising=False)
    assert settings.read(name) == expected
    for empty in ("", "  "):
        monkeypatch.setenv(name, empty)
        assert settings.read(name) == expected


@pytest.mark.parametrize("name", BAD)
def test_a_bad_value_is_one_wording(monkeypatch, name):
    setting = settings.SETTINGS[name]
    monkeypatch.setenv(name, f" {BAD[name]} ")
    with pytest.raises(ConfigurationError) as excinfo:
        settings.read(name)
    assert str(excinfo.value) == (
        f"${name}={BAD[name]!r} is not {setting.what}; "
        f"expected {setting.expected}"
    )


def test_every_read_reads_the_environment(monkeypatch):
    """Nothing is memoized: a process may switch checkers between runs."""
    for value, expected in (("all", settings.CHECKER_NAMES), ("0", None),
                            ("vc_states", ("vc_states",))):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert settings.read("REPRO_VALIDATE") == expected


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    directory = tmp_path_factory.mktemp("warm")
    with pytest.MonkeyPatch.context() as patch:
        for name in NAMES:
            patch.delenv(name, raising=False)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli_main([*_WARM_FIG9, "--cache-dir", str(directory)]) == 0
    assert "0 hits, 4 misses" in out.getvalue()
    return directory


@pytest.mark.parametrize("name", sorted(set(BAD) - {"REPRO_SCALE"}))
def test_a_bad_value_stops_a_warm_figure(
    monkeypatch, capsys, warm_cache, name
):
    """Parsed before the verb runs: a grid the cache answers whole
    would otherwise never read $REPRO_SERVICE or $REPRO_VALIDATE."""
    for other in NAMES:
        monkeypatch.delenv(other, raising=False)
    argv = [*_WARM_FIG9[:-2], "--cache-dir", str(warm_cache)]
    assert cli_main(argv) == 0
    assert "4 hits, 0 misses" in capsys.readouterr().out
    monkeypatch.setenv(name, BAD[name])
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ${name}={BAD[name]!r} is not ")
    assert captured.err.count("\n") == 1


def test_list_prints_every_row_with_its_value(monkeypatch, capsys):
    for name in NAMES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    rows = out.split("environment (current value; empty = unset):\n")[1]
    lines = rows.splitlines()
    assert [line.split()[0] for line in lines] == NAMES
    for line, (name, setting) in zip(lines, settings.SETTINGS.items()):
        value = "smoke" if name == "REPRO_SCALE" else "-"
        assert line.split()[1] == value
        assert setting.meaning in line
