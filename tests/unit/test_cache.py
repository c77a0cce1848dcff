"""Unit tests for the persistent result cache."""

import dataclasses
import functools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.faults import FaultEvent, FaultSchedule
from repro.harness import cache as cache_module
from repro.harness.cache import ResultCache, config_cache_key
from repro.harness.parallel import SimTask
from repro.harness.runner import run_simulation
from repro.metrics.stats import pack_samples, unpack_samples
from repro.service.jobs import JobSpec, payload
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.telemetry.config import TelemetryConfig
from repro.topology.ports import Direction
from repro.traffic.trace import TraceEvent
from repro.validate.differential import result_signature

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
#: A single-flow 4x4 entry written before flow lists were shared: its
#: ``latency_by_flow`` repeats the overall samples explicitly, as plain
#: integer lists.
FIXTURE = FIXTURES / "result_entry_v4.json"
#: The same config's entry as it is written now: packed, flow ``null``.
PACKED_FIXTURE = FIXTURES / "result_entry_v4_packed.json"


def _config(**overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        injection_rate=0.05,
        warmup_cycles=20,
        measure_cycles=60,
        drain_cycles=200,
        seed=2,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _result(**overrides):
    return Simulator(_config(**overrides)).run()


def _signature(result):
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_created,
        result.measured_ejected,
        result.blocking.blocking_events,
        result.blocking.busy_vc_samples,
        result.blocking.footprint_vc_samples,
        sorted(result.latency._samples),
        result.config.to_dict(),
    )


class TestCacheKey:
    def test_same_config_same_key(self):
        assert config_cache_key(_config()) == config_cache_key(_config())

    def test_every_field_change_changes_key(self):
        base = _config()
        base_key = config_cache_key(base)
        tweaks = {
            "width": 8,
            "height": 2,
            "num_vcs": 6,
            "vc_buffer_depth": 8,
            "routing": "dor",
            "traffic": "transpose",
            "injection_rate": 0.06,
            "packet_size": 2,
            "packet_size_range": (1, 4),
            "warmup_cycles": 21,
            "measure_cycles": 61,
            "drain_cycles": 201,
            "hotspot_rate": 0.2,
            "background_rate": 0.4,
            "footprint_vc_limit": 3,
            "seed": 3,
            "internal_speedup": 3,
            "output_buffer_depth": 16,
            "ejection_rate": 0.5,
            "congestion_threshold": 0.25,
            "track_utilization": True,
            "faults": FaultSchedule((FaultEvent(0, "router", 5),)),
            "topology": "torus",
        }
        # Every SimulationConfig field must feed the hash — except
        # telemetry, which is observation-only and deliberately excluded
        # (see test_telemetry_does_not_change_key).  A stale field here
        # means a config knob was added without extending the test.
        covered = set(tweaks) | {"trace", "telemetry"}
        assert covered == {f.name for f in dataclasses.fields(base)}
        for field, value in tweaks.items():
            changed = dataclasses.replace(base, **{field: value})
            assert config_cache_key(changed) != base_key, field

    def test_telemetry_does_not_change_key(self):
        base = _config()
        with_telemetry = _config(
            telemetry=TelemetryConfig(
                sample_every=10, tree_nodes=(5,), trace_flits=True
            )
        )
        assert config_cache_key(with_telemetry) == config_cache_key(base)

    def test_trace_events_feed_the_key(self):
        with_trace = _config(
            traffic="trace", trace=[TraceEvent(1, 0, 5)], injection_rate=0.0
        )
        other_trace = _config(
            traffic="trace", trace=[TraceEvent(2, 0, 5)], injection_rate=0.0
        )
        assert config_cache_key(with_trace) != config_cache_key(other_trace)

    def test_reordered_dict_fields_same_key(self):
        config = _config()
        shuffled_items = list(config.to_dict().items())
        random.Random(0).shuffle(shuffled_items)
        rebuilt = SimulationConfig.from_dict(dict(shuffled_items))
        assert config_cache_key(rebuilt) == config_cache_key(config)

    def test_engine_version_feeds_the_key(self, monkeypatch):
        # Patched at the constant's leaf home, which is what the cache
        # reads: it must not import the engine to stamp a key.
        from repro.sim import constants

        key = config_cache_key(_config())
        monkeypatch.setattr(
            constants, "ENGINE_VERSION", constants.ENGINE_VERSION + 1
        )
        assert config_cache_key(_config()) != key


class TestPinnedKeys:
    """Keys and a job hash as they were before ``to_dict`` stopped using
    ``asdict``: every stored entry and every deduplicated job is
    addressed by these, so none may move without an engine bump."""

    @pytest.mark.parametrize(
        "config, key",
        [
            (
                SimulationConfig(),
                "2053237ef5e7cfd13543733f1c35e708f2aefcf3ab19599767cec7b0dfb1b9ac",
            ),
            (
                _config(packet_size_range=(1, 6)),
                "8240dd5479610eb8149b9038fdabf55f6b5460d70213998c377862f947c3f432",
            ),
            (
                _config(faults=FaultSchedule((
                    FaultEvent(10, "link", 5, Direction.EAST, duration=40),
                    FaultEvent(0, "router", 3),
                ))),
                "7d05ae2307bbe2e5e7c248e29a16cd0292eb198e2b624e0a1b400bda2274f932",
            ),
            (
                _config(traffic="trace", injection_rate=0.0, trace=[
                    TraceEvent(3, 1, 9, size=2, flow="app"),
                    TraceEvent(5, 0, 15),
                ]),
                "0f1eb652408c05f057a3aeac58faf38408df5dc9466e924452c76392d00001c6",
            ),
            (
                _config(topology="torus", telemetry=TelemetryConfig(
                    sample_every=10, tree_nodes=(5,), trace_flits=True
                )),
                "12ccda902f9af69f3c35bccd57505ac01abd419b3a7622034aae7bd4020c5eeb",
            ),
        ],
        ids=["default", "packet_size_range", "faults", "trace", "telemetry"],
    )
    def test_config_key(self, config, key):
        assert config_cache_key(config) == key

    def test_spec_hash(self):
        spec = JobSpec.from_dict(payload("pin", [
            SimTask(_config(), rate=0.02),
            SimTask(_config(routing="dbar"), rate=0.04),
        ]))
        assert spec.spec_hash() == (
            "193e51d976a4dd604573639beb47f3754020d1fb55a6cbacd1f349a99f58a29e"
        )


@st.composite
def configs(draw):
    """A 4x4 config with drawn scalars and, each maybe, a packet-size
    range, a fault schedule, telemetry and a trace."""
    lo = draw(st.integers(1, 4))
    faults = draw(st.lists(
        st.builds(
            FaultEvent,
            cycle=st.integers(0, 50),
            kind=st.just("router"),
            node=st.integers(0, 15),
            duration=st.one_of(st.none(), st.integers(1, 20)),
        )
        | st.builds(
            FaultEvent,
            cycle=st.integers(0, 50),
            kind=st.just("link"),
            node=st.sampled_from((0, 1, 4, 5)),  # all have EAST links
            direction=st.just(Direction.EAST),
        ),
        max_size=3,
    ))
    return _config(
        seed=draw(st.integers(0, 2**31)),
        routing=draw(st.sampled_from(("footprint", "dbar", "dor"))),
        injection_rate=draw(st.floats(0.0, 1.0)),
        footprint_vc_limit=draw(st.one_of(st.none(), st.integers(1, 4))),
        packet_size_range=draw(st.one_of(
            st.none(), st.tuples(st.just(lo), st.integers(lo, 6))
        )),
        faults=draw(st.one_of(st.none(), st.just(FaultSchedule(
            tuple(faults)
        )))),
        telemetry=draw(st.one_of(st.none(), st.builds(
            TelemetryConfig,
            sample_every=st.integers(0, 20),
            tree_nodes=st.lists(st.integers(0, 15), max_size=2),
            trace_flits=st.booleans(),
        ))),
        trace=draw(st.one_of(st.none(), st.lists(st.builds(
            TraceEvent,
            cycle=st.integers(0, 100),
            src=st.integers(0, 15),
            dst=st.integers(0, 15),
            size=st.integers(1, 4),
            flow=st.sampled_from(("trace", "app")),
        ), max_size=4))),
    )


@settings(max_examples=60, deadline=None)
@given(configs())
def test_to_dict_is_the_asdict_form(config):
    """``to_dict`` converts only the nested values, yet serializes like
    the recursive ``asdict`` copy with the packet-size list, keys in
    field order, so neither cache keys nor stored entries can tell them
    apart; and it is that copy's JSON round trip, type for type (lists,
    plain ints), which the cache's hit check compares stored configs to."""
    expected = dataclasses.asdict(config)
    if expected["packet_size_range"] is not None:
        expected["packet_size_range"] = list(expected["packet_size_range"])
    data = config.to_dict()
    assert _tagged(data) == _tagged(json.loads(json.dumps(expected)))
    assert json.dumps(data) == json.dumps(expected)


def _tagged(value):
    """``value`` with every leaf as its ``(type, repr)``: equal only if
    equal type for type (``1`` is not ``1.0``, a tuple is not a list)."""
    if type(value) is dict:
        return {key: _tagged(item) for key, item in value.items()}
    if type(value) is list:
        return [_tagged(item) for item in value]
    return (type(value), repr(value))


class TestResultCache:
    def test_miss_then_hit_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        assert cache.get(result.config) is None
        cache.put(result)
        cached = cache.get(result.config)
        assert cached is not None
        assert _signature(cached) == _signature(result)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_configs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_result())
        assert cache.get(_config(seed=99)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.put(result)
        cache._path(config_cache_key(result.config)).write_text("{not json")
        assert cache.get(result.config) is None

    def test_put_overwrites_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        path = cache._path(config_cache_key(result.config))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("garbage")
        cache.put(result)
        assert cache.get(result.config) is not None

    def test_no_stray_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_result())
        assert not list(tmp_path.glob("*.tmp"))

    def test_describe_mentions_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get(_config())
        text = cache.describe()
        assert "0 hits" in text and "1 misses" in text


class TestParseableButWrongEntries:
    """Valid JSON of the right shape is still outside input: ``get``
    returns a hit only for the result of the config asked for."""

    EDITS = {
        "invalid_stored_config": lambda data: data["config"].update(width=-3),
        "mismatched_stored_config": lambda data: data["config"].update(
            routing="dor"
        ),
        "cycles_run_of_the_wrong_type": lambda data: data.update(
            cycles_run="many"
        ),
        # Packed sample lists that do not decode (``ValueError``).
        "unknown_sample_typecode": lambda data: data.update(
            latency="X" + data["latency"][1:]
        ),
        "partial_packed_sample": lambda data: data.update(latency="HAA=="),
        "non_alphabet_base64": lambda data: data.update(
            latency=data["latency"][:5] + "!" + data["latency"][6:]
        ),
        # A list-form entry holding a non-integer sample (``TypeError``).
        "float_sample_in_a_list": lambda data: data.update(
            latency=[7.5] + unpack_samples(data["latency"])
        ),
        "bool_sample_in_a_list": lambda data: data.update(
            latency=unpack_samples(data["latency"]) + [True]
        ),
    }

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_counted_miss_until_the_next_put_replaces_it(self, tmp_path, case):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.put(result)
        path = cache._path(config_cache_key(result.config))
        data = json.loads(path.read_text())
        self.EDITS[case](data)
        path.write_text(json.dumps(data))
        assert cache.get(result.config) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(result)
        cached = cache.get(result.config)
        assert cached is not None
        assert _signature(cached) == _signature(result)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_entry_copied_under_another_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.put(result)
        other = _config(seed=99)
        cache._path(config_cache_key(other)).write_text(
            cache._path(config_cache_key(result.config)).read_text()
        )
        assert cache.get(other) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get(result.config) is not None

    def test_telemetry_variant_of_the_config_still_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.put(result)
        observed = dataclasses.replace(
            result.config, telemetry=TelemetryConfig(sample_every=50)
        )
        assert cache.get(observed) is not None
        assert (cache.hits, cache.misses) == (1, 0)


def _parent_hit(text, key):
    """Whether the previous ``get`` hit on entry ``text`` filed under
    ``key`` (kept verbatim as the oracle): the whole entry rebuilt, then
    its stored config re-serialized and hashed to ``key``."""
    try:
        data = json.loads(text)
        SimulationResult.from_dict(data)
        return cache_module._config_dict_key(dict(data["config"])) == key
    except Exception:
        return False


@functools.cache
def _simulated():
    """One simulated result, filed under each drawn config in turn."""
    return _result()


@st.composite
def hit_configs(draw):
    """:func:`configs`, sometimes on hotspot traffic, and with a signed
    zero, an integral float or a bool where the JSON types can clash."""
    config = draw(configs())
    if draw(st.booleans()):
        config = config.with_(
            traffic="hotspot",
            hotspot_rate=draw(st.sampled_from((0.0, 0.25, 1.0))),
            background_rate=draw(st.sampled_from((0.0, -0.0, 0.3))),
        )
    return config.with_(
        injection_rate=draw(st.sampled_from((0.0, -0.0, 1.0, 0.05))),
        track_utilization=draw(st.booleans()),
    )


def _leaves(value, path=()):
    """Paths to every scalar in a parsed JSON value."""
    if type(value) is dict:
        items = value.items()
    elif type(value) is list:
        items = enumerate(value)
    else:
        return [path]
    return [leaf for k, v in items for leaf in _leaves(v, path + (k,))]


def _edited(value, kind):
    """``value`` under edit ``kind``; ``None`` when the kind does not
    apply to it."""
    if kind == "change":
        if type(value) is bool:
            return not value
        if type(value) in (int, float):
            return value + 1
        return "changed" if type(value) is str else 1
    if kind == "int_float":
        if type(value) is int:
            return float(value)
        if type(value) is float and value.is_integer():
            return int(value)
    if kind == "bool_int":
        if type(value) is bool:
            return int(value)
        if type(value) is int and value in (0, 1):
            return bool(value)
    if kind == "zero_sign" and type(value) is float and value == 0:
        return -value
    return None


def _at(value, path):
    for step in path:
        value = value[step]
    return value


LEAF_EDITS = ("change", "int_float", "bool_int", "zero_sign")
EDITS = LEAF_EDITS + (
    "none", "reorder", "missing", "extra", "telemetry", "copied"
)


@settings(max_examples=150, deadline=None)
@given(hit_configs(), st.sampled_from(EDITS), st.data())
def test_hit_check_accepts_what_the_rehash_accepts(config, edit, data):
    """``get`` hits iff the previous rule (stored config hashes to the
    key) hits, over edited entries; a hit carries the stored config and
    the stored result's signature."""
    stored_result = dataclasses.replace(_simulated(), config=config)
    asked = config
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.put(stored_result)
        entry = json.loads(
            cache._path(config_cache_key(config)).read_text()
        )
        stored = entry["config"]
        if edit in LEAF_EDITS:
            applicable = [
                (path, new)
                for path in _leaves(stored)
                if (new := _edited(_at(stored, path), edit)) is not None
            ]
            if applicable:
                path, new = data.draw(st.sampled_from(applicable))
                _at(stored, path[:-1])[path[-1]] = new
        elif edit == "reorder":
            entry["config"] = dict(reversed(list(stored.items())))
        elif edit == "missing":
            del stored[data.draw(st.sampled_from(sorted(stored)))]
        elif edit == "extra":
            stored["extra"] = 0
        elif edit == "telemetry":
            stored["telemetry"] = TelemetryConfig(sample_every=5).to_dict()
        elif edit == "copied":
            asked = config.with_(seed=config.seed + 1)
        text = json.dumps(entry)
        key = config_cache_key(asked)
        cache._path(key).write_text(text)

        hit = cache.get(asked)

    event(f"{edit}: {'hit' if hit is not None else 'miss'}")
    assert (hit is not None) == _parent_hit(text, key), (edit, entry)
    if hit is not None:
        parsed = json.loads(text)
        want = SimulationConfig.from_dict(
            {**parsed["config"], "telemetry": None}
        )
        assert hit.config == want
        assert result_signature(hit) == result_signature(
            SimulationResult.from_dict(parsed)
        )


@pytest.mark.parametrize(
    "field, stored",
    [
        ("seed", 2.0),  # int 2 asked
        ("injection_rate", -0.0),  # 0.0 asked
        ("track_utilization", 0),  # False asked
        ("packet_size", True),  # 1 asked
    ],
)
def test_a_stored_value_equal_only_under_plain_equality_misses(
    tmp_path, field, stored
):
    """The stored config equals the asking one under ``==`` but is not
    the same JSON, so it hashes to another key: a miss, as before."""
    config = _config(injection_rate=0.0)
    cache = ResultCache(tmp_path)
    cache.put(dataclasses.replace(_simulated(), config=config))
    path = cache._path(config_cache_key(config))
    entry = json.loads(path.read_text())
    entry["config"][field] = stored
    assert entry["config"] == {**config.to_dict(), "telemetry": None}
    path.write_text(json.dumps(entry))
    assert not _parent_hit(path.read_text(), config_cache_key(config))
    assert cache.get(config) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_nan_is_stored_and_hit_as_nan(tmp_path):
    """NaN is not ``==`` to itself, but serializes (and hashes) alike.

    It rides in a fault's duration: ``from_dict``, which the oracle
    rebuilds the entry with, refuses a float in a config's int field."""
    nan_fault = FaultEvent(0, "router", 1, duration=float("nan"))
    config = _config(faults=FaultSchedule((nan_fault,)))
    cache = ResultCache(tmp_path)
    cache.put(dataclasses.replace(_simulated(), config=config))
    assert _parent_hit(
        cache._path(config_cache_key(config)).read_text(),
        config_cache_key(config),
    )
    assert cache.get(config) is not None


class TestEntryFormat:
    """Each latency sample list is stored once and packed: a flow equal
    to the overall samples is ``null``; entries written with explicit
    integer lists (every earlier tree) still hit."""

    def test_single_flow_is_written_as_null(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.put(result)
        data = json.loads(
            cache._path(config_cache_key(result.config)).read_text()
        )
        assert data["latency_by_flow"] == {"uniform": None}
        assert data["latency"] == pack_samples(result.latency.samples())
        assert unpack_samples(data["latency"]) == result.latency.samples()
        cached = cache.get(result.config)
        assert (
            cached.latency_by_flow["uniform"].samples()
            == result.latency_by_flow["uniform"].samples()
        )

    def test_entry_with_explicit_copies_still_hits(self, tmp_path):
        data = json.loads(FIXTURE.read_text())
        assert data["latency_by_flow"]["uniform"] == data["latency"]
        rebuilt = SimulationResult.from_dict(data)
        fresh = run_simulation(rebuilt.config)
        assert result_signature(rebuilt) == result_signature(fresh)
        assert (
            rebuilt.latency_by_flow["uniform"].samples()
            == fresh.latency_by_flow["uniform"].samples()
        )

        cache = ResultCache(tmp_path)
        cache._path(config_cache_key(rebuilt.config)).write_text(
            FIXTURE.read_text()
        )
        hit = cache.get(rebuilt.config)
        assert hit is not None and (cache.hits, cache.misses) == (1, 0)
        assert result_signature(hit) == result_signature(fresh)
        assert rebuilt.to_dict()["latency_by_flow"] == {"uniform": None}

    def test_packed_entry_rebuilds_the_list_form_result(self, tmp_path):
        listed = SimulationResult.from_dict(json.loads(FIXTURE.read_text()))
        data = json.loads(PACKED_FIXTURE.read_text())
        assert isinstance(data["latency"], str)
        assert data["latency_by_flow"] == {"uniform": None}
        packed = SimulationResult.from_dict(data)
        assert result_signature(packed) == result_signature(listed)
        for stats in (packed.latency, packed.latency_by_flow["uniform"]):
            assert stats.samples() == listed.latency.samples()
        # What the writer stores today, byte for byte.
        cache = ResultCache(tmp_path)
        cache.put(listed)
        path = cache._path(config_cache_key(listed.config))
        assert path.read_text() == PACKED_FIXTURE.read_text()
        assert cache.get(listed.config) is not None


class TestConcurrentWriters:
    def test_parallel_puts_with_racing_prune(self, tmp_path):
        """Writer threads racing prune never tear, crash, or leak.

        ``prune`` only sweeps temp files old enough that no live writer
        can own them, so concurrent stores must always succeed.
        (``clear`` is the exclusive admin reset — it sweeps everything
        and is not part of the concurrent-writer contract.)
        """
        import threading

        results = [_result(seed=seed) for seed in range(3, 7)]
        cache = ResultCache(tmp_path / "cache")
        stop = threading.Event()
        errors = []

        def writer(result):
            while not stop.is_set():
                try:
                    cache.put(result)
                except Exception as exc:  # noqa: BLE001 - collect all
                    errors.append(exc)
                    return

        def sweeper():
            while not stop.is_set():
                try:
                    cache.prune(2)
                except Exception as exc:  # noqa: BLE001 - collect all
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=writer, args=(r,)) for r in results
        ] + [threading.Thread(target=sweeper)]
        for thread in threads:
            thread.start()
        import time as _time

        _time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        # The store is still fully functional and entries round-trip.
        cache.put(results[0])
        fresh = ResultCache(tmp_path / "cache")
        hit = fresh.get(results[0].config)
        assert hit is not None
        assert _signature(hit) == _signature(results[0])
        # No temp files were leaked by the racing writers.
        assert list((tmp_path / "cache").glob(".*.tmp")) == []

    def test_prune_spares_fresh_tmp_sweeps_stale(self, tmp_path):
        import os as _os
        import time as _time

        from repro.harness.cache import STALE_TMP_SECONDS

        cache = ResultCache(tmp_path / "cache")
        cache.put(_result(seed=3))
        fresh_tmp = tmp_path / "cache" / ".abc.live.tmp"
        fresh_tmp.write_text("{}")
        stale_tmp = tmp_path / "cache" / ".def.dead.tmp"
        stale_tmp.write_text("{}")
        old = _time.time() - STALE_TMP_SECONDS - 10
        _os.utime(stale_tmp, (old, old))

        cache.prune(10)
        # A live writer's temp file survives; the orphan is swept.
        assert fresh_tmp.exists()
        assert not stale_tmp.exists()

        cache.clear()
        assert not fresh_tmp.exists()

    def test_put_survives_directory_removal(self, tmp_path):
        import shutil

        cache = ResultCache(tmp_path / "cache")
        result = _result(seed=3)
        cache.put(result)
        shutil.rmtree(tmp_path / "cache")
        # put() recreates the directory and retries the atomic publish.
        cache.put(result)
        assert cache.get(result.config) is not None


class TestDefaultDirectory:
    def test_env_var_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().directory == tmp_path / "envcache"
        assert ResultCache(tmp_path / "own").directory == tmp_path / "own"

    def test_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(ResultCache().directory) == ".repro-cache"

    def test_blank_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        assert str(ResultCache().directory) == ".repro-cache"


class TestConfigRoundTrip:
    def test_to_from_dict_preserves_key(self):
        config = _config(packet_size_range=(1, 6))
        blob = json.dumps(config.to_dict())
        rebuilt = SimulationConfig.from_dict(json.loads(blob))
        assert config_cache_key(rebuilt) == config_cache_key(config)

    def test_trace_round_trip_preserves_key(self):
        config = _config(
            traffic="trace",
            trace=[TraceEvent(3, 1, 9, size=2, flow="app")],
            injection_rate=0.0,
        )
        blob = json.dumps(config.to_dict())
        rebuilt = SimulationConfig.from_dict(json.loads(blob))
        assert config_cache_key(rebuilt) == config_cache_key(config)
