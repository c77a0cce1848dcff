"""Unit tests for the parallel execution layer."""

import gc
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.harness import parallel
from repro.harness.parallel import (
    SimTask,
    _pool_weight,
    derive_task_seed,
    estimate_task_cycles,
    partition_tasks,
    resolve_jobs,
    run_tasks,
    usable_cpus,
)
from repro.sim.config import SimulationConfig


@pytest.fixture
def config():
    return SimulationConfig(
        width=4,
        num_vcs=2,
        routing="dor",
        warmup_cycles=20,
        measure_cycles=40,
        drain_cycles=200,
        seed=5,
    )


class TestResolveJobs:
    def test_explicit_integer(self):
        assert resolve_jobs(3) == 3

    def test_explicit_string(self):
        assert resolve_jobs("2") == 2

    def test_auto_is_cpu_count(self):
        assert resolve_jobs("auto") == usable_cpus()

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_callers_fallback_applies_when_nothing_else_speaks(
        self, monkeypatch
    ):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 7)
        monkeypatch.setenv("REPRO_JOBS", " ")
        assert resolve_jobs(None, default="auto") == 7
        assert resolve_jobs(None, default=3) == 3
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert resolve_jobs(None, default="auto") == 6
        assert resolve_jobs(2, default="auto") == 2

    @pytest.mark.parametrize("value", ["many", "0", "-2", "1.5"])
    def test_bad_env_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigurationError, match=r"^\$REPRO_JOBS='"):
            resolve_jobs(None)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert resolve_jobs(None) == 6

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert resolve_jobs(2) == 2

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match=r"^jobs='0'"):
            resolve_jobs(0)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs("many")


class TestUsableCpus:
    """``auto`` counts the CPUs the process may use, not the host's."""

    @pytest.fixture
    def cgroup(self, monkeypatch, tmp_path):
        """An empty cgroup mount (no cap) that tests write files into."""
        monkeypatch.setattr(parallel, "_CGROUP_ROOT", str(tmp_path))
        (tmp_path / "cpu").mkdir()
        return tmp_path

    @pytest.fixture
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )

    def test_counts_the_affinity_set_not_the_machine(
        self, monkeypatch, cgroup
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {2, 3, 5}, raising=False
        )
        assert usable_cpus() == 3

    def test_platform_without_affinity_uses_cpu_count(
        self, monkeypatch, cgroup
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    @pytest.mark.parametrize(
        "files, expected",
        [
            ({"cpu.max": "150000 100000\n"}, 2),  # 1.5 CPUs, rounded up
            ({"cpu.max": "max 100000\n"}, 8),
            ({"cpu.max": "50000 100000\n"}, 1),
            ({"cpu.max": "1600000 100000\n"}, 8),  # quota above affinity
            ({"cpu.max": "garbage\n"}, 8),
            ({"cpu/cpu.cfs_quota_us": "-1\n",
              "cpu/cpu.cfs_period_us": "100000\n"}, 8),
            ({"cpu/cpu.cfs_quota_us": "250000\n",
              "cpu/cpu.cfs_period_us": "100000\n"}, 3),
            ({"cpu/cpu.cfs_quota_us": "250000\n"}, 8),  # no period file
            ({}, 8),
        ],
        ids=["v2-1.5", "v2-max", "v2-half", "v2-loose", "v2-garbage",
             "v1-none", "v1-2.5", "v1-half-present", "no-files"],
    )
    def test_cgroup_quota_caps_the_count(
        self, cgroup, eight_cpus, files, expected
    ):
        for name, text in files.items():
            (cgroup / name).write_text(text)
        assert usable_cpus() == expected

    def test_unreadable_cgroup_files_mean_no_cap(
        self, monkeypatch, cgroup, eight_cpus
    ):
        (cgroup / "cpu.max").mkdir()  # open() fails: IsADirectoryError
        assert usable_cpus() == 8
        monkeypatch.setattr(parallel, "_CGROUP_ROOT", str(cgroup / "absent"))
        assert usable_cpus() == 8

    def test_never_below_one(self, monkeypatch, cgroup):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        assert usable_cpus() == 1

    def test_this_host(self):
        assert 1 <= usable_cpus() <= (os.cpu_count() or 1)


class TestSimTask:
    def test_rate_override(self, config):
        task = SimTask(config, rate=0.25)
        assert task.resolved_config().injection_rate == 0.25

    def test_no_rate_keeps_config(self, config):
        assert SimTask(config).resolved_config() is config

    def test_task_is_picklable(self, config):
        import pickle

        task = SimTask(config, rate=0.1, key=("dor", 0.1))
        clone = pickle.loads(pickle.dumps(task))
        assert clone.rate == task.rate
        assert clone.key == task.key
        assert clone.resolved_config().injection_rate == 0.1

    def test_hotspot_grid_sweeps_the_hotspot_rate(self, config):
        """A rate sets the traffic's own load field: a hotspot grid
        simulates one load per rate, not the same load once per rate."""
        from repro.validate.differential import result_signature

        hotspot = config.with_(traffic="hotspot")
        rates = (0.02, 0.3, 0.6)
        tasks = [SimTask(hotspot, rate=rate) for rate in rates]
        configs = [task.resolved_config() for task in tasks]
        assert [c.hotspot_rate for c in configs] == list(rates)
        assert {c.injection_rate for c in configs} == {hotspot.injection_rate}
        signatures = {result_signature(r) for r in run_tasks(tasks)}
        assert len(signatures) == len(rates)


class TestDeriveTaskSeed:
    def test_deterministic(self):
        assert derive_task_seed(1, "fig5/dor/0.1") == derive_task_seed(
            1, "fig5/dor/0.1"
        )

    def test_distinct_names_distinct_seeds(self):
        seeds = {derive_task_seed(1, f"task-{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_bases_distinct_seeds(self):
        assert derive_task_seed(1, "t") != derive_task_seed(2, "t")

    def test_in_range(self):
        for i in range(10):
            assert 0 <= derive_task_seed(i, "x") < 2**63

    def test_stable_across_process_boundary(self):
        """hash() is salted per process; derive_task_seed must not be."""
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="random")
        snippet = (
            "from repro.harness.parallel import derive_task_seed;"
            "print(derive_task_seed(7, 'fig8/footprint/16'))"
        )
        outs = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            outs.add(int(proc.stdout.strip()))
        assert outs == {derive_task_seed(7, "fig8/footprint/16")}


class TestEstimateTaskCycles:
    def test_scales_with_mesh_and_cycles(self, config):
        small = estimate_task_cycles(SimTask(config))
        bigger = estimate_task_cycles(
            SimTask(config.with_(width=8, height=8))
        )
        longer = estimate_task_cycles(
            SimTask(config.with_(measure_cycles=config.measure_cycles * 10))
        )
        assert bigger == small * 4
        assert longer > small

    def test_rate_override_resolves(self, config):
        # Cost comes from the resolved config, not the template.
        assert estimate_task_cycles(
            SimTask(config, rate=0.4)
        ) == estimate_task_cycles(SimTask(config))

    def test_always_positive(self, config):
        zero = config.with_(
            warmup_cycles=0, measure_cycles=0, drain_cycles=0
        )
        assert estimate_task_cycles(SimTask(zero)) >= 1


class TestPartitionTasks:
    def test_covers_every_index_once(self):
        costs = [5, 1, 9, 3, 3, 7, 2]
        batches = partition_tasks(costs, 3)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(costs)))

    def test_never_more_batches_than_tasks(self):
        assert partition_tasks([4, 4], 8) == [[0], [1]]

    def test_batches_sorted_and_ordered(self):
        batches = partition_tasks([1, 8, 2, 8, 1, 2], 2)
        for batch in batches:
            assert batch == sorted(batch)
        firsts = [batch[0] for batch in batches]
        assert firsts == sorted(firsts)

    def test_lpt_balances_loads(self):
        # LPT keeps the spread within one task: the load gap between the
        # heaviest and lightest bucket never exceeds the largest cost.
        costs = [13, 11, 7, 5, 5, 3, 2, 2, 1]
        batches = partition_tasks(costs, 3)
        loads = [sum(costs[i] for i in batch) for batch in batches]
        assert max(loads) - min(loads) <= max(costs)
        # One giant task dominating everything still lands alone.
        batches = partition_tasks([100, 1, 1, 1], 2)
        singleton = [b for b in batches if len(b) == 1]
        assert singleton == [[0]]

    def test_single_bucket_is_identity(self):
        assert partition_tasks([3, 1, 2], 1) == [[0, 1, 2]]


class TestRunTasks:
    def test_results_in_task_order(self, config):
        tasks = [SimTask(config, rate=r) for r in (0.3, 0.05)]
        results = run_tasks(tasks, jobs=1)
        assert [r.config.injection_rate for r in results] == [0.3, 0.05]

    def test_empty_grid(self):
        assert run_tasks([], jobs=4) == []

    def test_pool_matches_serial(self, config):
        """jobs=4 must reproduce jobs=1 bit-for-bit (forces the pool)."""
        tasks = [SimTask(config, rate=r) for r in (0.05, 0.2)]
        serial = run_tasks(tasks, jobs=1)
        pooled = run_tasks(tasks, jobs=4)
        for a, b in zip(serial, pooled):
            assert a.cycles_run == b.cycles_run
            assert a.accepted_flits == b.accepted_flits
            assert tuple(a.latency._samples) == tuple(b.latency._samples)

    @pytest.mark.parametrize("engine_mode", ["skip", "legacy"])
    def test_finished_simulator_is_freed_without_the_collector(
        self, config, engine_mode
    ):
        """A grid's peak memory is one simulator, not however many the
        cycle collector has yet to find (that moved benchmarks/perf's
        grid_pool peak between 45 and 50 MB with the seed)."""
        from repro.sim.engine import Simulator

        task = SimTask(config, rate=0.2)

        def run():
            # The pool's worker runs the default engine; the reference
            # loop is only reachable by constructing it.
            if engine_mode == "skip":
                return parallel._run_task(task)
            return Simulator(
                task.resolved_config(), engine_mode=engine_mode
            ).run()

        results = []
        left = _left_for_the_collector(lambda: results.append(run()))
        assert results[0].accepted_flits > 0
        assert not left & _NETWORK_TYPES

    @pytest.mark.parametrize("observed", ["plain", "sampling", "validated"])
    @pytest.mark.parametrize("engine_mode", ["skip", "legacy"])
    def test_plain_api_leaves_no_network_for_the_collector(
        self, config, engine_mode, observed, monkeypatch
    ):
        """The same through ``Simulator(...).run()`` and
        ``run_simulation``: nothing a simulator owns points back at it,
        so nobody has to empty it."""
        from repro.harness.runner import run_simulation
        from repro.sim.engine import Simulator
        from repro.telemetry.config import TelemetryConfig
        from repro.validate.config import validation_from_env

        config = config.with_(injection_rate=0.2)
        if observed == "sampling":
            config = config.with_(telemetry=TelemetryConfig())
        elif observed == "validated":
            monkeypatch.setenv("REPRO_VALIDATE", "all")
        results = []
        left = _left_for_the_collector(
            lambda: results.extend(
                (
                    Simulator(
                        config,
                        engine_mode=engine_mode,
                        validation=validation_from_env(),
                    ).run(),
                    run_simulation(config),
                )
            )
        )
        assert results[0].accepted_flits == results[1].accepted_flits > 0
        assert not left & _NETWORK_TYPES

    @pytest.mark.parametrize("engine_mode", ["skip", "legacy"])
    def test_finished_simulator_can_still_be_stepped(
        self, config, engine_mode
    ):
        from repro.sim.engine import Simulator

        simulator = Simulator(
            config.with_(injection_rate=0.2), engine_mode=engine_mode
        )
        simulator.run()
        cycle = simulator.cycle
        simulator.step()
        assert simulator.cycle == cycle + 1
        assert simulator.total_buffered_flits() >= 0

    def test_failed_simulation_keeps_its_state(self, config, monkeypatch):
        """A run that raised is what the post-mortem looks at."""
        from repro.sim import engine

        seen = []

        def run(self):
            seen.append(self)
            raise RuntimeError("boom")

        monkeypatch.setattr(engine.Simulator, "run", run)
        with pytest.raises(RuntimeError, match="boom"):
            parallel._run_task(SimTask(config, rate=0.2))
        assert seen[0].routers

    def test_simulator_whose_run_raised_is_inspectable(self, config):
        from repro.sim.engine import Simulator

        simulator = Simulator(config.with_(injection_rate=0.2))
        router = simulator.routers[5]
        healthy = router.switch_traversal

        def broken():
            if simulator.cycle >= 30:
                raise RuntimeError("boom")
            return healthy()

        router.switch_traversal = broken
        with pytest.raises(RuntimeError, match="boom"):
            simulator.run()
        assert simulator.cycle >= 30
        assert simulator.total_buffered_flits() > 0
        assert router.inflight > 0


#: What a network is made of: none of it may wait for the cycle collector.
_NETWORK_TYPES = {
    "Simulator",
    "Router",
    "InputVc",
    "OutputPort",
    "Sink",
    "Source",
}


def _left_for_the_collector(run):
    """Type names of the objects ``run()`` leaves to the cycle collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what collect() finds
    try:
        run()
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _bench_grid():
    """benchmarks/perf's pool grid: {footprint, dbar} x four rates."""
    tasks = []
    for routing in ("footprint", "dbar"):
        base = SimulationConfig(
            width=8,
            routing=routing,
            warmup_cycles=10,
            measure_cycles=30,
            drain_cycles=60,
        )
        tasks.extend(
            SimTask(base, rate=rate) for rate in (0.05, 0.1, 0.2, 0.3)
        )
    return tasks


def _fig9_smoke_grid():
    from repro.harness.experiments import SMOKE

    return [
        SimTask(
            SMOKE.config(
                routing=routing,
                traffic="hotspot",
                hotspot_rate=rate,
                background_rate=0.3,
            )
        )
        for routing in ("dbar", "footprint")
        for rate in SMOKE.hotspot_rates
    ]


class TestPoolWeights:
    """The pool starts the heaviest tasks first, by load-weighted cost;
    the shared estimate stays load-blind."""

    @pytest.mark.parametrize(
        "grid, heaviest",
        [(_bench_grid, (3, 7)), (_fig9_smoke_grid, (1, 3))],
        ids=["bench_grid", "fig9_smoke"],
    )
    def test_two_heaviest_tasks_land_on_different_workers(
        self, grid, heaviest, inline_pool, monkeypatch
    ):
        """They are the first two submissions, one per worker."""
        tasks = grid()
        monkeypatch.setattr(parallel, "_run_task", lambda task: None)
        run_tasks(tasks, jobs=2)
        index = {id(task): i for i, task in enumerate(tasks)}
        first_two = [index[id(task)] for task in _InlinePool.submitted[:2]]
        assert tuple(sorted(first_two)) == heaviest
        # The load-blind estimate cannot tell them from the rest.
        assert len({estimate_task_cycles(task) for task in tasks}) == 1

    def test_weight_grows_with_load(self, config):
        idle, light, heavy = (
            _pool_weight(config.at_load(rate)) for rate in (0.0, 0.05, 0.3)
        )
        assert idle == 0 < light < heavy

    def test_estimate_task_cycles_is_still_load_blind(self, config):
        assert estimate_task_cycles(
            SimTask(config, rate=0.4)
        ) == estimate_task_cycles(SimTask(config, rate=0.01))


class _InlinePool:
    """ProcessPoolExecutor stand-in: runs each submission on the spot,
    in this process, and remembers the tasks it was handed."""

    submitted: list = []

    def __init__(self, max_workers):
        type(self).submitted = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, task):
        from concurrent.futures import Future

        type(self).submitted.append(task)
        future = Future()
        try:
            future.set_result(fn(task))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)


class TestPutAsYouGo:
    """A failing task must not discard the results finished before it."""

    @pytest.fixture
    def flaky(self, monkeypatch):
        """``_run_task`` that refuses one rate and counts real runs."""
        from repro.exceptions import SimulationError

        real = parallel._run_task
        state = {"fails_at": 0.3, "simulated": [], "error": SimulationError}

        def run(task):
            if task.rate == state["fails_at"]:
                raise state["error"](f"rate {task.rate} refused")
            state["simulated"].append(task.rate)
            return real(task)

        monkeypatch.setattr(parallel, "_run_task", run)
        return state

    def test_serial_failure_keeps_every_earlier_result(
        self, config, flaky, tmp_path
    ):
        from repro.exceptions import SimulationError
        from repro.harness.cache import ResultCache

        tasks = [SimTask(config, rate=r) for r in (0.05, 0.1, 0.3)]
        cache = ResultCache(tmp_path)
        with pytest.raises(SimulationError, match="0.3 refused"):
            run_tasks(tasks, jobs=1, cache=cache)
        assert len(cache.entry_paths()) == 2
        # The re-run simulates only the task that failed.
        flaky["fails_at"], flaky["simulated"] = None, []
        results = run_tasks(tasks, jobs=1, cache=cache)
        assert flaky["simulated"] == [0.3]
        assert [r.config.injection_rate for r in results] == [0.05, 0.1, 0.3]
        assert len(cache.entry_paths()) == 3

    def test_pooled_failure_keeps_every_other_task(
        self, config, flaky, tmp_path, inline_pool
    ):
        from repro.exceptions import SimulationError
        from repro.harness.cache import ResultCache

        rates = (0.05, 0.3, 0.1, 0.2)
        tasks = [SimTask(config, rate=r) for r in rates]
        cache = ResultCache(tmp_path)
        with pytest.raises(SimulationError, match="0.3 refused"):
            run_tasks(tasks, jobs=2, cache=cache)
        kept = [
            ResultCache(tmp_path).get(task.resolved_config()) is not None
            for task in tasks
        ]
        assert kept == [True, False, True, True]
        # One task per submission, heaviest first: the failing task went
        # first, and the three after it still ran.
        assert [t.rate for t in _InlinePool.submitted] == [0.3, 0.2, 0.1, 0.05]
        flaky["fails_at"], flaky["simulated"] = None, []
        results = run_tasks(tasks, jobs=2, cache=cache)
        assert flaky["simulated"] == [0.3]
        assert [r.config.injection_rate for r in results] == list(rates)

    def test_pooled_results_come_back_in_task_order(
        self, config, inline_pool
    ):
        rates = (0.2, 0.05, 0.3, 0.1, 0.15)
        results = run_tasks(
            [SimTask(config, rate=r) for r in rates], jobs=3
        )
        assert [r.config.injection_rate for r in results] == list(rates)
        assert len(_InlinePool.submitted) == len(rates)

    def test_equal_weights_start_in_task_order(self, config, inline_pool):
        tasks = [
            SimTask(config.with_(routing=routing), rate=rate)
            for routing in ("dor", "oddeven")
            for rate in (0.05, 0.2)
        ]
        run_tasks(tasks, jobs=2)
        assert [
            (t.config.routing, t.rate) for t in _InlinePool.submitted
        ] == [("dor", 0.2), ("oddeven", 0.2), ("dor", 0.05),
              ("oddeven", 0.05)]

    def test_interrupt_keeps_what_finished_and_the_rerun_does_the_rest(
        self, config, flaky, tmp_path
    ):
        """Ctrl-C mid-grid: the CLI prints ``interrupted``; this is the
        half of the promise that lives here."""
        from repro.harness.cache import ResultCache

        flaky["error"] = KeyboardInterrupt
        rates = (0.05, 0.1, 0.3, 0.2)
        tasks = [SimTask(config, rate=r) for r in rates]
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, jobs=1, cache=cache)
        assert len(cache.entry_paths()) == 2
        flaky["fails_at"], flaky["simulated"] = None, []
        results = run_tasks(tasks, jobs=1, cache=cache)
        assert flaky["simulated"] == [0.3, 0.2]
        assert [r.config.injection_rate for r in results] == list(rates)


def _await(condition, seconds=20.0):
    """Poll ``condition()`` until it holds or ``seconds`` pass."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stand-in simulation reaches the workers by being forked",
)
class TestWorkerLoss:
    """A real 2-worker pool whose grid is cut short: each result is in
    the cache the moment it exists, whatever happens to the rest."""

    @pytest.fixture
    def grid(self, config, tmp_path, monkeypatch):
        """``(make, cache, started, hooks)``: ``make(rates)`` is a grid
        of ``config`` at those rates; in a worker, each simulation
        leaves its rate in ``started`` and first calls ``hooks[rate]``,
        if there is one."""
        from repro.harness import runner
        from repro.harness.cache import ResultCache

        real = runner.run_simulation
        started = tmp_path / "started"
        started.mkdir()
        hooks = {}

        def run(resolved):
            rate = resolved.injection_rate
            (started / str(rate)).touch()
            if rate in hooks:
                hooks[rate]()
            return real(resolved)

        monkeypatch.setattr(runner, "run_simulation", run)

        def make(rates):
            return [SimTask(config, rate=r) for r in rates]

        return make, ResultCache(tmp_path / "cache"), started, hooks

    @staticmethod
    def _stored(cache):
        return len(cache.entry_paths())

    def test_killed_worker_is_one_clear_error(self, grid):
        from repro.exceptions import SimulationError

        make, cache, _, hooks = grid
        tasks = make((0.05, 0.3, 0.1, 0.2))

        def die():  # the lightest task goes last: the others are done
            _await(lambda: self._stored(cache) == 3)
            os._exit(9)

        hooks[0.05] = die
        with pytest.raises(SimulationError) as excinfo:
            run_tasks(tasks, jobs=2, cache=cache)
        message = str(excinfo.value)
        assert "worker was killed" in message and "\n" not in message
        assert "1 of 4 simulations unfinished" in message
        assert "--jobs 1" in message and "re-run resumes" in message
        assert [
            cache.get(task.resolved_config()) is not None for task in tasks
        ] == [False, True, True, True]
        hooks.clear()
        before = cache.misses
        results = run_tasks(tasks, jobs=2, cache=cache)
        assert cache.misses - before == 1
        assert [r.config.injection_rate for r in results] == [
            0.05, 0.3, 0.1, 0.2
        ]

    def test_interrupt_starts_nothing_queued(self, grid):
        make, cache, started, hooks = grid
        rates = (0.3, 0.25, 0.2, 0.15, 0.1, 0.05)
        tasks = make(rates)

        def interrupt():
            # Once 0.3 is in the cache and the task after it runs.
            _await(
                lambda: self._stored(cache) == 1
                and (started / "0.2").exists()
            )
            raise KeyboardInterrupt

        hooks[0.25] = interrupt
        # Long enough for the pool to see the interrupt first.
        hooks[0.2] = lambda: time.sleep(0.5)
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, jobs=2, cache=cache)
        ran = {float(path.name) for path in started.iterdir()}
        stored = {
            rate
            for rate, task in zip(rates, tasks)
            if cache.get(task.resolved_config()) is not None
        }
        # Every task that started finished into the cache, but the one
        # interrupted; the three still queued never started.
        assert ran == stored | {0.25}
        assert stored == {0.3, 0.2}
        hooks.clear()
        before = cache.misses
        results = run_tasks(tasks, jobs=2, cache=cache)
        assert cache.misses - before == 4
        assert [r.config.injection_rate for r in results] == list(rates)


class TestServiceFallback:
    """$REPRO_SERVICE must degrade loudly, never fail the sweep."""

    def test_unreachable_service_falls_back_to_local_pool(
        self, config, monkeypatch, capsys
    ):
        # Port 1 on loopback: connection is refused immediately.
        monkeypatch.setenv("REPRO_SERVICE", "127.0.0.1:1")
        tasks = [SimTask(config, rate=0.05)]
        results = run_tasks(tasks, jobs=1)
        err = capsys.readouterr().err
        assert "REPRO_SERVICE=127.0.0.1:1" in err
        assert "falling back to the local pool" in err
        monkeypatch.delenv("REPRO_SERVICE")
        local = run_tasks(tasks, jobs=1)
        assert results[0].accepted_flits == local[0].accepted_flits
        assert results[0].cycles_run == local[0].cycles_run

    def test_warm_grid_never_contacts_the_service(
        self, config, monkeypatch, capsys, tmp_path
    ):
        """The cache answers before the service is asked, so a warm
        grid gives the same results and no fallback warning while the
        service is down."""
        from repro.harness.cache import ResultCache

        tasks = [SimTask(config, rate=0.05), SimTask(config, rate=0.1)]
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        local = run_tasks(tasks, jobs=1, cache=ResultCache(tmp_path))
        monkeypatch.setenv("REPRO_SERVICE", "127.0.0.1:1")
        warm = run_tasks(tasks, jobs=1, cache=ResultCache(tmp_path))
        assert capsys.readouterr().err == ""
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in local]

    def test_unset_service_stays_silent(self, config, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        run_tasks([SimTask(config, rate=0.05)], jobs=1)
        assert capsys.readouterr().err == ""
