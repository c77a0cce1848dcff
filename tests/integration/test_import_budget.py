"""An import budget for the entry points.

A warm ``repro experiment`` is a cache probe, ``repro list`` prints three
tables, and the service clients talk to a socket: none of them may load
the simulator.  Every case runs in a fresh interpreter and asserts on
its ``sys.modules``; when one fails, CI's ``-X importtime`` step shows
which import pulled the module in.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: What a verb that simulates nothing must not load.  A trailing dot
#: means "anything below this package".
SIMULATOR = (
    "repro.sim.engine",
    "repro.router.router",
    "repro.routing.",
    "repro.traffic.",
    "repro.telemetry.hub",
    "repro.faults.manager",
    "repro.service",
    "repro.tuner",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "logging",
)

#: ``repro list`` prints the registered algorithms and the pattern
#: table, so it loads the registry (and what it registers) and the
#: pattern module — and still none of the rest.
LIST_NEEDS = ("repro.routing.", "repro.traffic.patterns", "repro.traffic.injection")

_MARK = "@@modules "


def _modules_after(code: str, *argv: str, **env: str) -> tuple[set[str], str]:
    """Run ``code`` in a fresh interpreter; its modules and its stdout."""
    script = (
        "import json, sys\n"
        + code
        + f"\nprint({_MARK!r} + json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out, _, modules = proc.stdout.rpartition(_MARK)
    return set(json.loads(modules)), out


def _loaded(modules: set[str], budget: tuple[str, ...]) -> list[str]:
    """The members of ``modules`` that ``budget`` forbids."""
    return sorted(
        module
        for module in modules
        if any(
            module.startswith(entry)
            if entry.endswith(".")
            else module == entry or module.startswith(entry + ".")
            for entry in budget
        )
    )


_CLI = "from repro.cli import main\nassert main(sys.argv[1:]) == 0"


def test_building_the_parser_loads_no_simulator():
    modules, _ = _modules_after(
        "import repro.cli\nrepro.cli._build_parser()"
    )
    assert _loaded(modules, SIMULATOR) == []
    # The budget is the point, the count is the early warning: 215
    # modules before the façades went lazy, ~75 after.
    assert len(modules) < 110


#: What a grid that needs no pool must not load.
POOL = ("concurrent.futures", "multiprocessing")


def _fig9(cache_dir) -> tuple[str, ...]:
    return ("experiment", "fig9", "--scale", "smoke",
            "--cache-dir", str(cache_dir))


def test_warm_experiment_is_a_cache_probe(tmp_path):
    """Under the verb's default worker count (every usable CPU)."""
    from repro.harness.parallel import usable_cpus

    argv = _fig9(tmp_path)
    cold, out = _modules_after(_CLI, *argv, REPRO_JOBS="")
    assert "0 hits, 4 misses" in out
    # The cold run simulates: the engine is loaded (and was before the
    # first task ran — see test_run_tasks_loads_the_engine_before...),
    # and the pool is, exactly when there is a second CPU to use.
    assert "repro.sim.engine" in cold
    assert bool(_loaded(cold, POOL)) == (usable_cpus() > 1)
    warm, replay = _modules_after(_CLI, *argv, REPRO_JOBS="")
    assert "4 hits, 0 misses" in replay
    assert replay.replace("4 hits, 0 misses", "") == out.replace(
        "0 hits, 4 misses", ""
    )
    assert _loaded(warm, SIMULATOR) == []
    assert "tempfile" not in warm  # only ResultCache.put needs it


def test_serial_by_request_loads_no_pool(tmp_path):
    cold, out = _modules_after(_CLI, *_fig9(tmp_path), REPRO_JOBS="1")
    assert "0 hits, 4 misses" in out
    assert _loaded(cold, POOL) == []


def test_one_usable_cpu_loads_no_pool(tmp_path):
    """``auto`` on a one-CPU allowance is the serial path, untaxed."""
    pin = (
        "import os\n"
        "if hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "else:\n"
        "    os.cpu_count = lambda: 1\n"
    )
    cold, out = _modules_after(pin + _CLI, *_fig9(tmp_path), REPRO_JOBS="")
    assert "0 hits, 4 misses" in out
    assert _loaded(cold, POOL) == []


def test_one_pending_task_loads_no_pool(tmp_path):
    """The cache answered all but one task: nothing to fan out."""
    modules, out = _modules_after(
        "from repro.harness.cache import ResultCache\n"
        "from repro.harness.parallel import SimTask, run_tasks\n"
        "from repro.sim.config import SimulationConfig\n"
        "config = SimulationConfig(width=4, num_vcs=2, routing='dor',\n"
        "    warmup_cycles=10, measure_cycles=20, drain_cycles=100)\n"
        "tasks = [SimTask(config, rate=r) for r in (0.05, 0.1, 0.2)]\n"
        "cache = ResultCache(sys.argv[1])\n"
        "run_tasks(tasks[:2], jobs=1, cache=cache)\n"
        "run_tasks(tasks, jobs=4, cache=cache)\n"
        "print(cache.describe())",
        str(tmp_path), REPRO_SERVICE="",
    )
    assert "2 hits, 3 misses" in out
    assert _loaded(modules, POOL) == []


def test_list_loads_the_registry_and_nothing_else():
    modules, out = _modules_after(_CLI, "list")
    assert "footprint" in out and "transpose" in out and "torus" in out
    allowed = set(_loaded(modules, LIST_NEEDS))
    assert "repro.routing.registry" in allowed
    assert sorted(set(_loaded(modules, SIMULATOR)) - allowed) == []


def test_numpy_is_never_imported(tmp_path):
    """The package depends on the standard library alone: no source
    file names numpy, and every verb that simulates works where
    importing it fails (pool workers are forked from the blocked
    process; the server is a blocked process of its own)."""
    sources = Path(repro.__file__).parent.rglob("*.py")
    assert [str(p) for p in sources if "numpy" in p.read_text()] == []

    blocked = "sys.modules['numpy'] = None\n" + _CLI

    def cli(*argv: str) -> str:
        return _modules_after(blocked, *argv, REPRO_SERVICE="")[1]

    short = ("--warmup", "20", "--measure", "50", "--drain", "100")
    assert "drained       : yes" in cli(
        "run", "--width", "4", "--vcs", "4", *short
    )
    assert "0 hits, 4 misses" in cli(*_fig9(tmp_path / "cache"), "--jobs", "2")
    assert "2/2 configurations clean" in cli("validate", "--runs", "2")
    server = subprocess.Popen(
        [sys.executable, "-c", "import sys\n" + blocked, "serve",
         "--port", "0", "--state-dir", str(tmp_path / "state")],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        listening = re.search(r":(\d+) ", server.stdout.readline())
        assert listening, "repro serve never listened"
        address = f"127.0.0.1:{listening.group(1)}"
        # A loaded 8x8 task, simulated by the server's own worker.
        out = cli("submit", "--address", address, "--rates", "0.3",
                  "--timeout", "120", *short)
        assert "1 simulated" in out
        listing = cli("jobs", "--address", address)
        assert listing.startswith("1 jobs, 1 streams, 0/1 workers busy")
        assert "j1    done      default      1/1 done" in listing
        from repro.service.client import ServiceClient

        ServiceClient.from_address(address).shutdown()
        assert server.wait(timeout=30) == 0
        # The result cache is the service's only persistent store.
        assert os.listdir(tmp_path / "state") == ["cache"]
    finally:
        if server.poll() is None:
            server.kill()
        server.stdout.close()


def test_a_second_run_imports_nothing_new():
    """benchmarks/perf reports set-up apart from the timed rounds on the
    strength of one untimed 4x4 warm-up run finishing every import a
    default ``run_simulation`` needs.  Lazy imports must not break it."""
    _, out = _modules_after(
        "from repro.harness.runner import run_simulation\n"
        "from repro.sim.config import SimulationConfig\n"
        "run_simulation(SimulationConfig(width=4, num_vcs=4,\n"
        "    warmup_cycles=20, measure_cycles=50, drain_cycles=100))\n"
        "before = set(sys.modules)\n"
        "result = run_simulation(SimulationConfig(width=8, routing='dbar',\n"
        "    traffic='transpose', injection_rate=0.3, warmup_cycles=20,\n"
        "    measure_cycles=60, drain_cycles=300))\n"
        "result.summary(); result.latency.percentile(99)\n"
        "result.from_dict(json.loads(json.dumps(result.to_dict())))\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))",
        REPRO_VALIDATE="",
    )
    assert json.loads(out) == []


def test_run_tasks_loads_the_engine_before_its_pool_exists():
    """Workers are forked from a parent that already holds the engine:
    they share its pages, and no import lands in a timed task."""
    _, out = _modules_after(
        "import concurrent.futures as cf\n"
        "from repro.harness.parallel import SimTask, run_tasks\n"
        "from repro.sim.config import SimulationConfig\n"
        "seen = {'before': 'repro.sim.engine' in sys.modules}\n"
        "class Pool(cf.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen['at_pool'] = 'repro.sim.engine' in sys.modules\n"
        "        super().__init__(*args, **kwargs)\n"
        "cf.ProcessPoolExecutor = Pool\n"
        "config = SimulationConfig(width=4, num_vcs=2, routing='dor',\n"
        "    warmup_cycles=10, measure_cycles=20, drain_cycles=100)\n"
        "results = run_tasks([SimTask(config, rate=r) for r in (0.05, 0.2)],\n"
        "                    jobs=2)\n"
        "seen['results'] = len(results)\n"
        "print(json.dumps(seen))",
        REPRO_SERVICE="",
    )
    assert json.loads(out) == {"before": False, "at_pool": True, "results": 2}


def test_the_service_loads_the_engine_at_boot():
    """``repro serve`` builds its executor on the first dispatch; the
    engine must be in memory before that, not imported by the first
    job."""
    modules, _ = _modules_after("import repro.service.server")
    assert "repro.sim.engine" in modules
