"""The package façades' public contract.

The façades resolve their re-exports lazily (``repro._lazy``), so what
used to be checked by the import statements themselves is pinned here:
which names each package exports, and that every one of them is the
very object its defining module holds.
"""

import pickle
import sys
from importlib import import_module

import pytest

#: façade -> defining module -> the names re-exported from it.  The
#: façade's own name as the defining module marks what ``__init__``
#: defines itself.
PUBLIC = {
    "repro": {
        "repro": "__version__",
        "repro.sim.config": "SimulationConfig",
        "repro.sim.engine": "Simulator",
        "repro.sim.results": "SimulationResult",
        "repro.routing.registry": "available_algorithms create_routing",
        "repro.topology.base": "TOPOLOGIES Topology create_topology",
        "repro.topology.mesh": "Mesh2D",
        "repro.topology.ports": "Direction",
        "repro.topology.torus": "Torus2D",
        "repro.metrics.sweep": "injection_sweep saturation_throughput",
        "repro.core.cost": "CostModel",
    },
    "repro.sim": {
        "repro.sim.config": "SimulationConfig",
        "repro.sim.engine": "Simulator",
        "repro.sim.results": "SimulationResult",
    },
    "repro.harness": {
        "repro.harness.experiments": (
            "Scale SMOKE BENCH PAPER FaultSweepEntry fault_sweep "
            "fig2_congestion_tree fig5_latency_throughput "
            "fig6_variable_packet_size fig7_vc_sweep fig8_network_size "
            "fig9_hotspot fig10_parsec table1_adaptiveness cost_table"
        ),
    },
    "repro.metrics": {
        "repro.metrics.stats": "LatencyStats",
        "repro.metrics.sweep": (
            "SweepPoint injection_sweep saturation_throughput"
        ),
        "repro.metrics.curves": "LatencyThroughputCurve",
        "repro.metrics.resilience": (
            "ResiliencePoint degraded_saturation_rate resilience_point"
        ),
    },
    "repro.telemetry": {
        "repro.telemetry.config": (
            "DEFAULT_SAMPLE_EVERY DEFAULT_TRACE_LIMIT TelemetryConfig"
        ),
        "repro.telemetry.hub": "TelemetryHub",
        "repro.telemetry.result": "EVENT_KINDS TelemetryResult",
        "repro.telemetry.trace": (
            "summarize_trace write_chrome_trace write_jsonl write_trace"
        ),
    },
    "repro.faults": {
        "repro.faults.schedule": (
            "FaultEvent FaultSchedule parse_fault_spec random_link_faults "
            "random_router_faults"
        ),
        "repro.faults.manager": "FaultManager",
    },
    "repro.core": {
        "repro.core.adaptiveness": (
            "port_adaptiveness vc_adaptiveness mean_port_adaptiveness "
            "qualitative_comparison"
        ),
        "repro.core.congestion": "CongestionTree extract_congestion_tree",
        "repro.core.cost": "CostModel",
        "repro.core.purity": "purity_of_blocking hol_blocking_degree",
    },
    "repro.traffic": {
        "repro.traffic.patterns": (
            "PATTERNS LookaheadTraffic SyntheticTraffic TrafficGenerator "
            "pattern_destination"
        ),
        "repro.traffic.hotspot": "HotspotTraffic default_hotspot_flows",
        "repro.traffic.trace": "TraceEvent TraceTraffic",
        "repro.traffic.factory": "create_traffic",
    },
    "repro.routing": {
        "repro.routing.base": "OutputPortView RouteContext RoutingAlgorithm",
        "repro.routing.requests": "Priority VcRequest",
        "repro.routing.registry": "available_algorithms create_routing",
    },
    "repro.topology": {
        "repro.topology.ports": "Direction OPPOSITE",
        "repro.topology.base": "TOPOLOGIES Topology create_topology",
        "repro.topology.mesh": "Mesh2D",
        "repro.topology.torus": "Torus2D",
    },
    "repro.router": {
        "repro.router.flit": "Flit Packet",
        "repro.router.router": "Router",
    },
    "repro.validate": {
        "repro.validate.config": (
            "CHECKER_NAMES MUTATION_CHECKERS VALIDATE_ENV ValidationConfig "
            "validation_from_env"
        ),
    },
    "repro.tuner": {
        "repro.tuner": "TunerError",
        "repro.tuner.objectives": (
            "OBJECTIVES CandidateEval Scenario config_cost_bits"
        ),
        "repro.tuner.pareto": "pareto_frontier rank_evals",
        "repro.tuner.runner": "TuneResult run_tune",
        "repro.tuner.space": "AXES Axis Candidate",
    },
}

FACADES = sorted(PUBLIC)


def _homes(facade):
    return {
        name: module
        for module, names in PUBLIC[facade].items()
        for name in names.split()
    }


def test_there_are_thirteen_facades():
    assert len(FACADES) == 13


@pytest.mark.parametrize("facade", FACADES)
def test_all_is_the_pinned_name_set(facade):
    package = import_module(facade)
    assert sorted(package.__all__) == sorted(_homes(facade))
    assert len(set(package.__all__)) == len(package.__all__)


@pytest.mark.parametrize("facade", FACADES)
def test_every_export_is_its_defining_modules_object(facade):
    package = import_module(facade)
    for name, module in _homes(facade).items():
        assert getattr(package, name) is getattr(import_module(module), name), (
            f"{facade}.{name} is not {module}.{name}"
        )


@pytest.mark.parametrize("facade", FACADES)
def test_dir_lists_every_export(facade):
    package = import_module(facade)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("facade", FACADES)
def test_star_import_binds_every_export(facade):
    namespace = {}
    exec(f"from {facade} import *", namespace)
    assert set(import_module(facade).__all__) <= set(namespace)


@pytest.mark.parametrize("facade", FACADES)
def test_unknown_attribute_names_the_package(facade):
    package = import_module(facade)
    with pytest.raises(AttributeError, match=f"'{facade}'.*'no_such_name'"):
        package.no_such_name
    with pytest.raises(AttributeError, match=f"'{facade}'"):
        package._private_probe
    assert not hasattr(package, "no_such_name")


def test_a_submodule_is_reachable_as_an_attribute():
    """``import repro.harness`` then ``repro.harness.parallel`` worked
    when ``__init__`` imported eagerly; the façade imports on demand."""
    import repro.harness

    assert repro.harness.parallel is sys.modules["repro.harness.parallel"]
    assert repro.harness.cache.ResultCache.__module__ == "repro.harness.cache"


def test_a_broken_import_below_a_facade_is_not_swallowed(
    tmp_path, monkeypatch
):
    """Only "no such submodule" becomes AttributeError; a submodule that
    exists but cannot import its own dependency must say so."""
    package = tmp_path / "lazy_probe_pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__all__, __getattr__, __dir__ = lazy_exports(__name__, {})\n"
    )
    (package / "broken.py").write_text("import no_such_dependency_xyz\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        import lazy_probe_pkg

        with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
            lazy_probe_pkg.broken
        with pytest.raises(AttributeError, match="absent"):
            lazy_probe_pkg.absent
    finally:
        sys.modules.pop("lazy_probe_pkg", None)


# ----------------------------------------------------------------------
# Pickles cross the pool boundary; class paths must not move with the
# façades.
# ----------------------------------------------------------------------
def test_pickled_class_paths_are_their_defining_modules():
    from repro import SimulationConfig, SimulationResult
    from repro.harness.parallel import SimTask
    from repro.metrics import LatencyStats

    assert SimulationConfig.__module__ == "repro.sim.config"
    assert SimulationResult.__module__ == "repro.sim.results"
    assert SimTask.__module__ == "repro.harness.parallel"
    assert LatencyStats.__module__ == "repro.metrics.stats"


def test_result_and_task_pickle_round_trip_unchanged():
    from repro import SimulationConfig, Simulator
    from repro.harness.parallel import SimTask

    config = SimulationConfig(
        width=4,
        num_vcs=4,
        injection_rate=0.2,
        warmup_cycles=20,
        measure_cycles=60,
        drain_cycles=200,
    )
    result = Simulator(config).run()
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone) is type(result)
    assert clone.to_dict() == result.to_dict()
    assert clone.blocking.purity == result.blocking.purity

    task = SimTask(config, rate=0.3, key=("footprint", 0.3))
    assert pickle.loads(pickle.dumps(task)) == task
