"""Per-figure experiment drivers.

Each function regenerates the data behind one figure or table of the
paper.  All drivers take a :class:`Scale` that controls simulated cycles
and sweep density, so the same code serves three purposes:

* ``SMOKE`` — integration tests (seconds);
* ``BENCH`` — the benchmark suite (minutes per figure), the default;
* ``PAPER`` — full-scale runs approximating the paper's own settings.

Each sweep driver flattens its simulation grid into independent tasks and
runs them through :mod:`repro.harness.parallel`; pass ``jobs`` (or set
``REPRO_JOBS``) to distribute them over worker processes.  Results are
bit-identical for any worker count.  Passing a
:class:`~repro.harness.cache.ResultCache` as ``cache`` reuses previously
simulated points from disk — a warm re-run of any figure completes with
zero simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.core.cost import CostModel
from repro.exceptions import FaultError
from repro.harness.parallel import SimTask, derive_task_seed, run_tasks
from repro.metrics.curves import LatencyThroughputCurve
from repro.metrics.sweep import SweepPoint, point_from_result, saturation
from repro.sim.config import SimulationConfig
from repro.topology.base import create_topology

# What only one figure needs (the engine and telemetry for Fig. 2, the
# trace generator for Fig. 10, fault schedules, Table 1's algorithms) is
# imported inside that figure's driver: a warm `repro experiment` is a
# cache probe and must not pay for the simulator.
if TYPE_CHECKING:
    from repro.harness.cache import ResultCache
    from repro.sim.results import SimulationResult
    from repro.telemetry.result import TelemetryResult


@dataclass(frozen=True)
class Scale:
    """Cycle counts and sweep densities for the experiment drivers."""

    name: str
    width: int = 8
    height: int | None = None
    topology: str = "mesh"
    num_vcs: int = 10
    warmup: int = 100
    measure: int = 200
    drain: int = 450
    rates: tuple[float, ...] = (0.1, 0.3, 0.45, 0.55)
    hotspot_rates: tuple[float, ...] = (0.15, 0.3, 0.45, 0.6)
    vc_counts: tuple[int, ...] = (2, 4, 8, 16)
    trace_cycles: int = 1200
    fault_counts: tuple[int, ...] = (0, 1, 2, 4, 8)

    def config(self, **overrides) -> SimulationConfig:
        base = dict(
            width=self.width,
            height=self.height,
            topology=self.topology,
            num_vcs=self.num_vcs,
            warmup_cycles=self.warmup,
            measure_cycles=self.measure,
            drain_cycles=self.drain,
        )
        base.update(overrides)
        return SimulationConfig(**base)

    def make_topology(self):
        """The scale's network geometry — the same
        :class:`~repro.topology.base.Topology` every task config builds,
        so drivers that pre-generate traces or adaptiveness tables
        cannot diverge from the simulated network (a square ``Mesh2D``
        hardcoded here once broke rectangular sweeps)."""
        return create_topology(self.topology, self.width, self.height)


SMOKE = Scale(
    name="smoke",
    width=4,
    num_vcs=4,
    warmup=80,
    measure=150,
    drain=400,
    rates=(0.1, 0.35),
    hotspot_rates=(0.2, 0.5),
    vc_counts=(2, 4),
    trace_cycles=400,
    fault_counts=(0, 2),
)

BENCH = Scale(name="bench")

PAPER = Scale(
    name="paper",
    warmup=1000,
    measure=2000,
    drain=10000,
    rates=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6),
    hotspot_rates=(0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6),
    vc_counts=(2, 4, 8, 16),
    trace_cycles=20000,
    fault_counts=(0, 1, 2, 4, 8, 16),
)

SCALES = {scale.name: scale for scale in (SMOKE, BENCH, PAPER)}


#: Algorithms compared in Figs. 5-6 (the paper's full roster).
FIG5_ALGORITHMS = (
    "dor",
    "oddeven",
    "dbar",
    "footprint",
    "dor+xordet",
    "oddeven+xordet",
    "dbar+xordet",
)

FIG5_PATTERNS = ("uniform", "transpose", "shuffle")


def run_grid(
    configs: dict[object, SimulationConfig],
    rates: tuple[float | None, ...],
    jobs: int | str | None,
    cache: "ResultCache | None",
) -> dict[object, list[SimulationResult]]:
    """Run every keyed config at every rate as one flat task list.

    A rate is the config's offered load (:meth:`SimulationConfig.at_load`);
    ``None`` runs a config as it stands.  Returns ``{key: [one result
    per rate]}`` in the order of ``configs``, so a caller (every figure
    driver, and the tuner) names its grid once and reads results by key.
    """
    tasks = [
        SimTask(config, rate=rate, key=(key, rate))
        for key, config in configs.items()
        for rate in rates
    ]
    results = run_tasks(tasks, jobs, cache=cache)
    return {
        key: results[i * len(rates) : (i + 1) * len(rates)]
        for i, key in enumerate(configs)
    }


def _curve(
    label: str,
    results: list[SimulationResult],
    rates: tuple[float, ...],
) -> LatencyThroughputCurve:
    """The latency-throughput curve of one config's results over ``rates``."""
    return LatencyThroughputCurve(
        label,
        [point_from_result(result, rate) for result, rate in zip(results, rates)],
    )


# ----------------------------------------------------------------------
# Fig. 2 — congestion-tree case study
# ----------------------------------------------------------------------
#: Fig. 2's network-congested destination (flow f1's target).
FIG2_NETWORK_DST = 10

#: Fig. 2's endpoint-congested destination (flows f3 and f4 converge).
FIG2_ENDPOINT_DST = 13

#: The algorithms whose congestion trees Fig. 2 contrasts.
FIG2_ALGORITHMS = ("dor", "dbar", "dor+xordet", "footprint")


@dataclass(frozen=True)
class TreeShape:
    """Congestion-tree shape at one sampled instant.

    The scalar view of a :class:`~repro.core.congestion.CongestionTree`
    that the telemetry sampler records — attribute-compatible with the
    full tree object (``num_branches`` / ``total_vcs`` /
    ``max_thickness`` / ``mean_thickness``) so renderers accept either.
    """

    num_branches: int
    total_vcs: int
    max_thickness: int

    @property
    def mean_thickness(self) -> float:
        if self.num_branches == 0:
            return 0.0
        return self.total_vcs / self.num_branches

    @classmethod
    def from_tree_series(
        cls, series: dict[str, list[float]], index: int
    ) -> "TreeShape":
        """The shape at sample ``index`` of a telemetry tree series."""
        return cls(
            num_branches=int(series["branches"][index]),
            total_vcs=int(series["vcs"][index]),
            max_thickness=int(series["max_thickness"][index]),
        )


@dataclass
class Fig2Result:
    """Congestion trees of the Fig. 2 permutation under one algorithm.

    ``network_tree``/``endpoint_tree`` are the end-of-run shapes (what
    the paper's figure draws); the ``*_branch_series`` record how many
    branches each tree had at every sampled cycle, so the report can
    show the tree *forming*, not just its final extent.
    """

    routing: str
    network_tree: TreeShape
    endpoint_tree: TreeShape
    sample_cycles: list[int] = field(default_factory=list)
    network_branch_series: list[int] = field(default_factory=list)
    endpoint_branch_series: list[int] = field(default_factory=list)
    telemetry: TelemetryResult | None = None


def fig2_congestion_tree(
    routings: tuple[str, ...] = FIG2_ALGORITHMS,
    cycles: int = 400,
    seed: int = 3,
    sample_every: int = 50,
) -> list[Fig2Result]:
    """Reproduce the Fig. 2 case study: a 4x4 mesh, 4 VCs, four flows.

    Flows f1..f4 (``n0->n10, n1->n15, n4->n13, n12->n13``) create network
    congestion on link n1->n2 under DOR and endpoint congestion at n13.
    The run oversubscribes n13 and observes both destinations through the
    telemetry tree sampler (``tree_nodes=(10, 13)``), so the result
    carries the congestion trees' growth over time; the final sample
    lands on the last simulated cycle, making the end-of-run shapes
    identical to a direct end-state extraction.
    """
    from repro.harness.runner import run_simulation
    from repro.router.flit import Packet
    from repro.telemetry.config import TelemetryConfig
    from repro.traffic.patterns import TrafficGenerator

    flows = [(0, FIG2_NETWORK_DST), (1, 15), (4, FIG2_ENDPOINT_DST),
             (12, FIG2_ENDPOINT_DST)]

    class _Fig2Traffic(TrafficGenerator):
        def generate(self, cycle: int, measured: bool):
            # Persistent flows at 0.9 flits/node/cycle: n13 receives 1.8x
            # its ejection bandwidth and a congestion tree must form.
            out = []
            for src, dst in flows:
                if cycle % 10 != 9:
                    out.append(
                        Packet(
                            src=src,
                            dst=dst,
                            size=1,
                            creation_time=cycle,
                            flow=f"f{src}",
                            measured=False,
                        )
                    )
            return out

    results = []
    for routing in routings:
        config = SimulationConfig(
            width=4,
            num_vcs=4,
            routing=routing,
            traffic="uniform",  # replaced by the custom generator below
            injection_rate=0.0,
            warmup_cycles=0,
            measure_cycles=cycles,
            drain_cycles=0,
            seed=seed,
            telemetry=TelemetryConfig(
                sample_every=sample_every,
                tree_nodes=(FIG2_NETWORK_DST, FIG2_ENDPOINT_DST),
            ),
        )
        telemetry = run_simulation(config, traffic=_Fig2Traffic()).telemetry
        assert telemetry is not None
        network = telemetry.tree_series(FIG2_NETWORK_DST)
        endpoint = telemetry.tree_series(FIG2_ENDPOINT_DST)
        results.append(
            Fig2Result(
                routing=routing,
                network_tree=TreeShape.from_tree_series(network, -1),
                endpoint_tree=TreeShape.from_tree_series(endpoint, -1),
                sample_cycles=list(telemetry.sample_cycles),
                network_branch_series=[int(v) for v in network["branches"]],
                endpoint_branch_series=[int(v) for v in endpoint["branches"]],
                telemetry=telemetry,
            )
        )
    return results


# ----------------------------------------------------------------------
# Figs. 5-6 — latency-throughput curves
# ----------------------------------------------------------------------
def latency_throughput_curves(
    scale: Scale,
    algorithms: tuple[str, ...],
    pattern: str,
    packet_size_range: tuple[int, int] | None = None,
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> list[LatencyThroughputCurve]:
    """One latency-throughput curve per algorithm for ``pattern``.

    The full algorithm x rate grid is one flat task list, so with
    ``jobs > 1`` every point of every curve simulates concurrently.
    """
    configs = {
        algorithm: scale.config(
            routing=algorithm,
            traffic=pattern,
            packet_size_range=packet_size_range,
            seed=seed,
        )
        for algorithm in algorithms
    }
    grid = run_grid(configs, scale.rates, jobs, cache)
    return [
        _curve(algorithm, results, scale.rates)
        for algorithm, results in grid.items()
    ]


def fig5_latency_throughput(
    scale: Scale,
    patterns: tuple[str, ...] = FIG5_PATTERNS,
    algorithms: tuple[str, ...] = FIG5_ALGORITHMS,
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, list[LatencyThroughputCurve]]:
    """Fig. 5: single-flit latency-throughput for every algorithm."""
    return {
        p: latency_throughput_curves(
            scale, algorithms, p, seed=seed, jobs=jobs, cache=cache
        )
        for p in patterns
    }


def fig6_variable_packet_size(
    scale: Scale,
    patterns: tuple[str, ...] = FIG5_PATTERNS,
    algorithms: tuple[str, ...] = FIG5_ALGORITHMS,
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, list[LatencyThroughputCurve]]:
    """Fig. 6: {1..6}-flit uniformly distributed packet sizes."""
    return {
        p: latency_throughput_curves(
            scale,
            algorithms,
            p,
            packet_size_range=(1, 6),
            seed=seed,
            jobs=jobs,
            cache=cache,
        )
        for p in patterns
    }


# ----------------------------------------------------------------------
# Fig. 7 — VC-count sweep (DBAR vs Footprint)
# ----------------------------------------------------------------------
def fig7_vc_sweep(
    scale: Scale,
    patterns: tuple[str, ...] = FIG5_PATTERNS,
    vc_counts: tuple[int, ...] | None = None,
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, dict[int, list[LatencyThroughputCurve]]]:
    """Fig. 7: DBAR vs Footprint as the number of VCs varies."""
    counts = vc_counts if vc_counts is not None else scale.vc_counts
    configs = {
        (pattern, vcs, algorithm): scale.config(
            routing=algorithm, traffic=pattern, num_vcs=vcs, seed=seed
        )
        for pattern in patterns
        for vcs in counts
        for algorithm in ("dbar", "footprint")
    }
    grid = run_grid(configs, scale.rates, jobs, cache)
    out: dict[str, dict[int, list[LatencyThroughputCurve]]] = {
        pattern: {vcs: [] for vcs in counts} for pattern in patterns
    }
    for (pattern, vcs, algorithm), results in grid.items():
        out[pattern][vcs].append(
            _curve(f"{algorithm}/{vcs}vc", results, scale.rates)
        )
    return out


# ----------------------------------------------------------------------
# Fig. 8 — network-size scaling
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    """Saturation throughput of DBAR normalized to Footprint per size,
    beside each algorithm's peak accepted rate over every swept rate."""

    pattern: str
    width: int
    dbar_saturation: float
    footprint_saturation: float
    dbar_peak: float
    footprint_peak: float

    @property
    def dbar_normalized(self) -> float:
        if self.footprint_saturation == 0:
            return float("nan")
        return self.dbar_saturation / self.footprint_saturation


def fig8_network_size(
    scale: Scale,
    widths: tuple[int, ...] = (4, 8, 16),
    patterns: tuple[str, ...] = FIG5_PATTERNS,
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> list[Fig8Result]:
    """Fig. 8: DBAR throughput normalized to Footprint across mesh sizes."""
    configs = {
        (pattern, width, algorithm): scale.config(
            routing=algorithm, traffic=pattern, width=width, seed=seed
        )
        for pattern in patterns
        for width in widths
        for algorithm in ("dbar", "footprint")
    }
    grid = run_grid(configs, scale.rates, jobs, cache)

    def rate(*key: object) -> float:
        points = list(map(point_from_result, grid[key], scale.rates))
        # The lowest sweep rate doubles as the zero-load reference; no
        # separate simulation needed.
        return saturation(points, points[0].avg_latency)[0]

    def peak(*key: object) -> float:
        return max(result.accepted_rate for result in grid[key])

    return [
        Fig8Result(
            pattern=pattern,
            width=width,
            dbar_saturation=rate(pattern, width, "dbar"),
            footprint_saturation=rate(pattern, width, "footprint"),
            dbar_peak=peak(pattern, width, "dbar"),
            footprint_peak=peak(pattern, width, "footprint"),
        )
        for pattern in patterns
        for width in widths
    ]


# ----------------------------------------------------------------------
# Fig. 9 — hotspot traffic
# ----------------------------------------------------------------------
def fig9_hotspot(
    scale: Scale,
    algorithms: tuple[str, ...] = ("dbar", "footprint"),
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, list[tuple[float, float, bool]]]:
    """Fig. 9: background latency vs hotspot injection rate.

    Background traffic runs at a constant 0.3; hotspot flows sweep their
    rate.  Returns, per algorithm, ``(hotspot_rate, background_latency,
    drained)`` tuples; the paper's claim is that DBAR's background latency
    collapses at a much lower hotspot rate than Footprint's.
    """
    configs = {
        algorithm: scale.config(
            routing=algorithm,
            traffic="hotspot",
            background_rate=0.3,
            seed=seed,
        )
        for algorithm in algorithms
    }
    grid = run_grid(configs, scale.hotspot_rates, jobs, cache)
    return {
        algorithm: [
            (rate, result.flow_latency("background"), result.drained)
            for rate, result in zip(scale.hotspot_rates, results)
        ]
        for algorithm, results in grid.items()
    }


# ----------------------------------------------------------------------
# Fig. 10 — PARSEC-like traces
# ----------------------------------------------------------------------
@dataclass
class Fig10Entry:
    """One workload pair's comparison (Fig. 10a-c)."""

    workloads: tuple[str, str]
    dbar_latency: float
    footprint_latency: float
    dbar_purity: float
    footprint_purity: float
    dbar_hol_degree: float
    footprint_hol_degree: float

    @property
    def latency_improvement(self) -> float:
        """Fractional latency reduction of Footprint over DBAR."""
        if self.dbar_latency == 0:
            return 0.0
        return (self.dbar_latency - self.footprint_latency) / self.dbar_latency


def fig10_parsec(
    scale: Scale,
    pairs: tuple[tuple[str, str], ...] = (
        ("x264", "canneal"),
        ("fluidanimate", "bodytrack"),
        ("fluidanimate", "x264"),
        ("bodytrack", "canneal"),
    ),
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> list[Fig10Entry]:
    """Fig. 10: DBAR vs Footprint on pairs of PARSEC-like traces."""
    from repro.traffic.parsecgen import generate_parsec_trace, merge_traces

    mesh = scale.make_topology()
    configs = {}
    for pair in pairs:
        trace = merge_traces(
            generate_parsec_trace(
                pair[0], mesh, scale.trace_cycles, seed=seed
            ),
            generate_parsec_trace(
                pair[1], mesh, scale.trace_cycles, seed=seed + 1
            ),
        )
        for algorithm in ("dbar", "footprint"):
            configs[pair, algorithm] = scale.config(
                routing=algorithm,
                traffic="trace",
                trace=trace,
                warmup_cycles=scale.trace_cycles // 10,
                measure_cycles=scale.trace_cycles,
                drain_cycles=scale.drain,
                seed=seed,
            )
    grid = run_grid(configs, (None,), jobs, cache)
    entries = []
    for pair in pairs:
        (dbar,), (footprint,) = grid[pair, "dbar"], grid[pair, "footprint"]
        entries.append(
            Fig10Entry(
                workloads=pair,
                dbar_latency=dbar.avg_latency,
                footprint_latency=footprint.avg_latency,
                dbar_purity=dbar.blocking.purity,
                footprint_purity=footprint.blocking.purity,
                dbar_hol_degree=dbar.blocking.hol_degree,
                footprint_hol_degree=footprint.blocking.hol_degree,
            )
        )
    return entries


# ----------------------------------------------------------------------
# Table 1 — qualitative comparison backed by metrics
# ----------------------------------------------------------------------
def table1_adaptiveness(
    width: int = 4, num_vcs: int = 4, height: int | None = None
) -> dict[str, dict[str, float]]:
    """Quantitative adaptiveness behind Table 1's +/o/- entries."""
    from repro.core.adaptiveness import qualitative_comparison
    from repro.routing.registry import create_routing
    from repro.topology.mesh import Mesh2D

    mesh = Mesh2D(width, height)
    algorithms = {
        name: create_routing(name)
        for name in ("dor", "oddeven", "dbar", "footprint", "dbar+xordet")
    }
    return qualitative_comparison(algorithms, mesh, num_vcs)


# ----------------------------------------------------------------------
# §4.4 — cost model
# ----------------------------------------------------------------------
def cost_table(
    configurations: tuple[tuple[int, int], ...] = (
        (16, 4),
        (64, 10),
        (64, 16),
        (256, 16),
    )
) -> list[CostModel]:
    """Footprint storage cost for several (nodes, VCs) configurations."""
    return [CostModel(n, v) for n, v in configurations]


# ----------------------------------------------------------------------
# Fault sweep — resilience under broken links/routers
# ----------------------------------------------------------------------
@dataclass
class FaultSweepEntry:
    """One (algorithm, fault count) cell of the resilience sweep."""

    routing: str
    num_faults: int
    fault_kind: str
    #: Mean latency at the lowest swept rate on the faulted topology.
    zero_load_latency: float
    #: Last rate of the sweep's non-degraded prefix (fault analogue of
    #: saturation throughput; see SweepPoint.is_degraded).
    degraded_saturation: float
    #: Delivered fraction at the lowest swept rate — the structural
    #: reachability loss the faults impose regardless of load.
    delivered_fraction: float
    points: list[SweepPoint] = field(default_factory=list)


def fault_sweep(
    scale: Scale,
    algorithms: tuple[str, ...] | None = None,
    pattern: str = "uniform",
    fault_counts: tuple[int, ...] | None = None,
    fault_kind: str = "link",
    fault_cycle: int = 0,
    seed: int = 1,
    jobs: int | str | None = None,
    cache: "ResultCache | None" = None,
) -> list[FaultSweepEntry]:
    """Resilience of every algorithm vs. the number of injected faults.

    For each fault count ``k`` a single permanent fault schedule is drawn
    (seeded from ``seed`` and ``k``) and shared by *all* algorithms, so
    every algorithm faces the same broken topology — the comparison is of
    routing adaptiveness, not of fault luck.  The full fault x algorithm
    x rate grid is one flat task list through the parallel runner and the
    result cache, like every other sweep driver.
    """
    from repro.faults.schedule import random_link_faults, random_router_faults

    if algorithms is None:
        from repro.routing.registry import available_algorithms

        algorithms = tuple(available_algorithms())
    counts = fault_counts if fault_counts is not None else scale.fault_counts
    generators = {"link": random_link_faults, "router": random_router_faults}
    if fault_kind not in generators:
        raise FaultError(
            f"unknown fault kind {fault_kind!r}; expected 'link' or 'router'"
        )
    generate = generators[fault_kind]
    schedules = {
        k: (
            generate(
                scale.width,
                scale.height,
                k=k,
                cycle=fault_cycle,
                seed=derive_task_seed(seed, f"faults/{fault_kind}/{k}"),
                topology=scale.topology,
            )
            if k
            else None
        )
        for k in counts
    }
    configs = {
        (k, algorithm): scale.config(
            routing=algorithm,
            traffic=pattern,
            faults=schedules[k],
            seed=seed,
        )
        for k in counts
        for algorithm in algorithms
    }
    grid = run_grid(configs, scale.rates, jobs, cache)
    entries = []
    for (k, algorithm), results in grid.items():
        points = list(map(point_from_result, results, scale.rates))
        baseline = points[0]
        degraded = partial(
            SweepPoint.is_degraded,
            baseline_delivery=baseline.delivered_fraction,
        )
        entries.append(
            FaultSweepEntry(
                routing=algorithm,
                num_faults=k,
                fault_kind=fault_kind,
                zero_load_latency=baseline.avg_latency,
                degraded_saturation=saturation(
                    points, baseline.avg_latency, degraded
                )[0],
                delivered_fraction=baseline.delivered_fraction,
                points=points,
            )
        )
    return entries
