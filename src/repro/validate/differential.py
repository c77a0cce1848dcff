"""Differential validation harness (``repro validate``).

Cross-checks the parts of the stack the per-cycle checkers cannot see
from inside one run: that the engine and its reference loop
(skip/legacy) stay bit-identical, that a warm result-cache replay
reproduces a live run exactly, and that a validated run produces the
same result as the unvalidated runs the cache and pool execute.
Configurations are drawn at random (seeded) from the full surface —
every routing algorithm, several traffic patterns, multi-flit packets,
and fault schedules — and every live run executes with all invariant
checkers enabled, so one ``repro validate`` sweep exercises both layers
at once.

``self_test`` is the other half of the trust story: it runs every
seeded mutation (:mod:`repro.validate.mutations`) with only its paired
checker enabled and confirms the run dies with an
:class:`~repro.exceptions.InvariantViolation` naming that checker.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass, field

from repro.exceptions import InvariantViolation, ReproError
from repro.faults.schedule import random_link_faults, random_router_faults
from repro.harness.cache import ResultCache
from repro.harness.parallel import SimTask, resolve_jobs, run_tasks
from repro.sim.config import SimulationConfig
from repro.sim.engine import ENGINE_MODES, Simulator
from repro.sim.results import SimulationResult
from repro.validate.config import MUTATION_CHECKERS, ValidationConfig

_ALGORITHMS = (
    "dor",
    "oddeven",
    "dbar",
    "footprint",
    "dbar-fine",
    "dor+xordet",
    "oddeven+xordet",
    "dbar+xordet",
    "footprint+xordet",
)
_PATTERNS = (
    "uniform",
    "transpose",
    "tornado",
    "neighbor",
)
#: Bit-permutation patterns require a power-of-two node count.
_POW2_PATTERNS = ("bitcomp", "bitrev", "shuffle")

#: Algorithms whose deadlock-freedom argument survives wrap-around links
#: (Odd-Even and the XORDET overlays are mesh-structural; see
#: :func:`repro.routing.registry.check_topology_support`).
_TORUS_ALGORITHMS = ("dor", "dbar", "dbar-fine", "footprint")


def result_signature(result: SimulationResult) -> tuple:
    """A comparable fingerprint of everything a run measured.

    Two runs with equal signatures made identical routing, allocation,
    and delivery decisions for every measured packet.  ``benchmarks/perf``
    compares replayed, pooled and served results by it too.
    """
    return (
        result.cycles_run,
        result.accepted_flits,
        result.offered_flits,
        result.measured_created,
        result.measured_ejected,
        tuple(result.latency.samples()),
    )


def random_configs(
    count: int, seed: int, *, include_faults: bool = True
) -> list[SimulationConfig]:
    """Draw ``count`` short randomized configs covering the full surface."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        width = rng.choice((3, 4))
        patterns = (
            _PATTERNS + _POW2_PATTERNS if width == 4 else _PATTERNS
        )
        # Every fourth config or so runs on a torus: the wrap links and
        # dateline escape VCs must stay bit-identical across engine
        # modes too.
        topology = "torus" if rng.random() < 0.25 else "mesh"
        if topology == "torus":
            routing = rng.choice(_TORUS_ALGORITHMS)
            num_vcs = rng.choice((3, 4))
        else:
            routing = rng.choice(_ALGORITHMS)
            num_vcs = rng.choice((2, 3, 4))
        config_seed = rng.randrange(1 << 16)
        faults = None
        if include_faults and rng.random() < 0.4:
            maker = rng.choice((random_link_faults, random_router_faults))
            faults = maker(
                width,
                k=rng.choice((1, 2)),
                cycle=rng.randrange(10, 40),
                duration=rng.randrange(40, 90),
                seed=rng.randrange(1 << 16),
                topology=topology,
            )
        packet_range = (1, 4) if rng.random() < 0.3 else None
        configs.append(
            SimulationConfig(
                width=width,
                topology=topology,
                num_vcs=num_vcs,
                vc_buffer_depth=rng.choice((2, 4)),
                routing=routing,
                traffic=rng.choice(patterns),
                injection_rate=rng.choice((0.05, 0.15, 0.3)),
                packet_size=rng.choice((1, 4)),
                packet_size_range=packet_range,
                warmup_cycles=rng.randrange(20, 50),
                measure_cycles=rng.randrange(50, 100),
                drain_cycles=500,
                seed=config_seed,
                faults=faults,
            )
        )
    return configs


@dataclass
class DifferentialEntry:
    """Outcome of one config's differential sweep."""

    description: str
    signatures: dict[str, tuple] = field(default_factory=dict)
    modes_identical: bool = False
    cache_identical: bool = False
    warm_misses: int = -1
    checks_run: int = 0
    #: Wall seconds of the ``skip`` run with every checker on, and of the
    #: same config's cold cache pass (``skip``, checked only as far as
    #: ``$REPRO_VALIDATE`` says): what the checkers cost on this config.
    checked_s: float = 0.0
    unchecked_s: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.modes_identical
            and self.cache_identical
            and self.warm_misses == 0
        )


@dataclass
class DifferentialReport:
    """Outcome of a full ``run_differential`` sweep."""

    entries: list[DifferentialEntry]
    #: Whether a pooled re-run of every config matched the serial
    #: signatures (``None`` when the sweep ran with one worker).
    pool_identical: bool | None = None

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries) and (
            self.pool_identical is not False
        )


def run_differential(
    configs: list[SimulationConfig],
    jobs: int | str | None = None,
) -> DifferentialReport:
    """Run every config through both engine modes plus warm-cache replay.

    Each config runs with every invariant checker enabled under
    :data:`~repro.sim.engine.ENGINE_MODES` — ``skip`` first, its
    signature being the reference ``legacy`` must match — then twice
    through a fresh :class:`ResultCache` (the second pass must be all
    hits and reproduce the live signature — also proving validated and
    unvalidated runs are bit-identical, since cached runs are
    unvalidated).  With more than one worker the whole set is finally
    re-run through the process pool and compared again.
    """
    checks = ValidationConfig()
    entries = []
    for config in configs:
        entry = DifferentialEntry(description=config.describe())
        entries.append(entry)
        try:
            for mode in ENGINE_MODES:
                started = time.perf_counter()
                sim = Simulator(config, engine_mode=mode, validation=checks)
                entry.signatures[mode] = result_signature(sim.run())
                if mode == "skip":
                    entry.checked_s = time.perf_counter() - started
                entry.checks_run += sim.validator.checks_run
        except InvariantViolation as exc:
            entry.error = f"invariant violation: {exc}"
            continue
        except ReproError as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            continue
        reference = entry.signatures[ENGINE_MODES[0]]
        entry.modes_identical = all(
            signature == reference for signature in entry.signatures.values()
        )
        with tempfile.TemporaryDirectory() as tmp:
            cold_cache = ResultCache(tmp)
            started = time.perf_counter()
            cold = run_tasks([SimTask(config)], jobs=1, cache=cold_cache)
            entry.unchecked_s = time.perf_counter() - started
            warm_cache = ResultCache(tmp)
            warm = run_tasks([SimTask(config)], jobs=1, cache=warm_cache)
        entry.warm_misses = warm_cache.misses
        entry.cache_identical = (
            result_signature(cold[0]) == reference
            and result_signature(warm[0]) == reference
        )

    pool_identical = None
    clean = [
        (config, entry)
        for config, entry in zip(configs, entries)
        if entry.error is None
    ]
    if resolve_jobs(jobs) > 1 and len(clean) > 1:
        pooled = run_tasks([SimTask(c) for c, _ in clean], jobs=jobs)
        pool_identical = all(
            result_signature(result) == entry.signatures[ENGINE_MODES[0]]
            for result, (_, entry) in zip(pooled, clean)
        )
    return DifferentialReport(entries=entries, pool_identical=pool_identical)


@dataclass
class SelfTestResult:
    """Outcome of one mutation self-test."""

    mutation: str
    expected_checker: str
    fired: bool
    detail: str

    @property
    def ok(self) -> bool:
        return self.fired


def _self_test_config(seed: int) -> SimulationConfig:
    # Small but congested, with multi-flit packets so every mutation
    # (including the wormhole swap) finds corruptible state quickly, on
    # the paper's algorithm so escape/footprint invariants are live.
    return SimulationConfig(
        width=4,
        num_vcs=4,
        vc_buffer_depth=4,
        routing="footprint",
        traffic="transpose",
        injection_rate=0.5,
        packet_size=4,
        warmup_cycles=20,
        measure_cycles=60,
        drain_cycles=400,
        seed=seed,
    )


def self_test(seed: int = 0) -> list[SelfTestResult]:
    """Prove every checker fires: run each seeded mutation, expect a kill.

    Each mutation runs with *only* its paired checker enabled, so the
    raised violation's checker attribution is unambiguous.
    """
    outcomes = []
    for mutation, checker in sorted(MUTATION_CHECKERS.items()):
        config = _self_test_config(seed + 1)
        validation = ValidationConfig.only(
            checker,
            mutate=mutation,
            mutate_cycle=30,
            mutate_seed=seed,
        )
        try:
            Simulator(config, validation=validation).run()
        except InvariantViolation as exc:
            fired = exc.checker == checker
            detail = str(exc)
        else:
            fired = False
            detail = "run completed without a violation"
        outcomes.append(
            SelfTestResult(
                mutation=mutation,
                expected_checker=checker,
                fired=fired,
                detail=detail,
            )
        )
    return outcomes
