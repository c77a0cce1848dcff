"""The tune search and its budgeted batch evaluation.

:func:`run_tune` scores the paper default, then runs :func:`search`:
successive halving over the fidelity rungs, then beam refinement
around the full-fidelity frontier.  Each candidate batch is one
:func:`~repro.harness.experiments.run_grid` call — the figure drivers'
own grid, rates and all — so the persistent result cache, the LPT
process pool, and ``$REPRO_SERVICE`` routing all apply without the
tuner knowing about any of them.

Determinism: given the same scenario, seed, and budget, the search
requests the same evaluations in the same order at any ``--jobs`` and
cache temperature.  Candidates come only from seeded
:func:`repro.tuner.space.sample` and :func:`repro.tuner.space.neighbors`,
ranking only from :func:`rank_evals` (a total order on values), and the
budget is charged in *estimated* cycle-nodes
(:func:`repro.harness.cost.estimate_config_cycles`, a pure function of
each config) for every simulation **including cache hits**.  Actual
simulation counts are recorded per round for reporting, but no search
decision ever reads them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.harness.cache import ResultCache
from repro.harness.cost import estimate_config_cycles
from repro.harness.experiments import Scale, run_grid
from repro.sim.config import SimulationConfig
from repro.tuner import TunerError, space
from repro.tuner.objectives import (
    CandidateEval,
    Scenario,
    eval_from_results,
    rung_config,
    rungs,
)
from repro.tuner.pareto import dominates, pareto_frontier, rank_evals
from repro.tuner.space import Candidate

#: Successive halving keeps ``ceil(n / ETA)`` candidates per rung.
ETA = 2
#: Each refinement round explores the neighbours of the best ``BEAM``.
BEAM = 4


@dataclass
class RoundStats:
    """One evaluation round (one ``run_grid`` batch) of a tune."""

    label: str
    rung: str
    candidates: int
    tasks: int
    fresh_simulations: int
    cache_hits: int
    estimated_cycles: int
    spent_cycles_after: int
    seconds: float
    #: Candidate keys :func:`search` promoted out of this round (the
    #: determinism tests compare these).
    survivors: tuple[str, ...] = ()


@dataclass
class TuneResult:
    """One tune: its scenario, budget, spend, rounds and evaluations.

    :func:`run_tune` starts it empty and fills it through
    :meth:`evaluate`; :func:`repro.tuner.report.load_tune` rebuilds it
    from an artifact.
    """

    scenario: Scenario
    seed: int
    budget_cycles: int | None
    spent_cycles: int = 0
    rounds: list[RoundStats] = field(default_factory=list)
    #: All full-fidelity evaluations, in first-evaluation order; a
    #: candidate in here is never simulated at full fidelity again.
    evals: list[CandidateEval] = field(default_factory=list)
    #: The paper default's evaluation (the first one :func:`run_tune`
    #: makes).
    default_eval: CandidateEval | None = None

    def evaluate(
        self,
        candidates: list[Candidate],
        rung: Scale,
        label: str,
        jobs: int | None,
        cache: ResultCache | None,
        charged: bool = True,
    ) -> list[CandidateEval]:
        """Score the prefix of ``candidates`` the budget covers at ``rung``.

        Trimming is by position, so a batch ordered by rank loses its
        *worst* candidates first; if none is affordable no round is
        recorded.  An uncharged batch is neither trimmed nor charged.
        A candidate costs one estimate per ladder rate (a rate changes
        no cycle count), memoized full-fidelity candidates nothing; the
        rest run as one grid, whose hits are the cache's hit counter
        across the call and whose fresh simulations are the rest.
        """
        started = time.perf_counter()
        remaining = (
            math.inf
            if self.budget_cycles is None or not charged
            else self.budget_cycles - self.spent_cycles
        )
        rates = self.scenario.rates
        full = rung == rungs(self.scenario.base)[-1]
        known = {e.candidate: e for e in self.evals} if full else {}
        batch: list[Candidate] = []
        # The rung config of every batch member that simulates.
        configs: dict[Candidate, SimulationConfig] = {}
        estimated = 0
        for candidate in candidates:
            if candidate not in known:
                config = rung_config(self.scenario.base, candidate, rung)
                cost = len(rates) * estimate_config_cycles(config)
                if cost > remaining:
                    break
                remaining -= cost
                estimated += cost
                configs[candidate] = config
            batch.append(candidate)
        if not batch:
            return []
        before = cache.hits if cache is not None else 0
        grid = run_grid(configs, rates, jobs, cache)
        tasks = len(configs) * len(rates)
        hits = cache.hits - before if cache is not None else 0
        fresh = tasks - hits
        if charged:
            self.spent_cycles += estimated
        evals = {
            candidate: eval_from_results(
                self.scenario, candidate, rung, results
            )
            for candidate, results in grid.items()
        }
        if full:
            self.evals.extend(evals.values())
            evals.update(known)
        self.rounds.append(
            RoundStats(
                label=label,
                rung=rung.name,
                candidates=len(batch),
                tasks=tasks,
                fresh_simulations=fresh,
                cache_hits=hits,
                estimated_cycles=estimated,
                spent_cycles_after=self.spent_cycles,
                seconds=time.perf_counter() - started,
            )
        )
        return [evals[c] for c in batch]

    @property
    def frontier(self) -> list[CandidateEval]:
        return pareto_frontier(self.evals)

    @property
    def dominators(self) -> list[CandidateEval]:
        """Frontier entries strictly dominating the default config."""
        default = self.default_eval.vector()
        return [e for e in self.frontier if dominates(e.vector(), default)]

    @property
    def total_tasks(self) -> int:
        return sum(r.tasks for r in self.rounds)

    @property
    def total_fresh_simulations(self) -> int:
        return sum(r.fresh_simulations for r in self.rounds)

    @property
    def total_cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.rounds)


def search(
    tune: TuneResult,
    n0: int,
    refine_rounds: int,
    jobs: int | None,
    cache: ResultCache | None,
) -> None:
    """Successive halving over the rungs, then beam refinement.

    Halving scores ``n0`` seeded samples on the cheapest rung and
    promotes the best ``ceil(n / ETA)`` (by :func:`rank_evals`) one rung
    up, ending with the survivors at full fidelity.  Refinement then
    starts from every full-fidelity eval — the halving survivors plus
    the budget-exempt default, so the default's neighbourhood is always
    explored: each round scores the unseen one-step neighbours of the
    best ``BEAM`` evals, and stops early when none is affordable.  A
    round the budget cannot cover loses its trailing (worst-ranked)
    candidates, never a random subset.  Every round records the keys it
    promoted (refinement: the frontier so far) as its survivors.
    """
    base = tune.scenario.base
    ladder = rungs(base)
    candidates = space.sample(n0, tune.seed, base)
    for rung in ladder:
        evals = tune.evaluate(
            candidates, rung, f"halving-{rung.name}", jobs, cache
        )
        if not evals:
            break
        ranked = rank_evals(evals)
        if rung is not ladder[-1]:
            ranked = ranked[: -(-len(ranked) // ETA)]  # ceil division
        tune.rounds[-1].survivors = tuple(e.candidate.key() for e in ranked)
        candidates = [e.candidate for e in ranked]
    for index in range(1, refine_rounds + 1):
        known = {e.candidate for e in tune.evals}
        moves = dict.fromkeys(
            neighbor
            for incumbent in rank_evals(tune.evals)[:BEAM]
            for neighbor in space.neighbors(incumbent.candidate, base)
            if neighbor not in known
        )
        if not tune.evaluate(
            list(moves), ladder[-1], f"refine-{index}", jobs, cache
        ):
            break
        tune.rounds[-1].survivors = tuple(
            e.candidate.key() for e in tune.frontier
        )


def run_tune(
    scenario: Scenario,
    budget_cycles: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    n0: int = 16,
    refine_rounds: int = 2,
) -> TuneResult:
    """Run one budgeted tune and return its full results.

    The paper-default candidate is always evaluated at full fidelity
    first — budget-exempt — because it is the baseline every frontier
    claim is measured against; :func:`search` runs after it.  Only
    full-fidelity evaluations enter the frontier; rung-scaled scores
    exist solely to rank promotions.
    """
    if budget_cycles is not None and budget_cycles <= 0:
        raise TunerError(
            f"budget must be a positive cycle-node count, "
            f"got {budget_cycles}"
        )
    if n0 < 1:
        raise TunerError(f"n0 must be >= 1, got {n0}")
    if refine_rounds < 1:
        raise TunerError(f"refine rounds must be >= 1, got {refine_rounds}")
    tune = TuneResult(scenario, seed, budget_cycles)
    [tune.default_eval] = tune.evaluate(
        [space.canonical(space.candidate())],
        rungs(scenario.base)[-1],
        "default",
        jobs,
        cache,
        charged=False,
    )
    search(tune, n0, refine_rounds, jobs, cache)
    return tune
