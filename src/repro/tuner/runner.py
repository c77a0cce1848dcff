"""The tune search and its budgeted batch evaluation.

:func:`run_tune` scores the paper default, then runs :func:`search`:
successive halving over the fidelity rungs, then beam refinement
around the full-fidelity frontier.  Candidate batches are flattened
into :class:`~repro.harness.parallel.SimTask` grids and executed
through :func:`~repro.harness.parallel.run_tasks` — so the persistent
result cache, the LPT process pool, and ``$REPRO_SERVICE`` routing all
apply without the tuner knowing about any of them.

Determinism: given the same scenario, seed, and budget, the search
requests the same evaluations in the same order at any ``--jobs`` and
cache temperature.  Candidates come only from seeded
:func:`repro.tuner.space.sample` and :func:`repro.tuner.space.neighbors`,
ranking only from :func:`rank_evals` (a total order on values), and the
budget is charged in *estimated* cycle-nodes
(:func:`repro.harness.cost.estimate_task_cycles`, a pure function of
each task's config) for every task **including cache hits**.  Actual
simulation counts are recorded per round for reporting, but no search
decision ever reads them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.harness.cache import ResultCache
from repro.harness.cost import estimate_task_cycles
from repro.harness.experiments import Scale
from repro.harness.parallel import SimTask, run_tasks
from repro.tuner import TunerError, space
from repro.tuner.objectives import (
    CandidateEval,
    Scenario,
    eval_from_results,
    rungs,
    tasks_for,
)
from repro.tuner.pareto import dominates, pareto_frontier, rank_evals
from repro.tuner.space import Candidate

#: Successive halving keeps ``ceil(n / ETA)`` candidates per rung.
ETA = 2
#: Each refinement round explores the neighbours of the best ``BEAM``.
BEAM = 4


@dataclass
class RoundStats:
    """One evaluation round (one ``run_tasks`` batch) of a tune."""

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
class TuneContext:
    """The state of one tune: budget, rounds, and the full-fidelity memo."""

    scenario: Scenario
    seed: int
    budget_cycles: int | None
    jobs: int | None
    cache: ResultCache | None
    spent_cycles: int = 0
    rounds: list[RoundStats] = field(default_factory=list)
    #: Full-fidelity memo: first-evaluation order is preserved and
    #: becomes the eval order of the final result.
    full_evals: dict[Candidate, CandidateEval] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rungs = rungs(self.scenario.base)
        self.full_rung = self.rungs[-1]

    def evaluate(
        self,
        candidates: list[Candidate],
        rung: Scale,
        label: str,
        charged: bool = True,
    ) -> list[CandidateEval]:
        """Score the prefix of ``candidates`` the budget covers at ``rung``.

        Trimming is by position, so a batch ordered by rank loses its
        *worst* candidates first; if none is affordable no round is
        recorded.  An uncharged batch is neither trimmed nor charged.
        Memoized full-fidelity candidates cost nothing; the rest become
        one task grid through one harness call, whose results come back
        in task order at any worker count.  The round's fresh/hit split
        is the cache's miss/hit counters across the call.
        """
        started = time.perf_counter()
        remaining = (
            math.inf
            if self.budget_cycles is None or not charged
            else self.budget_cycles - self.spent_cycles
        )
        full = rung is self.full_rung
        batch: list[Candidate] = []
        # The task grid of every batch member that simulates.
        grids: dict[Candidate, list[SimTask]] = {}
        for candidate in candidates:
            grid = (
                []
                if full and candidate in self.full_evals
                else tasks_for(self.scenario, candidate, rung)
            )
            cost = sum(estimate_task_cycles(task) for task in grid)
            if cost > remaining:
                break
            remaining -= cost
            batch.append(candidate)
            if grid:
                grids[candidate] = grid
        if not batch:
            return []
        tasks = [task for grid in grids.values() for task in grid]
        cache = self.cache
        hits, misses = (0, 0) if cache is None else (cache.hits, cache.misses)
        results = run_tasks(tasks, self.jobs, cache=cache) if tasks else []
        if cache is None:
            fresh, hits = len(tasks), 0
        else:
            fresh, hits = cache.misses - misses, cache.hits - hits
        estimated = sum(estimate_task_cycles(task) for task in tasks)
        if charged:
            self.spent_cycles += estimated
        width = len(self.scenario.rates)
        evals = {
            candidate: eval_from_results(
                self.scenario,
                candidate,
                rung,
                results[index * width : (index + 1) * width],
            )
            for index, candidate in enumerate(grids)
        }
        if full:
            self.full_evals.update(evals)
            evals = self.full_evals  # memoized candidates come from here
        self.rounds.append(
            RoundStats(
                label=label,
                rung=rung.name,
                candidates=len(batch),
                tasks=len(tasks),
                fresh_simulations=fresh,
                cache_hits=hits,
                estimated_cycles=estimated,
                spent_cycles_after=self.spent_cycles,
                seconds=time.perf_counter() - started,
            )
        )
        return [evals[c] for c in batch]


def search(ctx: TuneContext, n0: int, refine_rounds: int) -> None:
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
    candidates = space.sample(n0, ctx.seed, ctx.scenario.base)
    for rung in ctx.rungs:
        evals = ctx.evaluate(candidates, rung, f"halving-{rung.name}")
        if not evals:
            break
        ranked = rank_evals(evals)
        if rung is not ctx.full_rung:
            ranked = ranked[: -(-len(ranked) // ETA)]  # ceil division
        ctx.rounds[-1].survivors = tuple(e.candidate.key() for e in ranked)
        candidates = [e.candidate for e in ranked]
    for index in range(1, refine_rounds + 1):
        incumbents = rank_evals(list(ctx.full_evals.values()))[:BEAM]
        moves = dict.fromkeys(
            neighbor
            for incumbent in incumbents
            for neighbor in space.neighbors(
                incumbent.candidate, ctx.scenario.base
            )
            if neighbor not in ctx.full_evals
        )
        if not ctx.evaluate(list(moves), ctx.full_rung, f"refine-{index}"):
            break
        ctx.rounds[-1].survivors = tuple(
            e.candidate.key()
            for e in pareto_frontier(list(ctx.full_evals.values()))
        )


# ----------------------------------------------------------------------
@dataclass
class TuneResult:
    """Everything a tune produced, artifact- and report-ready."""

    scenario: Scenario
    seed: int
    budget_cycles: int | None
    spent_cycles: int
    rounds: list[RoundStats]
    #: All full-fidelity evaluations, in first-evaluation order.
    evals: list[CandidateEval]
    default_eval: CandidateEval

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
    ctx = TuneContext(scenario, seed, budget_cycles, jobs, cache)
    default = space.canonical(space.candidate())
    [default_eval] = ctx.evaluate(
        [default], ctx.full_rung, "default", charged=False
    )
    search(ctx, n0, refine_rounds)
    return TuneResult(
        scenario=scenario,
        seed=seed,
        budget_cycles=budget_cycles,
        spent_cycles=ctx.spent_cycles,
        rounds=ctx.rounds,
        evals=list(ctx.full_evals.values()),
        default_eval=default_eval,
    )
