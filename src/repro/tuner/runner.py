"""The tune orchestration loop: budgeted batch evaluation + results.

:func:`run_tune` wires a strategy to the simulation farm.  Candidate
batches are flattened into :class:`~repro.harness.parallel.SimTask`
grids and executed through :func:`~repro.harness.parallel.
run_tasks_accounted` — so the persistent result cache, the LPT process
pool, and ``$REPRO_SERVICE`` routing all apply without the tuner
knowing about any of them.

Budget accounting is the piece that makes warm-cache re-runs replay
byte-identically: the budget is charged in *estimated* cycle-nodes
(:func:`repro.harness.cost.estimate_task_cycles`, a pure function of
each task's config) for every task **including cache hits**.  Actual
simulation counts are recorded per round for reporting, but no search
decision ever reads them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.harness.cache import ResultCache
from repro.harness.cost import estimate_task_cycles
from repro.harness.parallel import TaskBatchStats, run_tasks_accounted
from repro.tuner import TunerError
from repro.tuner.objectives import (
    OBJECTIVES,
    CandidateEval,
    Rung,
    Scenario,
    default_rungs,
    eval_from_results,
    tasks_for,
)
from repro.tuner.pareto import dominates, pareto_frontier, rank_evals
from repro.tuner.space import Candidate, ParamSpace
from repro.tuner.strategies import Strategy, make_strategy


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
    #: Candidate keys the strategy promoted out of this round (filled
    #: by ``record_survivors``; the determinism tests compare these).
    survivors: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "rung": self.rung,
            "candidates": self.candidates,
            "tasks": self.tasks,
            "fresh_simulations": self.fresh_simulations,
            "cache_hits": self.cache_hits,
            "estimated_cycles": self.estimated_cycles,
            "spent_cycles_after": self.spent_cycles_after,
            "seconds": self.seconds,
            "survivors": list(self.survivors),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RoundStats":
        return cls(
            label=data["label"],
            rung=data["rung"],
            candidates=data["candidates"],
            tasks=data["tasks"],
            fresh_simulations=data["fresh_simulations"],
            cache_hits=data["cache_hits"],
            estimated_cycles=data["estimated_cycles"],
            spent_cycles_after=data["spent_cycles_after"],
            seconds=data["seconds"],
            survivors=tuple(data.get("survivors", ())),
        )


class TuneContext:
    """What a :class:`~repro.tuner.strategies.Strategy` sees of the run."""

    def __init__(
        self,
        space: ParamSpace,
        scenario: Scenario,
        rungs: tuple[Rung, ...],
        seed: int,
        budget_cycles: int | None,
        jobs: int | None,
        cache: ResultCache | None,
    ) -> None:
        self.space = space
        self.scenario = scenario
        self.rungs = rungs
        self.seed = seed
        self.budget_cycles = budget_cycles
        self.jobs = jobs
        self.cache = cache
        self.spent_cycles = 0
        self.rounds: list[RoundStats] = []
        #: Full-fidelity memo: first-evaluation order is preserved and
        #: becomes the eval order of the final result.
        self.full_evals: dict[Candidate, CandidateEval] = {}

    # ------------------------------------------------------------------
    @property
    def full_rung(self) -> Rung:
        return self.rungs[-1]

    def _candidate_cost(self, candidate: Candidate, rung: Rung) -> int:
        if rung.full_fidelity and candidate in self.full_evals:
            return 0  # memoized — will not spawn tasks
        return sum(
            estimate_task_cycles(task)
            for task in tasks_for(self.scenario, self.space, candidate, rung)
        )

    def affordable(
        self, candidates: list[Candidate], rung: Rung
    ) -> list[Candidate]:
        """The prefix of ``candidates`` the remaining budget covers.

        Trimming is by position, so a strategy that orders its batch by
        rank loses the *worst* candidates first.  With no budget set,
        everything is affordable.
        """
        if self.budget_cycles is None:
            return list(candidates)
        remaining = self.budget_cycles - self.spent_cycles
        out: list[Candidate] = []
        for candidate in candidates:
            cost = self._candidate_cost(candidate, rung)
            if cost > remaining:
                break
            remaining -= cost
            out.append(candidate)
        return out

    def evaluate(
        self,
        candidates: list[Candidate],
        rung: Rung,
        label: str,
    ) -> list[CandidateEval]:
        """Score a batch at ``rung`` through one harness call.

        Full-fidelity candidates already memoized are returned without
        re-running (and without re-charging the budget); everything
        else becomes one flat task grid.  Results come back in task
        order — the harness guarantees that at any worker count — so
        the per-candidate split below is deterministic.
        """
        todo = [
            c
            for c in candidates
            if not (rung.full_fidelity and c in self.full_evals)
        ]
        started = time.perf_counter()
        stats = TaskBatchStats(0, 0, 0, 0)
        fresh_evals: dict[Candidate, CandidateEval] = {}
        if todo:
            tasks = []
            for candidate in todo:
                tasks.extend(
                    tasks_for(self.scenario, self.space, candidate, rung)
                )
            results, stats = run_tasks_accounted(
                tasks, jobs=self.jobs, cache=self.cache
            )
            width = len(self.scenario.rates)
            for index, candidate in enumerate(todo):
                chunk = results[index * width : (index + 1) * width]
                fresh_evals[candidate] = eval_from_results(
                    self.scenario, candidate, rung, chunk
                )
            self.spent_cycles += stats.estimated_cycles
        out: list[CandidateEval] = []
        for candidate in candidates:
            if candidate in fresh_evals:
                evaluation = fresh_evals[candidate]
            else:
                evaluation = self.full_evals[candidate]
            out.append(evaluation)
            if rung.full_fidelity and candidate not in self.full_evals:
                self.full_evals[candidate] = evaluation
        self.rounds.append(
            RoundStats(
                label=label,
                rung=rung.name,
                candidates=len(candidates),
                tasks=stats.tasks,
                fresh_simulations=stats.fresh_simulations,
                cache_hits=stats.cache_hits,
                estimated_cycles=stats.estimated_cycles,
                spent_cycles_after=self.spent_cycles,
                seconds=time.perf_counter() - started,
            )
        )
        return out

    def record_survivors(self, keys: list[str]) -> None:
        """Annotate the most recent round with the promoted keys."""
        if self.rounds:
            self.rounds[-1].survivors = tuple(keys)

    def known_full_evals(self) -> list[CandidateEval]:
        """Every full-fidelity eval so far, in first-evaluation order.

        Includes the budget-exempt default baseline, so refinement
        strategies seeded from here always explore the neighborhood of
        the paper's default config too.
        """
        return list(self.full_evals.values())


# ----------------------------------------------------------------------
@dataclass
class TuneResult:
    """Everything a tune produced, artifact- and report-ready."""

    scenario: Scenario
    space: ParamSpace
    strategy: str
    seed: int
    budget_cycles: int | None
    spent_cycles: int
    rungs: tuple[Rung, ...]
    rounds: list[RoundStats]
    #: All full-fidelity evaluations, in first-evaluation order.
    evals: list[CandidateEval]
    frontier: list[CandidateEval]
    default_eval: CandidateEval
    #: Frontier entries strictly dominating the default config.
    dominators: list[CandidateEval] = field(default_factory=list)

    @property
    def total_tasks(self) -> int:
        return sum(r.tasks for r in self.rounds)

    @property
    def total_fresh_simulations(self) -> int:
        return sum(r.fresh_simulations for r in self.rounds)

    @property
    def total_cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.rounds)

    def best(self, objective: str = "avg_latency") -> CandidateEval:
        """The frontier entry ranked best (frontier is never empty)."""
        return rank_evals(
            self.frontier,
            tuple(
                sorted(
                    OBJECTIVES,
                    key=lambda o: 0 if o.name == objective else 1,
                )
            ),
        )[0]

    def to_dict(self) -> dict[str, Any]:
        frontier_keys = {e.candidate.key() for e in self.frontier}
        dominator_keys = {e.candidate.key() for e in self.dominators}
        return {
            "scenario": self.scenario.to_dict(),
            "space": self.space.to_dict(),
            "strategy": self.strategy,
            "seed": self.seed,
            "budget_cycles": self.budget_cycles,
            "spent_cycles": self.spent_cycles,
            "rungs": [rung.to_dict() for rung in self.rungs],
            "rounds": [r.to_dict() for r in self.rounds],
            "evals": [e.to_dict() for e in self.evals],
            "frontier": sorted(frontier_keys),
            "dominators": sorted(dominator_keys),
            "default": self.default_eval.to_dict(),
            "totals": {
                "tasks": self.total_tasks,
                "fresh_simulations": self.total_fresh_simulations,
                "cache_hits": self.total_cache_hits,
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TuneResult":
        evals = [CandidateEval.from_dict(e) for e in data["evals"]]
        frontier_keys = set(data["frontier"])
        dominator_keys = set(data["dominators"])
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            space=ParamSpace.from_dict(data["space"]),
            strategy=data["strategy"],
            seed=data["seed"],
            budget_cycles=data["budget_cycles"],
            spent_cycles=data["spent_cycles"],
            rungs=tuple(Rung.from_dict(r) for r in data["rungs"]),
            rounds=[RoundStats.from_dict(r) for r in data["rounds"]],
            evals=evals,
            frontier=[
                e for e in evals if e.candidate.key() in frontier_keys
            ],
            default_eval=CandidateEval.from_dict(data["default"]),
            dominators=[
                e for e in evals if e.candidate.key() in dominator_keys
            ],
        )


def run_tune(
    scenario: Scenario,
    space: ParamSpace | None = None,
    strategy: Strategy | str = "refine",
    budget_cycles: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    rungs: tuple[Rung, ...] | None = None,
    n0: int = 16,
    eta: int = 2,
    refine_rounds: int = 2,
    beam: int = 4,
) -> TuneResult:
    """Run one budgeted tune and return its full results.

    The paper-default candidate is always evaluated at full fidelity
    first — budget-exempt — because it is the baseline every frontier
    claim is measured against.  Only full-fidelity evaluations enter
    the frontier; rung-scaled scores exist solely to rank promotions.
    """
    if budget_cycles is not None and budget_cycles <= 0:
        raise TunerError(
            f"budget must be a positive cycle-node count, "
            f"got {budget_cycles}"
        )
    if space is None:
        space = ParamSpace.default()
    if rungs is None:
        rungs = default_rungs(scenario.base)
    if not rungs or not rungs[-1].full_fidelity:
        raise TunerError(
            "the last rung must be full fidelity "
            "(cycle_scale 1.0, no width override)"
        )
    if isinstance(strategy, str):
        strategy = make_strategy(
            strategy, n0=n0, eta=eta, refine_rounds=refine_rounds, beam=beam
        )
    ctx = TuneContext(
        space=space,
        scenario=scenario,
        rungs=tuple(rungs),
        seed=seed,
        budget_cycles=budget_cycles,
        jobs=jobs,
        cache=cache,
    )
    default = space.canonical(space.default_candidate())
    spent_before = ctx.spent_cycles
    [default_eval] = ctx.evaluate([default], ctx.full_rung, "default")
    # The baseline is budget-exempt: refund whatever it charged.
    refund = ctx.spent_cycles - spent_before
    if refund:
        ctx.spent_cycles = spent_before
        ctx.rounds[-1].spent_cycles_after = ctx.spent_cycles
    strategy.search(ctx)
    evals = list(ctx.full_evals.values())
    frontier = pareto_frontier(evals)
    default_vector = default_eval.vector()
    dominators = [
        e for e in frontier if dominates(e.vector(), default_vector)
    ]
    return TuneResult(
        scenario=scenario,
        space=space,
        strategy=strategy.name,
        seed=seed,
        budget_cycles=budget_cycles,
        spent_cycles=ctx.spent_cycles,
        rungs=tuple(rungs),
        rounds=ctx.rounds,
        evals=evals,
        frontier=frontier,
        default_eval=default_eval,
        dominators=dominators,
    )
