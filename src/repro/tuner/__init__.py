"""Search-driven config auto-tuner over the cached simulation farm.

Footprint's knobs — congestion threshold, footprint VC limit, VC count,
buffer depth, and the routing algorithm itself — interact nonlinearly;
the ablation benchmarks only grid-scan them one axis at a time.  This
package searches the joint space (:mod:`~repro.tuner.space`) for the
Pareto frontier (:mod:`~repro.tuner.pareto`) of three objectives
(:mod:`~repro.tuner.objectives`).  :mod:`~repro.tuner.runner` evaluates
every batch through the figure drivers' own
:func:`~repro.harness.experiments.run_grid`, so the result cache, the
process pool and ``$REPRO_SERVICE`` apply for free, and
:mod:`~repro.tuner.report` writes and renders ``TUNE_*.json``.

Budgets are spent in *estimated* cycle-nodes (the shared
:func:`repro.harness.cost.estimate_config_cycles` model), independent of
cache hits, so a warm-cache re-run of any tune replays the exact same
search — same rounds, same survivors, same frontier — with zero fresh
simulations.
"""

from repro._lazy import lazy_exports
from repro.exceptions import ReproError


class TunerError(ReproError):
    """An invalid tuner request or artifact (bad scenario, budget, file)."""


__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "objectives": "OBJECTIVES CandidateEval Scenario config_cost_bits",
        "pareto": "pareto_frontier rank_evals",
        "runner": "TuneResult run_tune",
        "space": "AXES Axis Candidate",
    },
)
__all__.append("TunerError")
