"""Search-driven config auto-tuner over the cached simulation farm.

Footprint's knobs — congestion threshold, footprint VC limit, VC count,
buffer depth, and the routing algorithm itself — interact nonlinearly;
the ablation benchmarks only grid-scan them one axis at a time.  This
package searches the joint space:

* :mod:`repro.tuner.space` — the one space: five ordered
  :class:`Axis` values over :class:`~repro.sim.config.SimulationConfig`
  fields, with deterministic seeded sampling, neighbor enumeration,
  and canonicalization (knobs a routing algorithm never reads are
  normalized away so equivalent candidates share one evaluation);
* :mod:`repro.tuner.objectives` — scenarios (base config + evaluation
  rate ladder), fidelity rungs (each a derived
  :class:`~repro.harness.experiments.Scale`), and the three objectives
  scored per candidate: average latency, saturation throughput, and
  the :mod:`repro.core.cost` storage model;
* :mod:`repro.tuner.pareto` — exact multi-objective dominance and
  Pareto-frontier extraction plus the deterministic candidate ranking
  the search promotes by;
* :mod:`repro.tuner.runner` — the one seeded, deterministic search
  (successive halving over fidelity rungs, then beam refinement
  around the full-fidelity frontier); candidate batches evaluate
  exclusively through the figure drivers' own
  :func:`repro.harness.experiments.run_grid`, so the persistent
  :class:`~repro.harness.cache.ResultCache`, the LPT process pool, and
  the ``$REPRO_SERVICE`` job routing all apply for free;
* :mod:`repro.tuner.report` — ``TUNE_*.json`` artifacts and the
  frontier/best-config tables rendered by ``repro tune``.

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
