"""Deterministic task-cost model shared by every scheduling layer.

Wall time per simulation scales with how many cycles the run simulates
and how many routers do per-cycle work, so ``cycles x nodes`` is a good
(cheap, deterministic, config-only) proxy for relative task cost.  Two
consumers share this single definition:

* the local process pool (:func:`repro.harness.parallel.run_tasks`
  starts the heaviest tasks first by it, scaled by each task's offered
  load — the one consumer that wants wall time, which grows with load,
  and the scaling is its own: the estimate itself stays load-blind);
* the auto-tuner's budget accounting (a tune's budget is spent in
  estimated cycle-nodes, *independent of cache hits*, so budget
  decisions replay identically on a warm cache).

Keeping the estimate config-only (never timing-based) is what makes
both deterministic: the same grid starts in the same order and makes
the same tuning rounds on every machine and at every worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.config import SimulationConfig

if TYPE_CHECKING:
    from repro.harness.parallel import SimTask

#: Weight of the drain phase relative to warmup/measure cycles.  The
#: drain budget is an upper bound that usually terminates long before
#: exhaustion once in-flight packets land, so it is counted lightly.
DRAIN_WEIGHT_DIVISOR = 4


def estimate_config_cycles(config: SimulationConfig) -> int:
    """Relative cost of simulating ``config``: simulated cycle-nodes.

    ``(warmup + measure + drain/4) x width x height``, floored at 1.
    Purely a function of the config — no timing, no host state — so the
    estimate is identical across processes, machines, and reruns.
    """
    cycles = (
        config.warmup_cycles
        + config.measure_cycles
        + config.drain_cycles // DRAIN_WEIGHT_DIVISOR
    )
    height = config.height if config.height is not None else config.width
    return max(1, cycles * config.width * height)


def estimate_task_cycles(task: "SimTask") -> int:
    """Relative cost estimate of one :class:`SimTask` (resolved config)."""
    # No caller in src/: perf/child.py reads it; ROADMAP item 0 drops it.
    return estimate_config_cycles(task.resolved_config())
