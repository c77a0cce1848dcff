"""Engine constants that data-only modules read.

A leaf module — it imports nothing — so the result cache can stamp its
keys and the CLI can build its parser without loading the simulator.
:mod:`repro.sim.engine` re-exports both names; they are defined once,
here.
"""

#: Bumped whenever a change could alter simulation results (new pipeline
#: stage ordering, RNG consumption, allocation policy, ...).  The result
#: cache (:mod:`repro.harness.cache`) folds this into every cache key, so
#: stale on-disk entries invalidate themselves on upgrade.
ENGINE_VERSION = 4

#: The modes a user can name — ``--engine-mode`` and
#: ``$REPRO_ENGINE_MODE``.  ``legacy`` is the test oracle and is only
#: reachable as ``Simulator(engine_mode="legacy")``.
USER_ENGINE_MODES = ("auto", "vector", "skip")
