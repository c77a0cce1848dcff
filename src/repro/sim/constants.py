"""Engine constants that data-only modules read.

A leaf module — it imports nothing — so the result cache can stamp its
keys without loading the simulator.
:mod:`repro.sim.engine` re-exports the name; it is defined once, here.
"""

#: Bumped whenever a change could alter simulation results (new pipeline
#: stage ordering, RNG consumption, allocation policy, ...).  The result
#: cache (:mod:`repro.harness.cache`) folds this into every cache key, so
#: stale on-disk entries invalidate themselves on upgrade.
ENGINE_VERSION = 4
