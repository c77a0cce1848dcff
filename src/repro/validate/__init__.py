"""Runtime invariant validation.

Opt-in, cycle-level checking of the simulator's structural invariants
(flit conservation, credit accounting, VC state-machine legality,
routing-policy conformance) plus a differential harness comparing engine
modes and cache replays.  See :mod:`repro.validate.checker` for the
invariant catalogue and :mod:`repro.validate.differential` for the
``repro validate`` CLI backend.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "CHECKER_NAMES MUTATION_CHECKERS ValidationConfig "
            "validation_from_env"
        ),
    },
)
