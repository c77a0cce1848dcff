"""Validation configuration.

:class:`ValidationConfig` selects which runtime invariant checkers a
simulation runs (see :mod:`repro.validate.checker` for the catalogue).
Validation is an *engine argument*, not a :class:`SimulationConfig`
field: checkers observe a run without changing it, so a validated run
must hash to the same result-cache key and produce the same serialized
config as an unvalidated one.  ``$REPRO_VALIDATE`` (:mod:`repro.settings`)
turns validation on for harness-driven runs (including pool workers)
without plumbing a flag through every call site.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import settings
from repro.exceptions import ConfigurationError
from repro.settings import CHECKER_NAMES


@dataclass(frozen=True)
class ValidationConfig:
    """Which invariant checkers one simulation runs.

    Attributes
    ----------
    flit_conservation:
        Global flit conservation, every checked cycle: generated flits
        must equal source backlog + in-flight + delivered +
        discarded-by-fault, and the engine's incremental counters must
        match a from-scratch recount.
    credit_accounting:
        Per-link credit conservation: for every (router, output port,
        VC), free credits plus every in-flight claim on the downstream
        buffer (staged flits, flits on the wire, buffered flits, credits
        on the return wire, fault-held credits) must equal the buffer
        depth.
    vc_states:
        Per-VC state-machine legality (IDLE/ROUTING/ACTIVE register
        consistency, head/body/tail wormhole ordering, the
        allocated-VC <-> ACTIVE-input-VC bijection) plus the router's and
        output ports' incremental cache consistency.
    routing_conformance:
        Committed routes stay inside the algorithm's allowed-direction
        set (minimal quadrant for the adaptive algorithms), escape-VC
        grants sit on the DOR port (Duato's condition), and footprint
        VCs carry only their owner destination's packets.
    """

    flit_conservation: bool = True
    credit_accounting: bool = True
    vc_states: bool = True
    routing_conformance: bool = True

    @property
    def active(self) -> bool:
        """Whether any checker is enabled."""
        return bool(
            self.flit_conservation
            or self.credit_accounting
            or self.vc_states
            or self.routing_conformance
        )

    @classmethod
    def only(cls, *names: str) -> "ValidationConfig":
        """A config with exactly ``names`` enabled."""
        unknown = set(names) - set(CHECKER_NAMES)
        if unknown:
            raise ConfigurationError(
                f"unknown checkers {sorted(unknown)}; "
                f"expected a subset of {list(CHECKER_NAMES)}"
            )
        return cls(**{n: (n in names) for n in CHECKER_NAMES})


def validation_from_env() -> ValidationConfig | None:
    """The checkers ``$REPRO_VALIDATE`` turns on; ``None`` when off."""
    names = settings.read("REPRO_VALIDATE")
    return None if names is None else ValidationConfig.only(*names)
