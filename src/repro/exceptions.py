"""Exception hierarchy for the Footprint NoC reproduction.

All exceptions raised by this package derive from :class:`ReproError` so
callers can catch package-level failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A :class:`~repro.sim.config.SimulationConfig` is invalid or inconsistent."""


class TopologyError(ReproError):
    """A topology query was invalid (unknown node, port, or channel)."""


class FlowControlError(ReproError):
    """A flow-control invariant was violated (credit under/overflow, buffer overflow)."""


class AllocationError(ReproError):
    """A VC or switch allocation invariant was violated."""


class TrafficError(ReproError):
    """A traffic pattern or trace was invalid for the requested network."""


class FaultError(ReproError):
    """A fault schedule or fault specification was invalid for the network."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """A runtime invariant checker caught an illegal simulator state.

    Raised by :mod:`repro.validate` with enough context to localize the
    failure: the checker name, the cycle, and (when applicable) the
    router node, port direction, and VC index involved.
    """

    def __init__(
        self,
        checker: str,
        message: str,
        *,
        cycle: int | None = None,
        node: int | None = None,
        direction: object = None,
        vc: int | None = None,
    ) -> None:
        self.checker = checker
        self.cycle = cycle
        self.node = node
        self.direction = direction
        self.vc = vc
        context = []
        if cycle is not None:
            context.append(f"cycle {cycle}")
        if node is not None:
            context.append(f"node {node}")
        if direction is not None:
            name = getattr(direction, "name", None)
            context.append(f"port {name if name is not None else direction}")
        if vc is not None:
            context.append(f"vc {vc}")
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(f"{checker}: {message}{suffix}")
