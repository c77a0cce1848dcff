"""Deterministic fault injection for the NoC.

The fault subsystem has two halves:

* :mod:`repro.faults.schedule` — the declarative model: a
  :class:`~repro.faults.schedule.FaultSchedule` is an immutable, seedable
  list of link/router fault events that serializes into
  :class:`~repro.sim.config.SimulationConfig` (so cache keys and parallel
  workers see it);
* :mod:`repro.faults.manager` — the runtime: the engine consults a
  :class:`~repro.faults.manager.FaultManager` each cycle to freeze dead
  routers, gate faulted links, and hold credits crossing them.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "schedule": (
            "FaultEvent FaultSchedule parse_fault_spec random_link_faults "
            "random_router_faults"
        ),
        "manager": "FaultManager",
    },
)
