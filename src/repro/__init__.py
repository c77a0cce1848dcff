"""Reproduction of *Footprint: Regulating Routing Adaptiveness in
Networks-on-Chip* (Fu & Kim, ISCA 2017).

The package provides a cycle-level network-on-chip simulator (2D mesh or
torus, input-queued virtual-channel routers, credit-based wormhole flow
control)
together with the paper's Footprint routing algorithm and its baselines
(DOR, Odd-Even, DBAR, and the XORDET static VC mapping overlay), the
paper's traffic workloads, and the analyses behind its figures:
latency-throughput sweeps, congestion-tree shape, blocking purity, and the
implementation-cost model.

Quick start::

    from repro import SimulationConfig, Simulator

    config = SimulationConfig(width=4, num_vcs=4, routing="footprint",
                              traffic="transpose", injection_rate=0.2)
    result = Simulator(config).run()
    print(result.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "sim.config": "SimulationConfig",
        "sim.engine": "Simulator",
        "sim.results": "SimulationResult",
        "routing.registry": "available_algorithms create_routing",
        "topology.base": "TOPOLOGIES Topology create_topology",
        "topology.mesh": "Mesh2D",
        "topology.ports": "Direction",
        "topology.torus": "Torus2D",
        "metrics.sweep": "injection_sweep saturation",
        "core.cost": "CostModel",
    },
)
__all__.append("__version__")
