"""Network topology: 2D mesh/torus geometry, ports, and channels."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ports": "Direction OPPOSITE",
        "base": "TOPOLOGIES Topology create_topology",
        "mesh": "Mesh2D",
        "torus": "Torus2D",
    },
)
