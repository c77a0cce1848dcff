"""Router microarchitecture: flits, buffers, allocators, and the VC router."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"flit": "Flit Packet", "router": "Router"}
)
