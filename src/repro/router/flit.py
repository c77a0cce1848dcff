"""Packets and flits.

A packet is the unit of routing; a flit is the unit of flow control.  A
packet of ``size`` flits is serialized as one head flit, ``size - 2`` body
flits, and one tail flit; a single-flit packet's only flit is both head and
tail.  Only head flits carry routing state — body and tail flits inherit the
head's path through the per-VC state kept by the routers (wormhole
switching).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


_packet_ids = itertools.count()


def _next_packet_id() -> int:
    return next(_packet_ids)


@dataclass(slots=True)
class Packet:
    """A network packet.

    Attributes
    ----------
    src, dst:
        Endpoint node ids.
    size:
        Packet length in flits (``>= 1``).
    creation_time:
        Cycle at which the packet was created at the source queue.
    ejection_time:
        Cycle at which the tail flit was consumed at the destination.
    flow:
        Optional label used by traffic generators to tag flows (e.g.
        ``"hotspot"`` vs ``"background"``); metrics can filter on it.
    measured:
        Whether this packet contributes to latency/throughput statistics
        (warm-up and drain packets are unmeasured).
    """

    src: int
    dst: int
    size: int
    creation_time: int
    flow: str = "default"
    measured: bool = True
    packet_id: int = field(default_factory=_next_packet_id)
    ejection_time: int | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"packet size must be >= 1, got {self.size}")

    @property
    def latency(self) -> int:
        """Total packet latency (creation to tail ejection), in cycles."""
        if self.ejection_time is None:
            raise ValueError("packet has not been ejected yet")
        return self.ejection_time - self.creation_time

    def flits(self) -> list["Flit"]:
        """Serialize the packet into its flits, head first."""
        return [
            Flit(
                packet=self,
                index=i,
                is_head=(i == 0),
                is_tail=(i == self.size - 1),
            )
            for i in range(self.size)
        ]


@dataclass(slots=True)
class Flit:
    """A flow-control digit of a packet."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        if self.is_head and self.is_tail:
            kind = "HT"
        return (
            f"Flit(p{self.packet.packet_id}[{self.index}]{kind} "
            f"{self.src}->{self.dst})"
        )
