"""Synthetic traffic patterns.

The paper evaluates uniform random, transpose, and shuffle (plus hotspot,
which lives in :mod:`repro.traffic.hotspot`).  A few additional standard
patterns (bit-complement, bit-reverse, tornado, neighbor) are provided for
completeness; they follow the definitions in Dally & Towles.

Pattern conventions:

* **uniform** — destination drawn uniformly from all other nodes.
* **transpose** — node ``(x, y)`` sends to ``(y, x)`` (requires a square
  mesh); nodes on the diagonal are silent.
* **shuffle** — destination id is the source id rotated left by one bit
  (perfect shuffle, requires a power-of-two node count); fixed points are
  silent.
* **bitcomp** — destination id is the bitwise complement of the source id.
* **bitrev** — destination id is the bit-reversed source id.
* **tornado** — ``(x, y)`` sends to ``(x + ceil(k/2) - 1 mod k, y)``.
* **neighbor** — ``(x, y)`` sends to ``(x + 1 mod k, y)``.
"""

from __future__ import annotations

import abc
import random
from typing import Callable

from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.traffic.injection import bernoulli_generates, sample_packet_size


class TrafficGenerator(abc.ABC):
    """Produces packets for every cycle of the simulation."""

    @abc.abstractmethod
    def generate(self, cycle: int, measured: bool) -> list[Packet]:
        """Packets created at ``cycle``; ``measured`` marks the window."""

    def next_event_cycle(self, now: int, horizon: int) -> int | None:
        """Earliest cycle ``>= now`` at which :meth:`generate` may produce
        packets.

        Used by the engine's idle-cycle skipping: when the network is
        completely quiescent, the engine advances its clock directly to
        the returned cycle instead of stepping through empty cycles.

        Contract:

        * ``None`` means *provably no packets before* ``horizon``; the
          engine may jump straight to ``horizon``.
        * A returned cycle may lie at or beyond ``horizon``; the engine
          clamps.  Returning ``now`` is always safe (it disables
          skipping for this generator), and is the default so that
          custom generators that know nothing about skipping keep their
          exact cycle-by-cycle behaviour.
        * Implementations that consume RNG state per simulated cycle
          (Bernoulli injection) must consume *exactly* the draws that
          per-cycle :meth:`generate` calls would have made for the
          scanned cycles, so that skipping stays bit-identical to
          stepping.  :class:`LookaheadTraffic` provides that machinery.
        """
        return now


class LookaheadTraffic(TrafficGenerator):
    """RNG-consuming generator with buffered lookahead for idle skipping.

    Subclasses implement :meth:`_generate_packets` — the per-cycle
    generation including every RNG draw — and mark packets that are
    *eligible* for measurement with ``measured=True`` (ineligible flows,
    e.g. hotspot foreground traffic, with ``False``).  The base class
    then serves both entry points from that single implementation:

    * :meth:`generate` runs (or replays) one cycle and downgrades
      ``measured`` to ``False`` outside the measurement window;
    * :meth:`next_event_cycle` scans forward cycle by cycle, consuming
      the RNG exactly as per-cycle generation would, and buffers the
      first non-empty cycle's packets so the subsequent
      :meth:`generate` call returns them unchanged.

    ``_scanned_to`` tracks the first cycle whose RNG draws have *not*
    been consumed yet; replayed cycles below it return the buffer (or
    nothing) without touching the RNG, which keeps results bit-identical
    whether the engine steps or skips.
    """

    def __init__(self) -> None:
        self._buffer: list[Packet] = []
        self._buffer_cycle = -1
        self._scanned_to = 0

    @abc.abstractmethod
    def _generate_packets(self, cycle: int) -> list[Packet]:
        """One cycle of generation; ``measured`` marks *eligibility*."""

    def generate(self, cycle: int, measured: bool) -> list[Packet]:
        if cycle < self._scanned_to:
            # The lookahead already consumed this cycle's RNG draws.
            if cycle != self._buffer_cycle:
                return []
            packets = self._buffer
            self._buffer = []
            self._buffer_cycle = -1
        else:
            packets = self._generate_packets(cycle)
            self._scanned_to = cycle + 1
        if not measured:
            for packet in packets:
                packet.measured = False
        return packets

    def next_event_cycle(self, now: int, horizon: int) -> int | None:
        if self._buffer_cycle >= now:
            return self._buffer_cycle
        cycle = max(now, self._scanned_to)
        while cycle < horizon:
            packets = self._generate_packets(cycle)
            self._scanned_to = cycle + 1
            if packets:
                self._buffer = packets
                self._buffer_cycle = cycle
                return cycle
            cycle += 1
        return None


# ----------------------------------------------------------------------
# Destination functions
# ----------------------------------------------------------------------
def _num_bits(n: int) -> int:
    return (n - 1).bit_length()


def _uniform(mesh: Topology, src: int, rng: random.Random) -> int | None:
    dst = rng.randrange(mesh.num_nodes - 1)
    return dst if dst < src else dst + 1


def _transpose(mesh: Topology, src: int, rng: random.Random) -> int | None:
    x, y = mesh.coords(src)
    dst = mesh.node_at(y, x)
    return None if dst == src else dst


def _shuffle(mesh: Topology, src: int, rng: random.Random) -> int | None:
    bits = _num_bits(mesh.num_nodes)
    dst = ((src << 1) | (src >> (bits - 1))) & (mesh.num_nodes - 1)
    return None if dst == src else dst


def _bitcomp(mesh: Topology, src: int, rng: random.Random) -> int | None:
    dst = ~src & (mesh.num_nodes - 1)
    return None if dst == src else dst


def _bitrev(mesh: Topology, src: int, rng: random.Random) -> int | None:
    bits = _num_bits(mesh.num_nodes)
    dst = 0
    for i in range(bits):
        if src & (1 << i):
            dst |= 1 << (bits - 1 - i)
    return None if dst == src else dst


def _tornado(mesh: Topology, src: int, rng: random.Random) -> int | None:
    x, y = mesh.coords(src)
    shift = (mesh.width + 1) // 2 - 1
    dst = mesh.node_at((x + shift) % mesh.width, y)
    return None if dst == src else dst


def _neighbor(mesh: Topology, src: int, rng: random.Random) -> int | None:
    x, y = mesh.coords(src)
    dst = mesh.node_at((x + 1) % mesh.width, y)
    return None if dst == src else dst


DestinationFn = Callable[[Topology, int, random.Random], "int | None"]

#: Registry of destination functions by pattern name.
PATTERNS: dict[str, DestinationFn] = {
    "uniform": _uniform,
    "transpose": _transpose,
    "shuffle": _shuffle,
    "bitcomp": _bitcomp,
    "bitrev": _bitrev,
    "tornado": _tornado,
    "neighbor": _neighbor,
}


def pattern_destination(
    name: str, mesh: Topology, src: int, rng: random.Random
) -> int | None:
    """Destination of ``src`` under pattern ``name`` (``None`` = silent).

    ``mesh`` must satisfy the pattern's geometry rule in
    :data:`repro.sim.config.TRAFFIC`, which a config checks when built;
    off it, the answer is undefined.
    """
    return PATTERNS[name](mesh, src, rng)


# ----------------------------------------------------------------------
class SyntheticTraffic(LookaheadTraffic):
    """Bernoulli-injected synthetic traffic under a named pattern."""

    def __init__(
        self,
        pattern: str,
        config: SimulationConfig,
        mesh: Topology,
        rng: random.Random,
    ) -> None:
        super().__init__()
        self.pattern = pattern
        self.config = config
        self.mesh = mesh
        self.rng = rng
        # One destination per source before the first cycle.  The config
        # has checked the pattern against the grid; uniform traffic draws
        # from ``rng`` here, and every recorded result follows on from
        # those draws.
        for src in range(mesh.num_nodes):
            pattern_destination(pattern, mesh, src, rng)

    def _generate_packets(self, cycle: int) -> list[Packet]:
        packets: list[Packet] = []
        rate = self.config.injection_rate
        if rate <= 0.0:
            # bernoulli_generates draws nothing at rate 0, so skipping
            # the whole scan consumes the same RNG state: none.
            return packets
        # Inlined Bernoulli process (one rng.random() per node per cycle,
        # exactly like bernoulli_generates): this loop dominates the
        # idle-cycle lookahead, where every cycle is scanned but almost
        # none produce a packet.
        threshold = rate / self.config.mean_packet_size
        rng_random = self.rng.random
        for src in range(self.mesh.num_nodes):
            if rng_random() >= threshold:
                continue
            dst = pattern_destination(self.pattern, self.mesh, src, self.rng)
            if dst is None:
                continue
            packets.append(
                Packet(
                    src=src,
                    dst=dst,
                    size=sample_packet_size(self.config, self.rng),
                    creation_time=cycle,
                    flow=self.pattern,
                    measured=True,
                )
            )
        return packets

    def next_event_cycle(self, now: int, horizon: int) -> int | None:
        if self.config.injection_rate <= 0.0 and self._buffer_cycle < now:
            # Bernoulli at rate 0 consumes no RNG and never fires.
            return None
        return super().next_event_cycle(now, horizon)
