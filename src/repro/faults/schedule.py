"""Declarative fault schedules: events, generators, and the CLI spec parser.

A :class:`FaultSchedule` is an immutable list of :class:`FaultEvent`
records — each a link or router fault that activates at a cycle and is
either permanent or transient (``duration`` cycles, after which the
component heals).  Schedules are plain frozen dataclasses so they

* serialize into :class:`~repro.sim.config.SimulationConfig` (and hence
  into result-cache keys — two runs differing only in their faults hash
  differently),
* pickle across the parallel runner's process boundary, and
* compare/hash by value.

Fault semantics (enforced by :mod:`repro.faults.manager` and the engine)
are *freeze*, not *drop*: a dead link stops launching flits and holds the
credits that would cross it; a dead router freezes entirely.  Nothing is
silently lost from the flow-control state, so transient faults heal into
a consistent network and results stay bit-identical across engine modes.

Generators (``k`` random link/router faults) draw from a private
``random.Random`` seeded explicitly, never from the simulation streams,
so the same seed yields the same fault pattern for every routing
algorithm under comparison.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields
from typing import Any

from repro.exceptions import FaultError
from repro.topology.base import create_topology
from repro.topology.ports import Direction

#: Recognized fault kinds.
KIND_LINK = "link"
KIND_ROUTER = "router"
_KINDS = (KIND_LINK, KIND_ROUTER)

_DIRECTION_NAMES = {
    "e": Direction.EAST,
    "east": Direction.EAST,
    "w": Direction.WEST,
    "west": Direction.WEST,
    "n": Direction.NORTH,
    "north": Direction.NORTH,
    "s": Direction.SOUTH,
    "south": Direction.SOUTH,
}


@dataclass(frozen=True)
class FaultEvent:
    """One fault: a component, when it breaks, and (optionally) for how long.

    Attributes
    ----------
    cycle:
        Cycle at which the fault activates.
    kind:
        ``"link"`` (one unidirectional inter-router channel, identified by
        its upstream ``node`` and output ``direction``) or ``"router"``
        (the whole router at ``node`` goes dark, including its endpoint).
    node:
        The faulted router, or the upstream endpoint of the faulted link.
    direction:
        Output direction of the faulted link; must be ``None`` for router
        faults.  A link fault also severs the link's credit-return wire.
    duration:
        Active cycles (the fault spans ``[cycle, cycle + duration)``);
        ``None`` means permanent.
    """

    cycle: int
    kind: str
    node: int
    direction: Direction | None = None
    duration: int | None = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FaultError(f"fault cycle must be >= 0, got {self.cycle}")
        if self.kind not in _KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.node < 0:
            raise FaultError(f"fault node must be >= 0, got {self.node}")
        if self.kind == KIND_LINK:
            if self.direction is None:
                raise FaultError("link fault requires a direction")
            direction = Direction(self.direction)
            if direction is Direction.LOCAL:
                raise FaultError(
                    "link faults apply to inter-router channels; use a "
                    "router fault to take an endpoint down"
                )
            object.__setattr__(self, "direction", direction)
        elif self.direction is not None:
            raise FaultError("router fault takes no direction")
        if self.duration is not None and self.duration < 1:
            raise FaultError(
                f"fault duration must be >= 1 (or None for permanent), "
                f"got {self.duration}"
            )

    # ------------------------------------------------------------------
    @property
    def permanent(self) -> bool:
        return self.duration is None

    @property
    def end_cycle(self) -> int | None:
        """First cycle at which the fault is healed; ``None`` if permanent."""
        if self.duration is None:
            return None
        return self.cycle + self.duration

    def to_dict(self) -> dict[str, Any]:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "node": self.node,
            "direction": (
                int(self.direction) if self.direction is not None else None
            ),
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultEvent":
        _check_fields(data, _EVENT_FIELDS, "fault event")
        direction = data.get("direction")
        return cls(
            cycle=data["cycle"],
            kind=data["kind"],
            node=data["node"],
            direction=Direction(direction) if direction is not None else None,
            duration=data.get("duration"),
        )

    def describe(self) -> str:
        where = (
            f"link n{self.node}->{self.direction.name}"
            if self.kind == KIND_LINK
            else f"router n{self.node}"
        )
        span = (
            "permanent"
            if self.duration is None
            else f"for {self.duration} cycles"
        )
        return f"{where} down at cycle {self.cycle} ({span})"


_EVENT_FIELDS = tuple(f.name for f in fields(FaultEvent))


def _check_fields(data: Any, known: tuple[str, ...], what: str) -> None:
    """Raise :class:`FaultError` unless ``data`` is a dict whose keys
    are all in ``known`` (the JSON form is read by name)."""
    if not isinstance(data, dict):
        raise FaultError(f"{what} must be a dict, got {type(data).__name__}")
    unknown = data.keys() - known
    if unknown:
        raise FaultError(f"unknown {what} field {min(unknown)!r}")


def _event_sort_key(event: FaultEvent) -> tuple:
    return (
        event.cycle,
        event.kind,
        event.node,
        -1 if event.direction is None else int(event.direction),
        event.duration is None,
        event.duration or 0,
    )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, normalized (sorted) list of fault events.

    An empty schedule is falsy and simulates exactly like ``faults=None``
    (the engine skips all fault machinery) — only the cache key differs,
    because the schedule is part of the serialized configuration.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(sorted(self.events, key=_event_sort_key))
        object.__setattr__(self, "events", normalized)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    def validate_for(
        self,
        width: int,
        height: int | None = None,
        topology: str = "mesh",
    ) -> None:
        """Raise :class:`FaultError` if any event is outside the topology.

        A link fault must name a channel the topology actually has: on a
        mesh, edge nodes lack outward links; on a torus every compass
        link exists (it wraps), so only the node bound can fail.
        """
        topo = create_topology(topology, width, height)
        for event in self.events:
            if not (0 <= event.node < topo.num_nodes):
                raise FaultError(
                    f"fault node {event.node} outside {topo!r} "
                    f"({event.describe()})"
                )
            if event.kind == KIND_LINK:
                assert event.direction is not None
                if topo.neighbor(event.node, event.direction) is None:
                    raise FaultError(
                        f"no {event.direction.name} link at node "
                        f"{event.node} in {topo!r} ({event.describe()})"
                    )

    def to_dict(self) -> dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSchedule":
        _check_fields(data, ("events",), "fault schedule")
        return cls(
            events=tuple(
                e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e)
                for e in data.get("events", ())
            )
        )

    def describe(self) -> str:
        if not self.events:
            return "no faults"
        return "; ".join(event.describe() for event in self.events)


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
def random_link_faults(
    width: int,
    height: int | None = None,
    *,
    k: int,
    cycle: int = 0,
    duration: int | None = None,
    seed: int = 0,
    topology: str = "mesh",
) -> FaultSchedule:
    """``k`` distinct random link faults, deterministic in ``seed``.

    Channels are unidirectional (a mesh link contributes two, a torus
    wrap link likewise), matching :meth:`Topology.channels` — so the
    same seed faults different physical links on different topologies.
    """
    topo = create_topology(topology, width, height)
    channels = topo.channels()
    if not (0 <= k <= len(channels)):
        raise FaultError(
            f"cannot fault {k} links; {topo!r} has {len(channels)} channels"
        )
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(len(channels)), k))
    return FaultSchedule(
        tuple(
            FaultEvent(cycle, KIND_LINK, channels[i][0], channels[i][1], duration)
            for i in picks
        )
    )


def random_router_faults(
    width: int,
    height: int | None = None,
    *,
    k: int,
    cycle: int = 0,
    duration: int | None = None,
    seed: int = 0,
    topology: str = "mesh",
) -> FaultSchedule:
    """``k`` distinct random router faults, deterministic in ``seed``."""
    topo = create_topology(topology, width, height)
    if not (0 <= k <= topo.num_nodes):
        raise FaultError(
            f"cannot fault {k} routers; {topo!r} has {topo.num_nodes} nodes"
        )
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(topo.num_nodes), k))
    return FaultSchedule(
        tuple(
            FaultEvent(cycle, KIND_ROUTER, node, None, duration)
            for node in picks
        )
    )


# ----------------------------------------------------------------------
# CLI fault-spec parser
# ----------------------------------------------------------------------
#: One spec item: a body (kind plus colon-separated operands) followed by
#: optional ``@CYCLE`` / ``+DURATION`` / ``~SEED`` modifiers in any order.
_ITEM_RE = re.compile(
    r"^(?P<kind>[a-z]+):(?P<arg1>[0-9]+)(?::(?P<arg2>[a-z]+))?"
    r"(?P<mods>(?:[@+~][0-9]+)*)$"
)
_MOD_RE = re.compile(r"([@+~])([0-9]+)")

_SPEC_HELP = (
    "expected comma-separated items: 'link:NODE:DIR', 'router:NODE', "
    "'links:K', or 'routers:K', each with optional '@CYCLE' (activation, "
    "default 0), '+DURATION' (transient; default permanent) and, for the "
    "random generators, '~SEED' modifiers — e.g. "
    "'link:5:east,routers:2~7@100+500'"
)


def parse_fault_spec(
    text: str,
    width: int,
    height: int | None = None,
    default_seed: int = 0,
    topology: str = "mesh",
) -> FaultSchedule:
    """Parse a ``--faults`` command-line spec into a validated schedule.

    Grammar (items separated by commas)::

        link:NODE:DIR[@CYCLE][+DURATION]
        router:NODE[@CYCLE][+DURATION]
        links:K[@CYCLE][+DURATION][~SEED]
        routers:K[@CYCLE][+DURATION][~SEED]

    ``DIR`` is a compass name (``e``/``east``/...).  Random-generator
    items without an explicit ``~SEED`` derive one from ``default_seed``
    and the item's position, so repeated items draw different components.
    """
    events: list[FaultEvent] = []
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise FaultError(f"empty fault spec {text!r}; {_SPEC_HELP}")
    for index, item in enumerate(items):
        match = _ITEM_RE.match(item.lower())
        if match is None:
            raise FaultError(f"malformed fault spec item {item!r}; {_SPEC_HELP}")
        kind = match.group("kind")
        cycle, duration, seed = 0, None, None
        seen = set()
        for mod, value in _MOD_RE.findall(match.group("mods")):
            if mod in seen:
                raise FaultError(
                    f"duplicate '{mod}' modifier in fault spec item {item!r}"
                )
            seen.add(mod)
            if mod == "@":
                cycle = int(value)
            elif mod == "+":
                duration = int(value)
            else:
                seed = int(value)
        if kind in ("link", "router"):
            if seed is not None:
                raise FaultError(
                    f"'~SEED' only applies to the random 'links:K'/"
                    f"'routers:K' items, not {item!r}"
                )
            node = int(match.group("arg1"))
            if kind == "link":
                dir_name = match.group("arg2")
                direction = _DIRECTION_NAMES.get(dir_name or "")
                if direction is None:
                    raise FaultError(
                        f"unknown link direction {dir_name!r} in {item!r}; "
                        f"expected one of {sorted(set(_DIRECTION_NAMES))}"
                    )
                events.append(FaultEvent(cycle, KIND_LINK, node, direction, duration))
            else:
                if match.group("arg2") is not None:
                    raise FaultError(
                        f"router fault takes a single node: {item!r}"
                    )
                events.append(FaultEvent(cycle, KIND_ROUTER, node, None, duration))
        elif kind in ("links", "routers"):
            if match.group("arg2") is not None:
                raise FaultError(f"malformed fault spec item {item!r}; {_SPEC_HELP}")
            k = int(match.group("arg1"))
            item_seed = seed if seed is not None else default_seed + index
            generator = (
                random_link_faults if kind == "links" else random_router_faults
            )
            generated = generator(
                width,
                height,
                k=k,
                cycle=cycle,
                duration=duration,
                seed=item_seed,
                topology=topology,
            )
            events.extend(generated.events)
        else:
            raise FaultError(
                f"unknown fault kind {kind!r} in {item!r}; {_SPEC_HELP}"
            )
    schedule = FaultSchedule(tuple(events))
    schedule.validate_for(width, height, topology=topology)
    return schedule
