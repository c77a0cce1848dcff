"""The tuner's one parameter space over :class:`SimulationConfig` fields.

:data:`AXES` names five config fields and the ordered values the search
may assign each; the functions here are the operations the search
needs over them: deterministic seeded sampling, neighbor enumeration
(one step along one axis — the move set of the beam refinement),
candidate -> config application, and *canonicalization*.

Canonicalization is what keeps the cached farm small: a candidate whose
routing algorithm never reads the Footprint knobs (``dor`` ignores both
the congestion threshold and the VC limit) is normalized to the axis
defaults for those fields, so the dozens of raw candidates that differ
only in unread knobs collapse onto one config, one cache key, and one
simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError
from repro.sim.config import SimulationConfig


@dataclass(frozen=True)
class Axis:
    """One searchable config field and its ordered candidate values.

    The values tuple is explicit and ordered, so "one step" along it is
    well defined.  ``default`` is the paper's Table 2 value; it is what
    canonicalization resets unread knobs to.
    """

    name: str
    values: tuple[Any, ...]
    default: Any


#: The paper's knob set: Table 2 plus §4.2.5's footprint VC limit.  Axis
#: defaults are the Table 2 bold values, so the all-defaults candidate
#: *is* the paper's default configuration.
AXES: tuple[Axis, ...] = (
    Axis("congestion_threshold", (0.25, 0.5, 0.75), default=0.5),
    Axis("footprint_vc_limit", (None, 1, 2, 4), default=None),
    Axis("num_vcs", (2, 4, 6, 8, 10, 16), default=10),
    Axis("vc_buffer_depth", (2, 4, 8), default=4),
    Axis(
        "routing",
        ("dor", "oddeven", "dbar", "footprint"),
        default="footprint",
    ),
)
_BY_NAME = {axis.name: axis for axis in AXES}


@dataclass(frozen=True)
class Candidate:
    """One point of the space: ``((axis_name, value), ...)`` in axis order.

    Hashable and order-stable, so candidates key dicts/sets and sort
    deterministically via :meth:`key`.
    """

    items: tuple[tuple[str, Any], ...]

    def __getitem__(self, name: str) -> Any:
        return dict(self.items)[name]

    def key(self) -> str:
        """Stable human-readable identity, e.g. ``num_vcs=4/routing=dor``."""
        return "/".join(f"{name}={value}" for name, value in self.items)

    def with_value(self, name: str, value: Any) -> "Candidate":
        return Candidate(tuple({**dict(self.items), name: value}.items()))


#: The Footprint-family knobs and the base routing algorithms that
#: read them.
_READ_BY = {
    "congestion_threshold": ("dbar", "footprint"),
    "footprint_vc_limit": ("footprint",),
}


def reads(routing: str, knob: str) -> bool:
    """Whether ``routing`` (a ``+xordet`` suffix included) reads the
    Footprint-family ``knob``."""
    return routing.split("+")[0] in _READ_BY[knob]


def candidate(**values: Any) -> Candidate:
    """Build a candidate; unnamed axes take their defaults."""
    return Candidate(
        tuple((a.name, values.get(a.name, a.default)) for a in AXES)
    )


def apply(base: SimulationConfig, candidate: Candidate) -> SimulationConfig:
    """``base`` with the candidate's values as overrides (re-validated)."""
    return base.with_(**dict(candidate.items))


def is_valid(base: SimulationConfig, candidate: Candidate) -> bool:
    """Whether the candidate yields a consistent config over ``base``.

    Invalid combinations (e.g. an escape-channel algorithm with one VC)
    are skipped by sampling/neighbor enumeration rather than surfaced
    as errors — not every cross product is simulable.
    """
    try:
        apply(base, candidate)
    except ConfigurationError:
        return False
    return True


def canonical(candidate: Candidate) -> Candidate:
    """Normalize knobs the candidate's routing never reads.

    ``congestion_threshold`` only steers congestion-aware selection
    (DBAR/Footprint); ``footprint_vc_limit`` only Footprint itself.
    For other algorithms those fields are dead config: resetting them
    to the axis defaults makes equivalent candidates identical — one
    cache key, one simulation — without changing semantics.
    """
    for name in _READ_BY:
        if not reads(candidate["routing"], name):
            candidate = candidate.with_value(name, _BY_NAME[name].default)
    return candidate


def sample(n: int, seed: int, base: SimulationConfig) -> list[Candidate]:
    """``n`` distinct valid canonical candidates, deterministically.

    Seeded :class:`random.Random` draws uniformly per axis; draws that
    canonicalize onto an already-sampled point or fail config
    validation are rejected and redrawn.  Returns fewer than ``n`` only
    when the canonical space is smaller than ``n``.
    """
    rng = random.Random(seed)
    out: dict[Candidate, None] = {}  # an insertion-ordered set
    # The cap bounds rejection sampling on near-exhausted spaces.
    for _ in range(max(200, 50 * n)):
        if len(out) == n:
            break
        drawn = canonical(
            candidate(**{a.name: rng.choice(a.values) for a in AXES})
        )
        if drawn not in out and is_valid(base, drawn):
            out[drawn] = None
    return list(out)


def neighbors(candidate: Candidate, base: SimulationConfig) -> list[Candidate]:
    """All one-axis single-step moves, valid and canonicalized.

    For each axis the value moves one position up and one down the
    ordered values tuple (endpoints simply have one neighbor, also for
    categorical axes like ``routing``).  Duplicates after
    canonicalization collapse; the origin itself is never returned.
    """
    origin = canonical(candidate)
    seen: set[Candidate] = {origin}
    out: list[Candidate] = []
    for axis in AXES:
        index = axis.values.index(origin[axis.name])
        # The slice holds the origin's own value: that move is seen.
        for value in axis.values[max(index - 1, 0) : index + 2]:
            moved = canonical(origin.with_value(axis.name, value))
            if moved not in seen:
                seen.add(moved)
                if is_valid(base, moved):
                    out.append(moved)
    return out
