"""Declarative parameter space over :class:`SimulationConfig` fields.

An :class:`Axis` names one config field and the ordered values the
search may assign it; a :class:`ParamSpace` is a tuple of axes plus the
operations every strategy needs: deterministic seeded sampling,
neighbor enumeration (one step along one axis — the move set of the
coordinate/beam refinement), candidate -> config application, and
*canonicalization*.

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
from typing import Any, Iterator

from repro.exceptions import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.tuner import TunerError


@dataclass(frozen=True)
class Axis:
    """One searchable config field and its ordered candidate values.

    ``kind`` documents the spacing — ``"discrete"`` for categorical or
    linear ladders, ``"log"`` for multiplicative ones — and is carried
    into artifacts; both kinds behave identically at search time (the
    values tuple is always explicit and ordered, so "one step" is well
    defined either way).  ``default`` is the paper's Table 2 value; it
    is what canonicalization resets unread knobs to, and it must be a
    member of ``values``.
    """

    name: str
    values: tuple[Any, ...]
    default: Any
    kind: str = "discrete"

    def __post_init__(self) -> None:
        if not self.values:
            raise TunerError(f"axis '{self.name}' has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise TunerError(f"axis '{self.name}' has duplicate values")
        if self.default not in self.values:
            raise TunerError(
                f"axis '{self.name}' default {self.default!r} is not "
                f"among its values"
            )
        if self.kind not in ("discrete", "log"):
            raise TunerError(
                f"axis '{self.name}' kind must be 'discrete' or 'log', "
                f"got {self.kind!r}"
            )

    @classmethod
    def log_range(
        cls, name: str, lo: int, hi: int, default: int, base: int = 2
    ) -> "Axis":
        """A log-spaced integer axis: ``lo, lo*base, ... <= hi``."""
        if lo < 1 or hi < lo or base < 2:
            raise TunerError(
                f"axis '{name}': need 1 <= lo <= hi and base >= 2, "
                f"got lo={lo} hi={hi} base={base}"
            )
        values = []
        value = lo
        while value <= hi:
            values.append(value)
            value *= base
        if default not in values:
            values = sorted(set(values) | {default})
        return cls(name, tuple(values), default, kind="log")

    def index_of(self, value: Any) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise TunerError(
                f"value {value!r} is not on axis '{self.name}' "
                f"(values: {self.values!r})"
            ) from None


@dataclass(frozen=True)
class Candidate:
    """One point of the space: ``((axis_name, value), ...)`` in axis order.

    Hashable and order-stable, so candidates key dicts/sets and sort
    deterministically via :meth:`key`.
    """

    items: tuple[tuple[str, Any], ...]

    def __getitem__(self, name: str) -> Any:
        for key, value in self.items:
            if key == name:
                return value
        raise KeyError(name)

    def overrides(self) -> dict[str, Any]:
        """The config-field overrides this candidate applies."""
        return dict(self.items)

    def key(self) -> str:
        """Stable human-readable identity, e.g. ``num_vcs=4/routing=dor``."""
        return "/".join(f"{name}={value}" for name, value in self.items)

    def with_value(self, name: str, value: Any) -> "Candidate":
        return Candidate(
            tuple(
                (key, value if key == name else old)
                for key, old in self.items
            )
        )


#: Base routing algorithms that read the Footprint-family knobs.
_CONGESTION_AWARE = ("dbar", "footprint")
_FOOTPRINT_BASED = ("footprint",)


def _base_routing(routing: str) -> str:
    return routing.split("+")[0].strip().lower()


class ParamSpace:
    """An ordered set of axes plus the search operations over them."""

    def __init__(self, axes: tuple[Axis, ...] | list[Axis]) -> None:
        self.axes = tuple(axes)
        if not self.axes:
            raise TunerError("a ParamSpace needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise TunerError(f"duplicate axis names: {names}")
        valid = set(SimulationConfig.__dataclass_fields__)
        for name in names:
            if name not in valid:
                raise TunerError(
                    f"axis '{name}' is not a SimulationConfig field"
                )
        self._by_name = {axis.name: axis for axis in self.axes}

    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "ParamSpace":
        """The paper's knob set (ISSUE: Table 2 plus §4.2.5's limit).

        Axis defaults are the Table 2 bold values, so the all-defaults
        candidate *is* the paper's default configuration.
        """
        return cls(
            (
                Axis(
                    "congestion_threshold",
                    (0.25, 0.5, 0.75),
                    default=0.5,
                ),
                Axis(
                    "footprint_vc_limit",
                    (None, 1, 2, 4),
                    default=None,
                ),
                Axis(
                    "num_vcs",
                    (2, 4, 6, 8, 10, 16),
                    default=10,
                ),
                Axis.log_range("vc_buffer_depth", 2, 8, default=4),
                Axis(
                    "routing",
                    ("dor", "oddeven", "dbar", "footprint"),
                    default="footprint",
                ),
            )
        )

    # ------------------------------------------------------------------
    def axis(self, name: str) -> Axis:
        try:
            return self._by_name[name]
        except KeyError:
            raise TunerError(f"no axis named '{name}'") from None

    @property
    def size(self) -> int:
        """Number of raw points (before canonical collapsing)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def describe(self) -> str:
        return ", ".join(
            f"{axis.name}[{len(axis.values)}{'/log' if axis.kind == 'log' else ''}]"
            for axis in self.axes
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "axes": [
                {
                    "name": axis.name,
                    "values": list(axis.values),
                    "default": axis.default,
                    "kind": axis.kind,
                }
                for axis in self.axes
            ]
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ParamSpace":
        return cls(
            tuple(
                Axis(
                    entry["name"],
                    tuple(entry["values"]),
                    entry["default"],
                    entry.get("kind", "discrete"),
                )
                for entry in data["axes"]
            )
        )

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def candidate(self, **values: Any) -> Candidate:
        """Build a candidate; unnamed axes take their defaults."""
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise TunerError(f"unknown axes: {sorted(unknown)}")
        items = []
        for axis in self.axes:
            value = values.get(axis.name, axis.default)
            axis.index_of(value)  # membership check
            items.append((axis.name, value))
        return Candidate(tuple(items))

    def default_candidate(self) -> Candidate:
        """The all-defaults point — the paper's Table 2 configuration."""
        return self.candidate()

    def apply(
        self, base: SimulationConfig, candidate: Candidate
    ) -> SimulationConfig:
        """``base`` with the candidate's overrides (re-validated)."""
        return base.with_(**candidate.overrides())

    def is_valid(
        self, base: SimulationConfig, candidate: Candidate
    ) -> bool:
        """Whether the candidate yields a consistent config over ``base``.

        Invalid combinations (e.g. an escape-channel algorithm with one
        VC) are skipped by sampling/neighbor enumeration rather than
        surfaced as errors — the space is declarative, not every cross
        product is simulable.
        """
        try:
            self.apply(base, candidate)
        except ConfigurationError:
            return False
        return True

    def canonical(self, candidate: Candidate) -> Candidate:
        """Normalize knobs the candidate's routing never reads.

        ``congestion_threshold`` only steers congestion-aware selection
        (DBAR/Footprint); ``footprint_vc_limit`` only Footprint itself.
        For other algorithms those fields are dead config: resetting
        them to the axis defaults makes equivalent candidates identical
        — one cache key, one simulation — without changing semantics.
        """
        routing = None
        for name, value in candidate.items:
            if name == "routing":
                routing = _base_routing(str(value))
        if routing is None:
            return candidate
        out = candidate
        if routing not in _CONGESTION_AWARE and "congestion_threshold" in (
            self._by_name
        ):
            out = out.with_value(
                "congestion_threshold",
                self._by_name["congestion_threshold"].default,
            )
        if routing not in _FOOTPRINT_BASED and "footprint_vc_limit" in (
            self._by_name
        ):
            out = out.with_value(
                "footprint_vc_limit",
                self._by_name["footprint_vc_limit"].default,
            )
        return out

    # ------------------------------------------------------------------
    # Search moves
    # ------------------------------------------------------------------
    def sample(
        self, n: int, seed: int, base: SimulationConfig
    ) -> list[Candidate]:
        """``n`` distinct valid canonical candidates, deterministically.

        Seeded :class:`random.Random` draws uniformly per axis; draws
        that canonicalize onto an already-sampled point or fail config
        validation are rejected and redrawn.  Returns fewer than ``n``
        only when the canonical space is smaller than ``n``.
        """
        if n < 1:
            raise TunerError(f"sample size must be >= 1, got {n}")
        rng = random.Random(seed)
        seen: set[Candidate] = set()
        out: list[Candidate] = []
        # The cap bounds rejection sampling on near-exhausted spaces.
        attempts = 0
        max_attempts = max(200, 50 * n)
        while len(out) < n and attempts < max_attempts:
            attempts += 1
            raw = Candidate(
                tuple(
                    (axis.name, rng.choice(axis.values))
                    for axis in self.axes
                )
            )
            candidate = self.canonical(raw)
            if candidate in seen:
                continue
            if not self.is_valid(base, candidate):
                continue
            seen.add(candidate)
            out.append(candidate)
        return out

    def neighbors(
        self, candidate: Candidate, base: SimulationConfig
    ) -> list[Candidate]:
        """All one-axis single-step moves, valid and canonicalized.

        For each axis the value moves one position up and one down the
        ordered values tuple (categorical axes like ``routing`` treat
        the tuple as a ring would not — endpoints simply have one
        neighbor).  Duplicates after canonicalization collapse; the
        origin itself is never returned.
        """
        origin = self.canonical(candidate)
        seen: set[Candidate] = {origin}
        out: list[Candidate] = []
        for axis in self.axes:
            index = axis.index_of(origin[axis.name])
            for step in (-1, 1):
                other = index + step
                if not (0 <= other < len(axis.values)):
                    continue
                moved = self.canonical(
                    origin.with_value(axis.name, axis.values[other])
                )
                if moved in seen:
                    continue
                seen.add(moved)
                if self.is_valid(base, moved):
                    out.append(moved)
        return out

    def iter_all(self, base: SimulationConfig) -> Iterator[Candidate]:
        """Every valid canonical candidate (small spaces / tests only)."""
        def rec(index: int, acc: list) -> Iterator[Candidate]:
            if index == len(self.axes):
                candidate = self.canonical(Candidate(tuple(acc)))
                yield candidate
                return
            axis = self.axes[index]
            for value in axis.values:
                acc.append((axis.name, value))
                yield from rec(index + 1, acc)
                acc.pop()

        seen: set[Candidate] = set()
        for candidate in rec(0, []):
            if candidate in seen:
                continue
            seen.add(candidate)
            if self.is_valid(base, candidate):
                yield candidate
