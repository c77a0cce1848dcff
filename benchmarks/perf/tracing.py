"""Spans and hot-call aggregation, recorded from the benchmark's side.

Nothing under ``src/`` is edited: spans wrap the calls the benchmark
makes into each layer, and the per-cycle calls are timed by class-level
wrappers this module installs on the layers' public methods before any
``Simulator`` is built.  A per-cycle call is far too frequent for a span
of its own, so the wrappers aggregate ``[calls, busy_s, self_s]`` per
stage under the enclosing ``sim.run`` span instead.

Self time follows the usual rule — a span's duration minus the part its
children cover — and the hot wrappers apply the same rule to nested hot
calls (``route_and_allocate`` calling into the routing algorithm), so
the stage self times of one run never sum past the run itself.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span store; a disabled tracer records nothing."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        #: Hot-call aggregate of the innermost open ``sim.run`` span, and
        #: the time its already-finished hot children covered.
        self._hot: dict | None = None
        self._covered = 0.0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Hot calls
    # ------------------------------------------------------------------
    def _hot_wrapper(self, stage: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            hot = tracer._hot
            if hot is None:  # outside a run, e.g. during construction
                return fn(*args, **kwargs)
            outer_covered = tracer._covered
            tracer._covered = 0.0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = hot.get(stage)
                if entry is None:
                    entry = hot[stage] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - tracer._covered
                tracer._covered = outer_covered + elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, stage: str, fn):
        """Count calls only: ``Simulator.step`` is the loop, not a stage."""
        tracer = self

        def wrapper(*args, **kwargs):
            hot = tracer._hot
            if hot is not None:
                entry = hot.get(stage)
                if entry is None:
                    entry = hot[stage] = [0, 0.0, 0.0]
                entry[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_wrapper(self, fn):
        tracer = self

        def run(sim):
            with tracer.span("sim.run", mode=sim.engine_mode) as span:
                hot = span["hot"] = {}
                tracer._hot, tracer._covered = hot, 0.0
                try:
                    result = fn(sim)
                finally:
                    tracer._hot = None
                span["cycles"] = result.cycles_run
                span["accepted_flits"] = result.accepted_flits
                span["covered_s"] = tracer._covered
            return result

        run.__wrapped__ = fn
        return run

    def _construct_wrapper(self, fn):
        tracer = self

        def __init__(sim, config, *args, **kwargs):
            with tracer.span("sim.construct", topology=config.topology):
                fn(sim, config, *args, **kwargs)

        __init__.__wrapped__ = fn
        return __init__

    @contextmanager
    def hot_wrappers(self, routings: tuple[str, ...]):
        """Install the class-level wrappers; restore the classes on exit."""
        from repro.router.router import Router
        from repro.routing.registry import create_routing
        from repro.sim.config import SimulationConfig
        from repro.sim.endpoints import Sink, Source
        from repro.sim.engine import Simulator
        from repro.traffic.factory import create_traffic

        targets = [
            (Router, "receive_flit", "router.receive"),
            (Router, "receive_credit", "router.receive"),
            (Router, "link_traversal", "router.link"),
            (Router, "route_and_allocate", "router.route_alloc"),
            (Router, "clear_fresh_only", "router.route_alloc"),
            (Router, "switch_traversal", "router.switch"),
            (Sink, "drain", "sim.endpoints.sink"),
            (Source, "enqueue", "sim.endpoints.inject"),
            (Source, "inject", "sim.endpoints.inject"),
        ]
        # Routing and traffic are timed on the concrete classes the
        # public factories hand back, so a rename behind the registry
        # does not break the benchmark.
        for routing in routings:
            cls = type(create_routing(routing))
            for method in ("select_output", "vc_requests_at"):
                targets.append((cls, method, f"routing.{routing}.route"))
        traffic_classes = set()
        for traffic in ("uniform", "hotspot"):
            config = SimulationConfig(width=4, traffic=traffic)
            generator = create_traffic(
                config, config.make_topology(), random.Random(0)
            )
            traffic_classes.add(type(generator))
        for cls in traffic_classes:
            for method in ("generate", "next_event_cycle"):
                targets.append((cls, method, "traffic.generate"))

        saved = []  # (class, name, had own attribute, original)
        def install(cls, name, wrapper):
            saved.append((cls, name, name in cls.__dict__,
                          cls.__dict__.get(name)))
            setattr(cls, name, wrapper)

        try:
            for cls, name, stage in targets:
                install(cls, name,
                        self._hot_wrapper(stage, getattr(cls, name)))
            install(Simulator, "step", self._count_wrapper(
                "sim.step", Simulator.step))
            install(Simulator, "run", self._run_wrapper(Simulator.run))
            install(Simulator, "__init__", self._construct_wrapper(
                Simulator.__init__))
            yield
        finally:
            for cls, name, own, original in reversed(saved):
                if own:
                    setattr(cls, name, original)
                else:
                    delattr(cls, name)

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus what its children (and, for a
        ``sim.run`` span, its hot calls) cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                out[span["parent"]] -= span["end"] - span["start"]
            out[span["id"]] -= span.get("covered_s", 0.0)
        return out

    def ids_under(self, name: str) -> set[int]:
        """Ids of the spans called ``name`` and of everything below them
        (a parent is always recorded before its children)."""
        found: set[int] = set()
        for span in self.spans:
            if span["name"] == name or span["parent"] in found:
                found.add(span["id"])
        return found

    def spans_named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def dump(self, path) -> None:
        self_times = self.self_times()
        document = {
            "schema": "footprint-noc-perf-trace/1",
            "workload": self.workload,
            "spans": [
                {**span, "self_s": self_times[span["id"]]}
                for span in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
