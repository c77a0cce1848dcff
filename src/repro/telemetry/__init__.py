"""repro.telemetry — cycle-level observability for the simulator.

The subsystem has four parts:

* :class:`~repro.telemetry.config.TelemetryConfig` — what to record;
  rides on ``SimulationConfig.telemetry`` and serializes with it, but is
  excluded from result-cache keys (telemetry never changes simulated
  state).
* :class:`~repro.telemetry.hub.TelemetryHub` — the probe sink the engine
  and routers call; owns the time-series samplers, the flit tracer, and
  the per-channel utilization counters.
* :class:`~repro.telemetry.result.TelemetryResult` — the collected
  series/counters/events, carried on ``SimulationResult.telemetry``.
* :mod:`~repro.telemetry.trace` — JSONL and Chrome ``trace_event``
  exporters plus the trace summarizer behind ``repro trace summarize``.

Probes are zero-overhead when disabled: a run without telemetry has
``Simulator.telemetry is None`` and every probe site is a single hoisted
``is not None`` check.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": "DEFAULT_SAMPLE_EVERY DEFAULT_TRACE_LIMIT TelemetryConfig",
        "hub": "TelemetryHub",
        "result": "EVENT_KINDS TelemetryResult",
        "trace": "summarize_trace write_chrome_trace write_jsonl write_trace",
    },
)
