"""Structured tracing, metrics, and profiling for the verification stack.

The telemetry layer is deliberately boring: zero third-party dependencies,
plain-int counters, and a JSONL span sink that is **off by default**.  Every
subsystem (engine driver, scheduler, prover, incremental watcher, fuzz
campaign) checks :func:`repro.telemetry.trace.current` at its hot sites and
does nothing when no tracer is configured, so the instrumented code paths
cost one function call and a ``None`` check per event when tracing is
disabled.

Modules:

* :mod:`repro.telemetry.trace` — spans, events, the JSONL sink with
  rotation, and the module-global tracer switch.
* :mod:`repro.telemetry.metrics` — the counters registry behind the fuzz
  campaign's ``metrics.prom`` and its Prometheus text-format renderer.
* :mod:`repro.telemetry.analyze` — trace loading, the ``repro trace``
  summaries, the ``--profile`` self-time report, and Chrome-format export.
* :mod:`repro.telemetry.bounds` — the shared noise-aware thresholds used
  by bench gating (``tools/check_bench.py``) and run differencing.
* :mod:`repro.telemetry.history` — the schema-versioned sqlite store of
  traced-run summaries behind ``repro history``.
* :mod:`repro.telemetry.diff` — run differencing (``repro trace diff``):
  wall deltas attributed pass → subgoal → method.

The names below are imported on first use, so importing the package loads
none of these modules (nor ``sqlite3``, which the history store needs).
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.bounds import (
        DEFAULT_MIN_SECONDS,
        DEFAULT_NOISE_PCT,
        is_regression,
    )
    from repro.telemetry.diff import diff_summaries, render_diff
    from repro.telemetry.history import (
        HISTORY_SCHEMA_VERSION,
        TelemetryHistory,
        git_describe,
        history_path,
    )
    from repro.telemetry.metrics import CounterRegistry, render_prometheus
    from repro.telemetry.trace import (
        TRACE_SCHEMA_VERSION,
        Tracer,
        TraceWriter,
        configure,
        current,
        shutdown,
        tracing,
    )

__getattr__ = lazy_exports(__name__, {
    "repro.telemetry.bounds": ("DEFAULT_MIN_SECONDS", "DEFAULT_NOISE_PCT", "is_regression"),
    "repro.telemetry.diff": ("diff_summaries", "render_diff"),
    "repro.telemetry.history": (
        "HISTORY_SCHEMA_VERSION",
        "TelemetryHistory",
        "git_describe",
        "history_path",
    ),
    "repro.telemetry.metrics": ("CounterRegistry", "render_prometheus"),
    "repro.telemetry.trace": (
        "TRACE_SCHEMA_VERSION",
        "Tracer",
        "TraceWriter",
        "configure",
        "current",
        "shutdown",
        "tracing",
    ),
})

__all__ = [
    "CounterRegistry",
    "DEFAULT_MIN_SECONDS",
    "DEFAULT_NOISE_PCT",
    "HISTORY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TelemetryHistory",
    "TraceWriter",
    "Tracer",
    "configure",
    "current",
    "diff_summaries",
    "git_describe",
    "history_path",
    "is_regression",
    "render_diff",
    "render_prometheus",
    "shutdown",
    "tracing",
]
