"""Run observability: metrics registry, JSONL event stream, reports.

The unifying layer over the stack's previously disconnected
instrumentation islands (``PhaseTimer``, ``ExchangeStats``, the tracing
machine):

* :mod:`repro.obs.metrics` — process-global :data:`METRICS` registry of
  counters/gauges/summaries wired into the hot paths, near-free while
  disabled (the default);
* :mod:`repro.obs.recorder` — :class:`RunRecorder`, a structured JSONL
  event stream with monotonic ``wall_clock()`` timestamps, plus the
  schema and its validator;
* :mod:`repro.obs.report` — renderers for ``repro report``.

See ``docs/observability.md`` for the metric catalog and the event
schema.
"""

from repro.obs.metrics import METRICS, MetricsRegistry, Summary
from repro.obs.recorder import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    RunRecorder,
    read_events,
    validate_events,
)
from repro.obs.report import (
    engine_comparison,
    phase_breakdown,
    render_report,
    top_blocks_lines,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "Summary",
    "EVENT_SCHEMA",
    "SCHEMA_VERSION",
    "RunRecorder",
    "read_events",
    "validate_events",
    "engine_comparison",
    "phase_breakdown",
    "render_report",
    "top_blocks_lines",
]
