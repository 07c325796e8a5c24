"""Observability layer: metrics and the event stream.

A dependency-free instrumentation substrate for the simulator stack:

* :mod:`repro.obs.metrics` -- counters / gauges / histograms with
  labels (and bucket-interpolated percentiles), published by the
  frontend simulator, the BTB designs, the ICache, the RAS, and the
  experiment harness;
* :mod:`repro.obs.events` -- one flat record stream (bounded ring +
  JSONL sink) keyed by correlation id: instantaneous hops via ``emit``
  and timed, nested phases via ``span`` (harness runs, trace
  generation, scheduler grids, report sections).  It drives
  ``--trace-out``, `/debug/trace` and the serve telemetry report
  (:mod:`repro.obs.aggregate`).

Both default to shared null objects, so instrumented code pays
~nothing until ``python -m repro ... --metrics-out/--trace-out/
--progress`` / ``repro serve`` (or a test) enables them.  See README
"Observability" for the metric naming scheme and example output.
"""

from repro.obs.events import (
    EventLog,
    NullEventLog,
    bind_rids,
    current_rids,
    disable_events,
    enable_events,
    events_enabled,
    get_event_log,
    new_request_id,
    span,
    use_event_log,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    use_registry,
)

__all__ = [
    "EventLog",
    "NullEventLog",
    "bind_rids",
    "current_rids",
    "disable_events",
    "enable_events",
    "events_enabled",
    "get_event_log",
    "new_request_id",
    "span",
    "use_event_log",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "metrics_enabled",
    "use_registry",
]
