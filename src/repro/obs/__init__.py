"""repro.obs — the unified telemetry layer (tracing, metrics, reports,
signal probes).

Cooperating pieces, all dependency-free and import-cycle-safe (the rest
of the package imports ``repro.obs``, never the other way round — the
probe layer only *receives* core objects, it never imports them):

* :mod:`repro.obs.trace` — a low-overhead span tracer emitting Chrome
  trace-event JSON (load it at https://ui.perfetto.dev).  Disabled by
  default: every instrumented hot path guards on ``TRACER.enabled`` so
  the fused cycle loop pays one attribute check when tracing is off.
* :mod:`repro.obs.metrics` — a process-wide metrics registry (counters,
  gauges, histograms) with Prometheus-text and JSON exporters.  The
  compile cache, decode/fusion caches, supervisor, checkpoint manager
  and fault campaigns all publish here.
* :mod:`repro.obs.report` — the per-run :class:`RunReport` (rates,
  counters, metric snapshot, environment), report diffing, and the
  parent-vs-change judgement of ``benchmarks/e2e`` records behind
  ``gem perf compare``.
* :mod:`repro.obs.probe` — signal-level taps: named nets resolved to
  engine state slots, captured per cycle as packed lane planes into a
  bounded waveform ring (``gem run --vcd-out``) and activity sinks.
* :mod:`repro.obs.activity` — SAIF-style T0/T1/TC toggle counters over
  tap streams, SAIF export, and the hot-net Top-N table.

See docs/OBSERVABILITY.md for the full tour and the metric-name table.
"""

from repro.obs.activity import (
    ActivityAccumulator,
    format_hot_nets,
    hot_nets,
    publish_net_activity,
    read_saif,
    write_saif,
)
from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.probe import (
    ProbePlan,
    ProbeTap,
    SimrefProbe,
    WaveRing,
    build_probe_plan,
    dump_divergence_waves,
    list_nets,
    probe_catalog,
)
from repro.obs.report import (
    RunReport,
    build_run_report,
    compare_e2e,
    diff_reports,
    environment_info,
    format_report,
    load_e2e_records,
    load_report,
    write_report,
)
from repro.obs.trace import TRACER, Tracer, validate_trace

__all__ = [
    "ActivityAccumulator",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProbePlan",
    "ProbeTap",
    "REGISTRY",
    "RunReport",
    "SimrefProbe",
    "TRACER",
    "Tracer",
    "WaveRing",
    "build_probe_plan",
    "build_run_report",
    "compare_e2e",
    "diff_reports",
    "dump_divergence_waves",
    "environment_info",
    "format_hot_nets",
    "format_report",
    "hot_nets",
    "list_nets",
    "load_e2e_records",
    "load_report",
    "probe_catalog",
    "publish_net_activity",
    "read_saif",
    "validate_trace",
    "write_report",
    "write_saif",
]
