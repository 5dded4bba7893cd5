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

import importlib

#: public name -> the submodule that defines it, imported on first touch:
#: a run that only counts and traces never loads the probe, activity or
#: report layers
_EXPORTS = {
    "ActivityAccumulator": "activity",
    "format_hot_nets": "activity",
    "hot_nets": "activity",
    "publish_net_activity": "activity",
    "read_saif": "activity",
    "write_saif": "activity",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "REGISTRY": "metrics",
    "ProbePlan": "probe",
    "ProbeTap": "probe",
    "SimrefProbe": "probe",
    "WaveRing": "probe",
    "build_probe_plan": "probe",
    "dump_divergence_waves": "probe",
    "list_nets": "probe",
    "probe_catalog": "probe",
    "RunReport": "report",
    "build_run_report": "report",
    "compare_e2e": "report",
    "diff_reports": "report",
    "environment_info": "report",
    "format_report": "report",
    "load_e2e_records": "report",
    "load_report": "report",
    "write_report": "report",
    "TRACER": "trace",
    "Tracer": "trace",
    "validate_trace": "trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.obs.{module}"), name)
