"""Per-run :class:`RunReport` and the perf-regression gate.

Every measured execution — ``gem-run`` (plain or supervised),
:func:`repro.harness.runner.run_resilient`, and the benchmark harness —
can write one JSON ``RunReport``: what ran (design/workload/batch/engine
mode), how fast (wall seconds, cycles/s, lane-cycles/s), the work
counters and phase timers behind the rates, a full metric-registry
snapshot, and the environment that produced the numbers (python/numpy
versions, platform, CPU count).  Reports are the currency of ``gem-perf``:

* ``gem-perf show report.json`` renders one;
* ``gem-perf diff a.json b.json`` compares two field by field;
* ``gem-perf compare report.json BENCH_cycle.json`` matches the report
  against the benchmark history rows (same design + engine mode + batch)
  and flags throughput regressions beyond a configurable threshold —
  warn-only by default, a hard gate with ``--strict``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Mapping

from repro.obs.metrics import REGISTRY, MetricsRegistry

SCHEMA_VERSION = 1

#: throughput fields the regression gate compares (higher is better)
RATE_FIELDS = ("cycles_per_s", "lane_cycles_per_s")


def environment_info() -> dict:
    """The reproducibility context a perf number is meaningless without."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class RunReport:
    """One run's telemetry snapshot (see module docstring)."""

    design: str
    workload: str
    batch: int
    engine_mode: str
    cycles: int
    elapsed_s: float
    cycles_per_s: float
    lane_cycles_per_s: float
    #: CycleCounters totals (dataclass fields as a dict)
    counters: dict = field(default_factory=dict)
    #: inject/gather/fold/commit wall seconds (zeros unless profiled/traced)
    phase_times: dict = field(default_factory=dict)
    #: metric-registry snapshot at report time
    metrics: dict = field(default_factory=dict)
    environment: dict = field(default_factory=environment_info)
    #: run-shape extras (supervised stats, trace path, CLI argv, ...)
    extras: dict = field(default_factory=dict)
    kind: str = "gem-run"
    schema: int = SCHEMA_VERSION
    created_unix: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


def build_run_report(
    *,
    design: str,
    workload: str,
    batch: int,
    engine_mode: str,
    cycles: int,
    elapsed_s: float,
    counters: Mapping[str, float] | None = None,
    phase_times: Mapping[str, float] | None = None,
    registry: MetricsRegistry | None = REGISTRY,
    extras: Mapping[str, object] | None = None,
    kind: str = "gem-run",
    backend: str | None = None,
    lane_words: int | None = None,
) -> RunReport:
    """Assemble a report from raw measurements plus the live registry.

    ``backend``/``lane_words`` record the execution backend and the
    lane-plane word count K in ``environment`` (and as the
    ``gem_backend_info`` metric) so ``gem-perf diff``/``compare`` can
    tell a native run from a numpy run of the same design.
    """
    elapsed = max(elapsed_s, 1e-9)
    environment = environment_info()
    if backend is not None:
        environment["backend"] = backend
    if lane_words is not None:
        environment["lane_words"] = int(lane_words)
    if backend is not None and registry is not None:
        registry.gauge(
            "gem_backend_info",
            help="active execution backend (value is lane-plane words K)",
            labels={"backend": backend},
        ).set(float(lane_words if lane_words is not None else 1))
    return RunReport(
        design=design,
        workload=workload,
        batch=batch,
        engine_mode=engine_mode,
        cycles=cycles,
        elapsed_s=elapsed_s,
        cycles_per_s=cycles / elapsed,
        lane_cycles_per_s=cycles * max(1, batch) / elapsed,
        counters=dict(counters or {}),
        phase_times=dict(phase_times or {}),
        metrics=registry.snapshot() if registry is not None else {},
        environment=environment,
        extras=dict(extras or {}),
        kind=kind,
        created_unix=time.time(),
    )


def write_report(report: RunReport, path: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(report.to_json(), f, indent=2, sort_keys=True)
    os.replace(tmp, path)


def load_report(path: str) -> RunReport:
    """Read a report, tolerating unknown keys from newer writers."""
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: not a RunReport (expected a JSON object)")
    known = {f.name for f in RunReport.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    kwargs = {k: v for k, v in raw.items() if k in known}
    extras = dict(kwargs.get("extras") or {})
    extras.update({k: v for k, v in raw.items() if k not in known})
    kwargs["extras"] = extras
    missing = {"design", "workload", "batch", "engine_mode", "cycles"} - set(kwargs)
    if missing:
        raise ValueError(f"{path}: not a RunReport (missing {sorted(missing)})")
    return RunReport(**kwargs)


def format_report(report: RunReport) -> str:
    """Human rendering for ``gem-perf show``."""
    lines = [
        f"{report.kind}: {report.design}/{report.workload} "
        f"({report.engine_mode} engine, batch {report.batch})",
        f"  cycles          {report.cycles}",
        f"  wall            {report.elapsed_s:.3f}s",
        f"  cycles/s        {report.cycles_per_s:,.0f}",
        f"  lane-cycles/s   {report.lane_cycles_per_s:,.0f}",
    ]
    if any(v > 0 for v in report.phase_times.values()):
        total = sum(report.phase_times.values()) or 1e-9
        split = "  ".join(
            f"{k} {v / total:.0%}" for k, v in report.phase_times.items()
        )
        lines.append(f"  phase split     {split}")
    if report.counters:
        cycles = max(1, int(report.counters.get("cycles", report.cycles) or 1))
        for key in ("array_ops", "fused_array_ops", "fold_steps", "global_writes"):
            if key in report.counters:
                lines.append(
                    f"  {key + '/cycle':15s} {report.counters[key] / cycles:,.1f}"
                )
    env = report.environment
    if env:
        lines.append(
            f"  environment     python {env.get('python', '?')}, "
            f"numpy {env.get('numpy', '?')}, {env.get('platform', '?')}"
        )
        if "backend" in env:
            lines.append(
                f"  backend         {env['backend']} "
                f"(lane words {env.get('lane_words', 1)})"
            )
    activity = report.extras.get("activity")
    for key, value in sorted(report.extras.items()):
        if key == "activity":
            continue  # rendered as a table below
        lines.append(f"  {key:15s} {value}")
    if isinstance(activity, Mapping) and activity.get("hot_nets"):
        from repro.obs.activity import format_hot_nets

        lines.append(
            f"  hot nets        top {len(activity['hot_nets'])} by toggles over "
            f"{activity.get('cycles', '?')} cycles x "
            f"{activity.get('lanes', report.batch)} lane(s)"
        )
        lines.append(format_hot_nets(activity["hot_nets"]))
    return "\n".join(lines)


@dataclass
class FieldDiff:
    """One numeric field's before/after in a report diff."""

    name: str
    a: float
    b: float

    @property
    def ratio(self) -> float:
        return self.b / self.a if self.a else float("inf")

    def render(self) -> str:
        pct = (self.ratio - 1.0) * 100.0 if self.a else float("inf")
        return f"{self.name:24s} {self.a:>14,.2f} -> {self.b:>14,.2f}  ({pct:+.1f}%)"


def diff_reports(a: RunReport, b: RunReport) -> list[FieldDiff]:
    """Field-by-field numeric comparison (rates, then shared counters)."""
    diffs = [
        FieldDiff("elapsed_s", a.elapsed_s, b.elapsed_s),
        FieldDiff("cycles_per_s", a.cycles_per_s, b.cycles_per_s),
        FieldDiff("lane_cycles_per_s", a.lane_cycles_per_s, b.lane_cycles_per_s),
    ]
    for key in sorted(set(a.counters) & set(b.counters)):
        va, vb = a.counters[key], b.counters[key]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va != vb:
            diffs.append(FieldDiff(f"counters.{key}", va, vb))
    for key in sorted(set(a.phase_times) & set(b.phase_times)):
        va, vb = a.phase_times[key], b.phase_times[key]
        if va or vb:
            diffs.append(FieldDiff(f"phase.{key}", va, vb))
    return diffs


# -- the BENCH_*.json regression gate -----------------------------------------


@dataclass
class BenchComparison:
    """One report-vs-baseline rate comparison."""

    metric: str
    baseline: float
    current: float
    threshold: float
    source: str

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    @property
    def regressed(self) -> bool:
        return self.baseline > 0 and self.ratio < (1.0 - self.threshold)

    def render(self) -> str:
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.metric:20s} baseline {self.baseline:>14,.0f}  "
            f"current {self.current:>14,.0f}  ({self.ratio:6.2f}x)  [{verdict}]"
        )


def _bench_rows(bench: dict) -> list[dict]:
    """Both ``BENCH_cycle.json`` and ``BENCH_batch.json`` carry their
    measurements as a ``rows`` list of ``measure_batch_throughput``
    dicts; tolerate a bare list too."""
    if isinstance(bench, list):
        return [r for r in bench if isinstance(r, dict)]
    rows = bench.get("rows", [])
    return [r for r in rows if isinstance(r, dict)]


def compare_to_bench(
    report: RunReport,
    bench: dict,
    *,
    threshold: float = 0.10,
    source: str = "bench",
    config: str | None = None,
) -> tuple[list[BenchComparison], list[str]]:
    """Match ``report`` against the benchmark-history rows.

    Rows are matched on (design, engine_mode, batch) — and on the
    execution backend when both the report environment and the row carry
    one, so native rows never gate a numpy run.  Likewise for the compile
    ``config`` label (``default``/``tuned``, docs/TUNING.md): default and
    tuned rows for the same design coexist in one bench file and a run is
    gated only against rows with its own label.  ``config`` overrides the
    report's label to diff explicitly against the other side.  Each
    throughput field present on both sides becomes one
    :class:`BenchComparison`.  Returns ``(comparisons, notes)`` — notes
    explain silent non-matches so a gate never passes just because
    nothing lined up.
    """
    backend = report.environment.get("backend") if report.environment else None
    config_label = config or (report.extras or {}).get("config")
    matches = [
        row
        for row in _bench_rows(bench)
        if row.get("design") == report.design
        and row.get("engine_mode", report.engine_mode) == report.engine_mode
        and int(row.get("batch", report.batch)) == report.batch
        and (
            backend is None
            or row.get("backend") is None
            or row.get("backend") == backend
        )
        and (
            config_label is None
            or row.get("config") is None
            or row.get("config") == config_label
        )
    ]
    notes: list[str] = []
    if not matches:
        label = f"/{backend}" if backend else ""
        if config_label:
            label += f"/{config_label}"
        notes.append(
            f"{source}: no baseline row for {report.design}/"
            f"{report.engine_mode}/batch={report.batch}{label}"
        )
        return [], notes
    comparisons: list[BenchComparison] = []
    for row in matches:
        for metric in RATE_FIELDS:
            baseline = row.get(metric)
            current = getattr(report, metric, None)
            if isinstance(baseline, (int, float)) and baseline > 0 and current:
                comparisons.append(
                    BenchComparison(
                        metric=metric,
                        baseline=float(baseline),
                        current=float(current),
                        threshold=threshold,
                        source=source,
                    )
                )
    if not comparisons:
        notes.append(f"{source}: matching rows carry no comparable rate fields")
    return comparisons, notes
