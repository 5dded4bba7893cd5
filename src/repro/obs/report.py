"""Per-run :class:`RunReport`, and the judgement of benchmark records.

Every measured execution — ``gem run`` (plain or supervised) and
:func:`repro.harness.runner.run_resilient` — can write one JSON
``RunReport``: what ran (design/workload/batch/engine mode), how fast
(wall seconds, cycles/s, lane-cycles/s), the work counters and phase
timers behind the rates, a full metric-registry snapshot, and the
environment that produced the numbers (python/numpy versions, platform,
CPU count).  A report is one sample of one run; ``gem perf show`` renders
it and ``gem perf diff a.json b.json`` sets two side by side.

Whether a change made the simulator faster or slower is decided from
repeated samples, not from a report: ``gem perf compare PARENT CHANGE``
reads two sets of ``benchmarks/e2e`` records and applies the benchmark's
own bounds to their medians and spread (:func:`judge`).
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
    ``gem_backend_info`` metric) so ``gem perf show``/``diff`` can
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
    from repro.core.cachefile import write_atomic  # only a writer needs it

    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    write_atomic(path, lambda f: f.write(text.encode()))


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
    """Human rendering for ``gem perf show``."""
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


# -- gem perf compare: two sets of benchmarks/e2e records, one rule -----------


def _e2e_records(doc, depth: int = 4):
    """Records are known by shape wherever they sit in ``doc``: whole (a
    ``detail-*.json``) or inside the ``sets`` of a ``results.json``."""
    result = doc.get("result") if isinstance(doc, dict) else None
    if (
        isinstance(result, dict)
        and {"workload", "comparable"} <= doc.keys()
        and {"metrics", "attempted", "failed"} <= result.keys()
    ):
        yield doc
    elif depth and isinstance(doc, (dict, list)):
        for child in doc.values() if isinstance(doc, dict) else doc:
            yield from _e2e_records(child, depth - 1)


def load_e2e_records(path: str) -> list[dict]:
    """Every ``benchmarks/e2e`` record in a JSON file, or in the ``*.json``
    of a directory in name order (pairs are formed by position, so name
    the files of alternating runs in run order).  Other JSON (trace spans,
    cache sidecars) holds no record and is skipped; a record met twice —
    a detail file and the results.json embedding it — counts once."""
    names = [path]
    if os.path.isdir(path):
        names = sorted(os.path.join(path, n) for n in os.listdir(path) if n.endswith(".json"))
    found: dict[str, dict] = {}
    for name in names:
        with open(name) as f:
            for record in _e2e_records(json.load(f)):
                found.setdefault(json.dumps(record, sort_keys=True), record)
    return list(found.values())


def judge(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Both medians, the oriented change and the parent's IQR (fractions of
    the parent's median, the change positive when better), the pairs won
    and the verdict for one metric on one workload.  The rule is the
    pipeline's: ``WORSE`` = median worse than the parent's by more than
    ``bound``; ``better`` = median beyond the spread of the parent's own
    runs (their interquartile distance) with nine tenths of the pairs won,
    ties counting for neither — or every change run better than every
    parent run; otherwise ``unresolved`` when that spread is wider than the
    bound or a side has one run, else ``inside bound``.  A metric without a
    bound (the per-layer ones) is ``recorded``, not judged."""
    from statistics import median, quantiles  # not on the simulator's import path

    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = median(parent), median(change)
    scale = abs(p_med) or 1.0
    gain = sign * (c_med - p_med) / scale
    q1, _, q3 = quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else [p_med] * 3
    iqr = (q3 - q1) / scale
    wins = None
    if len(parent) == len(change):
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if bound is None:
        verdict = "recorded"
    elif gain < -bound:
        verdict = "WORSE"
    elif min(len(parent), len(change)) < 2:
        verdict = "unresolved"
    elif min(sign * c for c in change) > max(sign * p for p in parent) or (
        gain > iqr and wins is not None and 10 * wins >= 9 * len(parent)
    ):
        verdict = "better"
    else:
        verdict = "unresolved" if iqr > bound else "inside bound"
    return dict(parent=p_med, change=c_med, gain=gain, iqr=iqr, wins=wins, verdict=verdict)


def _by_workload(side: str, records: list[dict]) -> dict[str, dict]:
    """``{workload: {"failed", "attempted", "runs": {metric: values in read
    order}}}``; refuses records that say they are not comparable."""
    quick = sum(not record["comparable"] for record in records)
    if quick:
        raise ValueError(
            f"{side}: {quick} of {len(records)} records are marked comparable: false "
            f"(written by a --quick run); nothing compared"
        )
    workloads: dict[str, dict] = {}
    for record in records:
        result = record["result"]
        entry = workloads.setdefault(record["workload"], {"failed": 0, "attempted": 0, "runs": {}})
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        for name, reading in result["metrics"].items():
            entry["runs"].setdefault(name, []).append(reading["value"])
    return workloads


def compare_e2e(parent: list[dict], change: list[dict], declaration: dict) -> tuple[list[str], bool]:
    """The table ``gem perf compare`` prints — per workload both sides ran,
    its failed share and one row per metric both recorded — and whether
    anything is ``WORSE`` (an end-to-end metric beyond its bound, or a
    failed share that rose).  Directions and bounds are ``declaration``'s
    (``BENCHMARK.json``).  Raises ``ValueError``, in words, when there is
    nothing to compare."""
    try:
        declared = {m["name"]: m for m in declaration["end_to_end"] + declaration["per_layer"]}
    except (KeyError, TypeError):
        raise ValueError("the benchmark declaration lists no end_to_end / per_layer metrics") from None
    parents, changes = _by_workload("parent", parent), _by_workload("change", change)
    lines, worse = [], False
    for workload, p in parents.items():
        c = changes.get(workload)
        if c is None:
            continue
        rose = c["failed"] * p["attempted"] > p["failed"] * c["attempted"]
        worse |= rose
        lines.append(
            f"{workload}: failed {p['failed']}/{p['attempted']} -> "
            f"{c['failed']}/{c['attempted']} checked lane-cycles"
            + ("  [failed share WORSE]" if rose else "")
        )
        for name, p_runs in p["runs"].items():
            c_runs = c["runs"].get(name)
            if c_runs is None:
                continue
            spec = declared.get(name, {})
            row = judge(p_runs, c_runs, spec.get("better", "lower"), spec.get("bound"))
            worse |= row["verdict"] == "WORSE"
            wins = "-" if row["wins"] is None else f"{row['wins']}/{len(p_runs)}"
            lines.append(
                f"  {name:34s} n {len(p_runs)}/{len(c_runs)}  "
                f"{row['parent']:>12.6g} -> {row['change']:>12.6g} {spec.get('unit', ''):6s} "
                f"IQR {row['iqr']:6.1%}  change {row['gain']:+7.1%}  wins {wins:>5s}  {row['verdict']}"
            )
    if not lines:
        raise ValueError(
            f"nothing in common: parent has {sorted(parents) or 'no records'}, "
            f"change has {sorted(changes) or 'no records'}; nothing compared"
        )
    return lines, worse
