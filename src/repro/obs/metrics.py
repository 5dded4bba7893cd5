"""Process-wide metrics registry: counters, gauges, histograms.

The registry absorbs what used to be scattered ad-hoc accounting —
``CycleCounters`` fields, the interpreter's ``phase_times``, the
decode/fusion/compile cache hit counters, supervisor and checkpoint
events, fault-campaign outcomes — into *named* metrics one exporter can
walk.  Two export formats:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` preamble, ``name{labels} value``
  samples), ready for a node scrape or a file sink
  (``gem run --metrics-out``);
* :meth:`MetricsRegistry.to_json` — a nested snapshot for
  :class:`repro.obs.report.RunReport`.

Conventions (the full name table lives in docs/OBSERVABILITY.md):
every metric is prefixed ``gem_``; counters end in ``_total``; durations
are seconds; labels are sparse and low-cardinality (``kind=state``,
``phase=fold``).  Metric mutation is lock-protected — none of the
instrumented call sites sit inside the fused per-cycle hot loop, so the
lock cost is irrelevant to throughput.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable, Mapping

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets — tuned for sub-second phase/IO durations
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, math.inf)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: Mapping[str, str] | None) -> tuple:
    if not labels:
        return ()
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Common identity plumbing of one (name, labels) time series."""

    kind = "untyped"

    def __init__(self, name: str, labels: tuple, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    @property
    def full_name(self) -> str:
        return self.name + _render_labels(self.labels)


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, cache hits)."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge(_Metric):
    """A value that goes up and down (rates, sizes, last-run stats)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram(_Metric):
    """Cumulative-bucket histogram of observed values (durations)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple = (),
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels, help)
        edges = sorted(set(float(b) for b in buckets))
        if not edges or edges[-1] != math.inf:
            edges.append(math.inf)
        self.buckets = tuple(edges)
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper edge, cumulative count) pairs — the ``_bucket`` series."""
        out, running = [], 0
        for edge, n in zip(self.buckets, self._counts):
            running += n
            out.append((edge, running))
        return out

    def _reset(self) -> None:
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0


class MetricsRegistry:
    """Name → metric store with get-or-create semantics and exporters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], _Metric] = {}

    def _get_or_create(self, cls, name, labels, help, **kwargs) -> _Metric:
        key = (_check_name(name), _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(key[0], key[1], help=help, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric

    def counter(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, labels, help, buckets=buckets
        )

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every registered metric (identity-preserving — cached
        references held by instrumented modules keep working)."""
        for metric in self.metrics():
            metric._reset()

    def clear(self) -> None:
        """Drop every registration (tests only: any module-level metric
        reference becomes a dangling, unexported series)."""
        with self._lock:
            self._metrics.clear()

    # -- ingestion helpers ----------------------------------------------------

    def set_gauges(
        self, values: Mapping[str, float], prefix: str = "", help: str = ""
    ) -> None:
        """Bulk-set one gauge per mapping entry (``prefix + key``)."""
        for key, value in values.items():
            self.gauge(prefix + key, help=help).set(float(value))

    def publish_cycle_counters(self, counters, prefix: str = "gem_interp_") -> None:
        """Mirror a :class:`~repro.core.interpreter.CycleCounters` into
        gauges (absolute totals; per-cycle derivations stay in reports)."""
        from dataclasses import asdict

        self.set_gauges(
            asdict(counters), prefix=prefix, help="CycleCounters field (run total)"
        )

    def publish_phase_times(
        self, phase_times: Mapping[str, float], name: str = "gem_phase_seconds_total"
    ) -> None:
        """Accumulate per-phase wall seconds into labelled counters."""
        for phase, seconds in phase_times.items():
            if seconds > 0:
                self.counter(
                    name,
                    help="wall seconds spent per interpreter phase",
                    labels={"phase": phase},
                ).inc(seconds)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat ``full_name -> value`` (histograms: count/sum/buckets)."""
        out: dict[str, object] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[metric.full_name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": {
                        ("+Inf" if math.isinf(e) else repr(e)): c
                        for e, c in metric.cumulative()
                    },
                }
            else:
                out[metric.full_name] = metric.value  # type: ignore[union-attr]
        return out

    def to_json(self) -> dict:
        return {"metrics": self.snapshot()}

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for metric in self.metrics():
            if metric.name not in seen_header:
                seen_header.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for edge, cum in metric.cumulative():
                    le = "+Inf" if math.isinf(edge) else repr(edge)
                    key = metric.labels + (("le", le),)
                    lines.append(
                        f"{metric.name}_bucket{_render_labels(key)} {cum}"
                    )
                lbl = _render_labels(metric.labels)
                lines.append(f"{metric.name}_sum{lbl} {metric.sum}")
                lines.append(f"{metric.name}_count{lbl} {metric.count}")
            else:
                value = metric.value  # type: ignore[union-attr]
                rendered = repr(value) if value % 1 else str(int(value))
                lines.append(f"{metric.full_name} {rendered}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumented module publishes into.
REGISTRY = MetricsRegistry()


class MemoTable:
    """A small first-in-first-out memo whose traffic is counted: the
    decode cache (:mod:`repro.core.interpreter`) and the fusion cache
    (:mod:`repro.core.fused`) are one each.  Hits and misses are kept
    locally (:meth:`stats` — the memory tier's view: anything not
    resident is a miss, whoever ends up serving it) and mirrored into
    the registry as ``gem_<name>_cache_{hits,misses}_total``, evictions
    as ``gem_cache_evictions_total{cache=<name>}``.  A lookup that names
    a second tier (``fetch``) labels its registry hits
    ``tier="memory"`` / ``tier="disk"``, and a registry miss then means
    what it means for the compile cache: the value was rebuilt."""

    CAPACITY = 8

    def __init__(self, name: str, what: str) -> None:
        self._name = name
        self._what = what
        self._entries: dict = {}
        self._stats = {"hits": 0, "misses": 0}

    def stats(self) -> dict:
        """Hit/miss counts since the last :meth:`clear`."""
        return dict(self._stats)

    def clear(self) -> None:
        """Drop every entry (frees the tables) and zero the counts."""
        self._entries.clear()
        self._stats = {"hits": 0, "misses": 0}

    def _count(self, kind: str, tier: str | None = None) -> None:
        REGISTRY.counter(
            f"gem_{self._name}_cache_{kind}_total",
            f"{self._what} cache {kind}",
            labels={"tier": tier} if tier else None,
        ).inc()

    def get(self, key, build, fetch=None):
        """The entry under ``key``: resident, else whatever ``fetch()``
        finds in the tier below (``None`` = not there), else built by
        ``build()``.  An exception from either propagates and caches
        nothing."""
        entry = self._entries.get(key)
        self._stats["misses" if entry is None else "hits"] += 1
        if entry is not None:
            self._count("hits", "memory" if fetch else None)
            return entry
        if fetch is not None:
            entry = fetch()
        if entry is not None:
            self._count("hits", "disk")
        else:
            self._count("misses")
            entry = build()
        while len(self._entries) >= self.CAPACITY:
            self._entries.pop(next(iter(self._entries)))
            REGISTRY.counter(
                "gem_cache_evictions_total",
                "FIFO evictions per in-process cache",
                labels={"cache": self._name},
            ).inc()
        self._entries[key] = entry
        return entry


def publish_fuzz_iteration(
    profile: str, diverged: bool, coverage_size: int, shrink_checks: int = 0
) -> None:
    """Publish one differential-fuzz iteration (``repro.fuzz`` calls this
    so fuzz campaigns show up in the same Prometheus exposition as runs).
    """
    REGISTRY.counter(
        "gem_fuzz_iterations_total",
        help="differential fuzz iterations by shape profile",
        labels={"profile": profile},
    ).inc()
    if diverged:
        REGISTRY.counter(
            "gem_fuzz_divergences_total",
            help="cross-engine divergences found by the fuzzer",
            labels={"profile": profile},
        ).inc()
    if shrink_checks:
        REGISTRY.counter(
            "gem_fuzz_shrink_checks_total",
            help="oracle runs spent inside the shrinker",
        ).inc(shrink_checks)
    REGISTRY.gauge(
        "gem_fuzz_coverage_features",
        help="distinct structural coverage features seen this campaign",
    ).set(float(coverage_size))
