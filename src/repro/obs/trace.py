"""Low-overhead span tracer emitting Chrome trace-event JSON.

The tracer answers "where did the wall-clock go?" for one process: the
compile flow (synthesis → partitioning → placement → bitstream, with
per-stage and per-partition child spans), the runtime hot path (one span
per simulated cycle with inject/gather/fold/commit children), and the
resilience machinery (supervisor scrub/rollback/degrade instants,
checkpoint save/load spans).  Output is the Chrome trace-event format
(`"traceEvents"` array of ``X``/``i``/``C`` events, microsecond
timestamps), directly loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

Design constraints, in order:

1. **Zero cost when off.**  ``TRACER.enabled`` is a plain attribute;
   instrumented hot paths check it once and skip everything else.  The
   interpreter's fused cycle loop pays exactly one such check per
   ``step`` when tracing is disabled; what tracing costs when it is on
   is the ``trace.overhead_frac`` metric of ``benchmarks/e2e``.
2. **Bounded memory.**  Events land in a ring buffer
   (``collections.deque`` with ``maxlen``): a multi-hour traced run
   keeps the newest ``capacity`` events and counts the rest in
   :attr:`Tracer.dropped` instead of exhausting the host.
3. **Thread safety.**  ``deque.append`` is atomic under the GIL, so
   recording takes no lock; only buffer reconfiguration and export do.
4. **Monotonic clocks.**  All timestamps come from
   ``time.perf_counter`` relative to the tracer epoch — wall-clock
   adjustments never corrupt span nesting.

Typical use::

    from repro.obs import TRACER

    TRACER.enable()
    with TRACER.span("synthesis", cat="compile"):
        ...
    TRACER.write("trace.json")
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import deque
from typing import Any, Callable, Mapping

_US = 1_000_000.0  # seconds → microseconds
#: the phases a traced block's span carries seconds of, in its ``args``
#: beside ``cycle`` (its first) and ``n`` (matches ``phase_times``)
CYCLE_PHASES = ("inject", "gather", "fold", "commit")


class _Span:
    """Context manager recording one complete (``ph: X``) event."""

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        if tracer.enabled:
            tracer.complete(self.name, self._t0, cat=self.cat, args=self.args)
        return False


class Tracer:
    """Thread-safe ring-buffer span tracer (see module docstring).

    All record methods are cheap no-ops while :attr:`enabled` is false,
    but hot paths should still guard on ``tracer.enabled`` themselves to
    skip argument construction entirely.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        self.enabled = False
        self.dropped = 0
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        # event tuples: (ph, name, cat, ts_us, dur_us, tid, args)
        self._events: deque = deque(maxlen=max(1, capacity))

    # -- lifecycle ------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._events.maxlen or 0

    def enable(self, capacity: int | None = None) -> None:
        """Start recording (optionally resizing the ring buffer)."""
        with self._lock:
            if capacity is not None and capacity != self._events.maxlen:
                self._events = deque(self._events, maxlen=max(1, capacity))
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every recorded event and restart the epoch."""
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self._t0 = time.perf_counter()

    def __len__(self) -> int:
        return len(self._events)

    # -- recording ------------------------------------------------------------

    def now(self) -> float:
        """The tracer's clock (``time.perf_counter`` seconds)."""
        return time.perf_counter()

    def _push(self, ev: tuple) -> None:
        events = self._events
        if len(events) == events.maxlen:
            self.dropped += 1
        events.append(ev)

    def complete(
        self,
        name: str,
        t0: float,
        *,
        t1: float | None = None,
        cat: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a complete span from ``t0`` to ``t1`` (default: now)."""
        if not self.enabled:
            return
        end = time.perf_counter() if t1 is None else t1
        self._push(
            (
                "X",
                name,
                cat,
                (t0 - self._t0) * _US,
                max(0.0, (end - t0) * _US),
                threading.get_ident(),
                dict(args) if args else None,
            )
        )

    def instant(
        self, name: str, *, cat: str = "", args: Mapping[str, Any] | None = None
    ) -> None:
        """Record a zero-duration instant event (``ph: i``)."""
        if not self.enabled:
            return
        self._push(
            (
                "i",
                name,
                cat,
                (time.perf_counter() - self._t0) * _US,
                None,
                threading.get_ident(),
                dict(args) if args else None,
            )
        )

    def counter(self, name: str, values: Mapping[str, float], *, cat: str = "") -> None:
        """Record a counter sample (``ph: C``) — Perfetto plots these."""
        if not self.enabled:
            return
        self._push(
            (
                "C",
                name,
                cat,
                (time.perf_counter() - self._t0) * _US,
                None,
                threading.get_ident(),
                dict(values),
            )
        )

    def span(
        self, name: str, *, cat: str = "", args: Mapping[str, Any] | None = None
    ) -> _Span:
        """Context manager recording one complete event around its body."""
        return _Span(self, name, cat, args)

    def traced(self, name: str | None = None, *, cat: str = "") -> Callable:
        """Decorator form of :meth:`span` (span name defaults to the
        function's qualified name)."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.complete(span_name, t0, cat=cat)

            return wrapper

        return decorate

    # -- export ---------------------------------------------------------------

    def events(self) -> list[dict]:
        """Snapshot of the buffer as Chrome trace-event dicts."""
        with self._lock:
            raw = list(self._events)
        out = []
        for ph, name, cat, ts, dur, tid, args in raw:
            ev: dict[str, Any] = {
                "name": name,
                "ph": ph,
                "ts": ts,
                "pid": 1,
                "tid": tid,
            }
            if cat:
                ev["cat"] = cat
            if ph == "X":
                ev["dur"] = dur
            if ph == "i":
                ev["s"] = "t"  # thread-scoped instant
            if args is not None:
                ev["args"] = args
            out.append(ev)
        return out

    def chrome(self) -> dict:
        """The full Chrome trace-event JSON object."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.trace",
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str) -> int:
        """Serialize the trace to ``path``; returns the event count."""
        doc = self.chrome()
        with open(path, "w") as f:
            json.dump(doc, f)
        return len(doc["traceEvents"])


#: The process-wide tracer every instrumented module records into.
TRACER = Tracer()

_VALID_PH = {"X", "B", "E", "i", "I", "C", "M"}


def validate_trace(doc: object) -> list[str]:
    """Schema-check a Chrome trace-event document; returns problems
    (empty list = valid).  Accepts the parsed JSON object, a JSON
    string, or a file path."""
    if isinstance(doc, str):
        try:
            if doc.lstrip().startswith(("{", "[")):
                doc = json.loads(doc)
            else:
                with open(doc) as f:
                    doc = json.load(f)
        except (OSError, ValueError) as exc:
            return [f"unreadable trace: {exc}"]
    if isinstance(doc, list):
        events = doc  # the bare-array variant of the format
    elif isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' array"]
    else:
        return [f"trace must be an object or array, got {type(doc).__name__}"]
    problems: list[str] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        where = f"event {i} ({ev.get('name', '?')!r})"
        for key in ("name", "ph", "ts"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph is not None and ph not in _VALID_PH:
            problems.append(f"{where}: unknown phase {ph!r}")
        if not isinstance(ev.get("ts", 0.0), (int, float)):
            problems.append(f"{where}: non-numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    return problems
