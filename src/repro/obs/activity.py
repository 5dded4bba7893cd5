"""SAIF-style per-net activity profiling over probe-tap streams.

GATSPI (PAPERS.md) drives power analysis from per-net toggle activity
collected during GPU gate-level simulation; this module is the same idea
on top of :mod:`repro.obs.probe` taps.  Every probed net-bit accrues
three counters over the captured window, summed across active lanes:

* ``T0`` — lane-cycles spent at 0;
* ``T1`` — lane-cycles spent at 1;
* ``TC`` — toggle count (popcount of the XOR between consecutive tap
  words — the classic SAIF transition count).

The accumulate step is a handful of vectorized popcounts per block of
cycles, an XOR down the cycle axis for the toggles —
``numpy.bitwise_count`` when the installed numpy has it (>= 2.0), a
byte-LUT fallback otherwise.

Export paths: :func:`write_saif` (a minimal SAIF 2.0 file, backward
direction, DURATION in cycles — see docs/OBSERVABILITY.md for the
multi-lane note), :func:`read_saif` (parser used by tests and CI to
validate emitted files), ``gem_net_toggles_total`` metrics via
:func:`publish_net_activity`, and :func:`hot_nets` (the Top-N table in
RunReports, rendered by ``gem perf show``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:
    from repro.obs.probe import ProbePlan

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: per-byte popcount lookup for numpys without ``bitwise_count``
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)


def popcount(arr: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a uint64 array (any shape)."""
    a = np.ascontiguousarray(arr, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(a).astype(np.uint64)
    as_bytes = a.view(np.uint8).reshape(a.shape + (8,))
    return _BYTE_POPCOUNT[as_bytes].sum(axis=-1)


class ActivityAccumulator:
    """Streaming T0/T1/TC counters over a probe-tap word stream.

    A probe-tap *sink* (see :class:`repro.obs.probe.ProbeTap`): receives
    each block's sampled tap words and folds them into per-net-bit
    counters, carrying the last cycle's row across blocks for the
    toggle count.  Supports :meth:`snapshot` / :meth:`restore` so the
    supervisor can rewind it with the engine on checkpoint rollback.
    """

    def __init__(self, plan: "ProbePlan") -> None:
        self.plan = plan
        n = plan.num_bits
        self.t0 = np.zeros(n, dtype=np.uint64)
        self.t1 = np.zeros(n, dtype=np.uint64)
        self.tc = np.zeros(n, dtype=np.uint64)
        self.cycles = 0
        self.batch = 1
        self._lanes = np.ones(1, dtype=np.uint64)
        self._prev: np.ndarray | None = None

    def bind(self, batch: int, lanes: np.ndarray) -> None:
        """Called by the tap at attach time with the batch and the
        engine's ``(K,)`` plane row of its lanes."""
        self.batch = batch
        self._lanes = lanes

    def on_block(self, first_cycle: int, words: np.ndarray) -> None:
        """Fold a block of ``(n, num_bits, K)`` tap words into the counters."""
        n = len(words)
        if not n:
            return
        ones = popcount(words & self._lanes).sum(axis=(0, 2), dtype=np.uint64)
        self.t1 += ones
        self.t0 += np.uint64(n * self.batch) - ones
        rows = words if self._prev is None else np.concatenate([self._prev[None], words])
        self.tc += popcount((rows[1:] ^ rows[:-1]) & self._lanes).sum(axis=(0, 2), dtype=np.uint64)
        self._prev = words[-1].copy()
        self.cycles += n

    # -- rewind support (supervisor rollback) -------------------------------

    def snapshot(self) -> tuple:
        return (
            self.t0.copy(),
            self.t1.copy(),
            self.tc.copy(),
            self.cycles,
            None if self._prev is None else self._prev.copy(),
        )

    def restore(self, state: tuple) -> None:
        t0, t1, tc, cycles, prev = state
        self.t0 = t0.copy()
        self.t1 = t1.copy()
        self.tc = tc.copy()
        self.cycles = cycles
        self._prev = None if prev is None else prev.copy()

    # -- aggregation --------------------------------------------------------

    def per_net(self) -> dict[str, dict[str, int]]:
        """Word-level totals: net name -> {T0, T1, TC} summed over bits."""
        out: dict[str, dict[str, int]] = {}
        for net in self.plan.nets:
            sl = self.plan.net_slice(net.name)
            out[net.name] = {
                "T0": int(self.t0[sl].sum()),
                "T1": int(self.t1[sl].sum()),
                "TC": int(self.tc[sl].sum()),
            }
        return out

    def per_bit(self) -> dict[str, tuple[int, int, int]]:
        """Bit-level (T0, T1, TC) keyed by ``net[i]`` (plain net if 1-wide)."""
        out: dict[str, tuple[int, int, int]] = {}
        for net in self.plan.nets:
            sl = self.plan.net_slice(net.name)
            for i, j in enumerate(range(sl.start, sl.stop)):
                key = net.name if net.width == 1 else f"{net.name}[{i}]"
                out[key] = (int(self.t0[j]), int(self.t1[j]), int(self.tc[j]))
        return out


def hot_nets(acc: ActivityAccumulator, top: int = 10) -> list[dict]:
    """Top-N nets by toggle count, with a per-bit-lane-cycle toggle rate."""
    transitions = max(acc.cycles - 1, 1)
    rows = []
    for net in acc.plan.nets:
        sl = acc.plan.net_slice(net.name)
        toggles = int(acc.tc[sl].sum())
        denom = net.width * acc.batch * transitions
        rows.append(
            {
                "net": net.name,
                "kind": net.kind,
                "width": net.width,
                "toggles": toggles,
                "rate": round(toggles / denom, 6) if denom else 0.0,
            }
        )
    rows.sort(key=lambda r: (-r["toggles"], r["net"]))
    return rows[:top]


def publish_net_activity(acc: ActivityAccumulator, registry=REGISTRY) -> None:
    """Publish per-net toggle totals as ``gem_net_toggles_total``."""
    for name, counts in acc.per_net().items():
        registry.counter(
            "gem_net_toggles_total",
            help="net toggle count (TC) summed over probed bits and lanes",
            labels={"net": name},
        ).inc(counts["TC"])
    registry.gauge(
        "gem_probe_cycles",
        help="cycles captured by the probe tap this run",
    ).set(float(acc.cycles))


# ---------------------------------------------------------------------------
# SAIF 2.0 writer / reader
# ---------------------------------------------------------------------------


def _saif_escape(name: str) -> str:
    return name.replace("[", "\\[").replace("]", "\\]")


def _saif_unescape(name: str) -> str:
    return name.replace("\\[", "[").replace("\\]", "]")


def write_saif(path: str, acc: ActivityAccumulator, design: str = "top") -> str:
    """Write a minimal backward-SAIF file; returns the path.

    DURATION is the captured cycle count; T0/T1/TC are lane-summed
    (T0+T1 == DURATION * lanes), which standard single-trace SAIF
    consumers read as lanes==1.  One NET entry per probed bit.
    """
    lines = [
        "(SAIFILE",
        '  (SAIFVERSION "2.0")',
        '  (DIRECTION "backward")',
        f'  (DESIGN "{design}")',
        "  (TIMESCALE 1 ns)",
        f"  (DURATION {acc.cycles})",
        f"  (LANES {acc.batch})",
        f"  (INSTANCE {design}",
        "    (NET",
    ]
    for key, (t0, t1, tc) in acc.per_bit().items():
        lines.append(f"      ({_saif_escape(key)} (T0 {t0}) (T1 {t1}) (TC {tc}))")
    lines += ["    )", "  )", ")", ""]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines))
    return path


def _tokenize_saif(text: str) -> list[str]:
    tokens: list[str] = []
    cur: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            cur.append(text[i : i + 2])
            i += 2
            continue
        if ch in "()":
            if cur:
                tokens.append("".join(cur))
                cur = []
            tokens.append(ch)
        elif ch.isspace():
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
        i += 1
    if cur:
        tokens.append("".join(cur))
    return tokens


def _parse_sexpr(tokens: list[str], pos: int = 0):
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    out: list = []
    pos += 1
    while pos < len(tokens) and tokens[pos] != ")":
        node, pos = _parse_sexpr(tokens, pos)
        out.append(node)
    if pos >= len(tokens):
        raise ValueError("SAIF: unbalanced parentheses")
    return out, pos + 1


def read_saif(path: str) -> dict:
    """Parse a SAIF file written by :func:`write_saif` (validation path).

    Returns ``{"duration": int, "lanes": int, "nets": {name: {"T0","T1","TC"}}}``
    and raises :class:`ValueError` on malformed input or inconsistent
    counts (every net must satisfy T0+T1 == duration*lanes).
    """
    with open(path, encoding="ascii") as f:
        tree, _ = _parse_sexpr(_tokenize_saif(f.read()))
    if not isinstance(tree, list) or not tree or tree[0] != "SAIFILE":
        raise ValueError("SAIF: missing SAIFILE root")

    duration = lanes = None
    nets: dict[str, dict[str, int]] = {}

    def walk(node) -> None:
        nonlocal duration, lanes
        if not isinstance(node, list) or not node:
            return
        head = node[0]
        if head == "DURATION" and len(node) >= 2:
            duration = int(node[1])
        elif head == "LANES" and len(node) >= 2:
            lanes = int(node[1])
        elif head == "NET":
            for entry in node[1:]:
                if not isinstance(entry, list) or not entry:
                    continue
                name = _saif_unescape(str(entry[0]))
                counts = {"T0": 0, "T1": 0, "TC": 0}
                for pair in entry[1:]:
                    if isinstance(pair, list) and len(pair) == 2 and pair[0] in counts:
                        counts[pair[0]] = int(pair[1])
                nets[name] = counts
        else:
            for child in node[1:]:
                walk(child)

    walk(tree)
    if duration is None:
        raise ValueError("SAIF: missing DURATION")
    lanes = 1 if lanes is None else lanes
    for name, counts in nets.items():
        if counts["T0"] + counts["T1"] != duration * lanes:
            raise ValueError(
                f"SAIF: net {name!r} T0+T1={counts['T0'] + counts['T1']} != "
                f"duration*lanes={duration * lanes}"
            )
        if duration and counts["TC"] > max(duration - 1, 0) * lanes:
            raise ValueError(f"SAIF: net {name!r} TC exceeds the transition bound")
    return {"duration": duration, "lanes": lanes, "nets": nets}


def format_hot_nets(rows: list[Mapping]) -> str:
    """Render a hot-net Top-N table (``gem perf show``)."""
    if not rows:
        return "  (no activity data)"
    header = f"  {'net':<28} {'kind':<9} {'width':>5} {'toggles':>12} {'rate':>9}"
    lines = [header, "  " + "-" * (len(header) - 2)]
    for r in rows:
        lines.append(
            f"  {str(r.get('net', '?')):<28} {str(r.get('kind', '?')):<9} "
            f"{int(r.get('width', 0)):>5} {int(r.get('toggles', 0)):>12} "
            f"{float(r.get('rate', 0.0)):>9.4f}"
        )
    return "\n".join(lines)
