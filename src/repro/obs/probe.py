"""Signal-level probes: engine-speed taps on named nets.

Runtime observability (spans, metrics, reports) says *how fast* a run
went; probes say *what the design did*.  A :class:`ProbePlan` resolves
user-facing net names — input words, registers, output words — through
the synthesis name maps (``SynthesisResult.input_bits`` /
``output_bits``, the E-AIG flip-flop names, and the
:class:`~repro.core.bitstream.ProgramMeta` global-state layout) down to
global state word indices.  A :class:`ProbeTap` then has those words
sampled with the primary outputs — its rows ride behind the PO rows of
every block the engine runs — and feeds each sampled block to sinks:

* :class:`WaveRing` — a bounded per-cycle window (dropped-window
  accounting when it overflows) that can stream any single lane of a
  batched run to the :class:`~repro.waveform.vcd.VcdWriter`;
* :class:`~repro.obs.activity.ActivityAccumulator` — SAIF-style
  T0/T1/TC counters (see :mod:`repro.obs.activity`).

Why probing the global state is always safe under stage fusion: every net a
plan can name *is* a global-state terminal (PI bits, FF q bits, PO
bits), and the fused executor's DCE roots at global writes — probed
terminals survive CSE/DCE by construction, no re-materialization pass
needed.  ``tests/test_probe.py`` locks this with an executor-vs-reference
tap equality regression.

The tap samples at the settled point of the cycle — after the
combinational waves, before deferred commits — which is bit-identical
to the gate-level reference observed right after its first settle
(:attr:`repro.simref.gate_sim.GateLevelSim.probe_hook`); that identity
is the probe acceptance gate and what makes divergence wave dumps
(:func:`dump_divergence_waves`) trustworthy.

Cost model: detached, one ``is None`` check per block (mirroring
``TRACER.enabled``); attached, the block is wider by the probed rows —
a probe selects no other path — plus whatever the sinks do.
"""

from __future__ import annotations

import fnmatch
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ProbeError
from repro.waveform.vcd import VcdWriter

if TYPE_CHECKING:
    from repro.core.compiler import CompiledDesign
    from repro.core.interpreter import GemInterpreter
    from repro.simref.gate_sim import GateLevelSim

logger = logging.getLogger(__name__)

#: default WaveRing capacity (cycles) — bounds memory, not run length
DEFAULT_WINDOW = 4096

KINDS = ("input", "register", "output")


@dataclass(frozen=True)
class ProbeNet:
    """One probeable net: a named word of design state."""

    name: str
    #: "input" | "register" | "output"
    kind: str
    width: int
    #: global state word index per bit, LSB first
    gidx: tuple[int, ...]
    #: E-AIG literal per bit (how the gate-level reference samples it)
    literals: tuple[int, ...]


@dataclass(eq=False)
class ProbePlan:
    """A resolved, ordered set of probed nets plus gather tables."""

    nets: tuple[ProbeNet, ...]
    #: CRC digest of the program the plan was resolved against
    program_digest: int = 0
    all_gidx: np.ndarray = field(init=False, repr=False)
    _slices: dict[str, slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        indices: list[int] = []
        slices: dict[str, slice] = {}
        for net in self.nets:
            slices[net.name] = slice(len(indices), len(indices) + net.width)
            indices.extend(net.gidx)
        self.all_gidx = np.asarray(indices, dtype=np.int64)
        self._slices = slices

    @property
    def num_bits(self) -> int:
        return int(self.all_gidx.size)

    def net_slice(self, name: str) -> slice:
        return self._slices[name]

    def widths(self) -> dict[str, int]:
        """name -> width, in plan order (the VcdWriter signal map)."""
        return {net.name: net.width for net in self.nets}

    def values_from_bits(self, bits: np.ndarray) -> dict[str, int]:
        """Assemble per-net ints from a flat 0/1 array (plan order)."""
        out: dict[str, int] = {}
        for net in self.nets:
            sl = self._slices[net.name]
            value = 0
            for i in range(net.width):
                if bits[sl.start + i]:
                    value |= 1 << i
            out[net.name] = value
        return out


def _register_words(synth) -> list[tuple[str, list[tuple[int, int]]]]:
    """Group named FF bits back into words: (name, [(bit index, node)])."""
    eaig = synth.eaig
    groups: dict[str, list[tuple[int, int]]] = {}
    order: list[str] = []
    for ff in eaig.ffs:
        name = eaig.names.get(ff)
        if name and name.endswith("]") and "[" in name:
            base, _, idx_str = name.rpartition("[")
            try:
                idx = int(idx_str[:-1])
            except ValueError:
                base, idx = name, 0
        else:
            base, idx = (name or f"ff{ff}"), 0
        if base not in groups:
            groups[base] = []
            order.append(base)
        groups[base].append((idx, ff))
    return [(base, sorted(groups[base])) for base in order]


def probe_catalog(design: "CompiledDesign") -> list[ProbeNet]:
    """Every probeable net of a compiled design, inputs first, then
    registers, then outputs.  Name collisions across kinds (an output
    word that is also a register name, say) are disambiguated with a
    ``.kind`` suffix on the later entry."""
    synth = design.synth
    meta = design.program.meta
    nets: list[ProbeNet] = []
    taken: set[str] = set()

    def add(name: str, kind: str, gidx: Sequence[int], literals: Sequence[int]) -> None:
        if name in taken:
            name = f"{name}.{kind}"
        taken.add(name)
        nets.append(
            ProbeNet(
                name=name,
                kind=kind,
                width=len(gidx),
                gidx=tuple(int(g) for g in gidx),
                literals=tuple(int(l) for l in literals),
            )
        )

    for name, bits in synth.input_bits.items():
        add(name, "input", meta.pi_index[name], bits)
    node_gidx = meta.node_gidx
    for base, bit_nodes in _register_words(synth):
        add(
            base,
            "register",
            [node_gidx[node] for _, node in bit_nodes],
            [node * 2 for _, node in bit_nodes],
        )
    for name, bits in synth.output_bits.items():
        add(name, "output", meta.po_index[name], bits)
    return nets


def _split_patterns(nets: str | Sequence[str] | None) -> list[str]:
    if nets is None:
        return ["*"]
    if isinstance(nets, str):
        nets = [p for p in nets.split(",") if p.strip()]
    return [p.strip() for p in nets] or ["*"]


def build_probe_plan(
    design: "CompiledDesign", nets: str | Sequence[str] | None = None
) -> ProbePlan:
    """Resolve net names/globs into a :class:`ProbePlan`.

    ``nets`` is a comma-separated string or a sequence of patterns; each
    pattern is an :mod:`fnmatch` glob matched against net names, or one
    of the group selectors ``inputs`` / ``registers`` / ``outputs``.
    ``None`` (or ``"*"``) probes everything.  A pattern that matches
    nothing raises :class:`~repro.errors.ProbeError` — a typo'd net name
    must not silently produce an empty waveform.
    """
    catalog = probe_catalog(design)
    patterns = _split_patterns(nets)
    selected: dict[str, ProbeNet] = {}
    for pattern in patterns:
        if pattern in ("inputs", "registers", "outputs"):
            kind = pattern[:-1]
            matches = [net for net in catalog if net.kind == kind]
        else:
            matches = [net for net in catalog if fnmatch.fnmatchcase(net.name, pattern)]
        if not matches:
            known = ", ".join(net.name for net in catalog[:12])
            more = ", ..." if len(catalog) > 12 else ""
            raise ProbeError(
                f"probe pattern {pattern!r} matches no net; known nets: {known}{more}"
            )
        for net in matches:
            selected.setdefault(net.name, net)
    ordered = tuple(net for net in catalog if net.name in selected)
    return ProbePlan(nets=ordered, program_digest=design.program.digest())


def list_nets(design: "CompiledDesign") -> list[dict]:
    """``gem probe list`` rows: name, kind, width per probeable net."""
    return [
        {"net": net.name, "kind": net.kind, "width": net.width}
        for net in probe_catalog(design)
    ]


# ---------------------------------------------------------------------------
# The tap
# ---------------------------------------------------------------------------


class ProbeTap:
    """Per-block probe samples, fanned out to sinks.

    Attach to a :class:`~repro.core.interpreter.GemInterpreter` (any
    mode, any backend, any batch); each block of ``n`` cycles the probed
    words of every cycle — ``(n, num_bits, K)`` lane planes — arrive
    sampled at the settled point and go
    to every sink's ``on_block(first_cycle, words)`` (a view of the
    engine's buffer: keep a copy).  :meth:`snapshot` / :meth:`restore` give
    the supervisor probe continuity across checkpoint rollbacks: rewind
    the tap exactly when the engine rewinds, so a recovered run's tap
    stream is bit-identical to an undisturbed one.
    """

    def __init__(self, plan: ProbePlan, sinks: Iterable = ()) -> None:
        self.plan = plan
        self.sinks = list(sinks)
        self.cycle = 0
        self.batch = 1
        self.captured = 0
        #: set when a supervised run degraded to the gate-level fallback
        #: (the tap stops; captured data up to the degrade point is valid)
        self.detached_reason: str | None = None

    def attach(self, interp: "GemInterpreter") -> "ProbeTap":
        digest = interp.program.digest()
        if self.plan.program_digest and digest != self.plan.program_digest:
            raise ProbeError(
                f"probe plan was resolved against program {self.plan.program_digest:#x}, "
                f"interpreter runs {digest:#x}"
            )
        self.batch = interp.batch
        self.cycle = interp.cycle
        lanes = interp.engine.lanes_mask(range(self.batch))
        for sink in self.sinks:
            bind = getattr(sink, "bind", None)
            if bind is not None:
                bind(self.batch, lanes)
        interp.attach_probe(self)
        return self

    def on_block(self, words: np.ndarray) -> None:
        """Called by the interpreter with every block's probed rows."""
        for sink in self.sinks:
            sink.on_block(self.cycle, words)
        self.cycle += len(words)
        self.captured += len(words)

    def snapshot(self) -> tuple:
        return (self.cycle, self.captured, [sink.snapshot() for sink in self.sinks])

    def restore(self, state: tuple) -> None:
        cycle, captured, sink_states = state
        self.cycle = cycle
        self.captured = captured
        for sink, snap in zip(self.sinks, sink_states):
            sink.restore(snap)

    def sink_of(self, cls):
        """First attached sink of the given class, or None."""
        for sink in self.sinks:
            if isinstance(sink, cls):
                return sink
        return None


# ---------------------------------------------------------------------------
# Waveform ring sink
# ---------------------------------------------------------------------------


def _lane_bits(words: np.ndarray, lane: int) -> np.ndarray:
    """Extract one lane's 0/1 bits from packed tap words."""
    k, b = divmod(lane, 64)
    col = words[:, k]
    return ((col >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)


class WaveRing:
    """Bounded per-cycle tap window with dropped-window accounting.

    Keeps the most recent ``capacity`` cycles of raw packed tap words
    (all lanes — lane selection happens at dump time, so one captured
    run can be inspected lane by lane).  When full, the oldest cycle is
    dropped and counted; RunReports surface ``dropped_windows`` so a
    truncated waveform is never mistaken for a complete one.
    """

    def __init__(self, plan: ProbePlan, capacity: int = DEFAULT_WINDOW) -> None:
        if capacity <= 0:
            raise ValueError("WaveRing capacity must be positive")
        self.plan = plan
        self.capacity = capacity
        self._entries: deque[tuple[int, np.ndarray]] = deque(maxlen=capacity)
        self.dropped = 0
        self.batch = 1

    def bind(self, batch: int, lanes: np.ndarray) -> None:
        self.batch = batch

    def on_block(self, first_cycle: int, words: np.ndarray) -> None:
        self.dropped += max(0, len(self._entries) + len(words) - self.capacity)
        self._entries.extend(enumerate(words.copy(), first_cycle))

    # -- rewind support -----------------------------------------------------

    def snapshot(self) -> tuple:
        return (list(self._entries), self.dropped)

    def restore(self, state: tuple) -> None:
        entries, dropped = state
        self._entries = deque(entries, maxlen=self.capacity)
        self.dropped = dropped

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def first_cycle(self) -> int | None:
        return self._entries[0][0] if self._entries else None

    def entries(self) -> list[tuple[int, np.ndarray]]:
        return list(self._entries)

    def lane_samples(self, lane: int = 0) -> list[tuple[int, dict[str, int]]]:
        """(cycle, net -> value) pairs for one lane of the window."""
        if not 0 <= lane < self.batch:
            raise ProbeError(f"lane {lane} out of range for batch {self.batch}")
        return [
            (cycle, self.plan.values_from_bits(_lane_bits(words, lane)))
            for cycle, words in self._entries
        ]

    def dump_vcd(
        self, target: str | IO[str], lane: int = 0, module: str = "probe"
    ) -> dict:
        """Stream one lane of the window as a VCD; returns a summary dict.

        VCD time 0 corresponds to the first cycle still in the window
        (``first_cycle`` in the summary); with no drops that is cycle 0.
        """
        samples = self.lane_samples(lane)

        def write(stream: IO[str]) -> None:
            writer = VcdWriter(stream, self.plan.widths(), module=module)
            for _, values in samples:
                writer.sample(values)
            writer.close()

        if isinstance(target, str):
            with open(target, "w", encoding="ascii") as f:
                write(f)
        else:
            write(target)
        return {
            "lane": lane,
            "cycles": len(samples),
            "first_cycle": samples[0][0] if samples else 0,
            "dropped_windows": self.dropped,
        }


# ---------------------------------------------------------------------------
# Gate-level reference sampling (the bit-identity oracle)
# ---------------------------------------------------------------------------


class SimrefProbe:
    """Record a probe plan's nets from :class:`GateLevelSim`, per cycle.

    Install as ``sim.probe_hook``; the hook fires at the same settled
    point the engine tap samples, so ``samples[c][net]`` must equal the
    engine tap's lane value at cycle ``c`` bit for bit.
    """

    def __init__(self, plan: ProbePlan) -> None:
        self.plan = plan
        self.samples: list[dict[str, int]] = []

    def install(self, sim: "GateLevelSim") -> "SimrefProbe":
        sim.probe_hook = self
        return self

    def __call__(self, sim: "GateLevelSim") -> None:
        self.samples.append(
            {net.name: sim._bits(net.literals) for net in self.plan.nets}
        )


# ---------------------------------------------------------------------------
# Divergence wave dumps (fuzz oracle / cosim hookup)
# ---------------------------------------------------------------------------


def dump_divergence_waves(
    compiled: "CompiledDesign",
    stimuli: Sequence[Mapping[str, int]],
    cycle: int,
    path: str,
    *,
    nets: str | Sequence[str] | None = None,
    before: int = 8,
    after: int = 8,
    backend: str | None = None,
    lane: int = 0,
    batch: int = 1,
) -> dict:
    """Re-run a failing stimulus with probes on and dump the window
    around the first divergent cycle as a VCD.

    Called by the fuzz campaign and ``gem cosim --dump-waves`` when an
    oracle mismatch is found: the probed re-run is deterministic, so the
    dumped window shows exactly the state the diverging engine computed
    leading into and out of the bad cycle.  Returns the
    :meth:`WaveRing.dump_vcd` summary plus the dump path.
    """
    plan = build_probe_plan(compiled, nets)
    last = min(len(stimuli), cycle + after + 1)
    first = max(0, cycle - before)
    ring = WaveRing(plan, capacity=max(last - first, 1))
    tap = ProbeTap(plan, [ring])
    sim = compiled.simulator(batch=batch, backend=backend)
    tap.attach(sim)
    sim.run(stimuli[:last])
    summary = ring.dump_vcd(path, lane=lane)
    summary["path"] = path
    summary["divergence_cycle"] = cycle
    logger.info(
        "divergence waves: %d cycles (first cycle %d) around cycle %d -> %s",
        summary["cycles"], summary["first_cycle"], cycle, path,
    )
    return summary
