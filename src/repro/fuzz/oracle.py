"""N-way differential oracle: one spec, every engine, lockstep.

Four independent implementations of the same RTL semantics exist in this
repository, and they disagree only when one of them is wrong:

* ``word`` — the word-level golden model (:class:`repro.rtl.netlist.WordSim`),
  which never sees the GEM compile flow at all;
* ``simref`` — the levelized gate-level engine over the synthesized E-AIG
  (catches synthesis/RAM-adapter bugs independent of partitioning);
* ``legacy`` — the ISA-literal per-partition reference interpreter
  (:class:`repro.simref.isa_interp.ReferenceInterpreter`) over the
  assembled bitstream (the label is serialized in ``.gemrepro`` files);
* ``fused`` — the production stage-fused executor over the same bitstream.

:func:`run_oracle` compiles a :class:`~repro.fuzz.designgen.DesignSpec`
under a named compile profile, runs all requested engines in lockstep at
batch 1, then re-runs the two GEM paths at the requested lane batches
(each lane seeing a rotated stimulus stream) and cross-checks them
per-lane, with lane 0 additionally pinned to the batch-1 reference.
The fused engine runs on the default execution backend; every other
backend of ``OracleConfig.backends`` (by default all that resolve here)
enrolls as an additional fused-path engine at those same rotated
batches — a native/numpy disagreement is a kernel bug, caught by the
same lockstep.  Both phases are calls of the one loop,
:func:`repro.harness.cosim.lockstep` (a block of cycles per engine call,
one rule for the first divergence); this module builds the engines,
injects the faults and reports the site as a :class:`FuzzDivergence`
(cycle, signal, engine pair, lane).

An ``inject`` descriptor swaps in a deliberately mutated bitstream
(:func:`repro.core.bitstream.mutate_fold_constant`) so the fuzzer's own
detection path can be exercised end to end: the mutation hits both GEM
engines while the references stay clean.

**4-value mode** (``OracleConfig(values=4)``): the design is compiled
through the dual-rail transform and the reference becomes the golden
:class:`~repro.fourstate.sim.FourStateSim` (named ``fourstate``).  Every
engine in ``config.engines`` then runs the *dual-rail* circuit as an
ordinary 2-state program — ``word`` over the transformed netlist,
``simref`` over its synthesized E-AIG, ``legacy``/``fused`` over the
assembled bitstream — and outputs are decoded back to 4-state words for
comparison, so a divergence record carries the 4-value symbols
(``01x``).  Stimuli may carry ``name__x`` unknown-mask keys next to the
plain data words (the x-injecting ``xprop`` generator produces these).
The extra inject kind ``{"kind": "known_rail", "cycle": C, "bit": B}``
flips one known-rail state bit in the GEM engines at cycle ``C`` while
the reference stays clean — the 4-value oracle-fires self-check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.backend import available_backends, resolve_backend
from repro.core.bitstream import GemProgram, mutate_fold_constant
from repro.core.compiler import CompiledDesign, GemCompiler, GemSimulator
from repro.core.config import (
    BoomerangConfig,
    GemConfig,
    PartitionConfig,
    RamMappingConfig,
    SynthesisConfig,
)
from repro.errors import BackendUnavailableError
from repro.fourstate.dualrail import to_dual_rail
from repro.fourstate.fastpath import FourStateSimulator, validate_values
from repro.fourstate.semantics import FourState
from repro.fourstate.sim import FourStateSim
from repro.fuzz.designgen import DesignSpec
from repro.harness.cosim import Site, first_site, lockstep
from repro.rtl.netlist import Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim
from repro.simref.isa_interp import ReferenceInterpreter

logger = logging.getLogger(__name__)

class _FourStateReference(FourStateSimulator, ReferenceInterpreter):
    """The ``legacy`` engine over a dual-rail program: the reference
    interpreter with the 4-state stimulus encoding grafted on."""

#: every engine the oracle can run, in reference-preference order
ENGINES = ("word", "simref", "legacy", "fused")


def _profile_small() -> GemConfig:
    return GemConfig(
        partition=PartitionConfig(gates_per_partition=400),
        boomerang=BoomerangConfig(width_log2=10),
    )


def _profile_merge() -> GemConfig:
    """Narrow processor: partitions crowd the state budget, so Algorithm 1
    merging and the unmappable-retry loop both get real work."""
    return GemConfig(
        partition=PartitionConfig(gates_per_partition=256),
        boomerang=BoomerangConfig(width_log2=9),
    )


def _profile_ram_small_blocks() -> GemConfig:
    """Tiny native RAM blocks (16×8): even small behavioral memories split
    into multiple banks and width chunks, forcing the §III-B adapters."""
    return GemConfig(
        synthesis=SynthesisConfig(ram=RamMappingConfig(addr_bits=4, data_bits=8)),
        partition=PartitionConfig(gates_per_partition=400),
        boomerang=BoomerangConfig(width_log2=10),
    )


#: named compile profiles (factories — ``GemConfig.__post_init__`` mutates
#: the partition config it is handed, so every compile needs a fresh one)
COMPILE_PROFILES: dict[str, callable] = {
    "default": GemConfig,
    "small": _profile_small,
    "merge": _profile_merge,
    "ram_small_blocks": _profile_ram_small_blocks,
}


def compile_profile(name: str) -> GemConfig:
    """A fresh :class:`GemConfig` for a named profile."""
    try:
        factory = COMPILE_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown compile profile {name!r}; have {sorted(COMPILE_PROFILES)}"
        ) from None
    return factory()


@dataclass(frozen=True)
class OracleConfig:
    """What to cross-check and how hard."""

    engines: tuple[str, ...] = ENGINES
    #: lane batches beyond 1 run fused-vs-legacy per-lane lockstep
    batches: tuple[int, ...] = (1, 16, 64)
    #: execution backends held against each other at the lane batches:
    #: the fused engine runs the default one, every other enrolls as an
    #: extra fused-path engine (unavailable ones skip with a coverage
    #: marker rather than fall back silently)
    backends: tuple[str, ...] = field(default_factory=available_backends)
    compile_profile: str = "small"
    #: fault descriptor, e.g. ``{"kind": "fold", "index": 0, "bit": 3}``
    #: or ``{"kind": "known_rail", "cycle": 0, "bit": 0}`` (4-value mode)
    inject: dict | None = None
    #: value system: 2 (plain) or 4 (dual-rail vs the FourStateSim golden)
    values: int = 2
    #: 4-value mode: registers (and sync-read samplers) power up X
    x_reset: bool = True
    #: 4-value mode: memory words beyond the init image power up X
    x_memory: bool = True
    #: snapshot each GEM engine at this cycle of the batch-1 phase and
    #: continue from a serialization round-trip of the checkpoint — the
    #: mid-run checkpoint/resume lockstep check (None = off)
    checkpoint_cycle: int | None = None

    def to_json(self) -> dict:
        return {
            "engines": list(self.engines),
            "batches": list(self.batches),
            "backends": list(self.backends),
            "compile_profile": self.compile_profile,
            "inject": self.inject,
            "values": self.values,
            "x_reset": self.x_reset,
            "x_memory": self.x_memory,
            "checkpoint_cycle": self.checkpoint_cycle,
        }

    @classmethod
    def from_json(cls, raw: dict) -> "OracleConfig":
        ckpt = raw.get("checkpoint_cycle")
        return cls(
            engines=tuple(raw.get("engines", ENGINES)),
            batches=tuple(int(b) for b in raw.get("batches", (1, 16, 64))),
            backends=tuple(raw["backends"]) if "backends" in raw else available_backends(),
            compile_profile=str(raw.get("compile_profile", "small")),
            inject=raw.get("inject"),
            values=int(raw.get("values", 2)),
            x_reset=bool(raw.get("x_reset", True)),
            x_memory=bool(raw.get("x_memory", True)),
            checkpoint_cycle=None if ckpt is None else int(ckpt),
        )


@dataclass
class FuzzDivergence:
    """First cross-engine disagreement of an oracle run."""

    cycle: int
    engine: str
    reference: str
    #: signal name -> (reference value, engine value); in 4-value mode
    #: these are the value-rail (data) words
    signals: dict[str, tuple[int, int]]
    batch: int = 1
    lane: int | None = None
    #: value system the oracle ran under (2 or 4)
    values: int = 2
    #: 4-value mode only: signal name -> (reference, engine) as "01x"
    #: symbol strings, MSB first — the exact 4-value disagreement
    symbols: dict[str, tuple[str, str]] | None = None

    @property
    def signal(self) -> str:
        """Deterministic representative signal (alphabetically first)."""
        return min(self.signals) if self.signals else ""

    def describe(self) -> str:
        where = f" batch={self.batch}" + (f" lane={self.lane}" if self.lane is not None else "")
        if self.values == 4:
            where += " values=4"
        lines = [f"divergence at cycle {self.cycle}: {self.engine} vs {self.reference}{where}"]
        for name, (ref, dut) in sorted(self.signals.items()):
            if self.symbols and name in self.symbols:
                rsym, dsym = self.symbols[name]
                lines.append(f"  {name}: {self.reference}={rsym} {self.engine}={dsym}")
            else:
                lines.append(f"  {name}: {self.reference}={ref:#x} {self.engine}={dut:#x}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle,
            "engine": self.engine,
            "reference": self.reference,
            "signals": {k: list(v) for k, v in self.signals.items()},
            "batch": self.batch,
            "lane": self.lane,
            "values": self.values,
            "symbols": (
                None
                if self.symbols is None
                else {k: list(v) for k, v in self.symbols.items()}
            ),
        }

    @classmethod
    def from_json(cls, raw: dict) -> "FuzzDivergence":
        symbols = raw.get("symbols")
        return cls(
            cycle=int(raw["cycle"]),
            engine=str(raw["engine"]),
            reference=str(raw["reference"]),
            signals={str(k): (int(v[0]), int(v[1])) for k, v in raw["signals"].items()},
            batch=int(raw.get("batch", 1)),
            lane=raw.get("lane"),
            values=int(raw.get("values", 2)),
            symbols=(
                None
                if symbols is None
                else {str(k): (str(v[0]), str(v[1])) for k, v in symbols.items()}
            ),
        )

    def same_site(self, other: "FuzzDivergence | None") -> bool:
        """Same first-divergence site (cycle + representative signal)?"""
        return (
            other is not None
            and self.cycle == other.cycle
            and self.signal == other.signal
        )


@dataclass
class OracleResult:
    """Verdict plus the coverage signal the corpus loop feeds on."""

    ok: bool
    divergence: FuzzDivergence | None
    coverage: frozenset[str]
    cycles: int
    stats: dict = field(default_factory=dict)


def _bucket(n: int) -> str:
    """Power-of-two bucket label (coverage features must be coarse enough
    to saturate, or every design looks novel and the signal is useless)."""
    if n <= 0:
        return "0"
    lo = 1 << (n.bit_length() - 1)
    return f"{lo}-{2 * lo - 1}" if lo > 1 else "1"


def design_coverage(compiled: CompiledDesign, profile: str) -> set[str]:
    """Structural coverage features of one compiled design."""
    report = compiled.report
    feats = {
        f"profile:{profile}",
        f"partitions:{_bucket(report.partitions)}",
        f"stages:{report.stages}",
        f"layers:{_bucket(report.layers)}",
        f"depth:{_bucket(report.levels)}",
    }
    for mr in compiled.synth.memory_reports:
        feats.add(f"ram:{mr.mode}")
        if mr.blocks > 1:
            feats.add("ram:multiblock")
        if mr.adapter_gates > 0:
            feats.add("ram:adapter")
        if mr.polyfill_ffs > 0:
            feats.add("ram:polyfill_ffs")
    return feats


def _rotated(stimuli: list[dict[str, int]], lane: int) -> list[dict[str, int]]:
    """Lane ``lane`` sees the stimulus stream rotated ``lane`` cycles in
    (lane 0 unrotated), so batched runs exercise genuinely distinct lane
    state while staying replayable from the same stimulus list."""
    if lane == 0 or not stimuli:
        return stimuli
    k = lane % len(stimuli)
    return stimuli[k:] + stimuli[:k]


class _Golden:
    """The golden :class:`FourStateSim` as a lockstep participant: raw
    rail stimulus in, its 4-state outputs out as the canonical rail words
    ``DualRailCircuit.decode_outputs`` reads them back from — so a block
    of a dual-rail engine that agrees bit for bit compares ``==``."""

    def __init__(self, sim: FourStateSim, dual, widths: Mapping[str, int]) -> None:
        self.sim, self.rails, self.widths = sim, dual.output_rails, widths

    def run(self, stimuli) -> list[dict[str, int]]:
        outputs = self.sim.run(_vec4(self.widths, vec) for vec in stimuli)
        return [
            {
                rail: word
                for name, value in out.items()
                for rail, word in zip(self.rails[name], (value.data, value.unknown))
            }
            for out in outputs
        ]


def _vec4(widths: Mapping[str, int], vec: Mapping[str, int]) -> dict[str, FourState]:
    """Raw rail stimulus (ints + ``name__x`` masks) -> FourState inputs."""
    out: dict[str, FourState] = {}
    for name, width in widths.items():
        mask = (1 << width) - 1
        data = int(vec.get(name, 0)) & mask
        unknown = int(vec.get(f"{name}__x", 0)) & mask
        out[name] = FourState(data & ~unknown, unknown, width)
    return out


def _ckpt_roundtrip(sim, make_fresh):
    """Serialize ``sim``'s state through the on-disk checkpoint words and
    restore it into a freshly constructed engine — the oracle's mid-run
    checkpoint/resume lockstep seam (format v4 for 4-state engines)."""
    from repro.runtime.checkpoint import (
        checkpoint_from_words,
        checkpoint_to_words,
        restore,
        snapshot,
    )

    ckpt = checkpoint_from_words(checkpoint_to_words(snapshot(sim)))
    return restore(make_fresh(), ckpt)


def run_oracle(
    spec: DesignSpec,
    stimuli: list[dict[str, int]],
    config: OracleConfig | None = None,
) -> OracleResult:
    """Compile ``spec`` and run the N-way lockstep cross-check."""
    config = config or OracleConfig()
    values = validate_values(config.values)
    circuit = spec.build()
    gem_config = compile_profile(config.compile_profile)
    if values == 4:
        dual = to_dual_rail(circuit, x_reset=config.x_reset, x_memory=config.x_memory)
        compiled = GemCompiler(gem_config).compile(dual.circuit)
        compiled.fourstate = dual
    else:
        dual = None
        compiled = GemCompiler(gem_config).compile(circuit)
    program: GemProgram = compiled.program
    inject_rail: dict | None = None
    if config.inject is not None:
        inj = config.inject
        kind = inj.get("kind", "fold")
        if kind == "fold":
            program = mutate_fold_constant(
                compiled.program, int(inj.get("index", 0)), int(inj.get("bit", 0))
            )
        elif kind == "known_rail":
            if values != 4:
                raise ValueError("known_rail inject requires OracleConfig(values=4)")
            from repro.obs.probe import probe_catalog

            rails = [
                net
                for net in probe_catalog(compiled)
                if net.kind == "register" and "__u" in net.name
            ]
            if not rails:
                raise ValueError(
                    "known_rail inject: design has no known-rail state"
                )
            flat = [g for net in rails for g in net.gidx]
            inject_rail = {
                "cycle": int(inj.get("cycle", 0)),
                "gidx": flat[int(inj.get("bit", 0)) % len(flat)],
            }
        else:
            raise ValueError(f"unknown inject kind {inj!r}")

    coverage = design_coverage(compiled, config.compile_profile)
    if values == 4:
        coverage.add("values:4")
    stats = {
        "gates": compiled.report.gates,
        "levels": compiled.report.levels,
        "stages": compiled.report.stages,
        "layers": compiled.report.layers,
        "partitions": compiled.report.partitions,
    }

    def make_engine(name: str, batch: int = 1, backend: str | None = None):
        # In 4-value mode every engine executes the *dual-rail* circuit
        # as an ordinary 2-state program; only the golden reference
        # (constructed separately) computes FourState words directly.
        if name == "word":
            return WordSim(Netlist(dual.circuit if values == 4 else circuit))
        if name == "simref":
            return GateLevelSim(compiled.synth)
        if name == "legacy":
            if values == 4:
                return _FourStateReference(program, dual=dual, batch=batch)
            return ReferenceInterpreter(program, batch=batch)
        if name == "fused":
            if values == 4:
                return FourStateSimulator(program, dual=dual, batch=batch, backend=backend)
            return GemSimulator(program, batch=batch, backend=backend)
        raise ValueError(f"unknown engine {name!r}; have {ENGINES}")

    # Backends other than the one the fused engine already runs on are
    # extra fused-path DUTs; an unavailable one is skipped loudly
    # (coverage marker) — a silent fallback would just cross-check the
    # default against itself.
    baseline = resolve_backend(None).name
    extra_backends: list[str] = []
    for bk in dict.fromkeys(config.backends):
        if bk == baseline:
            continue
        try:
            resolve_backend(bk, strict=True)
        except BackendUnavailableError as exc:
            coverage.add(f"backend-skip:{bk}")
            logger.debug("oracle: skipping %s backend (%s)", bk, exc)
            continue
        extra_backends.append(bk)

    engines = [e for e in ENGINES if e in config.engines]
    if not engines:
        raise ValueError("oracle needs at least one engine")
    if values == 4:
        # The golden 4-state simulator is always the reference; every
        # configured engine becomes a dual-rail DUT.
        reference_name = "fourstate"
        duts = engines
        golden = FourStateSim(Netlist(circuit), x_reset=config.x_reset, x_memory=config.x_memory)
        reference = _Golden(golden, dual, dict(spec.inputs))
    else:
        reference_name, *duts = engines
        reference = make_engine(reference_name)

    decode = dual.decode_outputs if values == 4 else None

    def finish(div: FuzzDivergence | None) -> OracleResult:
        return OracleResult(
            ok=div is None,
            divergence=div,
            coverage=frozenset(coverage),
            cycles=len(stimuli),
            stats=stats,
        )

    def diverged(site: Site, engine: str, against: str, batch: int = 1, lane=None) -> OracleResult:
        signals, symbols = site.signals, None
        if values == 4:  # FourState pairs: data words for the record, 01x strings to read
            symbols = {name: (str(ref), str(dut)) for name, (ref, dut) in signals.items()}
            signals = {name: (ref.data, dut.data) for name, (ref, dut) in signals.items()}
        return finish(
            FuzzDivergence(
                cycle=site.cycle,
                engine=engine,
                reference=against,
                signals=signals,
                batch=batch,
                lane=lane,
                values=values,
                symbols=symbols,
            )
        )

    # Phase 1: batch-1 lockstep, every engine against the best reference,
    # over the stream cut where the engines are touched between cycles:
    # before the known-rail inject cycle, after the checkpoint cycle.
    dut_sims = {name: make_engine(name) for name in duts}
    gem_duts = [name for name in duts if name in ("fused", "legacy")]
    inject_at = None if inject_rail is None else inject_rail["cycle"]
    resume_at = None if config.checkpoint_cycle is None else config.checkpoint_cycle + 1
    cuts = {at for at in (inject_at, resume_at) if at is not None and 0 < at < len(stimuli)}
    cuts = sorted(cuts | {0, len(stimuli)})
    ref_trace: list = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == inject_at:
            # Flip one known-rail state bit in the GEM engines only: the
            # 4-value oracle must notice the references disagreeing.
            coverage.add("inject:known_rail")
            for name in gem_duts:
                dut_sims[name].global_state[inject_rail["gidx"]] ^= 1
        site, trace = lockstep(reference, dut_sims, stimuli[lo:hi], start=lo, decode=decode)
        ref_trace += trace
        if site is not None:
            return diverged(site, site.dut, reference_name)
        if hi == resume_at:
            # Swap every GEM engine for a checkpoint round-trip of itself:
            # the continuation must stay in lockstep (resume correctness,
            # format v4 carrying the known rail in 4-value mode).
            coverage.add("checkpoint:roundtrip")
            for name in gem_duts:
                dut_sims[name] = _ckpt_roundtrip(
                    dut_sims[name], lambda name=name: make_engine(name)
                )

    # Phase 2: the GEM paths at each lane batch, every lane on its own
    # rotation of the stream — the other GEM engine and every extra
    # backend against the primary, lane by lane; lane 0 (unrotated)
    # additionally pinned to the batch-1 reference trace.
    gem_modes = [e for e in engines if e in ("fused", "legacy")]
    batches = sorted(b for b in set(config.batches) if b > 1) if gem_modes else []
    for batch in batches:
        primary = gem_modes[0]
        coverage.add(f"batch:{batch}")
        sims = {name: make_engine(name, batch=batch) for name in gem_modes}
        if "fused" in gem_modes:
            for bk in extra_backends:
                coverage.add(f"backend:{bk}")
                sims[f"fused[{bk}]"] = make_engine("fused", batch=batch, backend=bk)
        rows = [list(vecs) for vecs in zip(*(_rotated(stimuli, lane) for lane in range(batch)))]
        site, trace = lockstep(sims.pop(primary), sims, rows, decode=decode)
        pinned = first_site(
            ref_trace[: len(trace)], {primary: [row[0] for row in trace]}, decode=decode
        )
        # the lower cycle is the first divergence; on a tie, lane 0
        # against the batch-1 reference (the more trusted witness)
        if pinned is not None and (site is None or pinned.cycle <= site.cycle):
            return diverged(pinned, primary, reference_name, batch, lane=0)
        if site is not None:
            return diverged(site, site.dut, primary, batch, lane=site.lane)

    return finish(None)


def _coerce_stimuli(spec: DesignSpec, stimuli: list[Mapping[str, int]]) -> list[dict[str, int]]:
    """Mask stimulus words to input widths, drop unknown names (shrunk
    specs replay the original stimuli against fewer/narrower inputs).
    ``name__x`` unknown-mask keys ride along with their base input — a
    4-value repro keeps its X pattern through shrinking and replay."""
    widths = dict(spec.inputs)
    out: list[dict[str, int]] = []
    for vec in stimuli:
        row: dict[str, int] = {}
        for name, value in vec.items():
            base = name[:-3] if name.endswith("__x") else name
            if base in widths:
                row[name] = int(value) & ((1 << widths[base]) - 1)
        out.append(row)
    return out
