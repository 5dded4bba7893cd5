"""Decode-time stage fusion: the per-partition interpreter flattened into
level-synchronous whole-stage array ops.

Executing the ISA literally (:class:`repro.simref.isa_interp.ReferenceInterpreter`)
walks a Python loop over every partition and every boomerang layer each
cycle, issuing thousands of tiny NumPy kernels whose dispatch overhead
dwarfs the bitwise work.  The paper's CUDA interpreter wins precisely by being a
*fixed-shape* kernel — coalesced loads, one device sync per stage (§III-E)
— and GATSPI's fused gate-evaluation kernels / Parendi's BSP-style
level-synchronous execution make the same move for word-packed
simulators.  This module is that move at decode time: it compiles the
decoded program into a :class:`FusedProgram` — one
:class:`~repro.core.backend.StagePlan` per stage — whose per-cycle
execution is a short, fixed sequence of large vector ops.

The fused execution model
-------------------------

Fusion symbolically executes one cycle of every partition at decode time
and extracts the *dynamic dataflow DAG* of the stage:

* **Constant folding.**  Partition locals start at zero each cycle, and
  boomerang fold trees are heavily padded with constant slots; fusion
  tracks every local slot as const-0 / const-1 / dynamic and folds
  ``(a ^ XA) & ((b ^ XB) | OB)`` accordingly.  A constant operand either
  kills the AND (result constant) or collapses it to an XOR *alias* of
  the other operand — aliases become edge flips, never computed.  On the
  large designs this removes ~90% of all fold positions.
* **Common-subexpression elimination + dead-code elimination.**  Nodes
  are hash-consed (an AND of the same flipped operands exists once per
  stage) and anything not transitively reachable from a global write,
  deferred write, or RAM-port input is dropped.
* **Level-synchronous waves.**  Surviving AND nodes are scheduled ASAP
  by depth.  One *wave* evaluates every node of one depth:
  one ``np.take`` (``mode="clip"``) gathers both operand vectors from
  the trace buffer, one XOR applies the edge-flip constants (elided when
  all zero), one AND over the two contiguous halves produces the wave's
  output — which is appended to the trace so later waves gather it.
  The trace layout is ``[stage reads][wave 1][wave 2]…``.
* **One global gather per stage.**  All partitions' READ indices dedup
  into a single raw ``np.take(gstate, read_gidx)`` (READ inversions ride
  the edge flips).  Reads stay per stage — they observe earlier stages'
  immediate writes — and fusion verifies the compiler's concurrency
  contract (no partition reads a global bit another partition of the
  *same* stage writes immediately), refusing to load the program
  otherwise (``FusionError``).
* **Coalesced terminal scatters.**  Immediate GWRITEs, deferred GWRITEs
  and RAM-port input slots become per-stage index tables, each entry
  either *dynamic* (a trace position + flip) or *constant* (a
  precomputed word).  Constant tails are prefilled once when the stage
  is compiled; each cycle pays one gather (+ optional XOR) for the dynamic
  prefix and one scatter for the whole table.  Constant RAM inputs are
  preset directly into the arena; constant deferred writes are one
  shared, read-only commit tuple.

RAM ports keep their dynamic per-lane semantics: the compiled cycle runs
each port on its partition's span of the arena, in (stage, partition)
order at the end of each stage — after every arena slot it references
has been scattered, before any later stage runs — and holds the sampled
read data, with its read-enable lane plane, for the commit.  The arena
carries no other live state: apart from the preset constants it is
written before read every cycle, so checkpoint restore needs no
executor cooperation.

:class:`FusedProgram` is pure static tables, a function of the bitstream
words alone — the same at every batch — so it is computed at most once:
:func:`fused_program` serves it from an in-process memo (shared across
interpreter instances), else from a plan file persisted beside the
compile cache, and only then runs :func:`fuse` (and stores the result
when it is big enough to be worth a disk round trip).  All three tiers
share one key, :func:`plan_key`; a stored plan is verified before a byte
of it is interpreted and rebuilt if anything is wrong with it.
:func:`cycle_buffers` allocates the mutable trace and arena of one
interpreter, and the interpreter's backend compiles program + buffers
into the executor — one ``run`` per block of cycles
(:mod:`repro.core.backend`).
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
from dataclasses import astuple, dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.core import isa
from repro.core.backend import INDEX_TABLES, WORD_TABLES, CycleBuffers, StagePlan
from repro.core.cachefile import cache_dir, write_atomic
from repro.core.engine import ALL_ONES, _decode_ramop
from repro.errors import GemError
from repro.obs.metrics import REGISTRY, MemoTable
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ExecutionEngine
    from repro.core.interpreter import SimState

logger = logging.getLogger(__name__)


class FusionError(GemError):
    """The decoded program violates an assumption stage fusion relies on.

    No compiler-produced bitstream does (EXPERIMENTS.md); the check
    guards bitstreams from outside the compiler, and the interpreter
    refuses to load one that fails it.
    """


# -- fused program tables -----------------------------------------------------


@dataclass
class _StaticWork:
    """Per-cycle counter deltas, fixed by the program."""

    instruction_words: int = 0
    fold_steps: int = 0
    permutation_bits: int = 0
    layer_syncs: int = 0
    device_syncs: int = 0
    global_reads: int = 0
    global_writes: int = 0
    #: NumPy dispatches an ISA-literal per-partition cycle issues
    array_ops: int = 0
    #: NumPy dispatches the fused numpy stages issue per cycle
    fused_array_ops: int = 0


@dataclass
class FusedProgram:
    """Immutable fusion result: index/constant tables plus work deltas."""

    arena_size: int
    #: per-partition arena base offsets and sizes (for RAM-op views)
    arena_base: list[int]
    arena_span: list[int]
    #: constant-1 RAM-port inputs, written into the arena once at init
    preset_slots: np.ndarray
    stages: list[StagePlan]
    #: constant deferred GWRITEs — one shared read-only commit tuple
    def_const_gidx: np.ndarray
    def_const_vals: np.ndarray
    static: _StaticWork = field(default_factory=_StaticWork)


# -- fusion cache: memory, then the plan store, then fuse() ---------------------

_FUSIONS = MemoTable("fusion", "stage-fusion")
#: hit/miss counters of the in-process tier, and its reset (tests,
#: benchmarks: clearing it stands in for a fresh process, so it never
#: touches the plan store)
fusion_cache_stats = _FUSIONS.stats
clear_fusion_cache = _FUSIONS.clear

#: Fewest AND nodes a plan must schedule to be worth a disk round trip.
#: Fusing costs ~6 us per node, reading a plan back ~2 ms plus ~1.5 ms per
#: MB.  Below this size the saving is a few milliseconds at best, so fuzz
#: campaigns, hypothesis runs and unit tests (9-2066 nodes, <= 45 ms to
#: load) never write a file, and every registry design (9.6k nodes and
#: up, 60-650 ms to fuse) does (EXPERIMENTS.md L1, nodes vs fuse time).
PERSIST_MIN_NODES = 4096

_PLAN_MAGIC = b"GEMPLAN\n"
#: the modules that define what a plan holds and how its bytes are laid
#: out: their source is part of every key, so editing one retires every
#: stored plan without a format constant anyone has to remember to bump
_PLAN_SOURCES = ("backend.py", "bitstream.py", "engine.py", "fused.py", "interpreter.py", "isa.py")


@functools.cache
def _loader_digest() -> str:
    """SHA-256 over :data:`_PLAN_SOURCES`, read once per process."""
    h = hashlib.sha256()
    for name in _PLAN_SOURCES:
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def plan_key(words: np.ndarray) -> tuple[str, str]:
    """What a decode and a fused plan are functions of: the bitstream's
    words (SHA-256 — the identity has to outlive the process) and the
    code that builds them — not the batch: the program is lane-free.  The
    one key of the in-process memos and of the plan store."""
    image = np.ascontiguousarray(words, dtype="<u4")
    return hashlib.sha256(image).hexdigest(), _loader_digest()


def fused_program(key: tuple[str, str], decode, stage_indices: list[list[int]]) -> FusedProgram:
    """The fused plan under ``key`` (:func:`plan_key`): the in-process
    memo, else the plan file in the cache directory, else
    ``fuse(decode(), ...)`` — written back when it schedules
    :data:`PERSIST_MIN_NODES` nodes or more.

    So every interpreter of a bitstream — any batch, either backend, the
    reference — fuses at most once per process, and a design that was
    ever loaded from this cache directory is not fused — nor decoded —
    again at all.  A plan file that is torn, corrupted, foreign or
    written by other sources is deleted with one warning and rebuilt,
    never interpreted; a cache directory that cannot be written costs
    one warning and nothing else.
    """
    path = os.path.join(cache_dir(), f"plan-{key[0][:16]}.bin")
    served = {"tier": "memory", "bytes": 0}

    def fetch() -> FusedProgram | None:
        return _read_plan(path, key, served)

    def build() -> FusedProgram:
        served["tier"] = "fuse"
        partitions = decode()
        with TRACER.span("fuse", cat="compile", args={"stages": len(stage_indices)}):
            fused = fuse(partitions, stage_indices)
        if sum(plan.gather.size for plan in fused.stages) >= 2 * PERSIST_MIN_NODES:
            _write_plan(path, key, fused, served)
        return fused

    with TRACER.span("plan", cat="compile", args=served):
        return _FUSIONS.get(key, build, fetch)


# -- the plan file ------------------------------------------------------------
#
# ``GEMPLAN\n`` | SHA-256 of the key | SHA-256 of the payload | payload.
# The payload is 8-byte words throughout: a directory (array count, then
# each array's length) followed by the arrays back to back — a header of
# scalars, the program-level tables, then per stage its sixteen tables
# (:data:`INDEX_TABLES` as int64, :data:`WORD_TABLES` as uint64) and its
# RAM ports.  A port is stored as its partition index and its RAMOP
# instruction (:func:`repro.core.isa.encode_ramop`), and comes back the
# way it came out of the bitstream: ``decode_ramop``, then its table form.

_PORT_WORDS = 1 + isa.instruction_words(isa.Opcode.RAMOP)


def _plan_arrays(fused: FusedProgram) -> list[np.ndarray]:
    """The payload of ``fused``, array by array (directory first)."""

    def ints(values) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    head = [fused.arena_size, *astuple(fused.static), *(plan.trace_size for plan in fused.stages)]
    arrays = [
        ints(head),
        ints(fused.arena_base),
        ints(fused.arena_span),
        fused.preset_slots,
        fused.def_const_gidx,
        fused.def_const_vals,
    ]
    for plan in fused.stages:
        arrays += [getattr(plan, name) for name in INDEX_TABLES + WORD_TABLES]
        arrays.append(ints([[pidx, *isa.encode_ramop(op.spec)] for pidx, op in plan.ramops]))
    return [ints([len(arrays), *(arr.size for arr in arrays)]), *arrays]


def _plan_from_payload(payload) -> FusedProgram:
    """The inverse of :func:`_plan_arrays`; every array is a copy that
    owns its memory, as :func:`fuse` would have made it.  Raises
    :class:`ValueError` for a payload whose directory does not describe
    it."""
    words = np.frombuffer(payload, dtype=np.int64)
    count = int(words[0]) if words.size else -1
    sizes = words[1 : 1 + max(count, 0)]
    if count < 0 or sizes.size != count or (sizes < 0).any() or 1 + count + sizes.sum() != words.size:
        raise ValueError("directory does not match the payload size")
    ends = (1 + count + np.cumsum(sizes)).tolist()
    chunks = (words[end - size : end] for size, end in zip(sizes.tolist(), ends))

    def table(dtype=np.int64) -> np.ndarray:
        chunk = next(chunks, None)
        if chunk is None:
            raise ValueError("fewer arrays than the header's stage count needs")
        return chunk.astype(dtype)

    head = table().tolist()
    nstatic = len(fields(_StaticWork))
    arena_base, arena_span = table().tolist(), table().tolist()
    preset_slots, def_const_gidx, def_const_vals = table(), table(), table(np.uint64)
    stages = []
    for trace_size in head[1 + nstatic :]:
        tables = {name: table() for name in INDEX_TABLES}
        tables.update((name, table(np.uint64)) for name in WORD_TABLES)
        ports = [
            (int(pidx), _decode_ramop(isa.decode_ramop(inst)))
            for pidx, *inst in table().reshape(-1, _PORT_WORDS).tolist()
        ]
        stages.append(StagePlan(trace_size=trace_size, ramops=ports, **tables))
    if next(chunks, None) is not None:
        raise ValueError("arrays left over after the last stage")
    return FusedProgram(
        arena_size=head[0],
        arena_base=arena_base,
        arena_span=arena_span,
        preset_slots=preset_slots,
        stages=stages,
        def_const_gidx=def_const_gidx,
        def_const_vals=def_const_vals,
        static=_StaticWork(*head[1 : 1 + nstatic]),
    )


def _key_digest(key: tuple[str, str]) -> bytes:
    return hashlib.sha256("\0".join(map(str, key)).encode()).digest()


def _read_plan(path: str, key: tuple, served: dict) -> FusedProgram | None:
    """The plan stored at ``path`` if it is whole and is ``key``'s;
    ``None`` — after deleting whatever else was there — otherwise."""
    try:
        with open(path, "rb") as f:
            blob = memoryview(f.read())
        header, digest, payload = blob[:40], blob[40:72], blob[72:]
        if header != _PLAN_MAGIC + _key_digest(key):
            raise ValueError("not this loader's plan of this bitstream")
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("payload digest mismatch (torn or corrupted)")
        fused = _plan_from_payload(payload)
    except (FileNotFoundError, NotADirectoryError):  # nothing stored (or nowhere to)
        return None
    except (OSError, ValueError, IndexError) as problem:
        logger.warning("discarding plan file %s: %s", path, problem)
        REGISTRY.counter(
            "gem_cache_discards_total",
            "cache files found unusable, deleted and rebuilt",
            labels={"cache": "plan"},
        ).inc()
        try:
            os.rmdir(path) if os.path.isdir(path) else os.remove(path)
        except OSError:
            pass
        return None
    served.update(tier="disk", bytes=len(blob))
    return fused


def _write_plan(path: str, key: tuple, fused: FusedProgram, served: dict) -> None:
    arrays = _plan_arrays(fused)
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr)
    envelope = [_PLAN_MAGIC, _key_digest(key), digest.digest(), *arrays]
    try:
        write_atomic(path, lambda f: f.writelines(envelope))
    except OSError as exc:
        logger.warning("cannot store the fused plan at %s (%s); it will be rebuilt", path, exc)
    else:
        served["bytes"] = 72 + sum(arr.nbytes for arr in arrays)


# -- fusion pass --------------------------------------------------------------

def _keep_last(dst: list[int]) -> list[int]:
    """Indices that survive keep-last dedup of a scatter-target list.

    NumPy fancy assignment with repeated indices has no defined order;
    the ISA overwrites sequentially, so keep-last reproduces it
    deterministically.
    """
    seen: dict[int, int] = {}
    for i, d in enumerate(dst):
        seen[d] = i
    return sorted(seen.values())


def _nonzero(vec: np.ndarray) -> bool:
    """An all-zero flip vector costs the numpy stage no XOR dispatch."""
    return bool(vec.any())


#: a constant 1, as the int the symbolic walk builds its word tables from
_ONES = int(ALL_ONES)


def _dynamic(pos: list[int], entries: list[tuple[int, int]]):
    """Trace positions and inversion words of dynamic ``(sym, inv)`` terminals
    (the symbol's edge flip folds into the inversion)."""
    src = np.array([pos[(sym - 4) >> 1] for sym, _ in entries], dtype=np.int64)
    inv = np.array([iv ^ (_ONES if sym & 1 else 0) for sym, iv in entries], dtype=np.uint64)
    return src, inv


def count_legacy_array_ops(partitions: list, stage_indices: list[list[int]]) -> int:
    """NumPy dispatches per cycle of an ISA-literal per-partition walk.

    Counts every array-producing/consuming call of the reference
    interpreter's ``_run_partition`` and of its commit: the per-cycle
    local zeroing, the READ gather+xor+scatter, each layer's gather, the
    four ufuncs of every fold step, writeback gathers+scatters, GWRITE
    gather+xor(+scatter at commit), and the deferred-value xor.
    Host-side stimulus injection and output extraction are excluded
    (they are DMA, not kernels), as are the dynamically-gated RAM port
    ops (identical in the executor).
    """
    ops = 0
    for part in partitions:
        ops += 1  # local[:] = 0
        if part.read_gidx.size:
            ops += 3  # gather + xor + scatter
        for layer in part.layers:
            ops += 1  # gather
            ops += 4 * layer.eff_width_log2  # two XORs, OR, AND per step
            ops += sum(
                2 for positions, _ in layer.writebacks if positions.size
            )  # writeback gather + scatter
        if part.gw_now[2].size:
            ops += 3  # gather + xor + scatter
        if part.gw_deferred[2].size:
            ops += 3  # gather + xor now, scatter at commit
    return ops


# Symbolic values during the fusion walk are plain ints:
#   0 → constant 0,  1 → constant 1,  4 + 2*node + flip → dynamic.
# XOR by a decoded constant is ``value ^ 1`` in every case (bit 0 is the
# polarity for constants *and* the edge flip for dynamic values).


def fuse(partitions: list, stage_indices: list[list[int]]) -> FusedProgram:
    """Compile decoded partitions into one :class:`FusedProgram`."""

    arena_span = [p.state_slots for p in partitions]
    arena_base: list[int] = []
    arena_size = 0
    for span in arena_span:
        arena_base.append(arena_size)
        arena_size += span

    static = _StaticWork()
    static.array_ops = count_legacy_array_ops(partitions, stage_indices)
    for stage_parts in stage_indices:
        static.device_syncs += 1
        for idx in stage_parts:
            part = partitions[idx]
            static.instruction_words += part.instruction_words
            static.global_reads += int(part.read_gidx.size)
            static.global_writes += int(
                part.gw_now[2].size + part.gw_deferred[2].size
            )
            static.layer_syncs += len(part.layers)
            for layer in part.layers:
                static.fold_steps += layer.eff_width_log2
                static.permutation_bits += int(layer.gather.size)

    fused_ops = 0
    stages: list[StagePlan] = []
    preset_slots: list[int] = []
    #: (gidx, stage, symbolic value, inv word) in ISA order
    all_deferred: list[tuple[int, int, int, int]] = []
    stage_pos: list[list[int]] = []
    no_words = np.zeros(0, dtype=np.uint64)
    no_index = np.zeros(0, dtype=np.int64)

    for si, stage_parts in enumerate(stage_indices):
        # ---- symbolic walk of every partition, in partition order -------
        ands: list[tuple[int, int] | None] = []  # None = READ node
        node_gidx: list[int] = []  # aligned: gidx for READ nodes, -1 else
        cse: dict[int, int] = {}
        read_ids: dict[int, int] = {}
        gw_entries: list[tuple[int, int, int]] = []  # (gidx, sym, inv)
        ram_entries: list[tuple[int, int]] = []  # (abs slot, sym)
        stage_def: list[tuple[int, int, int]] = []  # (gidx, sym, inv)
        ramops: list[tuple[int, object]] = []
        raw_reads: list[np.ndarray] = []
        raw_writes: list[np.ndarray] = []

        for idx in stage_parts:
            part = partitions[idx]
            local = [0] * part.state_slots
            if part.read_gidx.size:
                raw_reads.append(part.read_gidx)
                rinv = np.ravel(part.read_inv).tolist()
                for j, (g, s) in enumerate(
                    zip(part.read_gidx.tolist(), part.read_slots.tolist())
                ):
                    nid = read_ids.get(g)
                    if nid is None:
                        nid = len(ands)
                        ands.append(None)
                        node_gidx.append(g)
                        read_ids[g] = nid
                    local[s] = 4 + 2 * nid + (1 if rinv[j] else 0)
            for layer in part.layers:
                vec = [local[i] for i in layer.gather.tolist()]
                for step in range(layer.eff_width_log2):
                    # ravel: constants decode as (n, 1) columns; the
                    # symbolic walk only needs 0 / all-ones words
                    xa = np.ravel(layer.xor_a[step]).tolist()
                    xb = np.ravel(layer.xor_b[step]).tolist()
                    ob = np.ravel(layer.or_b[step]).tolist()
                    half = len(vec) // 2
                    out = [0] * half
                    for p in range(half):
                        a = vec[2 * p] ^ (1 if xa[p] else 0)
                        if ob[p]:
                            b = 1
                        else:
                            b = vec[2 * p + 1] ^ (1 if xb[p] else 0)
                        if a == 0 or b == 0:
                            continue  # out[p] stays 0
                        if a == 1:
                            out[p] = b
                            continue
                        if b == 1:
                            out[p] = a
                            continue
                        if a > b:
                            a, b = b, a
                        key = (a << 42) | b
                        nid = cse.get(key)
                        if nid is None:
                            nid = len(ands)
                            ands.append((a, b))
                            node_gidx.append(-1)
                            cse[key] = nid
                        out[p] = 4 + 2 * nid
                    vec = out
                    positions, slots = layer.writebacks[step]
                    if positions.size:
                        for pos_, slot in zip(positions.tolist(), slots.tolist()):
                            local[slot] = vec[pos_]
            slots_, inv_, gidx_ = part.gw_now
            if gidx_.size:
                raw_writes.append(gidx_)
                for s, iv, g in zip(
                    slots_.tolist(), np.ravel(inv_).tolist(), gidx_.tolist()
                ):
                    gw_entries.append((g, local[s], iv))
            slots_, inv_, gidx_ = part.gw_deferred
            for s, iv, g in zip(
                slots_.tolist(), np.ravel(inv_).tolist(), gidx_.tolist()
            ):
                stage_def.append((g, local[s], iv))
            base = arena_base[idx]
            for op in part.ramops:
                ramops.append((idx, op))
                for s in (
                    op.raddr_slots.tolist()
                    + op.waddr_slots.tolist()
                    + op.wdata_slots.tolist()
                    + [op.ren_slot, op.wen_slot]
                ):
                    ram_entries.append((base + s, local[s]))

        # The fused schedule gathers all of a stage's READs before any of
        # its immediate GWRITEs land; verify the compiler kept them apart.
        if raw_reads and raw_writes:
            overlap = np.intersect1d(
                np.concatenate(raw_reads), np.concatenate(raw_writes)
            )
            if overlap.size:
                raise FusionError(
                    f"stage {si} reads global bits "
                    f"{overlap[:4].tolist()} written immediately within the "
                    "same stage; the fused reads-first schedule cannot "
                    "preserve that ordering"
                )

        # ---- DCE from the terminals -------------------------------------
        nand = len(ands)
        live = bytearray(nand)
        stack: list[int] = []

        def _mark(v: int) -> None:
            if v >= 4:
                nid = (v - 4) >> 1
                if not live[nid]:
                    live[nid] = 1
                    stack.append(nid)

        for _, sym, _ in gw_entries:
            _mark(sym)
        for _, sym in ram_entries:
            _mark(sym)
        for _, sym, _ in stage_def:
            _mark(sym)
        while stack:
            pair = ands[stack.pop()]
            if pair is not None:
                _mark(pair[0])
                _mark(pair[1])

        # ---- ASAP wave schedule (creation order is topological) ---------
        depth = [0] * nand
        by_depth: dict[int, list[int]] = {}
        for nid in range(nand):
            if not live[nid]:
                continue
            pair = ands[nid]
            if pair is None:
                continue
            a, b = pair
            da = depth[(a - 4) >> 1] if a >= 4 else 0
            db = depth[(b - 4) >> 1] if b >= 4 else 0
            d = (da if da > db else db) + 1
            depth[nid] = d
            by_depth.setdefault(d, []).append(nid)

        pos = [0] * nand
        read_gidx: list[int] = []
        for nid in range(nand):
            if live[nid] and ands[nid] is None:
                pos[nid] = len(read_gidx)
                read_gidx.append(node_gidx[nid])
        off = len(read_gidx)
        if off:
            fused_ops += 1  # the stage read gather

        depths = sorted(by_depth)
        counts = [len(by_depth[d]) for d in depths]
        outs: list[int] = []
        starts: list[int] = []
        gather = np.empty(2 * sum(counts), dtype=np.int64)
        flips = np.zeros(2 * sum(counts), dtype=np.uint64)
        start = 0
        for d, n in zip(depths, counts):
            # the wave's slice of gather/flips: n A-operands, then n B-operands
            for i, nid in enumerate(by_depth[d]):
                a, b = ands[nid]  # type: ignore[misc]
                gather[start + i] = pos[(a - 4) >> 1]
                gather[start + n + i] = pos[(b - 4) >> 1]
                if a & 1:
                    flips[start + i] = _ONES
                if b & 1:
                    flips[start + n + i] = _ONES
                pos[nid] = off + i
            outs.append(off)
            starts.append(start)
            # gather (+ xor) + and
            fused_ops += 2 + _nonzero(flips[start : start + 2 * n])
            off += n
            start += 2 * n
        trace_size = off

        # ---- terminal tables --------------------------------------------
        def _split(entries):
            """Keep-last dedup, then dynamic-first/constant-tail split."""
            entries = [entries[i] for i in _keep_last([e[0] for e in entries])]
            dyn = [e for e in entries if e[1] >= 4]
            const = [e for e in entries if e[1] < 4]
            tgt = np.array([e[0] for e in dyn + const], dtype=np.int64)
            src, inv = _dynamic(pos, [(sym, iv) for _, sym, iv in dyn])
            cvals = np.array(
                [(_ONES if sym else 0) ^ iv for _, sym, iv in const],
                dtype=np.uint64,
            )
            return tgt, src, inv, cvals

        gwn_gidx, gwn_src, gwn_inv, gwn_const = _split(gw_entries)
        if gwn_gidx.size:
            fused_ops += 1  # scatter
            if gwn_src.size:
                fused_ops += 1 + _nonzero(gwn_inv)  # gather (+ xor)

        ram_keep = [ram_entries[i] for i in _keep_last([e[0] for e in ram_entries])]
        ram_dyn = [(slot, sym) for slot, sym in ram_keep if sym >= 4]
        # constant-1 inputs are preset once; the arena is zero-allocated,
        # so constant-0 inputs need nothing
        preset_slots.extend(slot for slot, sym in ram_keep if sym == 1)
        ram_slots = np.array([slot for slot, _ in ram_dyn], dtype=np.int64)
        ram_src, ram_inv = _dynamic(pos, [(sym, 0) for _, sym in ram_dyn])
        if ram_slots.size:
            fused_ops += 2 + _nonzero(ram_inv)  # gather (+ xor) + scatter

        all_deferred.extend((g, si, sym, iv) for g, sym, iv in stage_def)
        stage_pos.append(pos)
        stages.append(
            StagePlan(
                trace_size=trace_size,
                read_gidx=np.array(read_gidx, dtype=np.int64),
                wave_count=np.array(counts, dtype=np.int64),
                wave_out=np.array(outs, dtype=np.int64),
                wave_start=np.array(starts, dtype=np.int64),
                gather=gather,
                flips=flips,
                gwn_gidx=gwn_gidx,
                gwn_src=gwn_src,
                gwn_inv=gwn_inv,
                gwn_const=gwn_const,
                ram_slots=ram_slots,
                ram_src=ram_src,
                ram_inv=ram_inv,
                def_gidx=no_index,  # filled below, after the global dedup
                def_src=no_index,
                def_inv=no_words,
                ramops=ramops,
            )
        )

    # ---- deferred GWRITEs: global keep-last dedup, then split per stage --
    keep = _keep_last([g for g, _, _, _ in all_deferred])
    per_stage: dict[int, list[tuple[int, int, int]]] = {}
    const_def: list[tuple[int, int, int]] = []
    for i in keep:
        g, si, sym, iv = all_deferred[i]
        if sym >= 4:
            per_stage.setdefault(si, []).append((g, sym, iv))
        else:
            const_def.append((g, sym, iv))
    for si, entries in per_stage.items():
        st = stages[si]
        st.def_gidx = np.array([g for g, _, _ in entries], dtype=np.int64)
        st.def_src, st.def_inv = _dynamic(
            stage_pos[si], [(sym, iv) for _, sym, iv in entries]
        )
        fused_ops += 2 + _nonzero(st.def_inv)  # gather (+ xor) + commit
    def_const_gidx = np.array([g for g, _, _ in const_def], dtype=np.int64)
    def_const_vals = np.array(
        [(_ONES if sym else 0) ^ iv for _, sym, iv in const_def], dtype=np.uint64
    )
    if def_const_gidx.size:
        fused_ops += 1  # the commit scatter of the shared constant tuple

    static.fused_array_ops = fused_ops
    return FusedProgram(
        arena_size=arena_size,
        arena_base=arena_base,
        arena_span=arena_span,
        preset_slots=np.array(preset_slots, dtype=np.int64),
        stages=stages,
        def_const_gidx=def_const_gidx,
        def_const_vals=def_const_vals,
        static=static,
    )


# -- executor -----------------------------------------------------------------


def cycle_buffers(
    fused: FusedProgram, engine: "ExecutionEngine", state: "SimState", pi_rows, sample_rows
) -> CycleBuffers:
    """The mutable arrays one interpreter's compiled cycle runs on.

    Allocates the trace and the RAM-slot arena and pairs them with the
    state's global vector and RAM lane images — and the two row tables
    of a block: where its PI rows land in the global vector, which rows
    it samples — for ``backend.compile_cycle(fused, buffers)``.  The
    single trace buffer is sized for the largest stage and reused across
    stages — nothing reads a stage's trace after its deferred values are
    sampled — and the arena carries no live state across cycles beyond
    the constant presets written here.
    """
    arena = engine.zeros(fused.arena_size)
    arena[fused.preset_slots] = ALL_ONES
    trace = engine.zeros(max((plan.trace_size for plan in fused.stages), default=0))
    rams = state.ram_arrays
    return CycleBuffers(engine, state.global_state, pi_rows, sample_rows, trace, arena, rams)
