"""Word-parallel virtual-GPU interpreter for GEM bitstreams.

This is the reproduction's substitute for the paper's CUDA kernel (see
DESIGN.md §2).  It decodes the *binary* bitstream produced by
:mod:`repro.core.bitstream` — not the in-memory placement objects — and
executes simulated cycles with the exact semantics the CUDA interpreter
implements:

* one **global state** vector (GPU global memory); primary inputs are
  host-written, flip-flop outputs / RAM read data / stage-cut values live
  at allocated indices;
* per cycle, every partition (thread block): loads its sources (READ),
  runs its boomerang layers (PERM gather → FOLD steps → WB stores into
  block-local state), then stores results (GWRITE / RAMOP);
* stage boundaries and the cycle boundary are device-wide synchronizations
  (cooperative groups in the paper); *deferred* global writes (FF next
  states, RAM read data) commit at the cycle boundary so every block reads
  consistent previous-cycle state, while *immediate* writes (cut values,
  primary outputs) are visible to later stages within the cycle.

Every state element is a **packed ``uint64`` word carrying up to 64
independent stimulus lanes** (:mod:`repro.core.engine`): one vector op
here corresponds to one bitwise instruction per GPU thread there
(Observation 3 of the paper), and with ``batch=B`` each such op advances
``B`` simulation instances at once.  RAM blocks hold one image per lane
and their addressing is per-lane.  ``batch=1`` preserves the original
single-instance semantics verbatim: ``step(dict) -> dict`` behaves
bit-identically to the historical boolean engine.

The interpreter also keeps the per-cycle work counters (instruction words
fetched, fold steps, synchronizations, global traffic) that feed the
analytical GPU timing model in :mod:`repro.core.perfmodel`; the counters
are lane-aware so amortized per-lane work is reportable.

Cycles are evaluated a **block** at a time by the stage-fused executor
of :mod:`repro.core.fused` — per-stage merged gathers, depth-grouped
liveness-compacted waves, RAM ports, coalesced commit tables — compiled
by the backend into one entry, ``run(n, pi_block, po_block, times)``
(docs/ENGINE.md §6): ``n`` cycles of *scatter the PI rows, evaluate,
gather the sample rows at the settled point, commit*, one call that
leaves Python on the native backend.  Every entry point is the same
three steps around it — pack the stimulus into ``pi_block``, run the
block, unpack the sampled ``po_block`` (the engine's pack layer) — with
``run`` / ``run_lanes`` cutting their stream into blocks of
:func:`block_cycles` and ``step*`` being the block of one.
The ISA-literal per-partition evaluation of the same bitstream lives in
:class:`repro.simref.isa_interp.ReferenceInterpreter`, which subclasses
this class for everything but the block entry and is what the
differential tests and the fuzz oracle hold the executor against.

Program and state are two objects.  :func:`load_program` turns a
bitstream into a :class:`LoadedProgram` — parsed container
(:func:`repro.core.bitstream.parse_container` owns the format), I/O
plans, fused program: everything a load computes and no run changes.
The fused program is looked up before it is computed
(:func:`repro.core.fused.fused_program`: in-process memo, then the plan
file stored beside the compile cache, then decode + ``fuse()``), keyed
by the SHA-256 of the bitstream words and the loader's own sources.
The program is lane-free (:mod:`repro.core.engine`), so every batch,
both backends and the reference interpreter share one fusion, and a
process that loads a design some earlier process loaded, at any batch,
reads the plan instead of re-deriving it.  Decoding is demand-driven:
the instruction streams are decoded (memoized under the same key, :func:`decode_cache_stats`) when
a fusion miss needs them or when someone reads
:attr:`LoadedProgram.partitions` — the reference interpreters do, the
executor never does.  The container parse, the RAM-port checks and the
backend's table validation run on every load, whichever tier serves the
plan.  :class:`SimState` is the rest — global state vector, RAM lane
images, cycle and work counters, quarantined lanes — the one thing
reset, checkpoints, quarantine and fault injection operate on.
:class:`GemInterpreter` joins one of each with a compiled cycle.
"""

from __future__ import annotations

import copy
import functools
import itertools
import time
import zlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core import isa
from repro.core.backend import resolve_backend
from repro.core.bitstream import Container, GemProgram, parse_container
from repro.core.engine import ALL_ONES, ExecutionEngine, Port, _DecodedRamOp, _decode_ramop
from repro.core.engine import constant_column, port_slices
from repro.core.fused import FusedProgram, _StaticWork, cycle_buffers, fused_program, plan_key
from repro.errors import BitstreamError, LaneConfigError
from repro.obs.metrics import MemoTable
from repro.obs.trace import TRACER

#: What one block — one call into the backend — may cover: operand words
#: gathered by the waves (about one per nanosecond natively, so a call
#: stays in the low milliseconds and interrupts are served in between),
#: lane-cycles through the pack layer (bounds the buffers), and cycles.
BLOCK_OPERAND_WORDS, BLOCK_LANE_CYCLES, BLOCK_MAX_CYCLES = 1 << 22, 4096, 256


def block_cycles(fused: FusedProgram, engine: ExecutionEngine) -> int:
    """Cycles per block of ``run`` / ``run_lanes`` for this plan."""
    operands = max(1, engine.words * sum(plan.gather.size for plan in fused.stages))
    lanes = BLOCK_LANE_CYCLES // engine.batch
    return max(1, min(BLOCK_MAX_CYCLES, lanes, BLOCK_OPERAND_WORDS // operands))


@dataclass
class _DecodedLayer:
    eff_width_log2: int
    #: dense gather indices into local state, size 2**eff (0 = const slot)
    gather: np.ndarray
    #: per fold step: constant columns (0 / all-ones words)
    xor_a: list[np.ndarray]
    xor_b: list[np.ndarray]
    or_b: list[np.ndarray]
    #: per fold step: (positions, slots) arrays
    writebacks: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class _DecodedPartition:
    stage: int
    state_slots: int
    read_gidx: np.ndarray
    read_slots: np.ndarray
    read_inv: np.ndarray  # constant column
    layers: list[_DecodedLayer]
    #: immediate global writes: (slots, inversion column, gidx)
    gw_now: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: deferred global writes: (slots, inversion column, gidx)
    gw_deferred: tuple[np.ndarray, np.ndarray, np.ndarray]
    ramops: list[_DecodedRamOp]
    instruction_words: int


@dataclass
class CycleCounters:
    """Per-cycle work, accumulated over a run (perf-model inputs).

    The work fields count *word* operations — one fold step or global
    word transfer serves every packed lane at once — so ``lanes`` is the
    amortization factor: divide by it for per-instance cost.
    """

    cycles: int = 0
    instruction_words: int = 0
    fold_steps: int = 0
    permutation_bits: int = 0
    layer_syncs: int = 0
    device_syncs: int = 0
    global_reads: int = 0
    global_writes: int = 0
    #: NumPy dispatches per cycle of an ISA-literal per-partition walk —
    #: the kernel-launch-equivalent count; static
    array_ops: int = 0
    #: NumPy dispatches per cycle of the fused whole-stage path
    fused_array_ops: int = 0
    #: stimulus lanes served by each counted word op (the batch size)
    lanes: int = 1

    def per_cycle(self) -> dict:
        """The work fields — the ones a program fixes per cycle — per cycle."""
        c = max(1, self.cycles)
        return {f.name: getattr(self, f.name) / c for f in fields(_StaticWork)}

    def per_lane_cycle(self) -> dict:
        """Per-cycle work amortized over the packed stimulus lanes."""
        lanes = max(1, self.lanes)
        return {key: value / lanes for key, value in self.per_cycle().items()}

    @property
    def lane_cycles(self) -> int:
        """Total simulated instance-cycles (cycles × lanes)."""
        return self.cycles * max(1, self.lanes)


#: Decoded-partition memoization, keyed like the fused plan
#: (:func:`repro.core.fused.plan_key`: bitstream SHA-256, loader
#: sources).  The decoded tables are immutable and lane-free, so every
#: interpreter of a bitstream shares them, whatever its batch.
_DECODES = MemoTable("decode", "partition-decode")
#: hit/miss counters of the decode cache, and its reset (tests, benchmarks)
decode_cache_stats = _DECODES.stats
clear_decode_cache = _DECODES.clear


def _decoded(key: tuple, container: Container) -> list[_DecodedPartition]:
    """``container``'s partitions, decoded (memoized), every operand held
    against the container before anyone runs or fuses them."""

    def decode() -> list[_DecodedPartition]:
        with TRACER.span("decode", cat="compile", args={"partitions": len(container.partitions)}):
            partitions = [
                _decode_partition(words, container.global_bits, index)
                for index, words in enumerate(container.partitions)
            ]
        _check_ram_ports(
            [(pidx, op) for pidx, part in enumerate(partitions) for op in part.ramops],
            [part.state_slots for part in partitions],
            container,
        )
        return partitions

    return _DECODES.get(key, decode)


@dataclass(frozen=True)
class LoadedProgram:
    """A bitstream made ready to run at one batch size — and nothing a
    run changes.  Pure tables: no reference to a state buffer or a
    backend, so any number of interpreters share one."""

    program: GemProgram
    #: the parsed bitstream: global bits, RAM blocks, reset indices
    container: Container
    engine: ExecutionEngine
    #: what decode and fusion are memoized (and the plan stored) under
    key: tuple[str, str]
    #: per stage, the indices of its partitions
    stage_indices: list[list[int]]
    #: input port name -> global bit indices, LSB first
    pi_tables: dict[str, np.ndarray]
    # Block I/O plan: the rows of a ``pi_block`` are every input port's
    # bits concatenated (``pi_gidx``: where each lands in the global
    # state), the leading rows of a ``po_block`` every output port's.
    pi_gidx: np.ndarray
    po_gidx: np.ndarray
    pi_slices: dict[str, Port]
    po_slices: dict[str, Port]
    fused: FusedProgram

    @functools.cached_property
    def partitions(self) -> list[_DecodedPartition]:
        """The decoded instruction streams, for whoever executes them
        literally (the reference and pruning interpreters).  The
        executor runs :attr:`fused` and never asks, so a load served
        from the fusion cache or the plan store decodes nothing; the
        first read decodes (through the shared memo) and can raise
        :class:`~repro.errors.BitstreamError`."""
        return _decoded(self.key, self.container)


def load_program(program: GemProgram, batch: int = 1) -> LoadedProgram:
    """Parse, check, plan and fuse ``program`` for ``batch`` lanes.

    The fused plan comes from :func:`~repro.core.fused.fused_program` —
    the in-process memo, the plan store, or decode + ``fuse()``, in that
    order — and whichever tier serves it, the container is parsed and
    CRC-checked and the plan's RAM ports are held against it here, as
    the backend will hold the plan's tables against the buffers.

    Everything that can be wrong with a bitstream is raised here, before
    any state exists: :class:`~repro.errors.BitstreamError` from the
    container parse, the instruction decode or the RAM-port checks,
    :class:`~repro.core.fused.FusionError` for a program the executor
    cannot schedule (there is no other way to run it).
    """
    engine = ExecutionEngine(batch)
    container = parse_container(program.words)
    key = plan_key(program.words)
    bounds = np.cumsum([0, *container.stage_counts]).tolist()
    stage_indices = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    fused = fused_program(key, lambda: _decoded(key, container), stage_indices)
    _check_ram_ports(
        [port for plan in fused.stages for port in plan.ramops], fused.arena_span, container
    )

    def tables(index: dict[str, list[int]]) -> dict[str, np.ndarray]:
        return {name: np.asarray(bits, dtype=np.int64) for name, bits in index.items()}

    pi_tables, po_tables = tables(program.meta.pi_index), tables(program.meta.po_index)
    # (the empty tail keeps the concatenation defined for a design
    # without inputs or outputs)
    no_bits = np.zeros(0, dtype=np.int64)
    return LoadedProgram(
        program=program,
        container=container,
        engine=engine,
        key=key,
        stage_indices=stage_indices,
        pi_tables=pi_tables,
        pi_gidx=np.concatenate([*pi_tables.values(), no_bits]),
        po_gidx=np.concatenate([*po_tables.values(), no_bits]),
        pi_slices=port_slices(pi_tables),
        po_slices=port_slices(po_tables),
        fused=fused,
    )


def _check_ram_ports(ports: list, state_slots: list[int], container: Container) -> None:
    """Hold every RAMOP — ``(partition index, decoded port)`` pairs, of
    decoded partitions or of a fused plan — against the RAM section, the
    global state and its own block's local state: an executor indexes
    all three unchecked (the C kernel) or fails mid-run (numpy)."""
    rams = container.rams
    for pidx, op in ports:
        spec = op.spec
        if spec.ram_index >= len(rams):
            problem = f"names RAM block {spec.ram_index} of {len(rams)}"
        elif (spec.addr_bits, spec.data_bits) != rams[spec.ram_index][:2]:
            problem = (
                f"is {spec.addr_bits} x {spec.data_bits} bits, RAM block "
                f"{spec.ram_index} is {rams[spec.ram_index][:2]}"
            )
        elif spec.rd_global_base + spec.data_bits > container.global_bits:
            problem = f"reads into global bits past {container.global_bits}"
        elif state_slots[pidx] <= max(
            slot for slot, _ in (*spec.raddr, spec.ren, *spec.waddr, *spec.wdata, spec.wen)
        ):
            problem = f"references a slot past its block's {state_slots[pidx]}"
        else:
            continue
        raise BitstreamError(f"partition {pidx}: RAMOP {problem}")


@dataclass
class SimState:
    """Everything a run changes, and all of it: one struct of arrays.

    The arrays are written in place for the state's whole life — a
    compiled cycle holds their addresses — so every operation here
    assigns *into* them and none rebinds them.
    """

    #: packed lane words, shape (global_bits, K)
    global_state: np.ndarray
    #: per RAM block, one image per lane: shape (batch, depth), uint32
    ram_arrays: list[np.ndarray]
    counters: CycleCounters
    cycle: int = 0
    #: lanes masked out of the batch by :meth:`quarantine`
    quarantined: frozenset[int] = frozenset()

    @classmethod
    def power_on(cls, loaded: LoadedProgram) -> "SimState":
        """Allocate the state of ``loaded`` at its reset values."""
        engine = loaded.engine
        state = cls(
            global_state=engine.zeros(loaded.container.global_bits),
            ram_arrays=[
                np.empty((engine.batch, image.size), dtype=np.uint32)
                for _, _, image in loaded.container.rams
            ],
            counters=CycleCounters(lanes=engine.batch),
        )
        state.reset(loaded)
        return state

    def reset(self, loaded: LoadedProgram) -> None:
        """Back to power-on: FF reset values, pristine RAM images, cycle
        0, fresh work counters, no lane quarantined."""
        self.global_state[:] = 0
        self.global_state[loaded.container.reset_ones] = ALL_ONES
        for arr, (_, _, image) in zip(self.ram_arrays, loaded.container.rams):
            arr[:] = image
        self.counters = CycleCounters(lanes=self.counters.lanes)
        self.cycle = 0
        self.quarantined = frozenset()

    def copy(self) -> "SimState":
        """A snapshot sharing no array with this state."""
        return copy.deepcopy(self)

    def assign(self, other: "SimState", engine: ExecutionEngine) -> None:
        """Overwrite this state with a copy of ``other``'s — after
        checking every shape, so a state that does not fit
        (``ValueError``) leaves this one untouched.  The quarantine
        record stays, and so does what it promises: it says which lanes
        the *run* gave up on, a rollback to an earlier snapshot does not
        bring them back, and their bits are zero afterwards."""
        theirs = [other.global_state, *other.ram_arrays]
        mine = [self.global_state, *self.ram_arrays]
        if [arr.shape for arr in theirs] != [arr.shape for arr in mine]:
            raise ValueError(
                f"state arrays of shape {[arr.shape for arr in theirs]} "
                f"where the program needs {[arr.shape for arr in mine]}"
            )
        for dst, src in zip(mine, theirs):
            dst[:] = src
        self.counters = replace(other.counters, lanes=self.counters.lanes)
        self.cycle = other.cycle
        if self.quarantined:
            self.quarantine(engine, ())

    def quarantine(self, engine: ExecutionEngine, lanes: Iterable[int]) -> None:
        """Zero ``lanes``' bits — and those of every lane already on
        record — in the global state and the RAM images, and record them
        (see :meth:`GemInterpreter.quarantine_lanes`)."""
        everyone = self.quarantined.union(int(lane) for lane in lanes)
        self.global_state &= ~engine.lanes_mask(everyone)  # raises before any write
        self.quarantined = everyone
        for arr in self.ram_arrays:
            arr[sorted(everyone), :] = 0

    def digest(self) -> int:
        """CRC32 over every array: the packed global state words (every
        stimulus lane) and every RAM image — the complete set of bits an
        SEU can corrupt between cycles.  It covers the lanes nobody reads
        too: they evolve deterministically (:mod:`repro.core.engine`), so
        the digest is deterministic at any batch and identical on every
        engine."""
        h = zlib.crc32(np.ascontiguousarray(self.global_state, dtype="<u8").tobytes())
        for arr in self.ram_arrays:
            h = zlib.crc32(np.ascontiguousarray(arr, dtype="<u4").tobytes(), h)
        return h & 0xFFFFFFFF

    def digest_lanes(self, engine: ExecutionEngine) -> list[int]:
        """Per-lane CRC32 digests: lane ``l``'s covers its bit plane of
        the global state plus its RAM rows, so comparing two states lane
        by lane pinpoints which stimulus lanes diverged.  Cost is
        ``O(batch × state)``."""
        planes = engine.unpack_lanes(self.global_state)
        digests = []
        for lane in range(engine.batch):
            h = zlib.crc32(np.packbits(planes[:, lane], bitorder="little").tobytes())
            for arr in self.ram_arrays:
                h = zlib.crc32(np.ascontiguousarray(arr[lane], dtype="<u4").tobytes(), h)
            digests.append(h & 0xFFFFFFFF)
        return digests


class GemInterpreter:
    """Execute an assembled GEM program cycle by cycle.

    ``batch`` packs that many independent stimulus lanes into every state
    word (§ :mod:`repro.core.engine`).  The single-instance API
    (``step``/``outputs``/``run``) always addresses lane 0 and broadcasts
    its inputs to all lanes; the lane API (``step_lanes`` etc.) drives
    and observes every lane individually.

    ``profile=True`` keeps lightweight wall-clock timers per phase in
    :attr:`phase_times`: ``inject`` is the pack layer's time,
    ``gather`` / ``fold`` / ``commit`` the backend's split of a block.

    ``backend`` selects how the executor runs a block of cycles
    (:mod:`repro.core.backend`): ``None`` (default) is the native C
    block kernel where a compiler or a cached build exists and the numpy
    array loop elsewhere; ``"numpy"`` forces the array loop; ``"native"``
    by name warns once and falls back to numpy when it cannot be built.

    An interpreter is a shared, immutable :attr:`loaded` program
    (:func:`load_program` — which refuses a bitstream that is malformed
    or that the executor cannot schedule), its own mutable :attr:`state`
    (:class:`SimState`), and the cycle the backend compiled over the two.
    """

    #: how a cycle is evaluated (recorded in run reports)
    mode = "fused"

    #: value system of the executed program: 2 for plain designs, 4 for
    #: dual-rail designs (repro.fourstate.fastpath overrides this) —
    #: recorded in checkpoints so a v4 file cannot silently restore into
    #: an engine running the other value system
    values = 2

    def __init__(
        self,
        program: GemProgram,
        batch: int = 1,
        profile: bool = False,
        backend: str | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self._bind(load_program(program, batch), profile)
        self._buffers = cycle_buffers(
            self._fused, self.engine, self.state, self.loaded.pi_gidx, self.loaded.po_gidx
        )
        self._sample(self.loaded.po_gidx)

    def _bind(self, loaded: LoadedProgram, profile: bool) -> None:
        """Join the shared program with a state of this instance's own;
        the state arrays are bound on the instance too (never rebound)."""
        self.loaded = loaded
        self.program = loaded.program
        self.engine = loaded.engine
        self.batch = loaded.engine.batch
        self.profile = profile
        self.phase_times = {"inject": 0.0, "gather": 0.0, "fold": 0.0, "commit": 0.0}
        self.state = state = SimState.power_on(loaded)
        self.global_state = state.global_state
        self.ram_arrays = state.ram_arrays
        self._fused = loaded.fused
        #: the per-cycle counter deltas a block adds ``n`` times
        self._static = tuple(vars(loaded.fused.static).items())
        #: cycles per block of :meth:`run` / :meth:`run_lanes`
        self.block_cycles = block_cycles(loaded.fused, loaded.engine)
        #: optional signal tap (repro.obs.probe.ProbeTap): its rows ride
        #: behind the PO rows of every sampled block
        self._probe_tap = None

    def _sample(self, rows: np.ndarray) -> None:
        """Bind the block entry over ``rows``, the global-state rows a
        block samples each cycle at the settled point."""
        self._sample_rows = rows
        #: the sampled block's buffer, allocated by the first block and reused
        self._po_buffer: np.ndarray | None = None
        if self.backend is not None:  # (the reference interpreter is its own entry)
            buffers = replace(self._buffers, sample_rows=rows)
            self._run_block = self.backend.compile_cycle(self._fused, buffers).run

    @property
    def cycle(self) -> int:
        return self.state.cycle

    @property
    def counters(self) -> CycleCounters:
        return self.state.counters

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Return to power-on state (:meth:`SimState.reset`) with zeroed
        phase timers.

        The loaded program and the compiled cycle are untouched, so a
        reset interpreter replays a stimulus stream bit-identically to a
        freshly constructed one.
        """
        self.state.reset(self.loaded)
        for phase in self.phase_times:
            self.phase_times[phase] = 0.0

    def quarantine_lanes(self, lanes: Sequence[int]) -> None:
        """Mask stimulus lanes out of the batch (fault containment).

        Zeroes the quarantined lanes' bits across the global state vector
        and their per-lane RAM images, and records them in the state.
        Healthy lanes' bits are untouched, so their simulation continues
        bit-identically; the quarantined lanes keep executing (the
        program's fold constants still drive them) but from an all-zero
        state, deterministically — identically in a primary and its
        shadow, so whole-word digest scrubs stay valid.  Call at a cycle
        boundary only — deferred writes must be drained.
        """
        self.state.quarantine(self.engine, lanes)

    @property
    def quarantined_lanes(self) -> list[int]:
        """Lane indices currently masked out by :meth:`quarantine_lanes`."""
        return sorted(self.state.quarantined)

    # -- execution ------------------------------------------------------------

    #: what the dict adapter passes every stimulus mapping through first
    #: (:class:`~repro.fourstate.fastpath.FourStateSimulator` encodes)
    _encode = None

    def _pack(self, rows: Sequence) -> np.ndarray:
        """The dict adapter: cycles of stimulus — each one mapping for
        every lane (``None``: all zero) or exactly ``batch`` mappings —
        as a ``pi_block``.  Tolerant: a missing name is 0, an unknown
        one ignored, values are masked to their port.  Cycles every lane
        shares are ``pack_scalars``'; one per-lane cycle makes the block
        ``pack_block`` columns of the ports some cycle drives."""
        encode, ports, batch = self._encode, self.loaded.pi_slices, self.batch
        shared = [row is None or isinstance(row, Mapping) for row in rows]
        if encode is not None:
            rows = [
                encode(row) if every else [encode(vec) for vec in row]
                for row, every in zip(rows, shared)
            ]
        if all(shared):
            return self.engine.pack_scalars(ports, rows)
        driven = set()
        for row, every in zip(rows, shared):
            if every:
                driven.update(row or ())
            elif len(row) != batch:
                raise LaneConfigError(f"expected {batch} per-lane input vectors, got {len(row)}")
            else:
                driven.update(*filter(None, row))
        columns = {
            name: [
                [(row or {}).get(name, 0)] * batch
                if every
                else [(vec or {}).get(name, 0) for vec in row]
                for row, every in zip(rows, shared)
            ]
            for name in driven.intersection(ports)
        }
        return self.engine.pack_block(ports, columns, len(rows))

    def _advance(self, n: int, pack, *stimulus) -> np.ndarray:
        """Simulate ``n`` cycles on ``pack(*stimulus)`` — pack, one block
        call, count — and return the PO rows of the sampled block (a
        view of a buffer the next block overwrites; an attached probe's
        rows, sampled behind them, go to the tap).  Whatever is wrong
        with the stimulus is raised by the pack, before any state is
        written.  With the global tracer enabled the block is one span
        carrying ``n`` and the phase seconds."""
        tracing = TRACER.enabled
        times = self.phase_times if self.profile or tracing else None
        t0 = time.perf_counter()
        before = dict(times) if tracing else None
        pi_block = pack(*stimulus)
        if times is not None:
            times["inject"] += time.perf_counter() - t0
        buffer = self._po_buffer
        if buffer is None or len(buffer) < n:
            shape = (max(n, self.block_cycles), self._sample_rows.size, self.engine.words)
            buffer = self._po_buffer = np.empty(shape, dtype=np.uint64)
        po_block, outputs = buffer[:n], self.loaded.po_gidx.size
        writes = self._run_block(n, pi_block, po_block, times)
        state = self.state
        counters, first = state.counters, state.cycle
        for name, per_cycle in self._static:  # the program's static work, n times
            setattr(counters, name, getattr(counters, name) + n * per_cycle)
        counters.global_writes += writes
        counters.cycles += n
        state.cycle += n
        if self._probe_tap is not None:
            self._probe_tap.on_block(po_block[:, outputs:])
        if tracing:
            phases = {phase: times[phase] - before[phase] for phase in before}
            TRACER.complete("block", t0, cat="runtime", args={"cycle": first, "n": n, **phases})
        return po_block[:, :outputs]

    def _scalars(self, po_rows: np.ndarray) -> list[dict[str, int]]:
        return self.engine.unpack_scalars(self.loaded.po_slices, po_rows)

    def _arrays(self, po_rows: np.ndarray) -> dict[str, np.ndarray]:
        return self.engine.unpack_block(self.loaded.po_slices, po_rows)

    def _lanes(self, po_rows: np.ndarray) -> list[list[dict[str, int]]]:
        """The dict adapter over :meth:`_arrays`: per cycle, per lane."""
        columns = self._arrays(po_rows)
        if not columns:
            return [[{} for _ in range(self.batch)] for _ in range(len(po_rows))]
        # zip hands each lane's row to dict() in a tuple it reuses: the
        # only container allocated per lane-cycle is the dict that is kept
        lists = [column.tolist() for column in columns.values()]
        return [[dict(zip(columns, row)) for row in zip(*cycle)] for cycle in zip(*lists)]

    def _settled(self) -> np.ndarray:
        """The PO rows as a block of one cycle: primary outputs own their
        global-state slots, written during evaluation and never by the
        commit, so after a step they still hold its settled outputs."""
        return self.global_state[self.loaded.po_gidx][None]

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        """Simulate one cycle; returns the settled primary output words.

        With ``batch > 1`` the inputs are broadcast to every lane and the
        returned outputs are lane 0's.  Tolerant like every dict entry
        point — values are masked to their port, a missing name is 0, an
        unknown name is ignored — but a value that is not an integer is
        a :class:`~repro.errors.LaneConfigError` before anything runs.
        """
        return self._scalars(self._advance(1, self._pack, (inputs,)))[0]

    def step_arrays(
        self, inputs: Mapping[str, np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Simulate one cycle on every lane, arrays in and out.

        ``inputs`` maps PI names to ``(batch,)`` integer arrays, one
        value per lane (object dtype with Python ints for ports wider
        than 64 bits; a PI left out is 0 on every lane).  Returns that
        cycle's :meth:`outputs_arrays`.  A wrong lane count, an unknown
        PI name or a non-integer value raises
        :class:`~repro.errors.LaneConfigError` before any state is touched.
        """
        columns = {name: np.asarray(column)[None] for name, column in (inputs or {}).items()}
        po_rows = self._advance(1, self.engine.pack_block, self.loaded.pi_slices, columns, 1)
        return {name: column[0] for name, column in self._arrays(po_rows).items()}

    def step_lanes(
        self, inputs: Sequence[Mapping[str, int]] | Mapping[str, int] | None = None
    ) -> list[dict[str, int]]:
        """Simulate one cycle with per-lane stimulus; returns per-lane
        outputs.  ``inputs`` is either one mapping (broadcast to all
        lanes) or a sequence of exactly ``batch`` mappings, one per lane."""
        return self._lanes(self._advance(1, self._pack, (inputs,)))[0]

    def advance_lanes(
        self, inputs: Sequence[Mapping[str, int]] | Mapping[str, int] | None = None
    ) -> None:
        """:meth:`step_lanes` without the unpack: afterwards
        :meth:`outputs` / :meth:`outputs_arrays` / :meth:`outputs_lanes`
        read the cycle's settled outputs — pay only for the lanes and
        the form you need."""
        self._advance(1, self._pack, (inputs,))

    def run(self, stimuli: Iterable[Mapping[str, int]]) -> list[dict[str, int]]:
        """:meth:`step` over a stream, a block at a time (see :meth:`run_lanes`)."""
        return self._run(stimuli, self._scalars)

    def run_lanes(
        self, stimuli: Iterable[Sequence[Mapping[str, int]] | Mapping[str, int]]
    ) -> list[list[dict[str, int]]]:
        """Per-cycle, per-lane outputs for a stream of (per-lane) stimuli.

        ``stimuli`` is any iterable (its length is never asked for),
        consumed in blocks of :attr:`block_cycles` cycles, each validated
        and packed whole before it runs: a malformed vector raises with
        the state on a block boundary — the blocks before it simulated,
        none of its own — and :attr:`cycle` says which.
        """
        return self._run(stimuli, self._lanes)

    def _run(self, stimuli: Iterable, unpack) -> list:
        outputs: list = []
        stream = iter(stimuli)
        while chunk := list(itertools.islice(stream, self.block_cycles)):
            outputs += unpack(self._advance(len(chunk), self._pack, chunk))
        return outputs

    # -- observation ----------------------------------------------------------

    def attach_probe(self, tap) -> None:
        """Bind a signal tap (:class:`repro.obs.probe.ProbeTap`): its
        rows join the sample table, so every block samples them with the
        primary outputs at the settled point of each cycle — after the
        combinational waves (POs and cut values hold cycle-t results),
        before deferred commits land (FF bits still hold the state that
        *entered* the cycle): where the gate-level reference looks."""
        self._probe_tap = tap
        self._sample(np.concatenate([self.loaded.po_gidx, tap.plan.all_gidx]))

    def outputs(self) -> dict[str, int]:
        """Lane 0's primary output words."""
        return self._scalars(self._settled())[0]

    def outputs_arrays(self) -> dict[str, np.ndarray]:
        """Every lane's primary outputs, one ``(batch,)`` column per PO:
        ``uint64`` for ports of up to 64 bits, object dtype (Python ints)
        for wider ones."""
        return {name: column[0] for name, column in self._arrays(self._settled()).items()}

    def outputs_lanes(self) -> list[dict[str, int]]:
        """Primary output words of every lane."""
        return self._lanes(self._settled())[0]


def _decode_partition(words: np.ndarray, global_bits: int, index: int) -> _DecodedPartition:
    """Decode partition ``index``'s instruction stream into lane-free tables,
    every global bit, local slot and WB step / position held against what
    it indexes: a :class:`BitstreamError` at load, on every engine."""
    pos = 0
    stage = 0
    state_slots = 1
    read_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    layers: list[_DecodedLayer] = []
    gw_now: list[tuple[int, bool, int]] = []
    gw_deferred: list[tuple[int, bool, int]] = []
    ramops: list[_DecodedRamOp] = []
    pending_perm: list[tuple[np.ndarray, np.ndarray]] = []

    def check(values: np.ndarray, bound, what: str) -> None:
        """Every entry of ``values`` below ``bound`` (one limit, or one per entry)."""
        bad = np.flatnonzero(values >= bound)
        if bad.size:
            limit = np.broadcast_to(bound, values.shape)[bad[0]]
            raise BitstreamError(
                f"partition {index}: {opcode.name} at word {pos}: {what} "
                f"{int(values[bad[0]])} out of range (< {int(limit)})"
            )

    while pos < len(words):
        opcode, length, count = isa.parse_header(int(words[pos]))
        if pos + length > len(words):
            raise BitstreamError(
                f"{opcode.name} at word {pos} needs {length} words, the partition has {len(words)}"
            )
        inst = words[pos : pos + length]
        if opcode is isa.Opcode.INIT:
            info = isa.decode_init(inst)
            stage = info["stage"]
            state_slots = max(1, info["state_slots"])
        elif opcode is isa.Opcode.READ:
            gidx, slots, inv = isa.decode_read(inst, count)
            check(gidx, global_bits, "global bit")
            check(slots, state_slots, "local slot")
            read_chunks.append((gidx, slots, inv))
        elif opcode is isa.Opcode.PERM:
            leaves, slots = isa.decode_perm(inst, count)
            check(slots, state_slots, "local slot")
            pending_perm.append((leaves, slots))
        elif opcode is isa.Opcode.FOLD:
            eff = count
            xor_a, xor_b, or_b = isa.decode_fold(inst, eff)
            gather = np.zeros(1 << eff, dtype=np.int64)
            for leaves, slots in pending_perm:
                inside = leaves < (1 << eff)
                gather[leaves[inside]] = slots[inside]
            pending_perm = []
            layers.append(
                _DecodedLayer(
                    eff_width_log2=eff,
                    gather=gather,
                    xor_a=[constant_column(a) for a in xor_a],
                    xor_b=[constant_column(b) for b in xor_b],
                    or_b=[constant_column(o) for o in or_b],
                    writebacks=[
                        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
                        for _ in range(eff)
                    ],
                )
            )
        elif opcode is isa.Opcode.WB:
            if not layers:
                raise BitstreamError(f"partition {index}: WB at word {pos} precedes every FOLD")
            steps, positions, slots = isa.decode_wb(inst, count)
            layer = layers[-1]
            check(steps, layer.eff_width_log2, "fold step")
            check(positions, 1 << (layer.eff_width_log2 - 1 - steps), "fold position")
            check(slots, state_slots, "local slot")
            for s in range(layer.eff_width_log2):
                sel = steps == s
                if sel.any():
                    old_pos, old_slot = layer.writebacks[s]
                    layer.writebacks[s] = (
                        np.concatenate([old_pos, positions[sel]]),
                        np.concatenate([old_slot, slots[sel]]),
                    )
        elif opcode is isa.Opcode.GWRITE:
            slots, inv, gidx, deferred_flags = isa.decode_gwrite(inst, count)
            check(gidx, global_bits, "global bit")
            check(slots, state_slots, "local slot")
            for s, iv, g, d in zip(slots, inv, gidx, deferred_flags):
                (gw_deferred if d else gw_now).append((int(s), bool(iv), int(g)))
        elif opcode is isa.Opcode.RAMOP:
            ramops.append(_decode_ramop(isa.decode_ramop(inst)))
        else:  # pragma: no cover - parse_header already validates
            raise BitstreamError(f"unknown opcode {opcode}")
        pos += length

    def pack_reads() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not read_chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, constant_column([])
        g = np.concatenate([c[0] for c in read_chunks])
        s = np.concatenate([c[1] for c in read_chunks])
        i = np.concatenate([c[2] for c in read_chunks])
        return g, s, constant_column(i)

    def pack_gw(entries: list[tuple[int, bool, int]]):
        slots = np.array([e[0] for e in entries], dtype=np.int64)
        inv = constant_column([e[1] for e in entries])
        gidx = np.array([e[2] for e in entries], dtype=np.int64)
        return slots, inv, gidx

    read_gidx, read_slots, read_inv = pack_reads()
    return _DecodedPartition(
        stage=stage,
        state_slots=state_slots,
        read_gidx=read_gidx,
        read_slots=read_slots,
        read_inv=read_inv,
        layers=layers,
        gw_now=pack_gw(gw_now),
        gw_deferred=pack_gw(gw_deferred),
        ramops=ramops,
        instruction_words=len(words),
    )
