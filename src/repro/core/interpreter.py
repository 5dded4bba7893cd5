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

A cycle is evaluated by the stage-fused executor of
:mod:`repro.core.fused` — per-stage merged gathers, depth-grouped
liveness-compacted waves, RAM ports, coalesced commit tables — compiled
by the backend into one ``evaluate`` and one ``commit`` call per cycle
(docs/ENGINE.md §6); on the native backend those are the only two calls
that leave Python.  The scalar API moves its I/O the same way: ``step``
packs all primary inputs into one Python int for a single scatter and
reads all primary outputs back through a single gather.  The
ISA-literal per-partition evaluation of the same bitstream lives in
:class:`repro.simref.isa_interp.ReferenceInterpreter`, which subclasses
this class for everything but the evaluate/commit pair and is what the
differential tests and the fuzz oracle hold the executor against.

Program and state are two objects.  :func:`load_program` turns a
bitstream into a :class:`LoadedProgram` — parsed container
(:func:`repro.core.bitstream.parse_container` owns the format), I/O
plans, fused program: everything a load computes and no run changes.
The fused program is looked up before it is computed
(:func:`repro.core.fused.fused_program`: in-process memo, then the plan
file stored beside the compile cache, then decode + ``fuse()``), keyed
by the SHA-256 of the bitstream words, the batch and the loader's own
sources — so a Supervisor's primary+shadow pair and repeated
``GemSimulator`` instantiations share one fusion, and a process that
loads a design some earlier process loaded reads the plan instead of
re-deriving it.  Decoding is demand-driven: the instruction streams are
decoded (memoized under the same key, :func:`decode_cache_stats`) when
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
import operator
import time
import zlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core import isa
from repro.core.backend import resolve_backend
from repro.core.bitstream import Container, GemProgram, parse_container
from repro.core.engine import ExecutionEngine, _DecodedRamOp, _decode_ramop
from repro.core.fused import FusedProgram, cycle_buffers, fused_program, plan_key
from repro.errors import BitstreamError, LaneConfigError
from repro.obs.metrics import MemoTable
from repro.obs.trace import TRACER

_ONE = np.uint64(1)


@dataclass
class _DecodedLayer:
    eff_width_log2: int
    #: dense gather indices into local state, size 2**eff (0 = const slot)
    gather: np.ndarray
    #: per fold step: lane-masked uint64 constant words
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
    read_inv: np.ndarray  # uint64 lane masks
    layers: list[_DecodedLayer]
    #: immediate global writes: (slots, inv masks, gidx)
    gw_now: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: deferred global writes: (slots, inv masks, gidx)
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
        c = max(1, self.cycles)
        return {
            "instruction_words": self.instruction_words / c,
            "fold_steps": self.fold_steps / c,
            "permutation_bits": self.permutation_bits / c,
            "layer_syncs": self.layer_syncs / c,
            "device_syncs": self.device_syncs / c,
            "global_reads": self.global_reads / c,
            "global_writes": self.global_writes / c,
            "array_ops": self.array_ops / c,
            "fused_array_ops": self.fused_array_ops / c,
        }

    def per_lane_cycle(self) -> dict:
        """Per-cycle work amortized over the packed stimulus lanes."""
        lanes = max(1, self.lanes)
        return {key: value / lanes for key, value in self.per_cycle().items()}

    @property
    def lane_cycles(self) -> int:
        """Total simulated instance-cycles (cycles × lanes)."""
        return self.cycles * max(1, self.lanes)


#: Decoded-partition memoization, keyed like the fused plan
#: (:func:`repro.core.fused.plan_key`: bitstream SHA-256, batch, loader
#: sources).  The decoded tables are immutable at runtime, so sharing
#: them across interpreter instances (Supervisor primary+shadow, repeated
#: GemSimulator construction) is safe; batch is part of the key because
#: decoded constants embed the engine's active-lane mask.
_DECODES = MemoTable("decode", "partition-decode")
#: hit/miss counters of the decode cache, and its reset (tests, benchmarks)
decode_cache_stats = _DECODES.stats
clear_decode_cache = _DECODES.clear


def _decoded(key: tuple, container: Container, engine: ExecutionEngine) -> list[_DecodedPartition]:
    """``container``'s partitions decoded for ``engine`` (memoized), their
    RAM ports held against the container before anyone runs or fuses them."""

    def decode() -> list[_DecodedPartition]:
        with TRACER.span("decode", cat="compile", args={"partitions": len(container.partitions)}):
            partitions = [_decode_partition(words, engine) for words in container.partitions]
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
    key: tuple[str, int, str]
    #: per stage, the indices of its partitions
    stage_indices: list[list[int]]
    #: input port name -> global bit indices, LSB first
    pi_tables: dict[str, np.ndarray]
    # Lane I/O plan: every port's indices concatenated, so the per-lane
    # inject clears all PIs in one scatter and a cycle's all-lane readback
    # is one gather and one unpack, then one slice (name, lo, hi) of the
    # unpacked bit rows per PO.
    pi_gidx: np.ndarray
    po_gidx: np.ndarray
    po_slices: list[tuple[str, int, int]]
    # Scalar I/O plan: step() moves every PI / PO as one packed Python
    # int each way.  Port ``name`` owns bits [shift, shift + width) of
    # the word, in pi_gidx / po_gidx order; a stimulus bit becomes a word
    # through the two-entry table, and lane 0 of every PO bit is one flat
    # index into the state's words.
    pi_fields: dict[str, tuple[int, int]]  # name -> (shift, mask)
    po_fields: list[tuple[str, int, int]]  # (name, shift, mask)
    bit_words: np.ndarray
    po_lane0: np.ndarray
    fused: FusedProgram

    @functools.cached_property
    def partitions(self) -> list[_DecodedPartition]:
        """The decoded instruction streams, for whoever executes them
        literally (the reference and pruning interpreters).  The
        executor runs :attr:`fused` and never asks, so a load served
        from the fusion cache or the plan store decodes nothing; the
        first read decodes (through the shared memo) and can raise
        :class:`~repro.errors.BitstreamError`."""
        return _decoded(self.key, self.container, self.engine)


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
    key = plan_key(program.words, batch)
    bounds = np.cumsum([0, *container.stage_counts]).tolist()
    stage_indices = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    fused = fused_program(
        key, lambda: _decoded(key, container, engine), stage_indices, engine
    )
    _check_ram_ports(
        [port for plan in fused.stages for port in plan.ramops], fused.arena_span, container
    )

    def tables(index: dict[str, list[int]]) -> dict[str, np.ndarray]:
        return {name: np.asarray(bits, dtype=np.int64) for name, bits in index.items()}

    pi_tables, po_tables = tables(program.meta.pi_index), tables(program.meta.po_index)
    # (the empty tail keeps the concatenation defined for a design
    # without inputs or outputs)
    no_bits = np.zeros(0, dtype=np.int64)
    pi_gidx = np.concatenate([*pi_tables.values(), no_bits])
    po_gidx = np.concatenate([*po_tables.values(), no_bits])
    ends = np.cumsum([idx.size for idx in po_tables.values()]).tolist()
    po_slices = list(zip(po_tables, [0, *ends], ends))
    starts = np.cumsum([0, *(idx.size for idx in pi_tables.values())]).tolist()
    return LoadedProgram(
        program=program,
        container=container,
        engine=engine,
        key=key,
        stage_indices=stage_indices,
        pi_tables=pi_tables,
        pi_gidx=pi_gidx,
        po_gidx=po_gidx,
        po_slices=po_slices,
        pi_fields={
            name: (shift, (1 << idx.size) - 1)
            for (name, idx), shift in zip(pi_tables.items(), starts)
        },
        po_fields=[(name, lo, (1 << (hi - lo)) - 1) for name, lo, hi in po_slices],
        bit_words=np.array([0, engine.lane_mask], dtype=np.uint64),
        po_lane0=po_gidx * engine.words,
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

    #: packed lane words, shape (global_bits,) — (global_bits, K) beyond 64 lanes
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
        self.global_state[loaded.container.reset_ones] = loaded.engine.lane_mask
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
        SEU can corrupt between cycles.  Inactive lanes are identically
        zero by the engine's layout invariant, so the digest is
        deterministic at any batch size."""
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
    :attr:`phase_times` (``inject`` / ``gather`` / ``fold`` / ``commit``).

    ``backend`` selects how the executor runs a cycle
    (:mod:`repro.core.backend`): ``None`` (default) is the native C
    cycle kernel where a compiler or a cached build exists and the numpy
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
        self._executor = self.backend.compile_cycle(
            self._fused, cycle_buffers(self._fused, self.engine, self.state)
        )

    def _bind(self, loaded: LoadedProgram, profile: bool) -> None:
        """Join the shared program with a state of this instance's own.
        What ``step`` reads every cycle — the scalar I/O plan, the state
        arrays (never rebound) — is bound on the instance, one attribute
        load away; the rest goes through :attr:`loaded` and :attr:`state`."""
        self.loaded = loaded
        self.program = loaded.program
        self.engine = loaded.engine
        self.batch = loaded.engine.batch
        self.profile = profile
        self.phase_times = {"inject": 0.0, "gather": 0.0, "fold": 0.0, "commit": 0.0}
        self.state = state = SimState.power_on(loaded)
        self.global_state = state.global_state
        self.ram_arrays = state.ram_arrays
        self._state_words = state.global_state.reshape(-1)
        self._pi_fields = loaded.pi_fields
        self._pi_gidx = loaded.pi_gidx
        self._bit_words = loaded.bit_words
        self._po_fields = loaded.po_fields
        self._po_lane0 = loaded.po_lane0
        self._fused = loaded.fused
        #: optional per-cycle signal tap (repro.obs.probe.ProbeTap); the
        #: hot-loop cost while detached is one attribute check per step,
        #: mirroring the TRACER.enabled guard.
        self._probe_tap = None

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
        self.reset_phase_times()

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

    def reset_phase_times(self) -> None:
        """Zero the per-phase wall-clock timers (kept across ``step``
        calls so a run accumulates; call between measured runs)."""
        for phase in self.phase_times:
            self.phase_times[phase] = 0.0

    # -- execution ------------------------------------------------------------

    # -- stimulus injection ---------------------------------------------------

    def _inject_broadcast(self, inputs: Mapping[str, int] | None) -> None:
        """Write one input vector to every lane: the values packed into
        one word (masked to their ports; a missing name is 0, an unknown
        one ignored), one unpack, one scatter over every PI bit."""
        word = 0
        if inputs:
            fields = self._pi_fields
            index = operator.index  # a NumPy integer must not do the shift
            for name, value in inputs.items():
                field = fields.get(name)
                if field is not None:
                    word |= (index(value) & field[1]) << field[0]
        nbits = self._pi_gidx.size
        raw = np.frombuffer(word.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
        words = self._bit_words.take(np.unpackbits(raw, bitorder="little")[:nbits])
        self.global_state[self._pi_gidx] = words if self.engine.words == 1 else words[:, None]

    def _inject_lanes(
        self, inputs: Sequence[Mapping[str, int]] | Mapping[str, int] | None
    ) -> None:
        """The dict adapter's inject: one mapping (broadcast) or one per
        lane.  Tolerant like :meth:`step`: a missing name is 0, values
        are masked to the port width, unknown names are ignored."""
        if inputs is None or isinstance(inputs, Mapping):
            self._inject_broadcast(inputs)
            return
        if len(inputs) != self.batch:
            raise ValueError(
                f"expected {self.batch} per-lane input vectors, got {len(inputs)}"
            )
        # one pass over the lane dicts finds the PIs any lane drives; only
        # those get a per-lane column, every other PI is 0 on all lanes
        driven = set().union(*filter(None, inputs))
        engine = self.engine
        words = {}
        for name, idx in self.loaded.pi_tables.items():
            if name not in driven:
                continue
            column = [(vec or {}).get(name, 0) for vec in inputs]
            value = column[0]
            if column.count(value) == len(column):
                words[name] = engine.broadcast_int(value, idx.size)
            else:
                words[name] = engine.pack_lanes(column, idx.size)
        self._write_inputs(words)

    def _inject_arrays(self, inputs: Mapping[str, np.ndarray] | None) -> None:
        """The array API's inject: one ``(batch,)`` integer column per
        PI (a missing PI is 0), validated before any state is written."""
        words = {}
        pi_tables = self.loaded.pi_tables
        for name, column in (inputs or {}).items():
            idx = pi_tables.get(name)
            if idx is None:
                raise LaneConfigError(
                    f"unknown primary input {name!r}; have {sorted(pi_tables)}"
                )
            column = np.asarray(column)
            if column.shape != (self.batch,):
                raise LaneConfigError(
                    f"input {name!r}: expected one value per lane, shape "
                    f"({self.batch},), got {column.shape}"
                )
            if column.dtype.kind == "O":
                # Python ints, for ports wider than a machine word
                try:
                    column = [operator.index(v) for v in column]
                except TypeError:
                    raise LaneConfigError(
                        f"input {name!r}: object array holds non-integer values"
                    ) from None
            elif column.dtype.kind not in "iub":
                raise LaneConfigError(
                    f"input {name!r}: expected an integer array, got dtype {column.dtype}"
                )
            words[name] = self.engine.pack_lanes(column, idx.size)
        self._write_inputs(words)

    def _write_inputs(self, words: Mapping[str, np.ndarray]) -> None:
        """Scatter packed PI words; every PI not named is cleared."""
        gstate = self.global_state
        gstate[self._pi_gidx] = 0
        pi_tables = self.loaded.pi_tables
        for name, value in words.items():
            gstate[pi_tables[name]] = value

    # -- the cycle ------------------------------------------------------------

    def _evaluate(self) -> None:
        """Evaluate one cycle up to the settled point: every stage and its
        RAM ports.  The deferred writes wait in the executor for
        :meth:`_commit`."""
        writes = self._executor.evaluate(self.phase_times if self.profile else None)
        counters = self.state.counters
        work = self._fused.static
        counters.instruction_words += work.instruction_words
        counters.fold_steps += work.fold_steps
        counters.permutation_bits += work.permutation_bits
        counters.layer_syncs += work.layer_syncs
        counters.device_syncs += work.device_syncs
        counters.global_reads += work.global_reads
        counters.global_writes += work.global_writes + writes
        counters.array_ops += work.array_ops
        counters.fused_array_ops += work.fused_array_ops

    def _commit(self) -> None:
        """The cycle boundary: land the deferred writes (FF next states,
        RAM read data)."""
        self._executor.commit(self.phase_times if self.profile else None)

    def _cycle(self, inject, inputs, readback):
        """One simulated cycle: ``inject(inputs)``, evaluate, sample
        ``readback()`` at the settled point, commit.  When the global
        tracer is enabled the cycle is recorded as a span with per-phase
        children (the only hot-loop cost while it is disabled is this
        one check)."""
        if TRACER.enabled:
            return _trace_cycle(self, inject, inputs, readback)
        return self._cycle_impl(inject, inputs, readback)

    def _cycle_impl(self, inject, inputs, readback):
        if self.profile:
            t0 = time.perf_counter()
            inject(inputs)
            self.phase_times["inject"] += time.perf_counter() - t0
        else:
            inject(inputs)
        self._evaluate()
        if self._probe_tap is not None:
            self._probe_tap.capture(self)
        outs = readback()
        self._commit()
        state = self.state
        state.counters.cycles += 1
        state.cycle += 1
        return outs

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        """Simulate one cycle; returns the settled primary output words.

        With ``batch > 1`` the inputs are broadcast to every lane and the
        returned outputs are lane 0's (all lanes see identical stimulus
        unless the lane API is used).  Scalar I/O moves as one packed
        word each way — all inputs in one scatter, all outputs in one
        gather — and is tolerant: values are masked to their port, a
        missing name is 0, an unknown name is ignored.
        """
        return self._cycle(self._inject_broadcast, inputs, self.outputs)

    def step_arrays(
        self, inputs: Mapping[str, np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Simulate one cycle on every lane, arrays in and out.

        ``inputs`` maps PI names to ``(batch,)`` integer arrays, one
        value per lane (object dtype with Python ints for ports wider
        than 64 bits; a PI left out is 0 on every lane).  Returns
        :meth:`outputs_arrays`.  A wrong lane count, an unknown PI name
        or a non-integer dtype raises :class:`~repro.errors.LaneConfigError`
        before any state is touched.
        """
        return self._cycle(self._inject_arrays, inputs, self.outputs_arrays)

    def step_lanes(
        self, inputs: Sequence[Mapping[str, int]] | Mapping[str, int] | None = None
    ) -> list[dict[str, int]]:
        """Simulate one cycle with per-lane stimulus; returns per-lane outputs.

        The dict adapter over the array path: ``inputs`` is either one
        mapping (broadcast to all lanes) or a sequence of exactly
        ``batch`` mappings, one per lane.
        """
        return self._cycle(self._inject_lanes, inputs, self.outputs_lanes)

    def advance_lanes(
        self, inputs: Sequence[Mapping[str, int]] | Mapping[str, int] | None = None
    ) -> None:
        """:meth:`step_lanes` without the readback.

        Primary outputs live in their own global-state slots, written
        during evaluation and never by the commit, so after this call
        :meth:`outputs` / :meth:`outputs_arrays` / :meth:`outputs_lanes`
        read the cycle's settled outputs — pay only for the lanes and
        the form you need.
        """
        self._cycle(self._inject_lanes, inputs, _no_readback)

    # -- observation ----------------------------------------------------------

    def attach_probe(self, tap) -> None:
        """Bind a signal tap (:class:`repro.obs.probe.ProbeTap`).

        The tap's ``capture`` runs once per cycle at the settled point:
        after the combinational waves (POs and cut values hold cycle-t
        results) but before deferred commits land (FF bits still hold the
        state that *entered* the cycle) — the exact observation point of
        the gate-level reference right after its first settle.
        """
        self._probe_tap = tap

    def detach_probe(self) -> None:
        self._probe_tap = None

    def outputs(self) -> dict[str, int]:
        """Lane 0's primary output words: one gather over every PO bit,
        packed into one word, one shift and mask per port."""
        bits = (self._state_words.take(self._po_lane0) & _ONE).astype(np.uint8)
        word = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        return {name: (word >> shift) & mask for name, shift, mask in self._po_fields}

    def outputs_arrays(self) -> dict[str, np.ndarray]:
        """Every lane's primary outputs, one ``(batch,)`` column per PO:
        ``uint64`` for ports of up to 64 bits, object dtype (Python ints)
        for wider ones.  One gather and one unpack for the whole cycle,
        one pack per port."""
        engine, loaded = self.engine, self.loaded
        bits = engine.unpack_lanes(self.global_state[loaded.po_gidx])
        return {name: engine.lane_ints(bits[lo:hi]) for name, lo, hi in loaded.po_slices}

    def outputs_lanes(self) -> list[dict[str, int]]:
        """Primary output words of every lane (the dict adapter over
        :meth:`outputs_arrays`)."""
        columns = self.outputs_arrays()
        rows = zip(*(column.tolist() for column in columns.values()))
        return [dict(zip(columns, row)) for row in rows]

    def run(self, stimuli: Iterable[Mapping[str, int]]) -> list[dict[str, int]]:
        return [self.step(vec) for vec in stimuli]

    def run_lanes(
        self, stimuli: Iterable[Sequence[Mapping[str, int]] | Mapping[str, int]]
    ) -> list[list[dict[str, int]]]:
        """Per-cycle, per-lane outputs for a stream of (per-lane) stimuli."""
        return [self.step_lanes(vec) for vec in stimuli]


def _no_readback() -> None:
    """:meth:`GemInterpreter.advance_lanes` reads nothing back."""


def _trace_cycle(interp: GemInterpreter, inject, inputs, readback):
    """Run one cycle under the span tracer.

    Tracing implies per-phase timing: the profile timers are forced on
    for the cycle so the emitted span carries inject/gather/fold/commit
    children derived from the ``phase_times`` deltas.  The timers keep
    their accumulated totals (tracing surfaces them, it never hides
    work), and ``profile`` is restored afterwards.
    """
    t0 = time.perf_counter()
    before = dict(interp.phase_times)
    prev_profile = interp.profile
    interp.profile = True
    try:
        out = interp._cycle_impl(inject, inputs, readback)
    finally:
        interp.profile = prev_profile
    dur = time.perf_counter() - t0
    phases = {k: interp.phase_times[k] - before[k] for k in before}
    TRACER.cycle(interp.cycle - 1, t0, dur, phases)
    return out


def _decode_partition(words: np.ndarray, engine: ExecutionEngine) -> _DecodedPartition:
    """Decode one partition's instruction stream into lane-masked tables."""
    pos = 0
    stage = 0
    state_slots = 0
    read_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    layers: list[_DecodedLayer] = []
    gw_now: list[tuple[int, bool, int]] = []
    gw_deferred: list[tuple[int, bool, int]] = []
    ramops: list[_DecodedRamOp] = []
    pending_perm: list[tuple[np.ndarray, np.ndarray]] = []

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
            state_slots = info["state_slots"]
        elif opcode is isa.Opcode.READ:
            read_chunks.append(isa.decode_read(inst, count))
        elif opcode is isa.Opcode.PERM:
            pending_perm.append(isa.decode_perm(inst, count))
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
                    xor_a=[engine.const_mask(a) for a in xor_a],
                    xor_b=[engine.const_mask(b) for b in xor_b],
                    or_b=[engine.const_mask(o) for o in or_b],
                    writebacks=[
                        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
                        for _ in range(eff)
                    ],
                )
            )
        elif opcode is isa.Opcode.WB:
            steps, positions, slots = isa.decode_wb(inst, count)
            layer = layers[-1]
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
            for s, iv, g, d in zip(slots, inv, gidx, deferred_flags):
                (gw_deferred if d else gw_now).append((int(s), bool(iv), int(g)))
        elif opcode is isa.Opcode.RAMOP:
            ramops.append(_decode_ramop(isa.decode_ramop(inst), engine))
        else:  # pragma: no cover - parse_header already validates
            raise BitstreamError(f"unknown opcode {opcode}")
        pos += length

    def pack_reads() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not read_chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, engine.const_mask(np.zeros(0, dtype=bool))
        g = np.concatenate([c[0] for c in read_chunks])
        s = np.concatenate([c[1] for c in read_chunks])
        i = np.concatenate([c[2] for c in read_chunks])
        return g, s, engine.const_mask(i)

    def pack_gw(entries: list[tuple[int, bool, int]]):
        if not entries:
            empty = np.zeros(0, dtype=np.int64)
            return empty.copy(), engine.const_mask(np.zeros(0, dtype=bool)), empty.copy()
        slots = np.array([e[0] for e in entries], dtype=np.int64)
        inv = engine.const_mask(np.array([e[1] for e in entries], dtype=bool))
        gidx = np.array([e[2] for e in entries], dtype=np.int64)
        return slots, inv, gidx

    read_gidx, read_slots, read_inv = pack_reads()
    return _DecodedPartition(
        stage=stage,
        state_slots=max(1, state_slots),
        read_gidx=read_gidx,
        read_slots=read_slots,
        read_inv=read_inv,
        layers=layers,
        gw_now=pack_gw(gw_now),
        gw_deferred=pack_gw(gw_deferred),
        ramops=ramops,
        instruction_words=len(words),
    )
