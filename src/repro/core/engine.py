"""Packed-word lane engine: ``batch`` stimulus streams per bitwise op.

The paper's Observation 3 is that every boolean vector operation of the
interpreter stands in for one 32-bit bitwise GPU instruction per thread.
A ``dtype=bool`` NumPy lane therefore wastes 63/64 of every machine word
on a single simulation instance.  :class:`ExecutionEngine` recovers that
headroom the way word-packed batched-stimulus simulators do (GATSPI's
packed gate evaluation, Parendi's thousand-way RTL batches — see
PAPERS.md): every element of global state, every partition-local slot,
and every fold operand is a ``uint64`` word whose bit ``l`` carries lane
``l``'s value, so one XOR/AND/OR evaluates up to 64 independent stimulus
streams at once.

State is **K-word lane planes** at every batch: an element is a row of
``K`` words, ``K = 1`` up to 64 lanes and ``K = batch // 64`` beyond,
lane ``l`` living in word ``l // 64`` at bit ``l % 64`` (word-major).
Batches beyond 64 must be a whole number of words (``batch = K×64``
exactly), so only a batch below 64 has lanes beyond the batch.

Layout invariants the rest of the runtime relies on:

* global state, trace, arena and blocks are ``(rows, K)`` words, and
  lane ``l`` of element ``i`` is ``(state[i, l // 64] >> (l % 64)) & 1``;
* the program is lane-free: every decoded constant is ``0`` or
  :data:`ALL_ONES` (:func:`constant_column`), the same tables at every
  batch;
* lanes ``>= batch`` are lanes nobody reads.  They keep executing,
  deterministically: their stimulus bits are packed as zero and their
  RAM ports never fire (the enables are masked to
  :attr:`ExecutionEngine.lane_mask`), so a stream gives the same words
  in them on every engine, and whole-word digests and checkpoints are
  reproducible.  Outputs, per-lane digests, probes and activity look at
  lanes ``< batch`` only;
* a quarantined lane is a lane of the batch: it is zeroed at quarantine
  and keeps running on its own stimulus and RAM ports, and outputs,
  per-lane digests and probes still report it.

The conversion helpers use ``int.to_bytes``/``np.unpackbits`` rather than
per-bit Python loops and accept leading axes, so the **pack layer** over
them (``pack_block`` / ``unpack_block``: integer columns to and from the
``(cycles, rows, K)`` blocks a backend runs) converts a block per call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import LaneConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import isa

#: lanes carried by one packed word (the GPU register width GEM targets)
WORD_LANES = 64

#: most words per lane plane — bounds batch at 64 × 64 = 4096 lanes, the
#: point past which (batch, depth) RAM images stop fitting comfortably
MAX_LANE_WORDS = 64

#: a program constant of 1: the word with every lane set
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_LE64 = np.dtype("<u8")


def validate_batch(batch: int) -> int:
    """Check a batch size and return its lane-plane word count ``K``.

    ``batch <= 64`` packs into one word (``K == 1``, possibly partially
    populated); larger batches must be a whole number of 64-lane words
    so every word of the plane stays fully active.
    """
    if batch < 1:
        # the historical message, kept verbatim for batch<=64 callers
        raise LaneConfigError(f"batch must be in [1, {WORD_LANES}], got {batch}")
    if batch <= WORD_LANES:
        return 1
    words, rem = divmod(batch, WORD_LANES)
    if rem:
        raise LaneConfigError(
            f"batch {batch} is not a whole number of {WORD_LANES}-lane words: "
            f"batches beyond {WORD_LANES} must be K*{WORD_LANES} "
            f"with K <= {MAX_LANE_WORDS}"
        )
    if words > MAX_LANE_WORDS:
        raise LaneConfigError(
            f"batch {batch} exceeds the {MAX_LANE_WORDS}-word lane-plane limit "
            f"({MAX_LANE_WORDS * WORD_LANES} lanes)"
        )
    return words


#: value systems the engine stack executes: 2-state, or 4-state via the
#: dual-rail compile transform (see :mod:`repro.fourstate.fastpath`)
SUPPORTED_VALUES = (2, 4)


def validate_values(values: int) -> int:
    if values not in SUPPORTED_VALUES:
        raise ValueError(
            f"values must be one of {SUPPORTED_VALUES}, got {values!r}"
        )
    return values


class Port(NamedTuple):
    """Where a port sits in a block whose rows are every port's bits
    concatenated — rows ``[lo, hi)`` — and in its unpacked form, each
    port padded to whole 64-bit fields: ``[field, field + nfields)``."""

    lo: int
    hi: int
    mask: int  # (1 << width) - 1
    field: int
    nfields: int

    @classmethod
    def after(cls, prev: "Port | None", width: int) -> "Port":
        lo, field = (prev.hi, prev.field + prev.nfields) if prev else (0, 0)
        return cls(lo, lo + width, (1 << width) - 1, field, max(1, -(-width // 64)))


def port_slices(tables: Mapping[str, np.ndarray]) -> dict[str, Port]:
    """The block layout of ``tables`` (port name -> global bit indices), in order."""
    ports, prev = {}, None
    for name, idx in tables.items():
        ports[name] = prev = Port.after(prev, idx.size)
    return ports


def _last(ports: Mapping[str, Port]) -> Port:
    """The last port: its ``hi`` / ``field + nfields`` size a block."""
    return next(reversed(ports.values()), Port(0, 0, 0, 0, 0))


def _port_ints(ports: Mapping[str, Port], bits: np.ndarray) -> dict[str, np.ndarray]:
    """One ``(n, lanes)`` integer column per port from a block's
    lanes-major bits ``(n, lanes, rows)``: one strided copy per port into
    a matrix padding it to whole 64-bit fields, one ``np.packbits``."""
    last = _last(ports)
    padded = np.zeros((*bits.shape[:2], (last.field + last.nfields) * 64), dtype=np.uint8)
    for lo, hi, _, field, _ in ports.values():
        padded[:, :, field * 64 : field * 64 + hi - lo] = bits[:, :, lo:hi]
    values = np.packbits(padded, axis=-1, bitorder="little").view(_LE64)
    values = values.astype(np.uint64, copy=False)  # (n, lanes, fields)
    columns = {}
    for name, port in ports.items():
        if port.nfields == 1:
            columns[name] = values[:, :, port.field]
        else:  # wider than a word: Python ints, field by field
            parts = values[:, :, port.field : port.field + port.nfields].astype(object)
            columns[name] = sum(parts[:, :, i] << (64 * i) for i in range(port.nfields))
    return columns


def constant_column(flags) -> np.ndarray:
    """Decoded boolean program constants as words — ``0`` or
    :data:`ALL_ONES` — in an ``(n, 1)`` column that broadcasts across any
    ``(n, K)`` plane.  The same at every batch: what a constant does in
    lanes beyond the batch, nobody reads."""
    return np.where(np.asarray(flags, dtype=bool), ALL_ONES, _ZERO)[:, None]


class ExecutionEngine:
    """Word-level ALU for ``batch`` packed stimulus lanes.

    Owns the packed-lane representation: how per-lane integers (primary
    inputs, RAM addresses and data) convert to and from bit-plane words,
    which lanes a RAM port may touch, and the fold step itself.  The
    interpreter holds the decoded program — the same at every batch — and
    drives these primitives.

    State is ``(n, K)`` at every batch, and :attr:`lane_mask` names the
    lanes of the batch (a partial word only below 64 lanes).  An engine
    is pure lane geometry, immutable once built — the loader shares one
    with every interpreter of a program at one batch, and what a run
    changes (which lanes are quarantined included) lives in the
    interpreter's ``SimState``.

    **Four-state (dual-rail) execution.**  ``values=4`` designs are
    compiled through :func:`repro.fourstate.dualrail.to_dual_rail`, which
    lowers every 4-state net into two ordinary 2-state nets — a value
    rail and a known (``__u``) rail — *before* the program reaches this
    engine.  Both rails occupy regular slots in the same packed lane
    planes, so X/Z propagation costs exactly one extra net per 4-state
    net and zero new fold primitives: lane packing, quarantine keep
    masks, digests and checkpoints treat the known rail like any other
    state word.
    """

    def __init__(self, batch: int = 1) -> None:
        #: lane-plane width: state elements are ``(n, words)`` rows
        self.words = validate_batch(batch)
        self.batch = batch
        #: the lanes of the batch, bit ``l`` set for every lane ``l < batch``
        #: (one word: a plane beyond 64 lanes is full) — what RAM-port
        #: enables and stimulus every lane shares are masked to
        self.lane_mask = ALL_ONES if batch >= WORD_LANES else np.uint64((1 << batch) - 1)
        #: a stimulus bit every lane shares, as a packed plane row
        self._bit_words = np.zeros((2, self.words), dtype=np.uint64)
        self._bit_words[1] = self.lane_mask

    @staticmethod
    def lane_coords(lane: int) -> tuple[int, int]:
        """``(word, bit)`` coordinates of a lane in a K-word plane."""
        return divmod(lane, WORD_LANES)

    def lanes_mask(self, lanes: Iterable[int]) -> np.ndarray:
        """The ``(K,)`` plane row with exactly ``lanes``' bits set (lane
        quarantine zeroes state under its complement).  A lane outside
        the batch is a ``ValueError``."""
        plane = np.zeros(self.words, dtype=np.uint64)
        for lane in lanes:
            if not 0 <= lane < self.batch:
                raise ValueError(f"lane {lane} out of range for batch {self.batch}")
            word, bit = self.lane_coords(lane)
            plane[word] |= _ONE << np.uint64(bit)
        return plane

    # -- state allocation -----------------------------------------------------

    def zeros(self, n: int) -> np.ndarray:
        """``n`` packed state elements: an ``(n, K)`` plane."""
        return np.zeros((n, self.words), dtype=np.uint64)

    # -- the hot-loop primitive ----------------------------------------------

    @staticmethod
    def fold_step(
        vec: np.ndarray, xor_a: np.ndarray, xor_b: np.ndarray, or_b: np.ndarray
    ) -> np.ndarray:
        """One boomerang fold: halves ``vec``, all lanes in parallel."""
        return (vec[0::2] ^ xor_a) & ((vec[1::2] ^ xor_b) | or_b)

    # -- integers <-> packed bit-plane words ----------------------------------

    def pack_lanes(self, values: "Sequence[int] | np.ndarray", nbits: int) -> np.ndarray:
        """Per-lane integers to packed words (arbitrary width).

        ``values`` holds one integer per lane along its last axis —
        ``(batch,)`` for one cycle, ``(n, batch)`` for a block — as an
        integer array or (nested) sequence of Python ints of any size,
        masked to ``nbits``.  The one integer rule of every stimulus
        entry point: a value is what ``operator.index`` accepts (NumPy
        integers and bools included), anything else a
        :class:`~repro.errors.LaneConfigError`.  One ``np.unpackbits``
        and one ``np.packbits`` along the lane axis — the inverse of
        :meth:`unpack_lanes`.  Returns ``(..., nbits, K)`` planes; the
        bits of lanes beyond the batch are zero.
        """
        column = np.asarray(values)
        if column.dtype.kind not in "iub" and not isinstance(values, np.ndarray):
            # (a sequence mixing magnitudes must not pass through float64)
            column = np.asarray(values, dtype=object)
        if column.dtype.kind not in "iubO":
            raise LaneConfigError(f"expected an integer array, got dtype {column.dtype}")
        if column.shape[-1:] != (self.batch,):
            raise LaneConfigError(
                f"expected one value per lane, shape ({self.batch},), got {column.shape[-1:]}"
            )
        nbytes = (nbits + 7) // 8
        if column.dtype != object and nbits <= 64:
            # two's-complement wrap then the bit slice below = the mask
            mat = column.astype(_LE64).view(np.uint8).reshape(*column.shape, 8)[..., :nbytes]
        else:  # wider than a machine word, or ints beyond 64 bits to mask
            vmask = (1 << nbits) - 1
            try:
                raw = b"".join(
                    (operator.index(v) & vmask).to_bytes(nbytes, "little")
                    for v in column.ravel().tolist()
                )
            except TypeError as exc:
                raise LaneConfigError(f"holds non-integer values ({exc})") from None
            mat = np.frombuffer(raw, dtype=np.uint8).reshape(*column.shape, nbytes)
        bits = np.unpackbits(mat, axis=-1, bitorder="little")[..., :nbits]
        # a contiguous copy first: packbits along a strided axis is several
        # times slower than copy + pack
        lanes = np.ascontiguousarray(np.swapaxes(bits, -1, -2))
        rows = np.zeros((*lanes.shape[:-1], 8 * self.words), dtype=np.uint8)
        packed = np.packbits(lanes, axis=-1, bitorder="little")
        rows[..., : packed.shape[-1]] = packed
        return rows.view(_LE64).astype(np.uint64, copy=False)

    def unpack_lanes(self, words: np.ndarray) -> np.ndarray:
        """Packed ``(..., K)`` planes to the per-lane bit matrix, shape
        ``(..., batch)`` uint8: the last axis holds one element's bit in
        every lane.  One ``np.unpackbits`` over the words' bytes — no
        per-lane shift."""
        lead = words.shape[:-1]
        raw = np.ascontiguousarray(words, dtype=_LE64).view(np.uint8)
        bits = np.unpackbits(raw.reshape(*lead, 8 * self.words), axis=-1, bitorder="little")
        return bits[..., : self.batch]

    @staticmethod
    def lane_ints(bits: np.ndarray) -> np.ndarray:
        """Per-lane integers of one port from its rows of
        :meth:`unpack_lanes`, shape ``(batch,)``: ``uint64`` for ports of
        up to 64 bits, object dtype (Python ints) for wider ones."""
        return _port_ints({"": Port.after(None, bits.shape[0])}, bits.T[None])[""][0]

    # -- the pack layer: integers <-> (cycles, rows, K) blocks -------------------

    def pack_block(
        self, ports: Mapping[str, Port], columns: Mapping[str, object], n: int
    ) -> np.ndarray:
        """``n`` cycles of stimulus as one block of packed words, ``(n,
        rows, K)``, whose rows are ``ports``' bits (:func:`port_slices`).
        ``columns`` maps port names to ``(n, batch)`` integers in any form
        :meth:`pack_lanes` takes; a port left out is 0 everywhere.  A name
        that is no port, a shape that does not fit or a value that is no
        integer is a :class:`~repro.errors.LaneConfigError` naming the
        port."""
        rows = _last(ports).hi
        block = np.zeros((n, rows, self.words), dtype=np.uint64)
        for name, column in columns.items():
            if name not in ports:
                raise LaneConfigError(f"unknown primary input {name!r}; have {sorted(ports)}")
            lo, hi = ports[name][:2]
            try:
                words = self.pack_lanes(column, hi - lo)
            except LaneConfigError as exc:
                raise LaneConfigError(f"input {name!r}: {exc}") from None
            if words.shape[0] != n or words.ndim != block.ndim:
                raise LaneConfigError(f"input {name!r}: {np.shape(column)} is not ({n}, lanes)")
            block[:, lo:hi] = words
        return block

    def unpack_block(self, ports: Mapping[str, Port], block: np.ndarray) -> dict[str, np.ndarray]:
        """The inverse of :meth:`pack_block` for a sampled block: one
        ``(n, batch)`` integer column per port.  One ``np.unpackbits``
        for the block, one ``np.packbits`` for all ports — the number of
        NumPy calls does not depend on ``n``."""
        return _port_ints(ports, self.unpack_lanes(block).transpose(0, 2, 1))

    def pack_scalars(
        self, ports: Mapping[str, Port], rows: Sequence[Mapping[str, int] | None]
    ) -> np.ndarray:
        """:meth:`pack_block` for stimulus every lane shares: one ``port
        -> value`` mapping per cycle (``None``: all zero; a name that is
        no port is ignored).  A cycle travels as one Python int — masked
        per port, any width, the same integer rule — and the block is one
        ``np.unpackbits``, each bit widened to a plane row of the batch's
        lanes."""
        rows_bits = _last(ports).hi
        nbytes = (rows_bits + 7) // 8
        index, raw = operator.index, []
        try:
            for row in rows:
                word = 0
                for name, value in (row or {}).items():
                    if name in ports:
                        lo, _, mask, _, _ = ports[name]
                        word |= (index(value) & mask) << lo
                raw.append(word.to_bytes(nbytes, "little"))
        except TypeError as exc:
            raise LaneConfigError(f"input {name!r}: holds non-integer values ({exc})") from None
        mat = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(len(rows), nbytes)
        return self._bit_words[np.unpackbits(mat, axis=1, bitorder="little")[:, :rows_bits]]

    def unpack_scalars(self, ports: Mapping[str, Port], block: np.ndarray) -> list[dict[str, int]]:
        """Lane 0's words of a sampled block, one ``port -> value`` dict
        per cycle: one mask over each row's first word, one ``np.packbits``
        per block, one Python int per cycle, a shift and mask per port."""
        packed = np.packbits((block[..., 0] & _ONE).astype(np.uint8), axis=1, bitorder="little")
        nbytes, raw = packed.shape[1], packed.tobytes()
        fields = [(name, port.lo, port.mask) for name, port in ports.items()]
        out = []
        for i in range(len(block)):
            word = int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little")
            out.append({name: (word >> lo) & mask for name, lo, mask in fields})
        return out

    def lane_bits(self, word) -> np.ndarray:
        """One ``(K,)`` plane row split into per-lane bits, shape
        ``(batch,)``."""
        return self.unpack_lanes(np.asarray(word, dtype=np.uint64))

    def lane_values(self, words: np.ndarray) -> np.ndarray:
        """Per-lane small integers (RAM addresses/data) from bit planes
        (``words[i]`` = bit ``i`` of every lane); inverse: :meth:`pack_lanes`."""
        return self.lane_ints(self.unpack_lanes(words))

    # -- RAM ports --------------------------------------------------------------

    def ram_port(self, op, local: np.ndarray, image: np.ndarray):
        """One RAM port, all lanes at once, addresses computed per lane.

        ``op`` is a decoded RAMOP (slot / inversion tables into ``local``,
        the block-local state or its arena view), ``image`` the block's
        ``(batch, depth)`` per-lane contents.  Read-first semantics: the
        read samples the array *before* this port's write lands, lane by
        lane.  Only the batch's lanes fire.  Returns the deferred
        read-data commit ``(gidx, values, read-enable lane mask)`` for
        :meth:`merge`, or ``None`` when no lane reads this cycle.
        """
        # (K,) plane rows: .any() gates them without the ambiguous array truthiness
        ren = (local[op.ren_slot] ^ op.ren_inv) & self.lane_mask
        wen = (local[op.wen_slot] ^ op.wen_inv) & self.lane_mask
        read = None
        if ren.any():
            raddr = self.lane_values(local[op.raddr_slots] ^ op.raddr_inv)
            lanes = np.nonzero(self.lane_bits(ren))[0]
            sampled = np.zeros(self.batch, dtype=np.uint64)
            sampled[lanes] = image[lanes, raddr[lanes]]  # before the write
            read = (op.rd_gidx, self.pack_lanes(sampled, op.spec.data_bits), ren)
        if wen.any():
            waddr = self.lane_values(local[op.waddr_slots] ^ op.waddr_inv)
            wdata = self.lane_values(local[op.wdata_slots] ^ op.wdata_inv)
            lanes = np.nonzero(self.lane_bits(wen))[0]
            image[lanes, waddr[lanes]] = wdata[lanes].astype(image.dtype)
        return read

    # -- deferred-write commit ------------------------------------------------

    @staticmethod
    def merge(dst: np.ndarray, gidx: np.ndarray, values: np.ndarray, mask) -> None:
        """Commit a deferred scatter; ``mask`` (a ``(K,)`` plane row, or
        ``None``) restricts the merge to the lanes whose write enable was
        set — the per-lane generalization of 'no deferred write at all'."""
        if mask is None:
            dst[gidx] = values
        else:
            dst[gidx] = (dst[gidx] & ~mask) | (values & mask)


# -- decoded RAM ports ----------------------------------------------------------
#
# The table form of a RAMOP that :meth:`ExecutionEngine.ram_port` and the
# backends run.  It is a function of the port's spec alone, so the
# instruction decoder and the plan store (which persists specs,
# :mod:`repro.core.fused`) both build it here.


@dataclass
class _DecodedRamOp:
    """A RAM port with decode-time index/inversion tables (no per-bit loops)."""

    spec: isa.RamOp
    raddr_slots: np.ndarray
    raddr_inv: np.ndarray  # constant column, one word per address bit
    waddr_slots: np.ndarray
    waddr_inv: np.ndarray
    wdata_slots: np.ndarray
    wdata_inv: np.ndarray
    ren_slot: int
    ren_inv: np.uint64  # 0 or ALL_ONES
    wen_slot: int
    wen_inv: np.uint64
    rd_gidx: np.ndarray


def _decode_ramop(op: isa.RamOp) -> _DecodedRamOp:
    """Precompute index/inversion tables for one RAM port."""

    def refs(pairs: list[tuple[int, bool]]) -> tuple[np.ndarray, np.ndarray]:
        slots = np.array([slot for slot, _ in pairs], dtype=np.int64)
        return slots, constant_column([inv for _, inv in pairs])

    raddr_slots, raddr_inv = refs(op.raddr)
    waddr_slots, waddr_inv = refs(op.waddr)
    wdata_slots, wdata_inv = refs(op.wdata)
    return _DecodedRamOp(
        spec=op,
        raddr_slots=raddr_slots,
        raddr_inv=raddr_inv,
        waddr_slots=waddr_slots,
        waddr_inv=waddr_inv,
        wdata_slots=wdata_slots,
        wdata_inv=wdata_inv,
        ren_slot=op.ren[0],
        ren_inv=ALL_ONES if op.ren[1] else _ZERO,
        wen_slot=op.wen[0],
        wen_inv=ALL_ONES if op.wen[1] else _ZERO,
        rd_gidx=np.arange(op.rd_global_base, op.rd_global_base + op.data_bits),
    )
