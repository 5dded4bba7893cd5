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

Batches beyond 64 lanes use **K-word lane planes**: state elements
become shape ``(..., K)`` rows of ``K = batch // 64`` words, lane ``l``
living in word ``l // 64`` at bit ``l % 64`` (word-major).  Such batches
must be a whole number of words (``batch = K×64`` exactly), which keeps
every word fully populated — the active-lane mask stays the scalar
all-ones word and decoded constant tables stay one word per element,
broadcasting across the plane via a trailing ``(n, 1)`` axis.

Layout invariants the rest of the runtime relies on:

* lane ``l`` of element ``i`` is ``(state[i] >> l) & 1`` for ``K == 1``
  and ``(state[i, l // 64] >> (l % 64)) & 1`` for ``K > 1``;
* lanes ``>= batch`` (the inactive lanes, ``K == 1`` only) are
  identically zero — fold constants are masked to
  :attr:`ExecutionEngine.lane_mask`, so garbage can never propagate into
  them and whole-word comparisons (state digests, pruning source caches,
  checkpoints) stay deterministic;
* at ``batch == 1`` every word is ``0`` or ``1`` and the engine is
  bit-for-bit the old boolean interpreter (the compatibility the
  single-instance ``step(dict) -> dict`` API keeps verbatim);
* at ``batch <= 64`` arrays keep their historical 1-D shape, so the
  single-word path is byte-identical to the pre-plane engine.

The conversion helpers use ``int.to_bytes``/``np.unpackbits`` rather than
per-bit Python loops, so primary-input injection and output extraction
are vectorized even at ``batch == 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import LaneConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import isa

#: lanes carried by one packed word (the GPU register width GEM targets)
WORD_LANES = 64

#: most words per lane plane — bounds batch at 64 × 64 = 4096 lanes, the
#: point past which (batch, depth) RAM images stop fitting comfortably
MAX_LANE_WORDS = 64

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)


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


def int_to_bits(value: int, nbits: int) -> np.ndarray:
    """Little-endian bit vector of ``value`` (bool, vectorized, any width)."""
    nbytes = (nbits + 7) // 8
    raw = np.frombuffer(
        (value & ((1 << nbits) - 1)).to_bytes(nbytes, "little"), dtype=np.uint8
    )
    return np.unpackbits(raw, bitorder="little")[:nbits].astype(bool)


def bits_to_int(bits: np.ndarray) -> int:
    """Inverse of :func:`int_to_bits` (accepts any 0/1 integer array)."""
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _transpose_bits(bits: np.ndarray, row_bytes: int) -> np.ndarray:
    """Transpose a 0/1 ``uint8`` matrix and pack each row of the result
    into ``row_bytes`` little-endian bytes (zero padded): the one step
    both directions of the lane <-> integer conversion share."""
    # a contiguous copy first: packbits along a strided axis is several
    # times slower than copy + pack
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    if packed.shape[1] == row_bytes:
        return packed
    rows = np.zeros((packed.shape[0], row_bytes), dtype=np.uint8)
    rows[:, : packed.shape[1]] = packed
    return rows


class ExecutionEngine:
    """Word-level ALU for ``batch`` packed stimulus lanes.

    Owns the packed-lane representation: how constants broadcast across
    lanes, how per-lane integers (primary inputs, RAM addresses and data)
    convert to and from bit-plane words, and the fold step itself.  The
    interpreter holds the decoded program and drives these primitives.

    ``batch <= 64`` keeps the historical single-word layout: 1-D
    ``(n,)`` arrays and a partial :attr:`lane_mask`.  ``batch > 64``
    switches to K-word planes: ``(n, K)`` arrays and an all-ones
    :attr:`lane_mask` (every word fully active).  An engine is pure lane
    geometry, immutable once built — the loader shares one with every
    interpreter of a program, and what a run changes (which lanes are
    quarantined included) lives in the interpreter's ``SimState``.

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
        #: lane-plane width: state elements are ``(n,)`` words for
        #: ``words == 1`` and ``(n, words)`` rows beyond that
        self.words = validate_batch(batch)
        self.batch = batch
        if self.words == 1:
            #: active-lane mask: bit ``l`` set for every lane ``l < batch``
            self.lane_mask = (
                _ALL if batch == WORD_LANES else np.uint64((1 << batch) - 1)
            )
            self.lane_shifts = np.arange(batch, dtype=np.uint64)
        else:
            # multi-word planes are always fully populated, so the mask
            # stays a scalar word and broadcasts across the plane
            self.lane_mask = _ALL
            self.lane_shifts = np.arange(WORD_LANES, dtype=np.uint64)

    @staticmethod
    def lane_coords(lane: int) -> tuple[int, int]:
        """``(word, bit)`` coordinates of a lane in a K-word plane."""
        return divmod(lane, WORD_LANES)

    def lanes_mask(self, lanes: Iterable[int]):
        """The packed word — a ``(K,)`` plane beyond 64 lanes — with
        exactly ``lanes``' bits set (lane quarantine zeroes state under
        its complement).  A lane outside the batch is a ``ValueError``."""
        plane = np.zeros(self.words, dtype=np.uint64)
        for lane in lanes:
            if not 0 <= lane < self.batch:
                raise ValueError(f"lane {lane} out of range for batch {self.batch}")
            word, bit = self.lane_coords(lane)
            plane[word] |= _ONE << np.uint64(bit)
        return plane[0] if self.words == 1 else plane

    # -- state allocation -----------------------------------------------------

    def zeros(self, n: int) -> np.ndarray:
        if self.words == 1:
            return np.zeros(n, dtype=np.uint64)
        return np.zeros((n, self.words), dtype=np.uint64)

    def const_mask(self, flags: np.ndarray) -> np.ndarray:
        """Per-element lane mask for decoded boolean constants.

        A fold/XOR/OR constant of 1 applies to *every* lane (the same
        program serves all stimulus streams), but only to the active
        ones — masking here is what keeps inactive lanes identically 0.
        For K-word planes the constants come back as an ``(n, 1)``
        column so they broadcast across the plane axis.
        """
        masked = np.where(np.asarray(flags, dtype=bool), self.lane_mask, _ZERO)
        return masked if self.words == 1 else masked[:, None]

    def scalar_mask(self, flag: bool) -> np.uint64:
        return self.lane_mask if flag else _ZERO

    # -- the hot-loop primitive ----------------------------------------------

    @staticmethod
    def fold_step(
        vec: np.ndarray, xor_a: np.ndarray, xor_b: np.ndarray, or_b: np.ndarray
    ) -> np.ndarray:
        """One boomerang fold: halves ``vec``, all lanes in parallel."""
        return (vec[0::2] ^ xor_a) & ((vec[1::2] ^ xor_b) | or_b)

    # -- integers <-> packed bit-plane words ----------------------------------

    def broadcast_int(self, value: int, nbits: int) -> np.ndarray:
        """``value``'s bits replicated across every active lane."""
        bits = np.where(int_to_bits(value, nbits), self.lane_mask, _ZERO)
        return bits if self.words == 1 else bits[:, None]

    def pack_lanes(self, values: "Sequence[int] | np.ndarray", nbits: int) -> np.ndarray:
        """Per-lane integers to packed words (arbitrary width).

        ``values`` is one integer per lane — a sequence of Python ints
        of any size or an integer array — masked to ``nbits``.  All lanes
        become one ``(batch, nbytes)`` byte matrix, one ``np.unpackbits``
        yields the per-lane bits, and one ``np.packbits`` along the lane
        axis turns each bit's lane row into its little-endian words — the
        inverse of :meth:`unpack_lanes`.  Returns ``(nbits,)`` words for
        single-word batches, ``(nbits, K)`` planes beyond.
        """
        column = np.asarray(values) if nbits <= 64 else None
        if column is not None and column.dtype.kind in "iub":
            # two's-complement wrap then the bit slice below = the mask
            mat = column.astype("<u8").view(np.uint8).reshape(len(column), 8)
        else:  # wider than a machine word, or ints beyond 64 bits to mask
            nbytes = (nbits + 7) // 8
            vmask = (1 << nbits) - 1
            raw = b"".join((int(v) & vmask).to_bytes(nbytes, "little") for v in values)
            mat = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), nbytes)
        bits = np.unpackbits(mat, axis=1, bitorder="little")[:, :nbits]
        words = _transpose_bits(bits, 8 * self.words).view("<u8").astype(np.uint64, copy=False)
        return words.reshape(nbits) if self.words == 1 else words

    def unpack_lanes(self, words: np.ndarray) -> np.ndarray:
        """Packed words to the per-lane bit matrix, shape ``(n, batch)``
        uint8: row ``i`` holds element ``i``'s bit in every lane.  One
        ``np.unpackbits`` over the words' bytes — no per-lane shift, the
        same lines for a single word and a K-word plane."""
        raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(
            raw.reshape(len(words), 8 * self.words), axis=1, bitorder="little"
        )
        return bits[:, : self.batch]

    @staticmethod
    def lane_ints(bits: np.ndarray) -> np.ndarray:
        """Per-lane integers of one port from its rows of
        :meth:`unpack_lanes`, shape ``(batch,)``: ``uint64`` for ports of
        up to 64 bits, object dtype (Python ints) for wider ones."""
        nbits, batch = bits.shape
        if nbits <= 64:
            return _transpose_bits(bits, 8).view("<u8").astype(np.uint64, copy=False).reshape(batch)
        step = (nbits + 7) // 8
        raw = _transpose_bits(bits, step).tobytes()
        out = np.empty(batch, dtype=object)
        out[:] = [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]
        return out

    def lane_bits(self, word) -> np.ndarray:
        """One packed word (or ``(K,)`` plane row) split into per-lane
        bits, shape ``(batch,)``."""
        if self.words == 1:
            return ((word >> self.lane_shifts) & _ONE).astype(np.uint8)
        row = np.asarray(word, dtype=np.uint64)
        bits = (row[:, None] >> self.lane_shifts[None, :]) & _ONE
        return bits.reshape(self.batch).astype(np.uint8)

    def lane_values(self, words: np.ndarray) -> np.ndarray:
        """Per-lane small integers (RAM addresses/data) from bit planes:
        ``words[i]`` carries bit ``i`` of every lane.  Returns shape
        ``(batch,)`` ``uint64``; the inverse is :meth:`pack_lanes`."""
        return self.lane_ints(self.unpack_lanes(words))

    # -- RAM ports --------------------------------------------------------------

    def ram_port(self, op, local: np.ndarray, image: np.ndarray):
        """One RAM port, all lanes at once, addresses computed per lane.

        ``op`` is a decoded RAMOP (slot / inversion tables into ``local``,
        the block-local state or its arena view), ``image`` the block's
        ``(batch, depth)`` per-lane contents.  Read-first semantics: the
        read samples the array *before* this port's write lands, lane by
        lane.  Returns the deferred read-data commit ``(gidx, values,
        read-enable lane mask)`` for :meth:`merge`, or ``None`` when no
        lane reads this cycle.
        """
        # scalar words for K == 1, (K,) plane rows beyond -- .any() gates
        # both without the ambiguous array truthiness
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
        """Commit a deferred scatter; ``mask`` (a packed lane word, a
        ``(K,)`` plane row, or ``None``) restricts the merge to the lanes
        whose write enable was set — the per-lane generalization of 'no
        deferred write at all'."""
        if mask is None:
            dst[gidx] = values
        else:
            dst[gidx] = (dst[gidx] & ~mask) | (values & mask)


# -- decoded RAM ports ----------------------------------------------------------
#
# The table form of a RAMOP that :meth:`ExecutionEngine.ram_port` and the
# backends run.  It is a function of the port's spec and the lane geometry
# alone, so the instruction decoder and the plan store (which persists
# specs, :mod:`repro.core.fused`) both build it here.


@dataclass
class _DecodedRamOp:
    """A RAM port with decode-time index/weight tables (no per-bit loops)."""

    spec: isa.RamOp
    raddr_slots: np.ndarray
    raddr_inv: np.ndarray  # uint64 lane masks, one per address bit
    waddr_slots: np.ndarray
    waddr_inv: np.ndarray
    wdata_slots: np.ndarray
    wdata_inv: np.ndarray
    ren_slot: int
    ren_inv: np.uint64
    wen_slot: int
    wen_inv: np.uint64
    rd_gidx: np.ndarray


def _decode_ramop(op: isa.RamOp, engine: ExecutionEngine) -> _DecodedRamOp:
    """Precompute index/inversion/weight tables for one RAM port."""

    def refs(pairs: list[tuple[int, bool]]) -> tuple[np.ndarray, np.ndarray]:
        slots = np.array([slot for slot, _ in pairs], dtype=np.int64)
        inv = engine.const_mask(np.array([inv for _, inv in pairs], dtype=bool))
        return slots, inv

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
        ren_inv=engine.scalar_mask(op.ren[1]),
        wen_slot=op.wen[0],
        wen_inv=engine.scalar_mask(op.wen[1]),
        rd_gidx=np.arange(op.rd_global_base, op.rd_global_base + op.data_bits),
    )
