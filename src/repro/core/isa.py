"""The GEM VLIW instruction set (paper §III-E, Fig. 7).

The virtual Boolean processor is programmed with very long instruction
words in three length classes — 8192, 16384 and 32768 bits — sized so that
a 256-thread GPU block loads one instruction with a single fully-coalesced
32-, 64- or 128-bit read per thread.  In this reproduction a 32-bit word is
the unit, so the classes are 256, 512 and 1024 words.

Instruction kinds (every instruction starts with a one-word header):

========  =====  ======================================================
opcode    words  payload
========  =====  ======================================================
INIT      256    per-partition block setup: stage, #layers, state size,
                 #reads, #RAM ops (Fig. 7 "initialization")
READ      512    global→local state loads: (global bit, local slot) pairs
                 ("global state reading", once per cycle)
PERM      1024   sparse bit permutation chunk: (leaf, source slot) pairs
                 ("local bit permutation" — the compressed source-indexed
                 form the paper describes)
FOLD      1024   all boomerang fold constants of one layer: bit-packed
                 XOR.A / XOR.B / OR.B per fold step ("boomerang folding")
WB        512    state writebacks: (fold step, position, slot) triples
GWRITE    512    local→global stores; flag selects commit phase
                 (immediate = same-cycle visible, e.g. stage cut values;
                 deferred = next-cycle visible, e.g. FF next states)
RAMOP     512    one native RAM block cycle: port slot references plus the
                 block's global read-data base index
========  =====  ======================================================

Header word layout: ``[opcode:8 | size_class:2 | count:16]`` where count is
the number of payload entries (meaning varies per opcode).

This module provides pure encode/decode helpers over ``numpy.uint32``
arrays; :mod:`repro.core.bitstream` assembles whole programs and
:mod:`repro.core.interpreter` executes them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import BitstreamError


class Opcode(enum.IntEnum):
    INIT = 1
    READ = 2
    PERM = 3
    FOLD = 4
    WB = 5
    GWRITE = 6
    RAMOP = 7


#: instruction length (32-bit words) per size class
SIZE_CLASS_WORDS = (256, 512, 1024)

_OPCODE_SIZE_CLASS = {
    Opcode.INIT: 0,
    Opcode.READ: 1,
    Opcode.PERM: 2,
    Opcode.FOLD: 2,
    Opcode.WB: 1,
    Opcode.GWRITE: 1,
    Opcode.RAMOP: 1,
}

#: payload entry capacities (entries per single instruction)
READ_CAPACITY = (SIZE_CLASS_WORDS[1] - 1) // 2  # 2 words per entry
PERM_CAPACITY = SIZE_CLASS_WORDS[2] - 2  # 1 word per entry (+chunk base)
WB_CAPACITY = SIZE_CLASS_WORDS[1] - 1  # 1 word per entry
GWRITE_CAPACITY = (SIZE_CLASS_WORDS[1] - 1) // 2  # 2 words per entry


#: widest boomerang tree one FOLD instruction can program: its payload
#: holds three constant bit-vectors of ``2**w - 1`` bits (XOR.A, XOR.B,
#: OR.B over all fold steps) in 1023 words
MAX_WIDTH_LOG2 = 13

#: most state bits a core may have: a WB entry holds a 14-bit state slot
MAX_STATE_BITS = 1 << 14


def instruction_words(opcode: Opcode) -> int:
    return SIZE_CLASS_WORDS[_OPCODE_SIZE_CLASS[opcode]]


def make_header(opcode: Opcode, count: int) -> int:
    if not 0 <= count < (1 << 16):
        raise ValueError(f"instruction entry count {count} out of range")
    return (int(opcode) << 24) | (_OPCODE_SIZE_CLASS[opcode] << 22) | count


def parse_header(word: int) -> tuple[Opcode, int, int]:
    """Returns (opcode, instruction length in words, entry count)."""
    try:
        opcode = Opcode((word >> 24) & 0xFF)
    except ValueError as exc:
        raise BitstreamError(
            f"invalid instruction header {word:#010x}: unknown opcode"
        ) from exc
    size_class = (word >> 22) & 0x3
    count = word & 0xFFFF
    return opcode, SIZE_CLASS_WORDS[size_class], count


def _blank(opcode: Opcode, count: int) -> np.ndarray:
    inst = np.zeros(instruction_words(opcode), dtype=np.uint32)
    inst[0] = make_header(opcode, count)
    return inst


def _chunked(opcode: Opcode, entries: np.ndarray, capacity: int, first: int = 1) -> list:
    """One instruction per ``capacity`` rows of ``entries`` (one row of
    payload words per entry), the rows' words from word ``first`` on."""
    out = []
    for base in range(0, len(entries), capacity):
        chunk = entries[base : base + capacity]
        inst = _blank(opcode, len(chunk))
        inst[first : first + chunk.size] = chunk.ravel()
        out.append(inst)
    return out


# -- INIT --------------------------------------------------------------------


def encode_init(
    stage: int, num_layers: int, state_slots: int, num_reads: int, num_ramops: int
) -> np.ndarray:
    inst = _blank(Opcode.INIT, 0)
    inst[1] = stage
    inst[2] = num_layers
    inst[3] = state_slots
    inst[4] = num_reads
    inst[5] = num_ramops
    return inst


def decode_init(inst: np.ndarray) -> dict:
    return {
        "stage": int(inst[1]),
        "num_layers": int(inst[2]),
        "state_slots": int(inst[3]),
        "num_reads": int(inst[4]),
        "num_ramops": int(inst[5]),
    }


# -- READ ----------------------------------------------------------------------


def encode_read(entries) -> list[np.ndarray]:
    """Entries: (global bit index, local slot, invert), as tuples or one
    ``(n, 3)`` integer array."""
    table = np.array(entries, dtype=np.int64).reshape(-1, 3)
    words = np.empty((len(table), 2), dtype=np.uint32)
    words[:, 0] = table[:, 0] | ((table[:, 2] != 0) << 31)
    words[:, 1] = table[:, 1]
    return _chunked(Opcode.READ, words, READ_CAPACITY)


def decode_read(inst: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (global indices, local slots, invert flags) arrays."""
    raw = inst[1 : 1 + 2 * count].astype(np.int64)
    gidx = raw[0::2] & 0x7FFFFFFF
    inv = (raw[0::2] >> 31).astype(bool)
    slots = raw[1::2]
    return gidx, slots, inv


# -- PERM ------------------------------------------------------------------------


def encode_perm(perm: np.ndarray) -> list[np.ndarray]:
    """Sparse permutation: one (leaf, slot) word per occupied leaf."""
    occupied = np.flatnonzero(perm >= 0).astype(np.uint32)
    # word 1 is reserved (chunk base; leaves are absolute here)
    words = (occupied << 16) | perm[occupied].astype(np.uint32)
    out = _chunked(Opcode.PERM, words, PERM_CAPACITY, first=2)
    if not out:  # a layer of pure constants still needs its permutation slot
        out.append(_blank(Opcode.PERM, 0))
    return out


def decode_perm(inst: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Returns (leaf indices, source slots)."""
    raw = inst[2 : 2 + count].astype(np.int64)
    return raw >> 16, raw & 0xFFFF


# -- FOLD -----------------------------------------------------------------------


def _pack_bits(bits: np.ndarray, words: np.ndarray, bit_offset: int) -> int:
    """OR ``bits`` into ``words`` starting at ``bit_offset`` (bit ``p`` lives
    in word ``p >> 5`` at position ``p & 31``); returns the next offset."""
    shift = bit_offset & 31
    padded = np.zeros(-(-(shift + len(bits)) // 32) * 32, dtype=bool)
    padded[shift : shift + len(bits)] = bits
    chunk = np.packbits(padded, bitorder="little").view("<u4")
    first = bit_offset >> 5
    words[first : first + len(chunk)] |= chunk
    return bit_offset + len(bits)


def _unpack_bits(words: np.ndarray, bit_offset: int, n: int) -> tuple[np.ndarray, int]:
    idx = bit_offset + np.arange(n)
    bits = (words[idx >> 5] >> (idx & 31)) & 1
    return bits.astype(bool), bit_offset + n


def _fold_inst(eff_width_log2: int, bits: np.ndarray) -> np.ndarray:
    """A FOLD instruction whose payload holds ``bits`` from bit 0 on."""
    inst = _blank(Opcode.FOLD, eff_width_log2)
    if bits.size > 32 * (len(inst) - 1):
        raise ValueError("fold constants overflow the instruction")
    _pack_bits(bits, inst[1:], 0)
    return inst


def encode_fold(
    eff_width_log2: int,
    xor_a: list[np.ndarray],
    xor_b: list[np.ndarray],
    or_b: list[np.ndarray],
) -> np.ndarray:
    """All fold constants of one layer, trimmed to the effective width:
    per fold step, its XOR.A, XOR.B and OR.B bits in turn."""
    bits = []
    for step in range(eff_width_log2):
        size = 1 << (eff_width_log2 - step - 1)
        bits += [xor_a[step][:size], xor_b[step][:size], or_b[step][:size]]
    return _fold_inst(eff_width_log2, np.concatenate(bits) if bits else np.zeros(0, bool))


@functools.lru_cache(maxsize=None)
def _fold_tree_order(width_log2: int, eff_width_log2: int) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`encode_fold`'s bits sit in a heap-numbered tree of
    ``2**width_log2`` leaves: the heap number and the bit of each."""
    heap, shift = [], []
    for level in range(1, eff_width_log2 + 1):
        first = 1 << (width_log2 - level)
        row = np.arange(first, first + (1 << (eff_width_log2 - level)))
        for bit in range(3):
            heap.append(row)
            shift.append(np.full(row.size, bit, dtype=np.uint8))
    if not heap:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
    return np.concatenate(heap), np.concatenate(shift)


def encode_fold_tree(eff_width_log2: int, fold: np.ndarray) -> np.ndarray:
    """:func:`encode_fold` from one layer's fold constants by heap number:
    ``fold[k]`` for position ``k = (len(fold) >> level) + i``, bit 0 its
    XOR.A, bit 1 its XOR.B, bit 2 its OR.B."""
    heap, shift = _fold_tree_order(len(fold).bit_length() - 1, eff_width_log2)
    return _fold_inst(eff_width_log2, (fold[heap] >> shift) & 1)


def decode_fold(inst: np.ndarray, eff_width_log2: int) -> tuple[list, list, list]:
    payload = inst[1:]
    xor_a, xor_b, or_b = [], [], []
    offset = 0
    for step in range(eff_width_log2):
        size = 1 << (eff_width_log2 - step - 1)
        a, offset = _unpack_bits(payload, offset, size)
        b, offset = _unpack_bits(payload, offset, size)
        o, offset = _unpack_bits(payload, offset, size)
        xor_a.append(a)
        xor_b.append(b)
        or_b.append(o)
    return xor_a, xor_b, or_b


# -- WB -------------------------------------------------------------------------


def encode_wb(entries) -> list[np.ndarray]:
    """Entries: (fold step, position, state slot), as tuples or one
    ``(n, 3)`` integer array."""
    table = np.array(entries, dtype=np.int64).reshape(-1, 3)
    bad = (table < 0).any(axis=1) | (table >= (16, 1 << 14, MAX_STATE_BITS)).any(axis=1)
    if bad.any():
        raise ValueError(
            f"writeback entry out of range: {tuple(table[int(bad.argmax())].tolist())}"
        )
    words = ((table[:, 0] << 28) | (table[:, 1] << 14) | table[:, 2]).astype(np.uint32)
    return _chunked(Opcode.WB, words, WB_CAPACITY)


def decode_wb(inst: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    raw = inst[1 : 1 + count].astype(np.int64)
    return raw >> 28, (raw >> 14) & 0x3FFF, raw & 0x3FFF


# -- GWRITE ---------------------------------------------------------------------


def encode_gwrite(entries) -> list[np.ndarray]:
    """Entries: (local slot, invert, global bit index, deferred), as tuples
    or one ``(n, 4)`` integer array."""
    table = np.array(entries, dtype=np.int64).reshape(-1, 4)
    words = np.empty((len(table), 2), dtype=np.uint32)
    words[:, 0] = table[:, 0] | ((table[:, 1] != 0) << 31)
    words[:, 1] = table[:, 2] | ((table[:, 3] != 0) << 31)
    return _chunked(Opcode.GWRITE, words, GWRITE_CAPACITY)


def decode_gwrite(
    inst: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (slots, invert, global indices, deferred) arrays."""
    raw = inst[1 : 1 + 2 * count].astype(np.int64)
    slots = raw[0::2] & 0x7FFFFFFF
    inv = (raw[0::2] >> 31).astype(bool)
    gidx = raw[1::2] & 0x7FFFFFFF
    deferred = (raw[1::2] >> 31).astype(bool)
    return slots, inv, gidx, deferred


# -- RAMOP -----------------------------------------------------------------------


@dataclass
class RamOp:
    """Decoded RAM block operation."""

    ram_index: int
    addr_bits: int
    data_bits: int
    rd_global_base: int
    #: each ref is (slot, invert); slot 0 is the constant-0 state slot
    raddr: list[tuple[int, bool]]
    ren: tuple[int, bool]
    waddr: list[tuple[int, bool]]
    wdata: list[tuple[int, bool]]
    wen: tuple[int, bool]


def _pack_ref(ref: tuple[int, bool]) -> int:
    slot, inv = ref
    if slot >= (1 << 15):
        raise ValueError(f"slot {slot} does not fit a 16-bit port reference")
    return slot | (0x8000 if inv else 0)


def _unpack_ref(value: int) -> tuple[int, bool]:
    return value & 0x7FFF, bool(value & 0x8000)


def encode_ramop(op: RamOp) -> np.ndarray:
    inst = _blank(Opcode.RAMOP, 0)
    inst[1] = op.ram_index
    inst[2] = (op.addr_bits << 16) | op.data_bits
    inst[3] = op.rd_global_base
    refs = [*op.raddr, op.ren, *op.waddr, *op.wdata, op.wen]
    packed = [_pack_ref(r) for r in refs]
    for i, value in enumerate(packed):
        word = 4 + (i >> 1)
        shift = 16 * (i & 1)
        inst[word] |= np.uint32(value << shift)
    if 4 + (len(packed) + 1) // 2 > instruction_words(Opcode.RAMOP):
        raise ValueError("RAM op does not fit one instruction")
    return inst


def decode_ramop(inst: np.ndarray) -> RamOp:
    ram_index = int(inst[1])
    addr_bits = int(inst[2]) >> 16
    data_bits = int(inst[2]) & 0xFFFF
    rd_global_base = int(inst[3])
    total = 2 * addr_bits + data_bits + 2
    if 4 + (total + 1) // 2 > len(inst):
        raise BitstreamError(
            f"RAMOP with {addr_bits} address / {data_bits} data bits does not fit one instruction"
        )
    refs = []
    for i in range(total):
        word = int(inst[4 + (i >> 1)])
        refs.append(_unpack_ref((word >> (16 * (i & 1))) & 0xFFFF))
    raddr = refs[:addr_bits]
    ren = refs[addr_bits]
    waddr = refs[addr_bits + 1 : 2 * addr_bits + 1]
    wdata = refs[2 * addr_bits + 1 : 2 * addr_bits + 1 + data_bits]
    wen = refs[2 * addr_bits + 1 + data_bits]
    return RamOp(
        ram_index=ram_index,
        addr_bits=addr_bits,
        data_bits=data_bits,
        rd_global_base=rd_global_base,
        raddr=raddr,
        ren=ren,
        waddr=waddr,
        wdata=wdata,
        wen=wen,
    )
