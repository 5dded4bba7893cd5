"""The bitstream container (paper §III-E): format, parse, program.

A compiled design runs from one binary, the bitstream.  As the paper puts
it, producing it is simultaneously FPGA-style bitstream generation (it
encodes the wiring of a reconfigurable fabric) and a software assembler
(the result is interpreted by a virtual machine).

Binary layout (32-bit words)::

    [0]  magic 'GEMB'                [5]  number of stages
    [1]  format version              [6]  number of RAM blocks
    [2]  width_log2                  [7]  total instruction words
    [3]  global state bits           [8..] partitions per stage
    [4]  number of partitions
    per-partition offset table: (start word, word count) pairs
    instruction stream (per partition: INIT, READ*, {PERM*, FOLD, WB*}
                        per layer, GWRITE*, RAMOP*)
    RAM data section: per block, (addr_bits<<16|data_bits), depth words
    reset section: count, then global bit indices that power up as 1
    integrity footer: per-section (length, CRC32) pairs, section count,
                      footer magic (see :mod:`repro.core.integrity`)

Format version 2 split the container into four CRC32-protected sections
(header, instruction stream, RAM data, reset) so that any single-bit
corruption — a GPU soft error in the resident bitstream, a truncated
file — is detected at load instead of silently mis-simulating.

This module is the load side of the format: :func:`parse_container` is
the only code that indexes container words by position.  Its inverse,
:func:`repro.core.assembler.assemble`, writes containers from the compile
flow's objects and is imported only by a compile (``assemble`` is still
importable from here, on first touch), so loading a program loads
nothing of the flow.  Parsing verifies the CRCs, then holds every count,
offset and index against the section it lives in: a container that is
intact but *wrong* is a
:class:`~repro.errors.BitstreamError` at load, not an ``IndexError`` or
an empty partition mid-run.

Global state layout: ``[const0 | PIs | FF q | RAM read data | stage-cut
values | PO bits]``.  Host-side name→bit-index maps live in
:class:`ProgramMeta` (the sidecar a real flow would emit as JSON).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import isa
from repro.core.config import BoomerangConfig
from repro.core.integrity import crc32_words, seal, unseal
from repro.errors import BitstreamError

MAGIC = 0x47454D42  # "GEMB"
VERSION = 2

#: payload sections of the container, in order (footer pairs match these)
SECTION_NAMES = ("header", "instructions", "ram", "reset")


def verify_integrity(words: np.ndarray) -> list[np.ndarray]:
    """Check every section CRC of an assembled bitstream.

    Returns the four payload sections; raises
    :class:`~repro.errors.BitstreamError` on any corruption.
    """
    sections = unseal(words, error=BitstreamError, what="bitstream")
    if len(sections) != len(SECTION_NAMES):
        raise BitstreamError(
            f"bitstream: expected {len(SECTION_NAMES)} sections, found {len(sections)}"
        )
    return sections


@dataclass(frozen=True)
class Container:
    """A parsed and validated bitstream container (:func:`parse_container`)."""

    width_log2: int
    global_bits: int
    #: total instruction words: every partition's stream, back to back
    inst_words: int
    #: partitions per stage (partition order is stage-major)
    stage_counts: list[int]
    #: one instruction-word slice per partition, views into the container
    partitions: list[np.ndarray]
    #: per RAM block: (addr_bits, data_bits, initial ``2**addr_bits``-word image)
    rams: list[tuple[int, int, np.ndarray]]
    #: global bit indices that power up as 1 (flip-flop init values)
    reset_ones: np.ndarray


def parse_container(words: np.ndarray) -> Container:
    """The inverse of :func:`~repro.core.assembler.assemble`: verify and
    take apart a container.

    Magic and version are read off the raw leading words (a file that is
    not a bitstream should say so, not report a CRC); everything else is
    read from CRC-verified sections and checked against them.  Raises
    :class:`~repro.errors.BitstreamError`.
    """
    words = np.asarray(words)
    if words.size < 8 or int(words[0]) != MAGIC:
        raise BitstreamError("not a GEM bitstream (bad magic)")
    if int(words[1]) != VERSION:
        raise BitstreamError(
            f"unsupported bitstream format version {int(words[1])} "
            f"(interpreter supports {VERSION})"
        )
    header, inst, ram, reset = verify_integrity(words)
    if header.size < 8:
        raise BitstreamError(f"header: {header.size} words, the fixed fields alone take 8")
    width_log2, global_bits, num_parts, num_stages, num_rams, inst_words = header[2:8].tolist()
    if header.size != 8 + num_stages + 2 * num_parts:
        raise BitstreamError(
            f"header: {header.size} words cannot hold {num_stages} stage counts "
            f"and a {num_parts}-entry offset table"
        )
    stage_counts = header[8 : 8 + num_stages].tolist()
    if sum(stage_counts) != num_parts:
        raise BitstreamError(
            f"header: stage counts {stage_counts} do not sum to {num_parts} partitions"
        )
    if inst_words != inst.size:
        raise BitstreamError(
            f"header: {inst_words} instruction words declared, section holds {inst.size}"
        )
    # Offsets are container-absolute and the partitions tile the
    # instruction section in order: no gap, no overlap, nothing past it —
    # so partition i is inst[cuts[i] : cuts[i + 1]].
    starts, lengths = header[8 + num_stages :].reshape(-1, 2).T.tolist()
    cuts = np.cumsum([0, *lengths]).tolist()
    for index, (start, cut) in enumerate(zip(starts, cuts)):
        if start != header.size + cut:
            raise BitstreamError(
                f"partition {index}: starts at word {start}, where the instruction "
                f"stream stands at {header.size + cut}"
            )
    if cuts[-1] != inst.size:
        raise BitstreamError(
            f"offset table: partitions cover {cuts[-1]} instruction words, "
            f"the section holds {inst.size}"
        )
    partitions = [inst[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    rams: list[tuple[int, int, np.ndarray]] = []
    pos = 0
    for index in range(num_rams):
        if pos + 2 > ram.size:
            raise BitstreamError(f"RAM block {index}: the RAM section ends before its header")
        shape, depth = ram[pos : pos + 2].tolist()
        addr_bits, data_bits = shape >> 16, shape & 0xFFFF
        if depth != 1 << addr_bits or data_bits > 32:
            raise BitstreamError(
                f"RAM block {index}: {depth} words of {data_bits} bits behind "
                f"{addr_bits} address bits (want 2**addr_bits words of <= 32 bits)"
            )
        if pos + 2 + depth > ram.size:
            raise BitstreamError(f"RAM block {index}: the RAM section ends inside its image")
        rams.append((addr_bits, data_bits, ram[pos + 2 : pos + 2 + depth].astype(np.uint32)))
        pos += 2 + depth
    if pos != ram.size:
        raise BitstreamError(f"RAM section: {ram.size - pos} words past the last block")
    if reset.size == 0 or int(reset[0]) != reset.size - 1:
        raise BitstreamError(
            f"reset section: {reset.size} words do not hold a count and that many indices"
        )
    reset_ones = reset[1:].astype(np.int64)
    if reset_ones.size and int(reset_ones.max()) >= global_bits:
        raise BitstreamError(
            f"reset section: bit {int(reset_ones.max())} is outside the "
            f"{global_bits}-bit global state"
        )
    return Container(
        width_log2=width_log2,
        global_bits=global_bits,
        inst_words=inst_words,
        stage_counts=stage_counts,
        partitions=partitions,
        rams=rams,
        reset_ones=reset_ones,
    )


@dataclass
class ProgramMeta:
    """Host-side sidecar: how to feed inputs and read outputs."""

    config: BoomerangConfig
    global_bits: int
    #: input word name -> global bit indices (LSB first)
    pi_index: dict[str, list[int]]
    #: output word name -> global bit indices (LSB first)
    po_index: dict[str, list[int]]
    #: E-AIG node -> global bit index (PIs, FFs, RAM read bits, cut values)
    node_gidx: dict[int, int]
    stage_partition_counts: list[int]
    #: GemConfig.digest() of the compile that produced this program ("" when
    #: assembled outside the GemCompiler flow or loaded from an old cache)
    config_digest: str = ""


@dataclass
class GemProgram:
    """An assembled bitstream plus its host sidecar."""

    words: np.ndarray
    meta: ProgramMeta

    @property
    def num_bytes(self) -> int:
        return int(self.words.size) * 4

    def size_mb(self) -> float:
        return self.num_bytes / (1024 * 1024)

    def digest(self) -> int:
        """CRC32 over the whole container (binds checkpoints to programs)."""
        return crc32_words(self.words)


# -- fault injection -----------------------------------------------------------


def _fold_sites(instructions: np.ndarray) -> list[tuple[int, int]]:
    """(stream offset, eff_width_log2) of every FOLD with a live payload."""
    sites: list[tuple[int, int]] = []
    pos = 0
    while pos < instructions.size:
        opcode, length, count = isa.parse_header(int(instructions[pos]))
        if opcode is isa.Opcode.FOLD and count > 0:
            sites.append((pos, count))
        pos += length
    return sites


def count_fold_instructions(program: GemProgram) -> int:
    """Number of FOLD instructions with at least one live constant bit."""
    return len(_fold_sites(verify_integrity(program.words)[1]))


def mutate_fold_constant(program: GemProgram, fold_index: int, bit: int) -> GemProgram:
    """A copy of ``program`` with one boomerang fold-constant bit flipped.

    The differential fuzzer's canonical *semantics* bug: both GEM
    engines (the stage-fused executor and the ISA-literal reference
    interpreter) decode the same instruction stream, so the mutation
    mis-simulates identically on both while the gate-level and
    word-level references stay correct — exactly the kind of defect
    only cross-engine checking can catch.  The mutated
    container is resealed (section CRCs recomputed), so it loads cleanly;
    this is a wrong *program*, not a corrupt one (contrast the SEU
    campaigns of :mod:`repro.runtime.faults`, which flip resident bits
    and expect integrity machinery to notice).

    ``fold_index`` selects a FOLD instruction (see
    :func:`count_fold_instructions`); ``bit`` indexes into its live
    constant bits, modulo the payload size so any non-negative value is
    usable.  Raises :class:`ValueError` when the program has no live fold
    constants.
    """
    sections = verify_integrity(program.words)
    instructions = sections[1].copy()
    sites = _fold_sites(instructions)
    if not sites:
        raise ValueError("program has no FOLD instructions with live constants")
    pos, eff_width_log2 = sites[fold_index % len(sites)]
    live_bits = 3 * ((1 << eff_width_log2) - 1)  # xor_a/xor_b/or_b per step
    target = bit % live_bits
    word = pos + 1 + (target >> 5)
    instructions[word] = np.uint32(instructions[word]) ^ np.uint32(1 << (target & 31))
    words = seal([sections[0], instructions, sections[2], sections[3]])
    return GemProgram(words=words, meta=program.meta)


def __getattr__(name: str):
    # the writer lives with the compile flow it reads; importing it here
    # eagerly would load that flow into every run
    if name in ("allocate_global_state", "assemble", "assemble_partition"):
        from repro.core import assembler

        return getattr(assembler, name)
    raise AttributeError(f"module 'repro.core.bitstream' has no attribute {name!r}")
