"""Bitstream assembly (paper §III-E): the compile side of the container.

Serializes a fully compiled design — synthesis result, partition plan and
placements — into the container :mod:`repro.core.bitstream` describes and
parses.  That module is the load side and imports none of the compile
flow; this one needs the flow's objects and is imported only when
:meth:`repro.core.compiler.GemCompiler.compile` assembles a program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import isa
from repro.core.bitstream import MAGIC, VERSION, GemProgram, ProgramMeta
from repro.core.config import BoomerangConfig
from repro.core.eaig import EAIG, lit_node
from repro.core.integrity import seal
from repro.core.merging import MergeResult
from repro.core.placement import PlacedPartition
from repro.core.synthesis import SynthesisResult
from repro.obs.trace import TRACER


@dataclass
class _PartitionCode:
    instructions: list[np.ndarray] = field(default_factory=list)

    def extend(self, insts) -> None:
        if isinstance(insts, np.ndarray):
            self.instructions.append(insts)
        else:
            self.instructions.extend(insts)

    def words(self) -> np.ndarray:
        if not self.instructions:
            return np.zeros(0, dtype=np.uint32)
        return np.concatenate(self.instructions)


def allocate_global_state(eaig: EAIG, merge: MergeResult, synth: SynthesisResult) -> ProgramMeta:
    """Assign a global bit index to every globally visible value."""
    node_gidx: dict[int, int] = {}
    next_bit = 1  # bit 0 is a constant 0 (handy for unconnected reads)
    for pi in eaig.pis:
        node_gidx[pi] = next_bit
        next_bit += 1
    for ff in eaig.ffs:
        node_gidx[ff] = next_bit
        next_bit += 1
    for ram in eaig.rams:
        for node in ram.data_nodes:
            node_gidx[node] = next_bit
            next_bit += 1
    for spec in merge.plan.partitions:
        for node in spec.cut_nodes:
            node_gidx[node] = next_bit
            next_bit += 1
    po_index: dict[str, list[int]] = {}
    for name, bits in synth.output_bits.items():
        po_index[name] = list(range(next_bit, next_bit + len(bits)))
        next_bit += len(bits)
    pi_index = {
        name: [node_gidx[lit_node(l)] for l in bits]
        for name, bits in synth.input_bits.items()
    }
    config = merge.placements[0].config if merge.placements else BoomerangConfig()
    return ProgramMeta(
        config=config,
        global_bits=next_bit,
        pi_index=pi_index,
        po_index=po_index,
        node_gidx=node_gidx,
        stage_partition_counts=[len(s) for s in merge.plan.stages],
    )


def assemble_partition(
    eaig: EAIG, placed: PlacedPartition, meta: ProgramMeta, synth: SynthesisResult
) -> _PartitionCode:
    """Emit the instruction stream of one partition."""
    spec = placed.spec
    code = _PartitionCode()

    read_entries = [
        (meta.node_gidx[node], placed.slot_of[node], False) for node in spec.sources
    ]
    ramops: list[isa.RamOp] = []
    for ram_index in spec.ram_indices:
        ram = eaig.rams[ram_index]
        ramops.append(
            isa.RamOp(
                ram_index=ram_index,
                addr_bits=ram.addr_bits,
                data_bits=ram.data_bits,
                rd_global_base=meta.node_gidx[ram.data_nodes[0]],
                raddr=[placed.slot_and_invert(l) for l in ram.raddr],
                ren=placed.slot_and_invert(ram.ren),
                waddr=[placed.slot_and_invert(l) for l in ram.waddr],
                wdata=[placed.slot_and_invert(l) for l in ram.wdata],
                wen=placed.slot_and_invert(ram.wen),
            )
        )

    code.extend(
        isa.encode_init(
            stage=spec.stage,
            num_layers=placed.num_layers,
            state_slots=placed.num_slots,
            num_reads=len(read_entries),
            num_ramops=len(ramops),
        )
    )
    code.extend(isa.encode_read(read_entries))
    for layer, eff in zip(placed.layers, placed.effective_widths_log2()):
        code.extend(isa.encode_perm(layer.perm))
        code.extend(isa.encode_fold(eff, layer.xor_a, layer.xor_b, layer.or_b))
        wb_entries = [
            (step, pos, slot)
            for step, wbs in enumerate(layer.writebacks)
            for pos, slot in wbs
        ]
        if wb_entries:
            code.extend(isa.encode_wb(wb_entries))

    gwrite_entries: list[tuple[int, bool, int, bool]] = []
    for group in spec.groups:
        if group.kind == "ff":
            slot, inv = placed.slot_and_invert(eaig.fanin0[group.ff_node])
            gwrite_entries.append((slot, inv, meta.node_gidx[group.ff_node], True))
        elif group.kind == "cut":
            slot, inv = placed.slot_and_invert(2 * group.cut_node)
            gwrite_entries.append((slot, inv, meta.node_gidx[group.cut_node], False))
        elif group.kind == "po":
            targets = meta.po_index[group.po_name]
            literals = synth.output_bits[group.po_name]
            for literal, gidx in zip(literals, targets):
                slot, inv = placed.slot_and_invert(literal)
                gwrite_entries.append((slot, inv, gidx, False))
    if gwrite_entries:
        code.extend(isa.encode_gwrite(gwrite_entries))
    for op in ramops:
        code.extend(isa.encode_ramop(op))
    return code


def assemble(
    eaig: EAIG, synth: SynthesisResult, merge: MergeResult, config_digest: str = ""
) -> GemProgram:
    """Assemble the complete program for a compiled design."""
    meta = allocate_global_state(eaig, merge, synth)
    meta.config_digest = config_digest
    # Partition order is stage-major: all stage-0 blocks, then stage-1, ...
    if TRACER.enabled:
        codes = []
        for pi, placed in enumerate(merge.placements):
            with TRACER.span(
                f"assemble:p{pi}",
                cat="compile.partition",
                args={"stage": placed.spec.stage, "layers": placed.num_layers},
            ):
                codes.append(assemble_partition(eaig, placed, meta, synth))
    else:
        codes = [
            assemble_partition(eaig, placed, meta, synth) for placed in merge.placements
        ]
    num_parts = len(codes)
    num_stages = len(meta.stage_partition_counts)
    header_len = 8 + num_stages + 2 * num_parts
    offsets: list[tuple[int, int]] = []
    cursor = header_len
    chunks: list[np.ndarray] = []
    for code in codes:
        words = code.words()
        offsets.append((cursor, len(words)))
        chunks.append(words)
        cursor += len(words)
    total_inst_words = cursor - header_len

    # Reset section: global bits that power up as 1 (flip-flop init values).
    ones = [meta.node_gidx[ff] for ff in eaig.ffs if eaig.aux[ff]]
    reset_section = np.array([len(ones), *ones], dtype=np.uint32)

    ram_section: list[np.ndarray] = []
    for ram in eaig.rams:
        head = np.zeros(2, dtype=np.uint32)
        head[0] = (ram.addr_bits << 16) | ram.data_bits
        head[1] = ram.depth
        words = np.zeros(ram.depth, dtype=np.uint32)
        init = ram.init[: ram.depth]
        words[: len(init)] = np.asarray(init, dtype=np.uint32)
        ram_section.extend((head, words))

    header = np.zeros(header_len, dtype=np.uint32)
    header[0] = MAGIC
    header[1] = VERSION
    header[2] = meta.config.width_log2
    header[3] = meta.global_bits
    header[4] = num_parts
    header[5] = num_stages
    header[6] = len(eaig.rams)
    header[7] = total_inst_words
    for s, count in enumerate(meta.stage_partition_counts):
        header[8 + s] = count
    for i, (start, length) in enumerate(offsets):
        header[8 + num_stages + 2 * i] = start
        header[8 + num_stages + 2 * i + 1] = length

    inst_stream = (
        np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint32)
    )
    ram_words = (
        np.concatenate(ram_section) if ram_section else np.zeros(0, dtype=np.uint32)
    )
    words = seal([header, inst_stream, ram_words, reset_section])
    return GemProgram(words=words, meta=meta)
