"""Bitstream assembly from the placement's arrays (paper §III-E).

:func:`repro.core.assembler.assemble_partition` encodes PERM, FOLD and WB
straight from each :class:`~repro.core.placement.PackedLayer` and resolves
every READ / GWRITE / RAMOP slot from the placement's slot -> node table.
The encoder it replaced, which unpacked every layer into
:class:`~repro.core.boomerang.Layer` arrays and read a node -> slot dict, is
kept below verbatim as its oracle.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import isa, placement
from repro.core.assembler import _PartitionCode, allocate_global_state, assemble_partition
from repro.core.compiler import GemConfig, compile_circuit
from repro.core.merging import MergeResult
from repro.core.partition import PartitionConfig, partition_design
from repro.core.placement import PlacedPartition, place_partition
from repro.core.synthesis import synthesize
from repro.fuzz.designgen import generate_design


def _oracle_assemble_partition(eaig, placed, meta, synth) -> _PartitionCode:
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


#: the generated designs of ``tests/test_placement.py::TestNativeMatchesPython``
#: (the mixed one has a RAM, so RAMOP slots are resolved too)
_DESIGNS = [(3, "mixed"), (5, "deep"), (8, "merge_stress")]
#: their partitioning, so that a whole compile merges some partitions
_PARTITION = PartitionConfig(gates_per_partition=150, num_stages=2)
_SMALL_PARTS = dataclasses.replace(GemConfig(), partition=_PARTITION)


class TestAssemblerMatchesItsOracle:
    """The array encoder against the one it replaced, on every partition of
    seeded generated designs placed by each layer loop, and on the merged
    partitions of a whole compile: the same instruction words."""

    @pytest.mark.parametrize("loops", ["native", "python"])
    @pytest.mark.parametrize("seed, profile", _DESIGNS)
    def test_every_partition(self, seed, profile, loops, request):
        request.getfixturevalue(f"{loops}_loops")
        synth = synthesize(generate_design(seed, profile).spec.build())
        eaig = synth.eaig
        plan = partition_design(eaig, _PARTITION)
        placements = [place_partition(eaig, spec) for spec in plan.partitions]
        merge = MergeResult(
            plan=plan,
            placements=placements,
            partitions_before=plan.num_partitions,
            partitions_after=plan.num_partitions,
        )
        meta = allocate_global_state(eaig, merge, synth)
        writebacks = 0
        for placed in placements:
            ours = assemble_partition(eaig, placed, meta, synth).words()
            oracle = _oracle_assemble_partition(eaig, placed, meta, synth).words()
            assert ours.dtype == oracle.dtype == np.uint32
            assert ours.tobytes() == oracle.tobytes(), (placed.spec.stage, placed.spec.index)
            writebacks += placed.num_writebacks
        assert len(placements) > 1 and writebacks
        if profile == "mixed":
            assert any(p.spec.ram_indices for p in placements)

    @pytest.mark.parametrize("loops", ["native", "python"])
    @pytest.mark.parametrize("seed, profile", _DESIGNS)
    def test_merged_partitions(self, seed, profile, loops, request):
        request.getfixturevalue(f"{loops}_loops")
        design = compile_circuit(generate_design(seed, profile).spec.build(), _SMALL_PARTS)
        meta, synth = design.program.meta, design.synth
        for placed in design.merge.placements:
            ours = assemble_partition(synth.eaig, placed, meta, synth).words()
            oracle = _oracle_assemble_partition(synth.eaig, placed, meta, synth).words()
            assert ours.tobytes() == oracle.tobytes(), (placed.spec.stage, placed.spec.index)
        if profile == "deep":  # 19 partitions merge into 2
            assert design.merge.partitions_after < design.merge.partitions_before


def _refuse(*args, **kwargs):
    raise AssertionError("the compile path unpacked a layer or read the slot dict")


class TestCompileReadsTheArrays:
    @pytest.mark.parametrize("loops", ["native", "python"])
    def test_no_layer_and_no_slot_dict(self, loops, request, monkeypatch):
        """A whole compile — Algorithm 1's probes, assembly, the report —
        with :meth:`PackedLayer.unpack` and :attr:`PlacedPartition.slot_of`
        raising: nothing on the path reads either."""
        request.getfixturevalue(f"{loops}_loops")
        monkeypatch.setattr(placement.PackedLayer, "unpack", _refuse)
        monkeypatch.setattr(PlacedPartition, "slot_of", property(_refuse))
        design = compile_circuit(generate_design(5, "deep").spec.build(), _SMALL_PARTS)
        assert design.merge.partitions_after < design.merge.partitions_before
        with pytest.raises(AssertionError, match="slot dict"):
            design.merge.placements[0].slot_of

    def test_slot_dict_is_the_table_in_slot_order(self):
        """``slot_of`` is the slot table read as a dict — sources by slot,
        then the writebacks by slot — and a pickle does not carry it."""
        design = compile_circuit(generate_design(5, "deep").spec.build(), _SMALL_PARTS)
        for placed in design.merge.placements:
            table = placed.slot_node.tolist()
            assert placed.slot_node.dtype == np.int64 and table[0] == 0
            assert table[1 : 1 + len(placed.spec.sources)] == placed.spec.sources
            assert list(placed.slot_of.items()) == [(n, s) for s, n in enumerate(table)][1:]
            assert "slot_of" not in pickle.loads(pickle.dumps(placed)).__dict__
            written = [
                row for layer in placed.packed for row in layer.writebacks[:, 2].tolist()
            ]
            assert written == list(range(1 + len(placed.spec.sources), placed.num_slots))
