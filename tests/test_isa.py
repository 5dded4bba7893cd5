"""VLIW ISA encode/decode round-trips (repro.core.isa)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import isa


class TestHeaders:
    def test_roundtrip(self):
        for opcode in isa.Opcode:
            word = isa.make_header(opcode, 123)
            op, length, count = isa.parse_header(word)
            assert op is opcode
            assert count == 123
            assert length == isa.instruction_words(opcode)

    def test_instruction_lengths_match_paper(self):
        # 8192 / 16384 / 32768-bit VLIW words = 256 / 512 / 1024 words.
        assert isa.SIZE_CLASS_WORDS == (256, 512, 1024)
        assert isa.instruction_words(isa.Opcode.INIT) == 256
        assert isa.instruction_words(isa.Opcode.READ) == 512
        assert isa.instruction_words(isa.Opcode.PERM) == 1024
        assert isa.instruction_words(isa.Opcode.FOLD) == 1024

    def test_count_range_checked(self):
        with pytest.raises(ValueError):
            isa.make_header(isa.Opcode.READ, 1 << 16)


class TestInit:
    def test_roundtrip(self):
        inst = isa.encode_init(stage=2, num_layers=7, state_slots=300, num_reads=12, num_ramops=3)
        assert len(inst) == 256
        info = isa.decode_init(inst)
        assert info == {
            "stage": 2,
            "num_layers": 7,
            "state_slots": 300,
            "num_reads": 12,
            "num_ramops": 3,
        }


class TestRead:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**30), st.integers(0, 8191), st.booleans()
            ),
            max_size=600,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, entries):
        insts = isa.encode_read(entries)
        decoded = []
        for inst in insts:
            _, _, count = isa.parse_header(int(inst[0]))
            gidx, slots, inv = isa.decode_read(inst, count)
            decoded.extend(zip(gidx.tolist(), slots.tolist(), inv.tolist()))
        assert decoded == [(g, s, i) for g, s, i in entries]

    def test_chunking(self):
        entries = [(i, i % 100, False) for i in range(600)]
        insts = isa.encode_read(entries)
        assert len(insts) == -(-600 // isa.READ_CAPACITY)


class TestPerm:
    @given(st.lists(st.integers(-1, 500), min_size=8, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_sparse(self, perm_list):
        perm = np.array(perm_list, dtype=np.int32)
        insts = isa.encode_perm(perm)
        recovered = {}
        for inst in insts:
            _, _, count = isa.parse_header(int(inst[0]))
            leaves, slots = isa.decode_perm(inst, count)
            recovered.update(zip(leaves.tolist(), slots.tolist()))
        expected = {i: int(v) for i, v in enumerate(perm) if v >= 0}
        assert recovered == expected

    @given(st.lists(st.integers(-1, 1 << 14), min_size=1, max_size=3000))
    @settings(max_examples=20, deadline=None)
    def test_words_match_the_per_leaf_loop(self, perm_list):
        """The array encoder writes the bytes one word per leaf would."""
        perm = np.array(perm_list, dtype=np.int32)
        expected = []
        occupied = [leaf for leaf, slot in enumerate(perm_list) if slot >= 0]
        for base in range(0, len(occupied), isa.PERM_CAPACITY):
            chunk = occupied[base : base + isa.PERM_CAPACITY]
            inst = isa._blank(isa.Opcode.PERM, len(chunk))
            for i, leaf in enumerate(chunk):
                inst[2 + i] = (leaf << 16) | perm_list[leaf]
            expected.append(inst)
        expected = expected or [isa._blank(isa.Opcode.PERM, 0)]
        got = isa.encode_perm(perm)
        assert [inst.tobytes() for inst in got] == [inst.tobytes() for inst in expected]

    def test_all_empty_still_emits_one(self):
        perm = np.full(16, -1, dtype=np.int32)
        insts = isa.encode_perm(perm)
        assert len(insts) == 1
        _, _, count = isa.parse_header(int(insts[0][0]))
        assert count == 0


class TestFold:
    @pytest.mark.parametrize("eff", [1, 3, 7, 13])
    def test_roundtrip(self, eff):
        rng = np.random.default_rng(eff)
        xa, xb, ob = [], [], []
        for step in range(eff):
            size = 1 << (eff - step - 1)
            xa.append(rng.random(size) < 0.5)
            xb.append(rng.random(size) < 0.5)
            ob.append(rng.random(size) < 0.5)
        inst = isa.encode_fold(eff, xa, xb, ob)
        da, db, do = isa.decode_fold(inst, eff)
        for step in range(eff):
            assert (da[step] == xa[step]).all()
            assert (db[step] == xb[step]).all()
            assert (do[step] == ob[step]).all()


class TestWb:
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 4095), st.integers(0, 8191)),
            max_size=700,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, entries):
        insts = isa.encode_wb(entries)
        decoded = []
        for inst in insts:
            _, _, count = isa.parse_header(int(inst[0]))
            steps, pos, slots = isa.decode_wb(inst, count)
            decoded.extend(zip(steps.tolist(), pos.tolist(), slots.tolist()))
        assert decoded == entries

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, (1 << 14) - 1), st.integers(0, 16383)),
            max_size=700,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_words_match_the_per_entry_loop(self, entries):
        expected = []
        for base in range(0, len(entries), isa.WB_CAPACITY):
            chunk = entries[base : base + isa.WB_CAPACITY]
            inst = isa._blank(isa.Opcode.WB, len(chunk))
            for i, (step, pos, slot) in enumerate(chunk):
                inst[1 + i] = (step << 28) | (pos << 14) | slot
            expected.append(inst)
        got = isa.encode_wb(entries)
        assert [inst.tobytes() for inst in got] == [inst.tobytes() for inst in expected]

    def test_range_check(self):
        with pytest.raises(ValueError):
            isa.encode_wb([(16, 0, 0)])

    @pytest.mark.parametrize(
        "bad", [(16, 0, 0), (0, 1 << 14, 0), (0, 0, isa.MAX_STATE_BITS), (0, -1, 0)]
    )
    def test_range_check_names_the_first_bad_entry(self, bad):
        entries = [(1, 2, 3)] * 300 + [bad, (99, 99, 99)]
        with pytest.raises(ValueError, match=f"out of range: {re.escape(str(bad))}$"):
            isa.encode_wb(entries)


class TestGwrite:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8191),
                st.booleans(),
                st.integers(0, 2**29),
                st.booleans(),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, entries):
        insts = isa.encode_gwrite(entries)
        decoded = []
        for inst in insts:
            _, _, count = isa.parse_header(int(inst[0]))
            slots, inv, gidx, deferred = isa.decode_gwrite(inst, count)
            decoded.extend(
                zip(slots.tolist(), inv.tolist(), gidx.tolist(), deferred.tolist())
            )
        assert decoded == entries


class TestRamOp:
    def test_roundtrip(self):
        op = isa.RamOp(
            ram_index=4,
            addr_bits=13,
            data_bits=32,
            rd_global_base=9000,
            raddr=[(i, i % 2 == 0) for i in range(13)],
            ren=(77, True),
            waddr=[(100 + i, False) for i in range(13)],
            wdata=[(200 + i, i % 3 == 0) for i in range(32)],
            wen=(0, False),
        )
        decoded = isa.decode_ramop(isa.encode_ramop(op))
        assert decoded == op

    def test_slot_range_checked(self):
        op = isa.RamOp(
            ram_index=0,
            addr_bits=1,
            data_bits=1,
            rd_global_base=0,
            raddr=[(1 << 15, False)],
            ren=(0, False),
            waddr=[(0, False)],
            wdata=[(0, False)],
            wen=(0, False),
        )
        with pytest.raises(ValueError):
            isa.encode_ramop(op)


def _pack_bits_loop(bits, words, bit_offset):
    """The per-bit loop ``isa._pack_bits`` replaced, kept as its reference."""
    for i, b in enumerate(bits):
        if b:
            pos = bit_offset + i
            words[pos >> 5] |= np.uint32(1 << (pos & 31))
    return bit_offset + len(bits)


class TestPackBits:
    @given(
        offset=st.integers(0, 200),
        n=st.integers(1, 8192),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_at_any_offset(self, offset, n, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random(n) < 0.5
        # packing ORs into the payload: start from random bits outside the span
        background = rng.random(((offset + n + 63) // 32) * 32) < 0.5
        background[offset : offset + n] = False
        words = np.packbits(background, bitorder="little").view("<u4").copy()
        reference = words.copy()
        end = isa._pack_bits(bits, words, offset)
        assert end == _pack_bits_loop(bits, reference, offset) == offset + n
        assert (words == reference).all()
        got, nxt = isa._unpack_bits(words, offset, n)
        assert nxt == end
        assert (got == bits).all()
        expect = background.copy()
        expect[offset:end] = bits
        assert (isa._unpack_bits(words, 0, len(expect))[0] == expect).all()
