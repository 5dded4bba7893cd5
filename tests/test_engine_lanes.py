"""Packed-lane execution engine (repro.core.engine + lane-batched
interpreter): helper round trips, lane equivalence against sequential
runs, RAM read-first semantics, checkpoint v2/v1 behavior, batched cosim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.engine import WORD_LANES, ExecutionEngine, constant_column
from repro.core.partition import PartitionConfig
from repro.errors import CheckpointError
from repro.harness.cosim import cosim
from repro.rtl import Netlist, WordSim
from repro.rtl.builder import CircuitBuilder
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import bits_to_int, int_to_bits, random_circuit, random_vectors


def _config():
    return GemConfig(
        partition=PartitionConfig(gates_per_partition=400),
        boomerang=BoomerangConfig(width_log2=10),
    )


def _compile(circuit):
    return GemCompiler(_config()).compile(circuit)


def lane_vectors(circuit, batch: int, cycles: int, seed: int = 0):
    """``batch`` independent stimulus streams, one per lane."""
    return [random_vectors(circuit, seed + lane, cycles) for lane in range(batch)]


class TestEngineHelpers:
    @given(st.integers(min_value=0, max_value=(1 << 96) - 1), st.integers(1, 96))
    @settings(max_examples=60, deadline=None)
    def test_int_bits_roundtrip(self, value, nbits):
        value &= (1 << nbits) - 1
        assert bits_to_int(int_to_bits(value, nbits)) == value

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=8),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_lanes_roundtrip(self, values, lane):
        eng = ExecutionEngine(len(values))
        words = eng.pack_lanes(values, 20)
        assert eng.lane_ints(eng.unpack_lanes(words)).tolist() == values

    @given(
        st.integers(1, WORD_LANES),
        st.integers(1, 70),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_lanes_matches_loop_reference(self, batch, nbits, seed):
        """The vectorized unpackbits/shift-reduce path is bit-identical
        to the per-lane loop it replaced, at every batch and width."""
        import random

        rng = random.Random(seed)
        values = [rng.getrandbits(nbits + 3) for _ in range(batch)]
        eng = ExecutionEngine(batch)
        reference = np.zeros(nbits, dtype=np.uint64)
        for lane, value in enumerate(values):  # the old per-lane loop
            bits = int_to_bits(value & ((1 << nbits) - 1), nbits)
            reference |= np.where(bits, np.uint64(1), np.uint64(0)) << np.uint64(lane)
        assert (eng.pack_lanes(values, nbits) == reference[:, None]).all()

    @given(
        st.sampled_from([1, 3, 64, 128, 1024]),
        st.integers(1, 130),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_unpack_lanes_inverts_pack_lanes(self, batch, nbits, seed):
        """``unpack_lanes(pack_lanes(v, n))`` is ``v``'s bit matrix and
        ``lane_ints`` brings the integers back — single word and K-word
        planes, list and array inputs, ports wider than a machine word."""
        import random

        rng = random.Random(seed)
        values = [rng.getrandbits(nbits) for _ in range(batch)]
        eng = ExecutionEngine(batch)
        words = eng.pack_lanes(values, nbits)
        assert words.dtype == np.uint64
        assert words.shape == (nbits, eng.words)
        bits = eng.unpack_lanes(words)
        assert bits.shape == (nbits, batch) and bits.dtype == np.uint8
        for lane in (0, batch // 2, batch - 1):  # the per-lane loop reference
            assert bits_to_int(bits[:, lane]) == values[lane]
        ints = eng.lane_ints(bits)
        assert ints.dtype == (np.uint64 if nbits <= 64 else object)
        assert ints.tolist() == values
        if nbits <= 64:  # the array-native input form packs identically
            column = np.array(values, dtype=np.uint64)
            assert np.array_equal(eng.pack_lanes(column, nbits), words)

    def test_pack_lanes_masks_to_port_width(self):
        eng = ExecutionEngine(3)
        for values in ([-1, 0x1FF, 5], np.array([-1, 0x1FF, 5], dtype=np.int64)):
            words = eng.pack_lanes(values, 8)
            assert eng.lane_ints(eng.unpack_lanes(words)).tolist() == [0xFF, 0xFF, 5]
        wide = eng.pack_lanes([-1, 1 << 70, 7], 66)
        assert eng.lane_ints(eng.unpack_lanes(wide)).tolist() == [(1 << 66) - 1, 0, 7]

    def test_batch_bounds(self):
        with pytest.raises(ValueError):
            ExecutionEngine(0)
        with pytest.raises(ValueError):
            ExecutionEngine(WORD_LANES + 1)

    def test_lane_mask_covers_active_lanes_only(self):
        assert ExecutionEngine(1).lane_mask == np.uint64(1)
        assert ExecutionEngine(3).lane_mask == np.uint64(0b111)
        assert ExecutionEngine(64).lane_mask == np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_program_constants_are_lane_free(self):
        """A decoded constant is 0 or every lane whatever the batch: an
        ``(n, 1)`` column that broadcasts across any lane plane."""
        column = constant_column(np.array([True, False, True]))
        assert column.shape == (3, 1) and column.dtype == np.uint64
        assert column.ravel().tolist() == [0xFFFFFFFFFFFFFFFF, 0, 0xFFFFFFFFFFFFFFFF]
        assert ExecutionEngine(3).zeros(5).shape == (5, 1)

    def test_lane_values_roundtrip(self):
        eng = ExecutionEngine(4)
        values = np.array([3, 14, 0, 9], dtype=np.uint64)
        words = eng.pack_lanes(values, 4)
        assert (eng.lane_values(words) == values).all()
        planes = ExecutionEngine(128)
        values = np.arange(128, dtype=np.uint64) * 3 % 61
        assert (planes.lane_values(planes.pack_lanes(values, 6)) == values).all()

    def test_merge_respects_lane_mask(self):
        dst = np.array([0b1010], dtype=np.uint64)
        gidx = np.array([0])
        ExecutionEngine.merge(dst, gidx, np.array([0b0101], dtype=np.uint64), np.uint64(0b0011))
        assert dst[0] == 0b1001  # low two lanes replaced, high two kept
        ExecutionEngine.merge(dst, gidx, np.array([0b1111], dtype=np.uint64), None)
        assert dst[0] == 0b1111  # no mask: plain overwrite


@pytest.fixture(scope="module")
def memory_design():
    circuit = random_circuit(401, n_ops=50, n_regs=3, with_memory=True)
    return circuit, _compile(circuit)


class TestLaneEquivalence:
    """Tentpole acceptance: a batch-B run is bit-identical to B
    independent sequential runs, on a design with FFs and RAMs."""

    @pytest.mark.parametrize("batch", [2, 7, 16])
    def test_batched_matches_sequential(self, memory_design, batch):
        circuit, design = memory_design
        streams = lane_vectors(circuit, batch, 30, seed=50)
        sequential = [design.simulator().run(streams[lane]) for lane in range(batch)]

        sim = design.simulator(batch=batch)
        for cycle in range(30):
            outs = sim.step_lanes([streams[lane][cycle] for lane in range(batch)])
            for lane in range(batch):
                assert outs[lane] == sequential[lane][cycle], (
                    f"lane {lane} diverged at cycle {cycle}"
                )

    def test_property_random_designs(self):
        """Seeded-random sweep over fresh designs (FFs + RAM each time)."""
        for seed in (402, 403):
            circuit = random_circuit(seed, n_ops=40, n_regs=2, with_memory=True)
            design = _compile(circuit)
            batch = 3 + (seed % 4)
            streams = lane_vectors(circuit, batch, 20, seed=seed)
            sequential = [design.simulator().run(s) for s in streams]
            batched = design.simulator(batch=batch).run_lanes(
                [[s[c] for s in streams] for c in range(20)]
            )
            for lane in range(batch):
                assert [row[lane] for row in batched] == sequential[lane]

    def test_broadcast_lanes_identical(self, memory_design):
        circuit, design = memory_design
        stimuli = random_vectors(circuit, 60, 25)
        golden = design.simulator().run(stimuli)
        sim = design.simulator(batch=8)
        for cycle, vec in enumerate(stimuli):
            outs = sim.step_lanes(vec)  # one mapping: broadcast
            assert all(out == golden[cycle] for out in outs)

    def test_batch1_step_bit_identical(self, memory_design):
        """The single-instance API is verbatim the batch=1 case."""
        circuit, design = memory_design
        stimuli = random_vectors(circuit, 61, 25)
        assert design.simulator(batch=1).run(stimuli) == design.simulator().run(stimuli)

    @pytest.mark.parametrize("engine", ["native", "numpy", "reference"])
    @pytest.mark.parametrize("batch", [1, 3, 63])
    def test_unread_lanes_are_never_read(self, memory_design, engine, batch):
        """Lanes beyond the batch keep executing and nothing reads them:
        poisoning their bits mid-run moves no output, per-lane digest,
        RAM image, probe sample or activity count of the batch's lanes."""
        from repro.core.backend import available_backends
        from repro.obs.activity import ActivityAccumulator
        from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan

        if engine == "native" and "native" not in available_backends():
            pytest.skip("no C compiler and no cached kernel here")
        circuit, design = memory_design
        streams = lane_vectors(circuit, batch, 24, seed=70)
        rows = [[s[c] for s in streams] for c in range(24)]
        plan = build_probe_plan(design)

        def run(poison: bool):
            if engine == "reference":
                sim = ReferenceInterpreter(design.program, batch=batch)
            else:
                sim = design.simulator(batch=batch, backend=engine)
            ring, activity = WaveRing(plan, capacity=24), ActivityAccumulator(plan)
            ProbeTap(plan, [ring, activity]).attach(sim)
            outputs = sim.run_lanes(rows[:12])
            if poison:
                unread = ~sim.engine.lanes_mask(range(batch))
                noise = np.random.default_rng(batch).integers(
                    0, 1 << 64, sim.global_state.shape, dtype=np.uint64
                )
                sim.global_state ^= noise & unread
            outputs += sim.run_lanes(rows[12:])
            return (
                outputs,
                sim.state.digest_lanes(sim.engine),
                [image.tolist() for image in sim.ram_arrays],
                [ring.lane_samples(lane) for lane in range(batch)],
                [counts.tolist() for counts in (activity.t0, activity.t1, activity.tc)],
            )

        assert run(poison=True) == run(poison=False)

    def test_counters_report_lanes(self, memory_design):
        circuit, design = memory_design
        sim = design.simulator(batch=16)
        sim.run(random_vectors(circuit, 62, 5))
        assert sim.counters.lanes == 16
        assert sim.counters.lane_cycles == 5 * 16
        per_cycle = sim.counters.per_cycle()
        per_lane = sim.counters.per_lane_cycle()
        assert per_lane["fold_steps"] == pytest.approx(per_cycle["fold_steps"] / 16)


class TestBatchedCheckpoint:
    def test_checkpoint_resume_mid_batch(self, memory_design, tmp_path):
        """Satellite acceptance: checkpoint/resume mid-run of a batched
        simulation stays bit-identical to uninterrupted sequential runs."""
        from repro.runtime.checkpoint import load_checkpoint, restore, save_checkpoint, snapshot

        circuit, design = memory_design
        batch, cycles, cut = 5, 30, 17
        streams = lane_vectors(circuit, batch, cycles, seed=80)
        per_cycle = [[s[c] for s in streams] for c in range(cycles)]
        sequential = [design.simulator().run(s) for s in streams]

        sim = design.simulator(batch=batch)
        sim.run_lanes(per_cycle[:cut])
        path = str(tmp_path / "mid.gemk")
        save_checkpoint(snapshot(sim), path)
        del sim

        resumed = restore(design.simulator(batch=batch), load_checkpoint(path))
        assert resumed.cycle == cut
        tail = resumed.run_lanes(per_cycle[cut:])
        for lane in range(batch):
            assert [row[lane] for row in tail] == sequential[lane][cut:]

    def test_restore_rejects_batch_mismatch(self, memory_design):
        from repro.runtime.checkpoint import restore, snapshot

        circuit, design = memory_design
        sim = design.simulator(batch=4)
        sim.run(random_vectors(circuit, 81, 5))
        with pytest.raises(CheckpointError, match="lanes"):
            restore(design.simulator(batch=2), snapshot(sim))

    def test_v2_words_carry_batch(self, memory_design):
        from repro.runtime.checkpoint import checkpoint_from_words, checkpoint_to_words, snapshot

        circuit, design = memory_design
        sim = design.simulator(batch=6)
        streams = lane_vectors(circuit, 6, 12, seed=82)
        sim.run_lanes([[s[c] for s in streams] for c in range(12)])
        back = checkpoint_from_words(checkpoint_to_words(snapshot(sim)))
        assert back.batch == 6
        assert back.counters.lanes == 6
        assert (back.global_state == sim.global_state).all()
        for a, b in zip(back.ram_arrays, sim.ram_arrays):
            assert a.shape == b.shape == (6, b.shape[1])
            assert (a == b).all()

    def test_v1_checkpoint_is_refused(self, memory_design):
        """Pre-lane (v1, bit-packed) files are a retired format: a sealed,
        intact one is refused with its version in the message."""
        from repro.runtime.checkpoint import checkpoint_from_words, snapshot
        from tests.test_runtime_checkpoint import _v1_words

        circuit, design = memory_design
        sim = design.simulator()
        for vec in random_vectors(circuit, 83, 14):
            sim.step(vec)
        with pytest.raises(CheckpointError, match="format version 1"):
            checkpoint_from_words(_v1_words(snapshot(sim)))


class TestRamReadFirst:
    """Satellite: directed read-first coverage — ``ren`` and ``wen`` on
    the same address in the same cycle must return the pre-write word."""

    @pytest.fixture(scope="class")
    def ram_design(self):
        b = CircuitBuilder("readfirst")
        addr = b.input("addr", 4)
        wdata = b.input("wdata", 8)
        wen = b.input("wen", 1)
        ren = b.input("ren", 1)
        mem = b.memory("mem", 16, 8, init=[0xA0 + i for i in range(16)])
        b.write(mem, wen, addr, wdata)
        b.output("rd", b.read(mem, addr, sync=True, en=ren))
        circuit = b.build()
        return circuit, _compile(circuit)

    def test_same_address_same_cycle(self, ram_design):
        circuit, design = ram_design
        sim = design.simulator()
        # Cycle 0: read and write address 5 together.
        out = sim.step({"addr": 5, "wdata": 0x3C, "wen": 1, "ren": 1})
        # Cycle 1: the registered read data is the OLD word, not 0x3C...
        out = sim.step({"addr": 5, "wdata": 0, "wen": 0, "ren": 1})
        assert out["rd"] == 0xA5
        # ...and the write did land: the next read returns the new word.
        out = sim.step({"addr": 0, "wdata": 0, "wen": 0, "ren": 0})
        assert out["rd"] == 0x3C

    def test_matches_word_level_golden(self, ram_design):
        circuit, design = ram_design
        import random

        rng = random.Random(5)
        stimuli = [
            {
                "addr": rng.randrange(16),
                "wdata": rng.randrange(256),
                "wen": rng.randrange(2),
                "ren": rng.randrange(2),
            }
            for _ in range(40)
        ]
        # Force plenty of same-address read+write collisions.
        for vec in stimuli[::3]:
            vec["addr"], vec["wen"], vec["ren"] = 7, 1, 1
        ref = WordSim(Netlist(circuit))
        sim = design.simulator()
        for cycle, vec in enumerate(stimuli):
            assert sim.step(vec) == ref.step(vec), f"cycle {cycle}"

    def test_per_lane_enables(self, ram_design):
        """Lanes with ren=0 hold their read register; lanes with wen=0
        keep their RAM image — enables are honored per lane."""
        circuit, design = ram_design
        batch = 4
        streams = [
            [
                {
                    "addr": 5,
                    "wdata": 0x10 + lane,
                    "wen": int(lane % 2 == 0),
                    "ren": int(lane < 2),
                },
                {"addr": 5, "wdata": 0, "wen": 0, "ren": 1},
                {"addr": 0, "wdata": 0, "wen": 0, "ren": 0},
            ]
            for lane in range(batch)
        ]
        sequential = [design.simulator().run(s) for s in streams]
        batched = design.simulator(batch=batch).run_lanes(
            [[s[c] for s in streams] for c in range(3)]
        )
        for lane in range(batch):
            assert [row[lane] for row in batched] == sequential[lane]


class TestBatchedCosim:
    def test_each_lane_checked_against_reference(self, memory_design):
        circuit, design = memory_design
        batch = 4
        streams = lane_vectors(circuit, batch, 20, seed=90)
        result = cosim(
            [WordSim(Netlist(circuit)) for _ in range(batch)],
            design.simulator(batch=batch),
            streams,
        )
        assert result.passed
        assert result.cycles == 20
        assert [len(row) for row in result.trace] == [batch] * 20

    def test_divergence_names_the_lane(self, memory_design):
        circuit, design = memory_design
        batch = 3
        streams = lane_vectors(circuit, batch, 15, seed=91)

        class LyingDut:
            def __init__(self, sim, bad_lane):
                self.sim, self.bad_lane = sim, bad_lane

            def run_lanes(self, rows):
                outputs = self.sim.run_lanes(rows)
                for row in outputs:
                    for name in row[self.bad_lane]:
                        row[self.bad_lane][name] ^= 1
                return outputs

        result = cosim(
            [WordSim(Netlist(circuit)) for _ in range(batch)],
            LyingDut(design.simulator(batch=batch), bad_lane=2),
            streams,
        )
        assert not result.passed
        divergence = result.divergence
        assert (divergence.cycle, divergence.lane) == (0, 2)
        assert divergence.inputs == streams[2][0] and divergence.recent_inputs == []
        assert "lane 2" in divergence.describe()

    def test_mismatched_stream_lengths_rejected(self, memory_design):
        circuit, design = memory_design
        streams = lane_vectors(circuit, 2, 10, seed=92)
        references = [WordSim(Netlist(circuit)) for _ in range(2)]
        with pytest.raises(ValueError, match="as many stimulus streams"):
            cosim(references, design.simulator(batch=2), streams[:1])
        streams[1] = streams[1][:5]
        with pytest.raises(ValueError, match="same length"):
            cosim(references, design.simulator(batch=2), streams)


class TestLanePlanes:
    """Multi-word lane planes: batch = K×64 (docs/ENGINE.md §7)."""

    def test_validation_typing_and_messages(self):
        from repro.core.engine import MAX_LANE_WORDS, validate_batch
        from repro.errors import GemError, LaneConfigError

        # non-positive: typed GemError, verbatim historical message
        with pytest.raises(LaneConfigError, match=r"batch must be in \[1, 64\], got 0"):
            ExecutionEngine(0)
        with pytest.raises(GemError):
            ExecutionEngine(-3)
        # 65 is still rejected: not a whole number of 64-lane words
        with pytest.raises(LaneConfigError, match="whole number"):
            ExecutionEngine(WORD_LANES + 1)
        with pytest.raises(LaneConfigError, match="lane-plane limit"):
            validate_batch((MAX_LANE_WORDS + 1) * WORD_LANES)
        assert validate_batch(64) == 1
        assert validate_batch(256) == 4
        assert validate_batch(4096) == 64

    def test_engine_geometry(self):
        eng = ExecutionEngine(256)
        assert eng.words == 4
        assert eng.zeros(5).shape == (5, 4)
        assert eng.lane_coords(0) == (0, 0)
        assert eng.lane_coords(70) == (1, 6)
        assert int(eng.lane_mask) == 0xFFFFFFFFFFFFFFFF

    def test_pack_unpack_roundtrip_multiword(self):
        rng = np.random.default_rng(3)
        eng = ExecutionEngine(192)
        values = [int(v) for v in rng.integers(0, 1 << 20, 192)]
        words = eng.pack_lanes(values, 20)
        assert words.shape == (20, 3)
        assert eng.lane_ints(eng.unpack_lanes(words)).tolist() == values

    def test_quarantine_is_lane_exact(self):
        eng = ExecutionEngine(256)
        bits = eng.lane_bits(eng.lanes_mask([3, 70, 255]))
        assert np.nonzero(bits)[0].tolist() == [3, 70, 255]
        assert not eng.lane_bits(eng.lanes_mask([])).any()
        with pytest.raises(ValueError, match="lane 256 out of range"):
            eng.lanes_mask([3, 256])

    #: the executor, and the ISA-literal reference interpreter (the
    #: per-partition loop that used to be ``mode="legacy"``)
    ENGINES = {
        "fused": lambda design, batch: design.simulator(batch=batch),
        "legacy": lambda design, batch: ReferenceInterpreter(design.program, batch=batch),
    }

    @pytest.mark.parametrize("mode", ["fused", "legacy"])
    @pytest.mark.parametrize("batch", [128, 256])
    def test_plane_batch_matches_stacked_batch64(self, memory_design, mode, batch):
        """A K-word run is bit-identical to K independent batch-64 runs
        over the same lane streams — the tentpole's acceptance check."""
        circuit, design = memory_design
        make = self.ENGINES[mode]
        cycles = 10
        streams = lane_vectors(circuit, batch, cycles, seed=17)
        big = make(design, batch)
        big_rows = big.run_lanes([[s[c] for s in streams] for c in range(cycles)])
        for word in range(batch // WORD_LANES):
            lo = word * WORD_LANES
            small = make(design, WORD_LANES)
            small_rows = small.run_lanes(
                [[s[c] for s in streams[lo : lo + WORD_LANES]] for c in range(cycles)]
            )
            for cycle in range(cycles):
                assert big_rows[cycle][lo : lo + WORD_LANES] == small_rows[cycle]

    def test_batch_1024_spot_check_fused(self, memory_design):
        """1024 lanes (K=16): lane k of word w matches the stacked run,
        and the whole plane matches the reference interpreter."""
        circuit, design = memory_design
        cycles = 6
        batch = 1024
        streams = lane_vectors(circuit, batch, cycles, seed=23)
        vecs = [[s[c] for s in streams] for c in range(cycles)]
        big = design.simulator(batch=batch)
        big_rows = big.run_lanes(vecs)
        reference = ReferenceInterpreter(design.program, batch=batch)
        assert reference.run_lanes(vecs) == big_rows
        assert np.array_equal(reference.global_state, big.global_state)
        for word in (0, 7, 15):  # first, middle, last plane word
            lo = word * WORD_LANES
            small = design.simulator(batch=WORD_LANES)
            small_rows = small.run_lanes(
                [[s[c] for s in streams[lo : lo + WORD_LANES]] for c in range(cycles)]
            )
            for cycle in range(cycles):
                assert big_rows[cycle][lo : lo + WORD_LANES] == small_rows[cycle]

    def test_quarantined_plane_run_stays_lane_exact(self, memory_design):
        """Quarantining lanes across plane words leaves every healthy
        lane bit-identical to a clean run, and two identically
        quarantined runs agree everywhere (the scrub-digest contract)."""
        circuit, design = memory_design
        cycles = 8
        streams = lane_vectors(circuit, 128, cycles, seed=41)
        vecs = [[s[c] for s in streams] for c in range(cycles)]
        clean = design.simulator(batch=128)
        clean_rows = clean.run_lanes(vecs)
        dirty = design.simulator(batch=128)
        dirty.quarantine_lanes([5, 100])
        assert dirty.quarantined_lanes == [5, 100]
        dirty_rows = dirty.run_lanes(vecs)
        for cycle in range(cycles):
            for lane in range(128):
                if lane not in (5, 100):
                    assert dirty_rows[cycle][lane] == clean_rows[cycle][lane]
        shadow = ReferenceInterpreter(design.program, batch=128)
        shadow.quarantine_lanes([5, 100])
        shadow_rows = shadow.run_lanes(vecs)
        assert np.array_equal(dirty.global_state, shadow.global_state)
        assert shadow_rows == dirty_rows


def _rotated_lanes(stimuli, batch, cycles):
    """Per cycle, one vector per lane: lane ``l`` runs ``l`` cycles ahead."""
    n = len(stimuli)
    return [[stimuli[(c + lane) % n] for lane in range(batch)] for c in range(cycles)]


def _columns(sim, vecs):
    """The array-API form of one cycle's per-lane dicts."""
    return {
        name: np.array(
            [vec.get(name, 0) for vec in vecs],
            dtype=np.uint64 if idx.size <= 64 else object,
        )
        for name, idx in sim.loaded.pi_tables.items()
    }


class TestArrayLaneIO:
    """The array-native lane API and the dict adapter over it."""

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_outputs_lanes_matches_loop_reference_on_rocketchip(self, batch):
        """``outputs_lanes()`` against the per-lane ``bits_to_int`` loop
        it replaced (``ExecutionEngine.lane_int``, kept here as the
        reference), with one lane quarantined mid-run."""
        from repro.harness.runner import compile_design, design_workloads

        design = compile_design("rocketchip")
        stimuli = next(iter(design_workloads("rocketchip").values())).stimuli
        sim = design.simulator(batch=batch)
        one = np.uint64(1)
        for cycle, vecs in enumerate(_rotated_lanes(stimuli, batch, 24)):
            if cycle == 8:
                sim.quarantine_lanes([batch // 2])
            outs = sim.step_lanes(vecs)
            assert outs == sim.outputs_lanes()
            assert outs[0] == sim.outputs()
            for lane in range(batch):
                word, bit = divmod(lane, WORD_LANES)
                for name, idx in sim.program.meta.po_index.items():
                    words = sim.global_state[idx]
                    column = words[:, word]
                    assert outs[lane][name] == bits_to_int((column >> np.uint64(bit)) & one)
        assert sim.quarantined_lanes == [batch // 2]

    @pytest.mark.parametrize("batch", [8, 128])
    @pytest.mark.parametrize(
        "name",
        [
            n if n in ("rocketchip", "gemmini", "openpiton1")
            else pytest.param(n, marks=pytest.mark.slow)
            for n in ("gemmini", "nvdla", "openpiton1", "openpiton8", "rocketchip")
        ],
    )
    def test_step_arrays_equals_step_lanes_on_designs(self, name, batch):
        """Every registered design, its stock stimuli: arrays in / arrays
        out is the dict adapter's result column for column, state for
        state."""
        from repro.harness.runner import DESIGNS, compile_design, design_workloads

        assert name in DESIGNS
        design = compile_design(name)
        stimuli = next(iter(design_workloads(name).values())).stimuli
        by_dict = design.simulator(batch=batch)
        by_array = design.simulator(batch=batch)
        for vecs in _rotated_lanes(stimuli, batch, min(16, len(stimuli))):
            rows = by_dict.step_lanes(vecs)
            columns = by_array.step_arrays(_columns(by_array, vecs))
            assert list(columns) == list(rows[0])
            for po, column in columns.items():
                assert column.shape == (batch,)
                assert column.tolist() == [row[po] for row in rows]
        assert np.array_equal(by_dict.global_state, by_array.global_state)

    def test_wide_ports_travel_as_object_columns(self):
        b = CircuitBuilder("wide")
        x = b.input("x", 100)
        acc = b.reg("acc", 100)
        acc.next = acc ^ x
        b.output("y", acc ^ x)
        b.output("lo", x.trunc(8))
        design = _compile(b.build())
        sim = design.simulator(batch=5)
        values = [(0xDEADBEEF << 68) | lane for lane in range(5)]
        cols = sim.step_arrays({"x": np.array(values, dtype=object)})
        assert cols["y"].dtype == object and cols["y"].tolist() == values
        assert cols["lo"].dtype == np.uint64 and cols["lo"].tolist() == [0, 1, 2, 3, 4]
        assert sim.step_lanes([{"x": v} for v in values])[3]["y"] == 0

    def test_step_arrays_rejects_malformed_stimulus(self, memory_design):
        from repro.errors import LaneConfigError

        circuit, design = memory_design
        sim = design.simulator(batch=4)
        name = circuit.inputs[0].name
        with pytest.raises(LaneConfigError, match=r"shape \(4,\), got \(3,\)"):
            sim.step_arrays({name: np.zeros(3, dtype=np.uint64)})
        with pytest.raises(LaneConfigError, match="unknown primary input .nope."):
            sim.step_arrays({"nope": np.zeros(4, dtype=np.uint64)})
        with pytest.raises(LaneConfigError, match="integer array, got dtype float64"):
            sim.step_arrays({name: np.zeros(4)})
        with pytest.raises(LaneConfigError, match="non-integer values"):
            sim.step_arrays({name: np.array([1, 2.5, 3, 4], dtype=object)})
        assert sim.cycle == 0  # nothing above advanced the simulation
        sim.step_arrays({name: [1, 2, 3, 4]})  # plain sequences are fine
        sim.step_arrays()  # every PI 0 on every lane
        assert sim.cycle == 2

    def test_dict_adapter_stays_tolerant(self, memory_design):
        """Missing name -> 0, values masked to the port width, unknown
        names ignored, wrong list length -> the historical ValueError."""
        circuit, design = memory_design
        sig = circuit.inputs[0]
        vec = random_vectors(circuit, 5, 1)[0]
        strict = design.simulator(batch=2)
        loose = design.simulator(batch=2)
        want = strict.step_lanes([vec, {**vec, sig.name: 0}])
        got = loose.step_lanes(
            [
                {**vec, sig.name: vec[sig.name] | (1 << (sig.width + 3)), "nope": 7},
                {k: v for k, v in vec.items() if k != sig.name},
            ]
        )
        assert got == want
        with pytest.raises(ValueError, match="expected 2 per-lane input vectors, got 3"):
            loose.step_lanes([vec, vec, vec])

    def test_supervisor_shadow_reads_back_lane_zero_only(self, memory_design, monkeypatch):
        """Per cycle the primary materialises every lane once; the
        redundant shadow advances all lanes and reads lane 0 only."""
        from repro.core.compiler import GemSimulator
        from repro.runtime.supervisor import Supervisor

        circuit, design = memory_design
        calls = []
        original = GemSimulator.outputs_arrays
        monkeypatch.setattr(
            GemSimulator,
            "outputs_arrays",
            lambda self: calls.append(self) or original(self),
        )
        stimuli = random_vectors(circuit, 9, 12)
        result = Supervisor(design, batch=4).run(stimuli)
        assert not result.degraded and result.faults_detected == 0
        assert len(calls) == len(stimuli) and len(set(map(id, calls))) == 1
        assert [rows[0] for rows in result.lane_outputs] == result.outputs


def _scalar_io_design(values=2):
    """A 1-bit, an 8-bit and a 100-bit input; a 1-bit, an 8-bit and a
    100-bit output."""
    b = CircuitBuilder("scalario")
    en, k, x = b.input("en", 1), b.input("k", 8), b.input("x", 100)
    acc = b.reg("acc", 100)
    acc.next = acc ^ x
    b.output("y", acc ^ x)
    b.output("lo", x.trunc(8) ^ k)
    b.output("flag", en ^ k[0])
    if values == 4:
        from repro.fourstate.fastpath import compile_fourstate

        return compile_fourstate(b.build(), _config())
    return _compile(b.build())


def _reference_inject(sim, inputs):
    """``step()``'s inject before the packed word: one ``int_to_bits`` and
    one scatter per port."""
    for name, idx in sim.loaded.pi_tables.items():
        bits = int_to_bits((inputs or {}).get(name, 0), idx.size)
        words = np.where(bits, sim.engine.lane_mask, np.uint64(0))
        sim.global_state[idx] = words[:, None]


def _reference_outputs(sim):
    """``outputs()`` before the packed word: one ``bits_to_int`` per port."""
    lane0 = sim.global_state[:, 0]
    po_index = sim.program.meta.po_index
    return {name: bits_to_int(lane0[idx] & np.uint64(1)) for name, idx in po_index.items()}


_port_value = st.integers(-(1 << 110), (1 << 110))
_scalar_inputs = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(["en", "k", "x", "nope", "x__x", "k__x"]), _port_value, max_size=6
    ),
)


class TestScalarPackedIO:
    """``step()`` moves its stimulus in through the pack layer as the
    block of one cycle and its outputs back the same way; both must equal
    the per-port forms they replaced, tolerance included: negative values and values wider than
    the port are masked, a missing name is 0, an unknown name is ignored,
    ``None`` is the all-zero vector."""

    @pytest.fixture(scope="class")
    def designs(self):
        return {2: _scalar_io_design(), 4: _scalar_io_design(values=4)}

    @pytest.mark.parametrize("values, batch", [(2, 1), (2, 64), (2, 128), (4, 1), (4, 128)])
    @given(stream=st.lists(_scalar_inputs, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_step_equals_per_port_reference(self, designs, values, batch, stream):
        from repro.fourstate.fastpath import _encode_stimulus

        sim = designs[values].simulator(batch=batch)
        assert sim.values == values
        assert {idx.size for idx in sim.loaded.pi_tables.values()} >= {1, 8, 100}
        pi_gidx = sim.loaded.pi_gidx
        for inputs in stream:
            sim.global_state[pi_gidx] = np.uint64(0xDEAD)  # every PI bit is rewritten
            outs = sim.step(inputs)
            injected = sim.global_state[pi_gidx]  # nothing but the block's scatter writes a PI
            encoded = _encode_stimulus(sim.dual, inputs or {}) if values == 4 else inputs
            _reference_inject(sim, encoded)
            assert np.array_equal(sim.global_state[pi_gidx], injected)
            assert outs == _reference_outputs(sim) == sim.outputs()
            assert all(type(value) is int for value in outs.values())

    def test_numpy_integers_and_bools_are_values_too(self, designs):
        """The word is built with Python ints: a NumPy scalar's own shift
        would wrap at 64 bits on its way to the 100-bit port's field."""
        got = designs[2].simulator().step({"x": np.uint64(7), "k": np.int64(-1), "en": True})
        assert got == designs[2].simulator().step({"x": 7, "k": 255, "en": 1})
        with pytest.raises(TypeError):
            designs[2].simulator().step({"k": 1.5})

    def test_a_design_without_ports_still_steps(self):
        b = CircuitBuilder("closed")
        tick = b.reg("tick", 3)
        tick.next = tick + 1
        b.output("t", tick)
        sim = _compile(b.build()).simulator()
        assert [sim.step()["t"] for _ in range(3)] == [0, 1, 2]
        assert sim.step({"nope": 1}) == {"t": 3}
