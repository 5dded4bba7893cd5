"""Checkpoint/restore (repro.runtime.checkpoint): bit-identical resume,
binary round trips, corruption rejection, and the rotating manager."""

import json
import os
import zlib

import numpy as np
import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.integrity import seal, unseal
from repro.core.partition import PartitionConfig
from repro.errors import CheckpointError
from repro.harness.runner import compile_design, design_workloads
from repro.runtime.checkpoint import (
    CKPT_MAGIC,
    JOURNAL_VERSION,
    CheckpointManager,
    _COUNTER_FIELDS,
    _u64_pair,
    checkpoint_from_words,
    checkpoint_to_words,
    load_checkpoint,
    resolve_resume,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.runtime.supervisor import state_digest
from tests.helpers import random_circuit, random_vectors


def _compile(seed: int, **kwargs):
    circuit = random_circuit(seed, n_ops=50, **kwargs)
    design = GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)
    return circuit, design


class TestSnapshotRestore:
    def test_memory_roundtrip_bit_identical(self):
        circuit, design = _compile(21, with_memory=True)
        stimuli = random_vectors(circuit, 5, 40)
        golden = design.simulator().run(stimuli)

        sim = design.simulator()
        for vec in stimuli[:23]:
            sim.step(vec)
        ckpt = snapshot(sim)
        resumed = restore(design.simulator(), ckpt)
        assert resumed.cycle == 23
        assert resumed.run(stimuli[23:]) == golden[23:]

    def test_counters_restored(self):
        circuit, design = _compile(22)
        stimuli = random_vectors(circuit, 1, 10)
        sim = design.simulator()
        sim.run(stimuli)
        ckpt = snapshot(sim)
        other = restore(design.simulator(), ckpt)
        assert other.counters.cycles == sim.counters.cycles
        assert other.counters.fold_steps == sim.counters.fold_steps

    def test_restore_rejects_wrong_program(self):
        circuit_a, design_a = _compile(23)
        circuit_b, design_b = _compile(24)
        sim = design_a.simulator()
        sim.run(random_vectors(circuit_a, 0, 5))
        with pytest.raises(CheckpointError, match="different bitstream"):
            restore(design_b.simulator(), snapshot(sim))

    @pytest.mark.parametrize(
        "field, spoil",
        [
            ("ram_arrays", lambda images: [*images[:-1], images[-1][:, :-1]]),  # wrong depth
            ("global_state", lambda words: words[:-1]),
            ("batch", lambda _: 3),
            ("values", lambda _: 4),
            ("program_digest", lambda digest: digest ^ 1),
        ],
    )
    def test_rejected_restore_leaves_the_target_untouched(self, field, spoil):
        """Every check runs before the first write: restore used to
        overwrite the global state and the leading RAM images, then raise
        on a later image's shape."""
        circuit, design = _compile(21, with_memory=True)
        stimuli = random_vectors(circuit, 5, 20)
        source, target = design.simulator(batch=2), design.simulator(batch=2)
        golden = source.run(stimuli)
        target.run(stimuli[:7])
        ckpt = snapshot(source)
        assert ckpt.ram_arrays
        setattr(ckpt, field, spoil(getattr(ckpt, field)))
        before = state_digest(target), target.cycle, target.counters.fold_steps
        with pytest.raises(CheckpointError):
            restore(target, ckpt)
        assert (state_digest(target), target.cycle, target.counters.fold_steps) == before
        assert target.run(stimuli[7:]) == golden[7:]


class TestBinaryFormat:
    def test_words_roundtrip(self):
        circuit, design = _compile(25, with_memory=True)
        sim = design.simulator()
        sim.run(random_vectors(circuit, 2, 17))
        ckpt = snapshot(sim)
        back = checkpoint_from_words(checkpoint_to_words(ckpt))
        assert back.cycle == ckpt.cycle
        assert back.program_digest == ckpt.program_digest
        assert (back.global_state == ckpt.global_state).all()
        assert len(back.ram_arrays) == len(ckpt.ram_arrays)
        for a, b in zip(back.ram_arrays, ckpt.ram_arrays):
            assert (a == b).all()
        assert back.counters == ckpt.counters

    def test_file_roundtrip_and_resume(self, tmp_path):
        circuit, design = _compile(26)
        stimuli = random_vectors(circuit, 3, 30)
        golden = design.simulator().run(stimuli)
        sim = design.simulator()
        for vec in stimuli[:11]:
            sim.step(vec)
        path = str(tmp_path / "run.gemk")
        save_checkpoint(snapshot(sim), path)
        resumed = restore(design.simulator(), load_checkpoint(path))
        assert resumed.run(stimuli[11:]) == golden[11:]

    def test_corrupted_file_rejected(self, tmp_path):
        circuit, design = _compile(27)
        sim = design.simulator()
        sim.run(random_vectors(circuit, 4, 8))
        path = str(tmp_path / "bad.gemk")
        save_checkpoint(snapshot(sim), path)
        words = np.fromfile(path, dtype=np.uint32)
        rng = np.random.default_rng(1)
        for _ in range(20):
            corrupted = words.copy()
            index = int(rng.integers(corrupted.size))
            corrupted[index] = np.uint32(int(corrupted[index]) ^ (1 << int(rng.integers(32))))
            corrupted.tofile(path)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.gemk"))


class TestCheckpointManager:
    def test_rotation_keeps_newest(self, tmp_path):
        circuit, design = _compile(28)
        stimuli = random_vectors(circuit, 5, 30)
        manager = CheckpointManager(str(tmp_path), every=5, keep=2)
        sim = design.simulator()
        for vec in stimuli:
            sim.step(vec)
            manager.maybe_save(sim)
        paths = manager.paths()
        assert len(paths) == 2
        assert paths[-1].endswith(f"ckpt-{30:012d}.gemk")
        assert manager.latest().cycle == 30

    def test_latest_skips_corrupt_newest(self, tmp_path):
        circuit, design = _compile(29)
        manager = CheckpointManager(str(tmp_path), every=1, keep=5)
        sim = design.simulator()
        for vec in random_vectors(circuit, 6, 4):
            sim.step(vec)
            manager.save(sim)
        newest = manager.paths()[-1]
        words = np.fromfile(newest, dtype=np.uint32)
        words[3] ^= np.uint32(1)
        words.tofile(newest)
        latest = manager.latest()
        assert latest is not None
        assert latest.cycle == 3  # newest loadable, not the torn file

    def test_empty_directory(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "none"), every=10)
        assert manager.latest() is None
        assert manager.paths() == []

    def test_invalid_period_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), every=0)


class TestRegistryDesignResume:
    """Acceptance: interrupting and resuming an arbitrary cycle produces
    bit-identical outputs on at least two registry designs."""

    @pytest.mark.parametrize("name,cut", [("openpiton1", 37), ("rocketchip", 13)])
    def test_resume_bit_identical(self, tmp_path, name, cut):
        design = compile_design(name)
        workloads = design_workloads(name)
        wl = next(iter(workloads.values()))
        stimuli = wl.stimuli[:60]
        golden = design.simulator().run(stimuli)

        # Interrupted run: stop mid-flight, persist, come back elsewhere.
        sim = design.simulator()
        for vec in stimuli[:cut]:
            sim.step(vec)
        path = str(tmp_path / f"{name}.gemk")
        save_checkpoint(snapshot(sim), path)
        del sim

        resumed = restore(design.simulator(), load_checkpoint(path))
        tail = resumed.run(stimuli[cut:])
        assert tail == golden[cut:]
        assert os.path.getsize(path) > 0


# -- crash consistency: journal, corruption matrix, resume resolution --------


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    packed = np.concatenate([packed, np.zeros((-packed.size) % 4, dtype=np.uint8)])
    return packed.view("<u4").astype(np.uint32)


def _v1_words(ckpt) -> np.ndarray:
    """Serialize a ``batch=1`` snapshot in the retired v1 (bit-packed,
    single-instance) container, as the pre-lane code wrote it."""
    assert ckpt.batch == 1
    header = np.array(
        [
            CKPT_MAGIC,
            1,
            *_u64_pair(ckpt.cycle),
            ckpt.program_digest & 0xFFFFFFFF,
            ckpt.global_state.size,
            len(ckpt.ram_arrays),
            0,  # no deferred writes at a cycle boundary
        ],
        dtype=np.uint32,
    )
    counter_words: list[int] = []
    for name in _COUNTER_FIELDS:
        counter_words.extend(_u64_pair(getattr(ckpt.counters, name)))
    ram_words: list[np.ndarray] = []
    for arr in ckpt.ram_arrays:
        row = arr[0] if arr.ndim == 2 else arr
        ram_words.append(np.array([row.size], dtype=np.uint32))
        ram_words.append(row.astype(np.uint32))
    ram_sec = np.concatenate(ram_words) if ram_words else np.zeros(0, dtype=np.uint32)
    return seal(
        [
            header,
            np.array(counter_words, dtype=np.uint32),
            _pack_bits(ckpt.global_state.astype(bool)),
            ram_sec,
            np.zeros(0, dtype=np.uint32),
        ]
    )


@pytest.fixture(scope="module")
def ckpt_design():
    circuit, design = _compile(41, with_memory=True)
    stimuli = random_vectors(circuit, 7, 30)
    golden = design.simulator().run(stimuli)
    return circuit, design, stimuli, golden


def _mid_run_words(design, stimuli, cut=17):
    sim = design.simulator()
    for vec in stimuli[:cut]:
        sim.step(vec)
    return checkpoint_to_words(snapshot(sim))


class TestCorruptionMatrix:
    """Every torn/corrupt variant of an on-disk image must be *rejected*
    (CheckpointError) — never silently mis-restored, never a crash.
    ``v2`` is what ``checkpoint_to_words`` writes (the id dates from when
    v2 was the current format); ``v1`` is a hand-built image of a retired
    format, the kind an old checkpoint directory may still hold: recovery
    walks past it on ``CheckpointError``, torn or intact."""

    @pytest.fixture(scope="class")
    def images(self, ckpt_design):
        circuit, design, stimuli, _ = ckpt_design
        v2 = _mid_run_words(design, stimuli)
        return {"v1": _v1_words(checkpoint_from_words(v2)), "v2": v2}

    @pytest.mark.parametrize("fmt", ["v2"])
    def test_intact_image_loads(self, images, fmt, ckpt_design):
        circuit, design, stimuli, golden = ckpt_design
        ckpt = checkpoint_from_words(images[fmt])
        assert ckpt.cycle == 17
        assert ckpt.batch == 1
        resumed = restore(design.simulator(), ckpt)
        assert resumed.run(stimuli[17:]) == golden[17:]

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_truncation_at_every_section_boundary(self, images, fmt, tmp_path):
        words = images[fmt]
        sizes = [sec.size for sec in unseal(words, error=CheckpointError)]
        boundaries = [0]
        for size in sizes:
            boundaries.append(boundaries[-1] + size)
        assert len(boundaries) == 6  # 5 sections
        path = str(tmp_path / f"torn-{fmt}.gemk")
        for cut in boundaries:
            words[:cut].tofile(path)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_truncated_footer(self, images, fmt, tmp_path):
        path = str(tmp_path / f"footless-{fmt}.gemk")
        images[fmt][:-1].tofile(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_flipped_section_crc(self, images, fmt, tmp_path):
        words = images[fmt].copy()
        words[-3] ^= np.uint32(1)  # last section's stored CRC
        path = str(tmp_path / f"badcrc-{fmt}.gemk")
        words.tofile(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_flipped_body_word(self, images, fmt, tmp_path):
        words = images[fmt].copy()
        words[words.size // 2] ^= np.uint32(1)
        path = str(tmp_path / f"flip-{fmt}.gemk")
        words.tofile(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_retired_v1_image_is_refused_by_name(self, images):
        """Intact, sealed, and in a format no longer read: the error says
        which, rather than parsing bit-packed state as lane words."""
        with pytest.raises(CheckpointError, match="format version 1"):
            checkpoint_from_words(images["v1"])

    @pytest.mark.parametrize(
        "claim, section4",
        [(1, []), (0, [0]), (1, [1, 5, 0, 0, 0, 1, 0])],
        ids=["header-claims-an-entry", "section-not-empty", "both"],
    )
    def test_deferred_section_must_be_empty(self, images, claim, section4):
        """Header word 7 and section 4 are reserved-empty; a sealed image
        that fills either died with an IndexError in a parser nothing
        ever fed."""
        sections = unseal(images["v2"], error=CheckpointError)
        header = sections[0].copy()
        header[7] = claim
        sealed = seal([header, *sections[1:4], np.array(section4, dtype=np.uint32)])
        with pytest.raises(CheckpointError, match="reserved section 4"):
            checkpoint_from_words(sealed)

    def test_zero_length_file(self, tmp_path):
        path = str(tmp_path / "empty.gemk")
        open(path, "wb").close()
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.gemk"))

    def test_bad_magic(self, images, tmp_path):
        words = images["v2"].copy()
        # Re-seal so only the magic is wrong, not the CRC.
        sections = unseal(words, error=CheckpointError)
        sections[0] = sections[0].copy()
        sections[0][0] = 0xDEADBEEF
        path = str(tmp_path / "magic.gemk")
        seal(sections).tofile(path)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)


class TestJournal:
    def _populated(self, tmp_path, ckpt_design, keep=3):
        circuit, design, stimuli, _ = ckpt_design
        manager = CheckpointManager(str(tmp_path), every=6, keep=keep)
        sim = design.simulator()
        for vec in stimuli:
            sim.step(vec)
            manager.maybe_save(sim)
        return manager

    def test_journal_records_chain(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        entries = manager.read_journal()
        assert [e["cycle"] for e in entries] == [18, 24, 30]
        for entry in entries:
            path = tmp_path / entry["file"]
            assert path.exists()
            data = path.read_bytes()
            assert entry["size"] == len(data)
            assert entry["crc32"] == zlib.crc32(data) & 0xFFFFFFFF
            assert entry["batch"] == 1

    def test_journal_picks_predecessor_past_corrupt_newest(
        self, tmp_path, ckpt_design
    ):
        manager = self._populated(tmp_path, ckpt_design)
        newest = manager.paths()[-1]
        data = bytearray(open(newest, "rb").read())
        data[40] ^= 0xFF  # same size, wrong image CRC
        open(newest, "wb").write(bytes(data))
        recovered = manager.recover()
        assert recovered is not None
        assert recovered.checkpoint.cycle == 24
        assert recovered.path.endswith(f"ckpt-{24:012d}.gemk")
        assert len(recovered.skipped) == 1
        assert "CRC mismatch" in recovered.skipped[0][1]

    def test_journal_detects_torn_write_by_size(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        newest = manager.paths()[-1]
        data = open(newest, "rb").read()
        open(newest, "wb").write(data[: len(data) // 2])
        recovered = manager.recover()
        assert recovered.checkpoint.cycle == 24
        assert "torn write" in recovered.skipped[0][1]

    def test_journal_skips_missing_file(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        os.remove(manager.paths()[-1])
        recovered = manager.recover()
        assert recovered.checkpoint.cycle == 24
        assert "file missing" in recovered.skipped[0][1]

    def test_lost_journal_falls_back_to_scan(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        os.remove(manager.journal_path)
        assert manager.read_journal() == []
        recovered = manager.recover()
        assert recovered is not None
        assert recovered.checkpoint.cycle == 30

    def test_unknown_journal_version_ignored(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        doc = {"version": JOURNAL_VERSION + 1, "entries": [{"file": "x"}]}
        open(manager.journal_path, "w").write(json.dumps(doc))
        assert manager.read_journal() == []
        assert manager.recover().checkpoint.cycle == 30  # scan fallback

    def test_garbage_journal_ignored(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        open(manager.journal_path, "w").write("{not json")
        assert manager.read_journal() == []
        assert manager.recover().checkpoint.cycle == 30

    def test_stale_tmp_swept_on_recovery(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        stale = tmp_path / "ckpt-000000000099.gemk.tmp"
        stale.write_bytes(b"torn write leftovers")
        recovered = manager.recover()
        assert recovered.checkpoint.cycle == 30
        assert not stale.exists()

    def test_all_checkpoints_corrupt_returns_none(self, tmp_path, ckpt_design):
        manager = self._populated(tmp_path, ckpt_design)
        for path in manager.paths():
            open(path, "wb").write(b"\x00" * 16)
        assert manager.recover() is None
        assert manager.latest() is None

    def test_journal_survives_entry_for_foreign_path(self, tmp_path, ckpt_design):
        """A malicious/corrupt entry naming a path outside the directory is
        rejected as malformed, not followed."""
        manager = self._populated(tmp_path, ckpt_design)
        entries = manager.read_journal()
        entries.append({"file": "../../etc/passwd", "cycle": 99, "size": 1, "crc32": 0})
        doc = {"version": JOURNAL_VERSION, "entries": entries}
        open(manager.journal_path, "w").write(json.dumps(doc))
        recovered = manager.recover()
        assert recovered.checkpoint.cycle == 30
        assert any("malformed" in reason for _, reason in recovered.skipped)


class TestResolveResume:
    def test_latest_in_directory(self, tmp_path, ckpt_design):
        circuit, design, stimuli, golden = ckpt_design
        manager = CheckpointManager(str(tmp_path), every=6)
        sim = design.simulator()
        for vec in stimuli:
            sim.step(vec)
            manager.maybe_save(sim)
        for target in (True, "latest"):
            recovered = resolve_resume(target, str(tmp_path))
            assert recovered.checkpoint.cycle == 30
        # A directory passed as the target itself works the same way.
        assert resolve_resume(str(tmp_path)).checkpoint.cycle == 30

    def test_exact_file(self, tmp_path, ckpt_design):
        circuit, design, stimuli, golden = ckpt_design
        sim = design.simulator()
        for vec in stimuli[:11]:
            sim.step(vec)
        path = str(tmp_path / "exact.gemk")
        save_checkpoint(snapshot(sim), path)
        recovered = resolve_resume(path)
        assert recovered.checkpoint.cycle == 11
        assert recovered.path == path
        resumed = restore(design.simulator(), recovered.checkpoint)
        assert resumed.run(stimuli[11:]) == golden[11:]

    def test_corrupt_exact_file_raises(self, tmp_path):
        path = str(tmp_path / "bad.gemk")
        open(path, "wb").write(b"\x01\x02\x03\x04" * 8)
        with pytest.raises(CheckpointError):
            resolve_resume(path)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            resolve_resume(str(tmp_path))

    def test_latest_without_directory_raises(self):
        with pytest.raises(CheckpointError, match="requires a checkpoint directory"):
            resolve_resume("latest", None)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            resolve_resume(str(tmp_path / "ghost.gemk"))


class TestLanePlaneCheckpoints:
    """Multi-word lane planes, the retired single-word format, and
    backend-independence of the on-disk state."""

    def _lane_vectors(self, circuit, batch, cycles, seed=0):
        return [random_vectors(circuit, seed + lane, cycles) for lane in range(batch)]

    def test_roundtrip_batch_256_with_quarantine(self, tmp_path):
        circuit, design = _compile(33, with_memory=True)
        batch, cycles = 256, 18
        streams = self._lane_vectors(circuit, batch, cycles, seed=60)
        vecs = [[s[c] for s in streams] for c in range(cycles)]
        golden = design.simulator(batch=batch)
        golden.quarantine_lanes([3, 70, 255])
        golden_rows = golden.run_lanes(vecs)

        sim = design.simulator(batch=batch)
        sim.quarantine_lanes([3, 70, 255])
        sim.run_lanes(vecs[:11])
        path = os.path.join(tmp_path, "plane.gemk")
        save_checkpoint(snapshot(sim), path)
        ckpt = load_checkpoint(path)
        assert ckpt.batch == 256
        assert ckpt.words == 4
        assert ckpt.global_state.shape[1] == 4
        # the quarantined lanes' zeroed-then-deterministic bits are part
        # of the snapshot, so the resumed run needs no re-quarantine
        resumed = restore(design.simulator(batch=batch), ckpt)
        assert resumed.run_lanes(vecs[11:]) == golden_rows[11:]
        assert np.array_equal(resumed.global_state, golden.global_state)

    def test_v2_file_is_refused(self):
        """A v2 container (9-word header, no K word) is a retired format:
        refused by name, not hydrated as K=1."""
        circuit, design = _compile(33, with_memory=True)
        sim = design.simulator(batch=6)
        for vec in random_vectors(circuit, 9, 14):
            sim.step(vec)
        sections = unseal(checkpoint_to_words(snapshot(sim)), error=CheckpointError)
        header = sections[0][:9].copy()  # drop the K and values words
        header[1] = 2  # rewrite the version stamp to v2
        with pytest.raises(CheckpointError, match="format version 2"):
            checkpoint_from_words(seal([header, *sections[1:]]))

    def test_v3_file_is_refused(self):
        """A v3 container (10-word header, no value-system word) went the
        way of v2: every file has been written as v4 since the word exists."""
        circuit, design = _compile(33)
        sim = design.simulator()
        sim.run(random_vectors(circuit, 9, 5))
        sections = unseal(checkpoint_to_words(snapshot(sim)), error=CheckpointError)
        header = sections[0][:10].copy()  # drop the values word
        header[1] = 3
        with pytest.raises(CheckpointError, match="format version 3"):
            checkpoint_from_words(seal([header, *sections[1:]]))

    def test_rejects_bad_lane_geometry(self):
        circuit, design = _compile(33)
        sim = design.simulator(batch=128)
        sim.step({})
        sections = unseal(checkpoint_to_words(snapshot(sim)), error=CheckpointError)
        header = sections[0].copy()
        header[9] = 3  # K=3 but batch stays 128 — inconsistent
        with pytest.raises(CheckpointError, match="lane geometry"):
            checkpoint_from_words(seal([header, *sections[1:]]))

    def test_cross_backend_resume_bit_identical(self, tmp_path):
        """A checkpoint saved under the numpy stages resumes under every
        other backend that resolves here (the native cycle kernel where a
        compiler exists) and back, with identical state."""
        from repro.core.backend import available_backends

        circuit, design = _compile(35, with_memory=True)
        batch, cycles = 128, 16
        streams = self._lane_vectors(circuit, batch, cycles, seed=80)
        vecs = [[s[c] for s in streams] for c in range(cycles)]
        golden = design.simulator(batch=batch)
        golden_rows = golden.run_lanes(vecs)

        saver = design.simulator(batch=batch, backend="numpy")
        saver.run_lanes(vecs[:9])
        path = os.path.join(tmp_path, "xback.gemk")
        save_checkpoint(snapshot(saver), path)

        for name in available_backends():
            compiled = design.simulator(batch=batch, backend=name)
            assert compiled.backend.name == name
            restore(compiled, load_checkpoint(path))
            assert compiled.run_lanes(vecs[9:]) == golden_rows[9:]
            assert np.array_equal(compiled.global_state, golden.global_state)

            # and back: state written under that backend resumes on numpy
            back_path = os.path.join(tmp_path, f"back-{name}.gemk")
            save_checkpoint(snapshot(compiled), back_path)
            back = restore(
                design.simulator(batch=batch, backend="numpy"), load_checkpoint(back_path)
            )
            assert np.array_equal(back.global_state, golden.global_state)
