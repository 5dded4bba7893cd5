"""Fault injection, scrubbing, self-healing, and degradation
(repro.runtime.faults + repro.runtime.supervisor)."""

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.interpreter import GemInterpreter
from repro.core.partition import PartitionConfig
from repro.errors import BitstreamError
from repro.runtime.faults import FaultInjector, run_campaign
from repro.runtime.supervisor import Supervisor, state_digest
from tests.helpers import random_circuit, random_vectors


@pytest.fixture(scope="module")
def compiled():
    circuit = random_circuit(301, n_ops=50, n_regs=3, with_memory=True)
    design = GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)
    stimuli = random_vectors(circuit, 9, 40)
    golden = design.simulator().run(stimuli)
    return circuit, design, stimuli, golden


class TestFaultInjector:
    def test_seeded_determinism(self, compiled):
        _, design, _, _ = compiled
        a = FaultInjector(42).corrupt_bitstream(design.program)[1]
        b = FaultInjector(42).corrupt_bitstream(design.program)[1]
        assert a.location == b.location

    def test_bitstream_flip_changes_exactly_one_word(self, compiled):
        _, design, _, _ = compiled
        corrupted, _ = FaultInjector(1).corrupt_bitstream(design.program)
        diff = (corrupted.words != design.program.words).sum()
        assert diff == 1
        assert design.program.words is not corrupted.words  # original untouched

    def test_state_flip_changes_digest(self, compiled):
        _, design, _, _ = compiled
        sim = design.simulator()
        before = state_digest(sim)
        FaultInjector(2).flip_state_bit(sim)
        assert state_digest(sim) != before

    def test_ram_flip_changes_digest(self, compiled):
        _, design, _, _ = compiled
        sim = design.simulator()
        before = state_digest(sim)
        record = FaultInjector(3).flip_ram_bit(sim)
        assert record is not None
        assert state_digest(sim) != before

    def test_ram_flip_none_without_rams(self):
        circuit = random_circuit(302, n_ops=30)
        design = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=400),
                boomerang=BoomerangConfig(width_log2=10),
            )
        ).compile(circuit)
        assert FaultInjector(0).flip_ram_bit(design.simulator()) is None


class TestBitstreamFaultDetection:
    def test_all_injected_flips_detected_at_load(self, compiled):
        """Acceptance: 100% of single-bit bitstream faults rejected."""
        _, design, _, _ = compiled
        injector = FaultInjector(7)
        detected = 0
        trials = 60
        for _ in range(trials):
            corrupted, _ = injector.corrupt_bitstream(design.program)
            with pytest.raises(BitstreamError):
                GemInterpreter(corrupted)
            detected += 1
        assert detected == trials


class TestSupervisor:
    def test_clean_run_matches_plain(self, compiled):
        _, design, stimuli, golden = compiled
        result = Supervisor(design, checkpoint_every=8).run(stimuli)
        assert result.outputs == golden
        assert not result.degraded
        assert result.faults_detected == 0
        assert result.engine == "gem"
        assert result.checkpoints_written == len(stimuli) // 8

    def test_transient_state_fault_recovered(self, compiled):
        _, design, stimuli, golden = compiled
        injector = FaultInjector(11)
        fired = []

        def hook(interp, cycle):
            if cycle == 19 and not fired:
                fired.append(cycle)
                injector.flip_state_bit(interp, cycle)

        result = Supervisor(design, checkpoint_every=8, fault_hook=hook).run(stimuli)
        assert result.faults_detected == 1
        assert result.retries == 1
        assert not result.degraded
        assert result.outputs == golden  # bit-identical after recovery
        assert any("rolled back" in e for e in result.events)

    def test_transient_ram_fault_recovered(self, compiled):
        _, design, stimuli, golden = compiled
        injector = FaultInjector(12)
        fired = []

        def hook(interp, cycle):
            if cycle == 10 and not fired:
                fired.append(cycle)
                injector.flip_ram_bit(interp, cycle)

        result = Supervisor(design, checkpoint_every=4, fault_hook=hook).run(stimuli)
        assert result.faults_detected == 1
        assert not result.degraded
        assert result.outputs == golden

    def test_persistent_poison_degrades_to_simref(self, compiled):
        """Acceptance: a persistently poisoned interpreter still returns
        correct outputs via the simref gate-level fallback."""
        _, design, stimuli, golden = compiled

        def poison(interp, cycle):
            if cycle >= 12:
                interp.global_state[3] = not interp.global_state[3]

        result = Supervisor(
            design, checkpoint_every=8, fault_hook=poison, max_retries=2
        ).run(stimuli)
        assert result.degraded
        assert result.engine == "simref"
        assert result.outputs == golden  # fallback still correct
        assert any("degrading" in e for e in result.events)

    def test_no_shadow_means_no_detection(self, compiled):
        """Scrubbing is the detection mechanism: without a shadow a state
        flip silently corrupts the run (motivates the default)."""
        _, design, stimuli, golden = compiled
        injector = FaultInjector(13)
        fired = []

        def hook(interp, cycle):
            if cycle == 5 and not fired:
                fired.append(cycle)
                injector.flip_state_bit(interp, cycle)

        result = Supervisor(design, shadow=None, fault_hook=hook).run(stimuli)
        assert result.faults_detected == 0
        assert not result.degraded

    def test_resume_from_checkpoint(self, compiled):
        _, design, stimuli, golden = compiled
        from repro.runtime.checkpoint import snapshot

        sim = design.simulator()
        for vec in stimuli[:15]:
            sim.step(vec)
        result = Supervisor(design, checkpoint_every=8).run(
            stimuli, resume_from=snapshot(sim)
        )
        assert result.outputs == golden[15:]
        assert any("resumed" in e for e in result.events)


class TestBatchedSupervisor:
    def test_clean_batched_run_lane_outputs(self, compiled):
        _, design, stimuli, golden = compiled
        result = Supervisor(design, checkpoint_every=8, batch=4).run(stimuli)
        assert not result.degraded
        assert result.lanes == 4
        assert result.outputs == golden
        assert len(result.lane_outputs) == len(stimuli)
        for per_cycle, expected in zip(result.lane_outputs, golden):
            assert all(out == expected for out in per_cycle)

    def test_lane_targeted_fault_detected_and_recovered(self, compiled):
        """An SEU in lane 3 only is caught by the all-lane state digest
        and rolled back; every lane's stream ends up golden."""
        _, design, stimuli, golden = compiled
        injector = FaultInjector(21)
        fired = []

        def hook(interp, cycle):
            if cycle == 19 and not fired:
                fired.append(cycle)
                injector.flip_state_bit(interp, cycle, lane=3)

        result = Supervisor(
            design, checkpoint_every=8, batch=4, fault_hook=hook
        ).run(stimuli)
        assert result.faults_detected == 1
        assert not result.degraded
        for lane in range(4):
            assert [row[lane] for row in result.lane_outputs] == golden

    def test_batch1_has_no_lane_outputs(self, compiled):
        _, design, stimuli, _ = compiled
        result = Supervisor(design, checkpoint_every=8).run(stimuli)
        assert result.lanes == 1
        assert result.lane_outputs is None


class TestCampaign:
    def test_campaign_passes_and_counts(self, compiled):
        """Acceptance: campaign report with injected/detected/recovered."""
        _, design, stimuli, _ = compiled
        report = run_campaign(
            design, stimuli, name="rand301", trials=4, seed=5, checkpoint_every=8
        )
        assert report.passed
        assert report.count("bitstream") == 4
        assert report.count("bitstream", detected=True) == 4
        assert report.count("state") == 4
        assert report.count("state", detected=True, recovered=True) == 4
        assert report.count("ram") == 4  # design has RAM blocks
        summary = report.summary()
        assert "PASS" in summary
        assert "bitstream" in summary and "state" in summary

    def test_campaign_seeded_reproducible(self, compiled):
        _, design, stimuli, _ = compiled
        a = run_campaign(design, stimuli[:20], trials=2, seed=9)
        b = run_campaign(design, stimuli[:20], trials=2, seed=9)
        assert [r.location for r in a.records] == [r.location for r in b.records]

    def test_batched_trials_land_in_distinct_lanes(self, compiled):
        """The batched campaign packs trial t into stimulus lane t."""
        _, design, stimuli, _ = compiled
        report = run_campaign(design, stimuli[:20], trials=3, seed=6)
        state_lanes = [
            r.location.rsplit("lane ", 1)[1]
            for r in report.records
            if r.kind == "state"
        ]
        assert sorted(state_lanes) == ["0", "1", "2"]
