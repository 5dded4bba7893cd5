"""Per-lane quarantine and retry backoff (repro.runtime.supervisor).

A persistently corrupt lane must be masked out of the batch while every
healthy lane continues bit-identically — in both engine modes — and the
backoff schedule must follow the documented exponential exactly.
"""

import numpy as np
import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.obs.metrics import REGISTRY
from repro.runtime.supervisor import (
    LANE_OUTCOMES,
    Supervisor,
    state_digest_lanes,
)
from tests.helpers import random_circuit, random_vectors

BATCH = 8


@pytest.fixture(scope="module")
def compiled():
    circuit = random_circuit(701, n_ops=50, n_regs=3, with_memory=True)
    design = GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)
    stimuli = random_vectors(circuit, 8, 30)
    return circuit, design, stimuli


def _persistent_lane_fault(victim: int, start: int):
    """A hook that corrupts lane ``victim``'s bit plane every cycle."""

    def hook(interp, cycle):
        if cycle >= start:
            interp.global_state[0] ^= np.uint64(1) << np.uint64(victim)

    return hook


class TestLaneDigests:
    def test_lanes_identical_under_broadcast(self, compiled):
        """Broadcast stimuli drive every lane identically, so the RAM-free
        per-lane digests must agree lane to lane."""
        circuit, design, stimuli = compiled
        sim = design.simulator(batch=BATCH)
        for vec in stimuli[:10]:
            sim.step_lanes(vec)
        digests = state_digest_lanes(sim)
        assert len(digests) == BATCH
        assert len(set(digests)) == 1

    def test_single_lane_flip_localized(self, compiled):
        circuit, design, stimuli = compiled
        a = design.simulator(batch=BATCH)
        b = design.simulator(batch=BATCH)
        for vec in stimuli[:5]:
            a.step_lanes(vec)
            b.step_lanes(vec)
        victim = 5
        a.global_state[3] ^= np.uint64(1) << np.uint64(victim)
        da, db = state_digest_lanes(a), state_digest_lanes(b)
        assert [lane for lane in range(BATCH) if da[lane] != db[lane]] == [victim]


class TestQuarantine:
    def test_persistent_lane_fault_quarantined_healthy_bit_identical(self, compiled):
        """Acceptance: quarantining lane L leaves every other lane's output
        stream bit-identical to an undisturbed run."""
        circuit, design, stimuli = compiled
        victim = 3
        golden = Supervisor(design, batch=BATCH).run(stimuli)
        assert not golden.degraded

        result = Supervisor(
            design,
            batch=BATCH,
            checkpoint_every=6,
            fault_hook=_persistent_lane_fault(victim, start=15),
        ).run(stimuli)
        assert not result.degraded
        assert result.quarantined_lanes == [victim]
        assert result.lane_outcomes[victim] == "quarantined"
        assert any("quarantined lane(s) 3" in e for e in result.events)
        healthy = [lane for lane in range(BATCH) if lane != victim]
        for lane in healthy:
            assert result.lane_outcomes[lane] == "ok"
        assert len(result.lane_outputs) == len(golden.lane_outputs)
        for got, want in zip(result.lane_outputs, golden.lane_outputs):
            for lane in healthy:
                assert got[lane] == want[lane]

    def test_quarantine_counted_in_metrics(self, compiled):
        circuit, design, stimuli = compiled
        counter = REGISTRY.counter(
            "gem_supervisor_quarantined_lanes_total",
            help="stimulus lanes quarantined for persistent divergence",
        )
        before = counter.value
        result = Supervisor(
            design,
            batch=BATCH,
            checkpoint_every=6,
            fault_hook=_persistent_lane_fault(1, start=12),
        ).run(stimuli)
        assert result.quarantined_lanes == [1]
        assert counter.value - before == 1

    def test_transient_lane_fault_recovers_without_quarantine(self, compiled):
        """A one-shot lane fault stays on the rollback/retry path: the
        default ``quarantine_after=2`` requires a *streak*."""
        circuit, design, stimuli = compiled
        golden = Supervisor(design, batch=BATCH).run(stimuli)
        fired = []

        def hook(interp, cycle):
            if cycle == 14 and not fired:
                fired.append(cycle)
                interp.global_state[0] ^= np.uint64(1) << np.uint64(6)

        result = Supervisor(
            design, batch=BATCH, checkpoint_every=6, fault_hook=hook
        ).run(stimuli)
        assert not result.degraded
        assert result.quarantined_lanes == []
        assert result.lane_outcomes[6] == "recovered"
        assert result.faults_detected == 1
        assert result.lane_outputs == golden.lane_outputs

    def test_quarantine_after_one_is_immediate(self, compiled):
        circuit, design, stimuli = compiled
        result = Supervisor(
            design,
            batch=BATCH,
            checkpoint_every=6,
            quarantine_after=1,
            fault_hook=_persistent_lane_fault(2, start=15),
        ).run(stimuli)
        assert result.quarantined_lanes == [2]
        assert result.retries == 1  # no second divergence needed

    def test_quarantine_after_validated(self, compiled):
        circuit, design, stimuli = compiled
        with pytest.raises(ValueError, match="quarantine_after"):
            Supervisor(design, quarantine_after=0)

    def test_all_lanes_quarantined_degrades(self, compiled):
        """Corruption across the whole word consumes every lane, and the
        run falls back to the gate-level engine."""
        circuit, design, stimuli = compiled

        def hook(interp, cycle):
            if cycle >= 15:
                interp.global_state[0] ^= np.uint64(0xFF)  # all 8 lanes

        result = Supervisor(
            design,
            batch=BATCH,
            checkpoint_every=6,
            quarantine_after=1,
            fault_hook=hook,
        ).run(stimuli)
        assert result.degraded
        assert result.quarantined_lanes == list(range(BATCH))
        assert all(
            result.lane_outcomes[lane] == "quarantined" for lane in range(BATCH)
        )
        assert any("every lane quarantined" in e for e in result.events)

    def test_lane_outcome_vocabulary(self, compiled):
        circuit, design, stimuli = compiled
        result = Supervisor(
            design,
            batch=BATCH,
            checkpoint_every=6,
            fault_hook=_persistent_lane_fault(0, start=15),
        ).run(stimuli)
        assert set(result.lane_outcomes) == set(range(BATCH))
        assert all(v in LANE_OUTCOMES for v in result.lane_outcomes.values())


class TestBackoff:
    def test_backoff_schedule_pinned(self, compiled):
        """Satellite: the exact exponential — base, 2*base, 4*base — via
        the injectable ``sleep_fn``, then degrade on the fourth attempt."""
        circuit, design, stimuli = compiled
        sleeps = []

        def hook(interp, cycle):
            if cycle >= 10:
                interp.global_state[0] ^= np.uint64(1)  # unrecoverable

        result = Supervisor(
            design,
            batch=1,
            checkpoint_every=8,
            max_retries=3,
            backoff_base=0.25,
            backoff_cap=10.0,
            sleep_fn=sleeps.append,
            fault_hook=hook,
        ).run(stimuli)
        assert result.degraded
        assert sleeps == [0.25, 0.5, 1.0]

    def test_backoff_cap_clamps(self, compiled):
        circuit, design, stimuli = compiled
        sleeps = []

        def hook(interp, cycle):
            if cycle >= 10:
                interp.global_state[0] ^= np.uint64(1)

        Supervisor(
            design,
            batch=1,
            checkpoint_every=8,
            max_retries=3,
            backoff_base=0.25,
            backoff_cap=0.4,
            sleep_fn=sleeps.append,
            fault_hook=hook,
        ).run(stimuli)
        assert sleeps == [0.25, 0.4, 0.4]

    def test_zero_base_never_sleeps(self, compiled):
        circuit, design, stimuli = compiled
        sleeps = []
        fired = []

        def hook(interp, cycle):
            if cycle == 12 and not fired:
                fired.append(cycle)
                interp.global_state[0] ^= np.uint64(1)

        result = Supervisor(
            design, batch=1, checkpoint_every=8, sleep_fn=sleeps.append,
            fault_hook=hook,
        ).run(stimuli)
        assert not result.degraded
        assert sleeps == []
