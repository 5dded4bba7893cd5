"""Performance model behaviour (repro.core.perfmodel + calibration)."""

import dataclasses

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.core.perfmodel import (
    A100,
    RTX3090,
    XEON,
    GemMetrics,
    compiled_sim_speed,
    compiled_work_units,
    event_sim_speed,
    gate_sim_speed,
    gem_cycle_time,
    gem_metrics,
    gem_speed,
    tuning_score,
)
from repro.harness.calibrate import PAPER_ANCHOR, CalibratedModels, calibrate
from repro.harness.runner import ActivityMeasurement
from repro.rtl import CircuitBuilder, Netlist
from tests.helpers import random_circuit


def _metrics(parts=8, inst_words=50_000, work=200_000, stages=1) -> GemMetrics:
    per_stage = parts // stages
    return GemMetrics(
        stage_partitions=[per_stage] * stages,
        inst_words=inst_words,
        stage_work_bits=[work // stages] * stages,
        stage_max_block_bits=[work // parts] * stages,
        global_traffic=5_000,
    )


class TestGemModel:
    def test_positive_and_finite(self):
        hz = gem_speed(_metrics(), A100)
        assert 0 < hz < 1e9

    def test_bigger_bitstream_is_slower(self):
        small = gem_speed(_metrics(inst_words=10_000), A100)
        large = gem_speed(_metrics(inst_words=40_000_000), A100)
        assert large < small

    def test_more_stages_cost_syncs(self):
        one = gem_cycle_time(_metrics(parts=8, stages=1), A100)
        two = gem_cycle_time(_metrics(parts=8, stages=2), A100)
        assert two > one

    def test_wave_quantization(self):
        """Once partitions exceed the resident-block count, extra waves
        serialize (the OpenPiton8-on-3090 resource-pressure effect)."""
        slots = A100.sms * A100.blocks_per_sm
        fits = _metrics(parts=slots, work=slots * 5_000_000)
        spills = _metrics(parts=slots * 3, work=slots * 3 * 5_000_000)
        t_fits = gem_cycle_time(fits, A100)
        t_spills = gem_cycle_time(spills, A100)
        assert t_spills > 1.5 * t_fits

    def test_a100_beats_3090_under_pressure(self):
        heavy = _metrics(parts=400, inst_words=40_000_000, work=4_000_000)
        assert gem_speed(heavy, A100) > gem_speed(heavy, RTX3090)

    def test_metrics_extraction(self):
        circuit = random_circuit(21, n_ops=60)
        design = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=300),
                boomerang=BoomerangConfig(width_log2=10),
            )
        ).compile(circuit)
        m = gem_metrics(design)
        assert m.inst_words == int(design.program.words[7])
        assert len(m.stage_partitions) == design.merge.plan.num_stages
        assert sum(m.stage_work_bits) > 0


class TestBaselineModels:
    def test_event_model_activity_scaling(self):
        fast = event_sim_speed(1_000)
        slow = event_sim_speed(100_000)
        assert fast > 5 * slow

    def test_compiled_model_threads(self):
        one = compiled_sim_speed(100_000, threads=1)
        eight = compiled_sim_speed(100_000, threads=8)
        sixteen = compiled_sim_speed(100_000, threads=16)
        assert eight > one  # parallel speedup
        assert sixteen < eight  # the paper's degradation

    def test_compiled_work_is_produced_bits(self):
        """One unit per bit an op or a register produces each cycle."""
        b = CircuitBuilder()
        total = b.input("a", 8) + b.input("c", 8)  # 8
        r = b.reg("r", 4)  # 4
        r.next = total[3:0]  # 4
        b.output("s", total)
        assert compiled_work_units(Netlist(b.build())) == 8 + 4 + 4

    def test_gate_launches_are_two_per_level(self):
        """One launch per level in each of a cycle's two settles; derived,
        so cached measurements carry no field for it."""
        activity = ActivityMeasurement(
            design="d",
            workload="w",
            cycles=10,
            events_per_cycle=1.0,
            toggles_per_cycle=1.0,
            gate_levels=7,
            compiled_ops_per_cycle=1.0,
        )
        assert activity.gate_launches_per_cycle == 14.0
        assert "gate_launches_per_cycle" not in dataclasses.asdict(activity)

    def test_gate_model_launch_bound(self):
        few_levels = gate_sim_speed(10_000, 20)
        many_levels = gate_sim_speed(10_000, 400)
        assert few_levels > many_levels


class TestCalibration:
    def _fake_inputs(self):
        metrics = _metrics()
        activity = ActivityMeasurement(
            design="nvdla",
            workload="anchor",
            cycles=100,
            events_per_cycle=5_000.0,
            toggles_per_cycle=8_000.0,
            gate_levels=60,
            compiled_ops_per_cycle=30_000.0,
        )
        return metrics, activity

    def test_anchor_points_match_exactly(self):
        metrics, activity = self._fake_inputs()

        class FakeDesign:  # duck-typed: calibrate only calls gem_metrics
            pass

        import repro.harness.calibrate as cal

        original = cal.gem_metrics
        try:
            cal.gem_metrics = lambda d: metrics  # type: ignore[assignment]
            cal_models = cal.calibrate(FakeDesign(), activity)  # type: ignore[arg-type]
        finally:
            cal.gem_metrics = original
        assert cal_models.gem(metrics, A100) == pytest.approx(PAPER_ANCHOR["gem_a100"])
        assert cal_models.gem(metrics, RTX3090) == pytest.approx(PAPER_ANCHOR["gem_3090"])
        assert cal_models.commercial(activity.events_per_cycle) == pytest.approx(
            PAPER_ANCHOR["commercial"]
        )
        assert cal_models.verilator(activity.compiled_ops_per_cycle, 1) == pytest.approx(
            PAPER_ANCHOR["verilator_1t"]
        )
        assert activity.gate_launches_per_cycle == 2 * activity.gate_levels
        assert cal_models.gl0am(
            activity.toggles_per_cycle, activity.gate_launches_per_cycle
        ) == pytest.approx(PAPER_ANCHOR["gl0am"])

    def test_uncalibrated_scale_is_identity(self):
        models = CalibratedModels()
        assert models.commercial(1000) == event_sim_speed(1000)


class TestTuningScoreSanity:
    """Monotonicity pins behind the autotuner's cheap filter (docs/TUNING.md).

    A model that could rank more work, more stages, or a bigger bitstream
    as *faster* would steer the knob search toward pessimal configs, so
    each axis is pinned never-faster here.
    """

    def test_more_work_bits_never_faster(self):
        speeds = [
            gem_speed(_metrics(work=100_000 * scale), A100)
            for scale in (1, 2, 4, 8, 16)
        ]
        for slower, faster in zip(speeds[1:], speeds):
            assert slower <= faster

    def test_more_stages_never_faster(self):
        """Same partitions, same total work — only the stage split grows."""
        speeds = [
            gem_speed(_metrics(parts=8, work=400_000, stages=s), A100)
            for s in (1, 2, 4, 8)
        ]
        for slower, faster in zip(speeds[1:], speeds):
            assert slower <= faster

    def test_more_inst_words_never_faster(self):
        speeds = [
            gem_speed(_metrics(inst_words=w), A100)
            for w in (10_000, 100_000, 1_000_000, 10_000_000)
        ]
        for slower, faster in zip(speeds[1:], speeds):
            assert slower <= faster

    def test_tuning_score_reports_gem_speed(self):
        m = _metrics(parts=8, stages=2)
        score = tuning_score(m, A100)
        assert score["model_hz"] == gem_speed(m, A100)
        assert score["stages"] == 2
        assert score["partitions"] == 8
        assert score["work_bits"] == sum(m.stage_work_bits)
