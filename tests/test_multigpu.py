"""Multi-GPU planning and timing model (extension of §V future work)."""

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.extensions.multigpu import (
    BlockWork,
    Interconnect,
    assign_blocks,
    block_workloads,
    multi_gpu_speed,
    plan_multi_gpu,
)
from repro.core.partition import PartitionConfig
from tests.helpers import random_circuit


def _design(seed=600, n_ops=200, gpp=150):
    return GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=gpp, num_stages=1),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(random_circuit(seed, n_ops=n_ops, n_regs=8))


class TestBlockWorkloads:
    def test_one_entry_per_partition(self):
        design = _design()
        blocks = block_workloads(design)
        assert len(blocks) == design.merge.plan.num_partitions
        for block in blocks:
            assert block.work_bits > 0
            assert block.inst_words > 0
            assert block.publish_bits > 0


class TestAssignment:
    def _blocks(self, sizes, stage=0):
        return [
            BlockWork(stage=stage, work_bits=s, inst_words=s, publish_bits=1, read_bits=1)
            for s in sizes
        ]

    def test_lpt_balances(self):
        blocks = self._blocks([9, 7, 6, 5, 4, 3, 2])
        assignment = assign_blocks(blocks, 2)
        loads = [sum(blocks[i].work_bits for i in dev) for dev in assignment[0]]
        assert abs(loads[0] - loads[1]) <= 2

    def test_every_block_assigned_once(self):
        blocks = self._blocks([5, 4, 3, 2, 1])
        assignment = assign_blocks(blocks, 3)
        seen = sorted(i for dev in assignment[0] for i in dev)
        assert seen == list(range(5))

    def test_stages_kept_separate(self):
        blocks = self._blocks([5, 4], stage=0) + self._blocks([3, 2], stage=1)
        # fix stages of the second group
        for i in (2, 3):
            blocks[i] = BlockWork(stage=1, work_bits=blocks[i].work_bits, inst_words=1, publish_bits=1, read_bits=1)
        assignment = assign_blocks(blocks, 2, num_stages=2)
        assert sorted(i for dev in assignment[0] for i in dev) == [0, 1]
        assert sorted(i for dev in assignment[1] for i in dev) == [2, 3]

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            assign_blocks([], 0)


class TestTimingModel:
    def test_single_gpu_is_positive(self):
        design = _design()
        assert multi_gpu_speed(design, 1) > 0

    def test_large_design_scales_then_saturates(self):
        """At paper scale (many waves per device), adding devices helps;
        the gain per device shrinks as communication takes over."""
        from repro.extensions.multigpu import MultiGpuPlan, assign_blocks
        from repro.core.perfmodel import A100

        # 2000 heavy blocks in one stage: ~10 fetch-bound waves on one A100.
        blocks = [
            BlockWork(stage=0, work_bits=12_000, inst_words=12_000, publish_bits=600, read_bits=600)
            for _ in range(2000)
        ]
        speeds = []
        for g in (1, 2, 4, 8):
            plan = MultiGpuPlan(
                num_gpus=g,
                gpu=A100,
                interconnect=Interconnect(),
                assignment=assign_blocks(blocks, g),
                blocks=blocks,
            )
            speeds.append(plan.speed())
        assert speeds[1] > speeds[0] * 1.3  # 2 GPUs clearly help
        # Diminishing returns: efficiency falls with device count.
        eff = [s / (g * speeds[0]) for s, g in zip(speeds, (1, 2, 4, 8))]
        assert eff[3] < eff[1]

    def test_small_design_does_not_scale(self):
        """A design that fits one device in one wave is latency-bound:
        splitting it only adds interconnect rounds."""
        design = _design(n_ops=80, gpp=400)
        one = multi_gpu_speed(design, 1)
        four = multi_gpu_speed(design, 4)
        assert four < one * 1.1

    def test_slower_interconnect_hurts(self):
        design = _design()
        fast = plan_multi_gpu(design, 4, scale_ratio=400.0).speed()
        slow = plan_multi_gpu(
            design, 4, interconnect=Interconnect("pcie", 32.0, 2.0e-5), scale_ratio=400.0
        ).speed()
        assert slow < fast

    def test_device_loads_reported(self):
        design = _design()
        plan = plan_multi_gpu(design, 2)
        loads = plan.device_loads()
        assert len(loads) == design.merge.plan.num_stages
        assert all(len(stage) == 2 for stage in loads)
