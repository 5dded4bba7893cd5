"""Multi-GPU execution planning — the paper's §V future-work item.

GEM's execution model extends to multiple GPUs naturally: blocks within a
stage are independent, so they can be spread across devices; the values a
block publishes (flip-flop next states, RAM read data, stage-cut values,
outputs) must then be exchanged between devices at the same points where a
single GPU needs a device-wide synchronization — stage boundaries and the
cycle boundary — over NVLink instead of on-die.

This module provides:

* :func:`block_workloads` — per-block work and traffic extracted from a
  compiled design;
* :func:`assign_blocks` — LPT (longest-processing-time) balancing of each
  stage's blocks across devices;
* :class:`MultiGpuPlan` / :func:`multi_gpu_speed` — the timing model:
  per-stage compute is the max over devices (each with its own block
  waves), plus an all-gather of the published values over the interconnect
  at every synchronization point.

The scaling experiment (``benchmarks/test_multigpu_extension.py``) shows
the expected regime change: large designs scale until the all-gather
dominates; small designs are synchronization-bound and do not benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitstream import parse_container
from repro.core.compiler import CompiledDesign
from repro.core.perfmodel import A100, GpuProfile


@dataclass(frozen=True)
class Interconnect:
    """Device-to-device link model (NVLink-class defaults)."""

    name: str = "nvlink4"
    bandwidth_gb: float = 450.0  # per direction, GB/s
    latency_s: float = 8.0e-6  # per synchronization/all-gather round


@dataclass
class BlockWork:
    """One block's per-cycle cost terms."""

    stage: int
    work_bits: int
    inst_words: int
    publish_bits: int
    read_bits: int


@dataclass
class MultiGpuPlan:
    """Blocks assigned to devices, with the derived cycle-time terms."""

    num_gpus: int
    gpu: GpuProfile
    interconnect: Interconnect
    #: per stage, per device: list of block indices
    assignment: list[list[list[int]]]
    blocks: list[BlockWork]
    #: replication factor applied to work quantities (paper-scale runs)
    scale_ratio: float = 1.0

    def cycle_time(self) -> float:
        gpu = self.gpu
        slots = gpu.sms * gpu.blocks_per_sm
        rate = gpu.block_bit_rate()
        total = 0.0
        for stage_assignment in self.assignment:
            stage_time = 0.0
            publish = 0
            for device_blocks in stage_assignment:
                if not device_blocks:
                    continue
                work = [self.blocks[i] for i in device_blocks]
                n = max(1, round(len(work) * self.scale_ratio))
                waves = -(-n // slots)
                mean_bits = sum(b.work_bits for b in work) / len(work)
                max_bits = max(b.work_bits for b in work)
                compute = (max_bits + (waves - 1) * mean_bits) / rate
                fetch = (
                    sum(b.inst_words for b in work) * self.scale_ratio * 4
                ) / gpu.mem_bw_bytes
                stage_time = max(stage_time, max(compute, fetch))
                publish += int(sum(b.publish_bits for b in work) * self.scale_ratio)
            # All-gather of published values across devices at the stage
            # boundary (skipped on a single device, where the on-die sync
            # cost is already charged below).
            if self.num_gpus > 1:
                exchange = publish / 8 * (self.num_gpus - 1) / self.num_gpus
                stage_time += exchange / (self.interconnect.bandwidth_gb * 1e9)
                stage_time += self.interconnect.latency_s
            else:
                stage_time += gpu.sync_s
            total += stage_time
        return total

    def speed(self, scale: float = 1.0) -> float:
        return scale / self.cycle_time()

    def device_loads(self) -> list[list[int]]:
        """Per stage, per device: total work bits (balance diagnostics)."""
        return [
            [sum(self.blocks[i].work_bits for i in dev) for dev in stage]
            for stage in self.assignment
        ]


def block_workloads(design: CompiledDesign) -> list[BlockWork]:
    """Extract per-block cost terms from a compiled design."""
    blocks: list[BlockWork] = []
    streams = parse_container(design.program.words).partitions
    for placed, stream in zip(design.merge.placements, streams):
        bits = 0
        for eff in placed.effective_widths_log2():
            width = 1 << eff
            bits += 2 * width - 1
        spec = placed.spec
        blocks.append(
            BlockWork(
                stage=spec.stage,
                work_bits=bits,
                inst_words=stream.size,
                publish_bits=len(spec.root_literals()),
                read_bits=len(spec.sources),
            )
        )
    return blocks


def assign_blocks(
    blocks: list[BlockWork], num_gpus: int, num_stages: int | None = None
) -> list[list[list[int]]]:
    """LPT bin packing of each stage's blocks onto ``num_gpus`` devices."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    stages = num_stages or (max((b.stage for b in blocks), default=0) + 1)
    assignment: list[list[list[int]]] = []
    for s in range(stages):
        indices = [i for i, b in enumerate(blocks) if b.stage == s]
        indices.sort(key=lambda i: -blocks[i].work_bits)
        devices: list[list[int]] = [[] for _ in range(num_gpus)]
        loads = [0] * num_gpus
        for i in indices:
            dev = loads.index(min(loads))
            devices[dev].append(i)
            loads[dev] += blocks[i].work_bits
        assignment.append(devices)
    return assignment


def plan_multi_gpu(
    design: CompiledDesign,
    num_gpus: int,
    gpu: GpuProfile = A100,
    interconnect: Interconnect | None = None,
    scale_ratio: float = 1.0,
) -> MultiGpuPlan:
    """Build the multi-GPU execution plan for a compiled design."""
    blocks = block_workloads(design)
    assignment = assign_blocks(blocks, num_gpus, design.merge.plan.num_stages)
    return MultiGpuPlan(
        num_gpus=num_gpus,
        gpu=gpu,
        interconnect=interconnect or Interconnect(),
        assignment=assignment,
        blocks=blocks,
        scale_ratio=scale_ratio,
    )


def multi_gpu_speed(
    design: CompiledDesign,
    num_gpus: int,
    gpu: GpuProfile = A100,
    scale: float = 1.0,
    scale_ratio: float = 1.0,
) -> float:
    """Simulated Hz on ``num_gpus`` devices (``scale`` = calibration)."""
    return plan_multi_gpu(design, num_gpus, gpu, scale_ratio=scale_ratio).speed(scale)
