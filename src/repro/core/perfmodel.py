"""Analytical performance models for Table II (see DESIGN.md §2).

This reproduction has no GPU, so simulated-cycles-per-second numbers are
produced by analytical timing models driven by *measured* quantities from
the real flow: instruction words assembled, permutation/fold bits placed,
partitions per stage, signal events and gate toggles counted by the
gate-level simulator, and the width-weighted op count of the netlist.  The same methodology as calibrating an
architectural simulator: fix a small set of rate constants against anchor
points, then let every other number fall out of the counted work.

Models
------
* :func:`gem_speed` — the GEM CUDA interpreter:
  ``cycle time = bitstream fetch (bytes / HBM bandwidth)  ⊕  per-stage
  compute (block waves × shared-memory bit ops / block rate)  +  device
  synchronizations``.  Fetch and compute overlap (the kernel streams
  instructions), hence the ⊕ = max().
* :func:`event_sim_speed` — commercial event-driven tool:
  per-cycle scheduler overhead + events × per-event cost.
* :func:`compiled_sim_speed` — Verilator-style compiled full-cycle:
  word ops (:func:`compiled_work_units`) × per-op cost (+ thread scaling via
  :class:`repro.simref.threads.ThreadScalingModel`).
* :func:`gate_sim_speed` — GL0AM-style GPU gate-level:
  kernel launches × launch cost + toggled gates / GPU gate rate.

Calibration constants live in the profile dataclasses; the fitted values
(see ``repro.harness.calibrate``) anchor GEM-A100 to the paper's NVDLA
point and the CPU engines to the paper's NVDLA baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitstream import parse_container
from repro.core.compiler import CompiledDesign


@dataclass(frozen=True)
class GpuProfile:
    """One GPU's model parameters."""

    name: str
    sms: int
    clock_ghz: float
    mem_bw_gb: float  # HBM/GDDR bandwidth, GB/s
    #: concurrently resident blocks per SM (shared-memory limited: the 8 KiB
    #: block state plus working set allow 2 on both parts)
    blocks_per_sm: int = 2
    #: device-wide cooperative-group sync latency, seconds
    sync_s: float = 3.0e-6
    #: efficiency of shared-memory bit processing: fraction of the peak
    #: (threads × 32 bits × clock) rate a block sustains through the
    #: gather + fold pipeline (bank conflicts, address arithmetic)
    smem_efficiency: float = 0.18
    #: GPU gate-level LUT evaluation rate (gates/s) for the GL0AM model
    gate_rate: float = 9.0e9
    #: kernel-launch / level-barrier cost for gate-level simulation, seconds
    launch_s: float = 2.2e-6

    @property
    def mem_bw_bytes(self) -> float:
        return self.mem_bw_gb * 1e9

    def block_bit_rate(self) -> float:
        """Bits/second one block pushes through gather+fold."""
        return 256 * 32 * self.clock_ghz * 1e9 * self.smem_efficiency


@dataclass(frozen=True)
class CpuProfile:
    """CPU rate constants for the event-driven and compiled baselines."""

    name: str = "xeon-6136"
    #: signal events processed per second (event-driven engines)
    event_rate: float = 55.0e6
    #: fixed per-cycle scheduler overhead of event-driven simulation, s
    event_cycle_overhead_s: float = 18.0e-6
    #: word-level operations per second (compiled full-cycle engines)
    compiled_op_rate: float = 260.0e6
    #: fixed per-cycle overhead of compiled simulation (eval loop, I/O), s
    compiled_cycle_overhead_s: float = 1.2e-6


#: The two GPUs evaluated in the paper.
A100 = GpuProfile(name="A100", sms=108, clock_ghz=1.41, mem_bw_gb=1555.0)
RTX3090 = GpuProfile(
    name="RTX3090", sms=82, clock_ghz=1.70, mem_bw_gb=936.0, sync_s=3.5e-6,
    smem_efficiency=0.16, gate_rate=7.0e9,
)
XEON = CpuProfile()


@dataclass
class GemMetrics:
    """Static per-cycle work of a compiled design (counted, not timed)."""

    stage_partitions: list[int]
    #: instruction words fetched per cycle (the whole bitstream streams in)
    inst_words: int
    #: per-stage total permutation+fold bits, and the per-stage max block
    stage_work_bits: list[int]
    stage_max_block_bits: list[int]
    #: global state bits read + written per cycle
    global_traffic: int


def gem_metrics(design: CompiledDesign) -> GemMetrics:
    """Extract the performance-model inputs from a compiled design."""
    stage_partitions = [len(s) for s in design.merge.plan.stages]
    num_stages = len(stage_partitions)
    stage_work = [0] * num_stages
    stage_max = [0] * num_stages
    global_traffic = 0
    for placed in design.merge.placements:
        bits = 0
        for eff in placed.effective_widths_log2():
            width = 1 << eff
            # One gather of `width` bits plus folds halving from width.
            bits += width + (width - 1)
        s = placed.spec.stage
        stage_work[s] += bits
        stage_max[s] = max(stage_max[s], bits)
        global_traffic += len(placed.spec.sources) + len(placed.spec.root_literals())
    return GemMetrics(
        stage_partitions=stage_partitions,
        inst_words=parse_container(design.program.words).inst_words,
        stage_work_bits=stage_work,
        stage_max_block_bits=stage_max,
        global_traffic=global_traffic,
    )


def gem_cycle_time(metrics: GemMetrics, gpu: GpuProfile) -> float:
    """Seconds per simulated cycle for the GEM interpreter on ``gpu``."""
    fetch = metrics.inst_words * 4 / gpu.mem_bw_bytes
    compute = 0.0
    slots = gpu.sms * gpu.blocks_per_sm
    rate = gpu.block_bit_rate()
    for s, parts in enumerate(metrics.stage_partitions):
        if parts == 0:
            continue
        waves = -(-parts // slots)
        mean_block = metrics.stage_work_bits[s] / parts
        # Each wave runs its blocks concurrently; the last block to finish
        # gates the wave.  Approximate by the stage's max block for the
        # first wave and the mean for the rest.
        stage_time = (
            metrics.stage_max_block_bits[s] + (waves - 1) * mean_block
        ) / rate
        compute += stage_time
    syncs = (len([p for p in metrics.stage_partitions if p]) ) * gpu.sync_s
    return max(fetch, compute) + syncs


def gem_speed(design_or_metrics: CompiledDesign | GemMetrics, gpu: GpuProfile = A100) -> float:
    """Simulated Hz of GEM on ``gpu``."""
    metrics = (
        design_or_metrics
        if isinstance(design_or_metrics, GemMetrics)
        else gem_metrics(design_or_metrics)
    )
    return 1.0 / gem_cycle_time(metrics, gpu)


def tuning_score(
    design_or_metrics: CompiledDesign | GemMetrics, gpu: GpuProfile = A100
) -> dict:
    """Analytical scorecard used by :mod:`repro.core.autotune`.

    The autotuner ranks every knob candidate by modelled :func:`gem_speed`
    (the ``model_hz`` field) and by nothing else.  The breakdown fields
    make tuning-cache records self-describing (why a candidate scored the
    way it did) without re-compiling the design.
    """
    metrics = (
        design_or_metrics
        if isinstance(design_or_metrics, GemMetrics)
        else gem_metrics(design_or_metrics)
    )
    return {
        "model_hz": gem_speed(metrics, gpu),
        "stages": len([p for p in metrics.stage_partitions if p]),
        "partitions": sum(metrics.stage_partitions),
        "inst_words": metrics.inst_words,
        "work_bits": sum(metrics.stage_work_bits),
        "global_traffic": metrics.global_traffic,
    }


def event_sim_speed(events_per_cycle: float, cpu: CpuProfile = XEON) -> float:
    """Simulated Hz of the commercial event-driven baseline."""
    t = cpu.event_cycle_overhead_s + events_per_cycle / cpu.event_rate
    return 1.0 / t


def compiled_work_units(netlist) -> int:
    """Per-cycle work of a compiled full-cycle simulator of ``netlist``:
    one unit per produced bit of every combinational op and register.

    Full-cycle simulators do all of it every cycle, and compiled-code cost
    tracks datapath width (wide ops compile to more machine work), so this
    is what :func:`compiled_sim_speed` charges.
    """
    return sum(op.out.width for op in netlist.order) + sum(
        op.out.width for op in netlist.circuit.registers
    )


def compiled_sim_speed(
    ops_per_cycle: float,
    threads: int = 1,
    cpu: CpuProfile = XEON,
    scaling=None,
) -> float:
    """Simulated Hz of Verilator-style compiled simulation."""
    single = cpu.compiled_cycle_overhead_s + ops_per_cycle / cpu.compiled_op_rate
    if threads == 1:
        return 1.0 / single
    from repro.simref.threads import ThreadScalingModel

    model = scaling or ThreadScalingModel()
    return 1.0 / model.cycle_time(threads, single)


def gate_sim_speed(
    toggles_per_cycle: float,
    kernel_launches_per_cycle: float,
    gpu: GpuProfile = A100,
) -> float:
    """Simulated Hz of GL0AM-style GPU gate-level simulation."""
    t = kernel_launches_per_cycle * gpu.launch_s + toggles_per_cycle / gpu.gate_rate
    return 1.0 / t
