"""The four benchmark workloads: what runs, and the seeded stimuli it runs on.

``--seed`` is the only source of per-lane programs and data.  Everything
here builds plain ``dict`` stimuli (the simulator's public input format)
plus the software reference each lane is checked against; nothing in this
file touches a simulator.

Pass geometry (cycles per pass, lanes) is a constant of each workload, not
of the seed, so ``lane_cycles_per_s`` of two seeds measures the same amount
of simulated work and ``attempted`` repeats exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.designs import workloads as dw
from repro.designs.gemmini_like import GemminiScale
from repro.designs.isa_mini import Assembler, reference_execute
from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like
from repro.rtl.ir import Circuit


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: registered design name (``repro.harness.runner.DESIGNS``), or None
    #: for the design this workload compiles cold itself
    design: str | None
    batch: int
    #: "lanes": ``sim.run_lanes`` with one dict per lane per cycle;
    #: "step": ``sim.step`` with one scalar dict per cycle, lane 0 read back
    driver: str
    #: floors under the time box (README: cut passes, never workloads)
    min_rounds: int
    passes_per_round: int
    #: cold compiles are part of every round (the compile workload only)
    cold_compile: bool = False


WORKLOADS: dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            name="compile-cold-openpiton3",
            why="repeated cold compiles of a 28.7k-gate 2-stage 4-partition design: "
            "synthesis, RepCut, merging and placement do the work, the run layers almost none",
            design=None,
            batch=1,
            driver="step",
            min_rounds=4,
            passes_per_round=6,
            cold_compile=True,
        ),
        WorkloadSpec(
            name="seed-sweep-rocketchip-b64",
            why="64 lanes each boot a different seeded program, then empty stimuli with "
            "full 64-lane readback every cycle (K=1 word): lane readback does most of the work",
            design="rocketchip",
            batch=64,
            driver="lanes",
            min_rounds=8,
            passes_per_round=1,
        ),
        WorkloadSpec(
            name="stream-gemmini-b1024",
            why="1024 lanes (K=16 planes) of a tiled matmul with per-lane random operand words "
            "on most cycles: distinct-PI inject beside readback, on the deepest design",
            design="gemmini",
            batch=1024,
            driver="lanes",
            min_rounds=5,
            passes_per_round=1,
        ),
        WorkloadSpec(
            name="single-lane-rocketchip-b1",
            why="batch 1 through step(): lane I/O is ~16%, the fused wave loop does the work; "
            "lane-I/O changes must not move it and executor changes must not regress it",
            design="rocketchip",
            batch=1,
            driver="step",
            min_rounds=15,
            passes_per_round=2,
        ),
    )
}


@dataclass
class Inputs:
    """One workload's generated inputs for one seed."""

    #: per cycle: a list of ``batch`` dicts (driver "lanes") or one dict
    stimuli: list
    #: per lane: the dict stimuli that lane sees, cycle by cycle
    lane_stimuli: list[list[dict[str, int]]]
    #: per lane: expected ``out`` stream from ``reference_execute`` (CPU
    #: designs), None where no software model exists
    expected_out: list[list[int] | None]
    out_port: str = "out"
    valid_port: str = "out_valid"
    #: lanes compared against the word-level golden model
    sample_lanes: list[int] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return len(self.stimuli)


# ---------------------------------------------------------------------------
# MiniRV lanes (rocketchip workloads)
# ---------------------------------------------------------------------------

#: every lane's pass is this long: its boot, then ``{}`` until the end
CPU_CYCLES = 486
#: retire bound the parameter ranges below stay under
_CPU_MAX_STEPS = 130


def _cpu_lane(rng: random.Random) -> tuple[Assembler, dict[int, int]]:
    """One seeded draw from the public ``program_*`` generators."""
    kind = rng.choice(("dhrystone", "memcpy", "pmp", "qsort", "spmv", "alu_mix", "ldst"))
    if kind == "dhrystone":
        return dw.program_dhrystone(rng.randrange(6, 13)), {}
    if kind == "memcpy":
        words = rng.randrange(4, 9)
        return dw.program_memcpy(words), {i: rng.randrange(1, 1000) for i in range(words)}
    if kind == "pmp":
        return dw.program_pmp(rng.randrange(8, 17)), {}
    if kind == "qsort":
        n = rng.randrange(3, 6)
        return dw.program_qsort(n=n), {i: rng.randrange(1, 100) for i in range(n)}
    if kind == "spmv":
        nnz = rng.randrange(6, 13)
        dmem = {}
        for k in range(nnz):
            dmem[k] = rng.randrange(0, 16)
            dmem[32 + k] = rng.randrange(1, 9)
        for j in range(16):
            dmem[96 + j] = rng.randrange(1, 50)
        return dw.program_spmv(nnz), dmem
    if kind == "alu_mix":
        return dw.program_alu_mix(rng.randrange(8, 15)), {}
    return dw.program_ldst(rng.randrange(6, 11)), {}


def _cpu_lane_stimuli(rng: random.Random) -> tuple[list[dict[str, int]], list[int]]:
    """Boot vectors + idle cycles for one lane, and its reference output."""
    asm, dmem = _cpu_lane(rng)
    program = asm.assemble()
    image = [0] * 256
    for addr, word in dmem.items():
        image[addr] = word
    ref = reference_execute(program, image, dmem_depth=256)
    boot = [
        {"boot_mode": 1, "boot_imem_wen": 1, "boot_addr": addr, "boot_data": word}
        for addr, word in enumerate(program)
    ] + [
        {"boot_mode": 1, "boot_dmem_wen": 1, "boot_addr": addr, "boot_data": word}
        for addr, word in sorted(dmem.items())
    ]
    if ref["steps"] > _CPU_MAX_STEPS or len(boot) + 3 * ref["steps"] + 40 > CPU_CYCLES:
        raise ValueError(
            f"generated program does not fit the pass: {ref['steps']} steps, {len(boot)} boot words"
        )
    return boot + [{} for _ in range(CPU_CYCLES - len(boot))], ref["out"]


def _lane_rng(seed: int, lane: int) -> random.Random:
    # one stream per lane, so lane 0 of the sweep is the single-lane workload
    return random.Random(f"gem-e2e:{seed}:{lane}")


def _cpu_inputs(seed: int, batch: int, driver: str) -> Inputs:
    lanes = [_cpu_lane_stimuli(_lane_rng(seed, lane)) for lane in range(batch)]
    lane_stimuli = [stim for stim, _ in lanes]
    if driver == "lanes":
        stimuli = [[stim[c] for stim in lane_stimuli] for c in range(CPU_CYCLES)]
    else:
        stimuli = lane_stimuli[0]
    return Inputs(
        stimuli=stimuli,
        lane_stimuli=lane_stimuli,
        expected_out=[out for _, out in lanes],
    )


# ---------------------------------------------------------------------------
# Gemmini lanes
# ---------------------------------------------------------------------------

#: tiles of the public tiled-matmul schedule one pass streams
_GEMMINI_TILES = 2


def _gemmini_inputs(seed: int, batch: int) -> Inputs:
    scale = GemminiScale()
    # acc_clear + weight rows + 3N activations + drain rows + 2N refill stall
    tile = 1 + 7 * scale.dim
    control = dw.gemmini_workloads(scale)["tiled_matmul_ws_full_C"].stimuli
    control = control[: _GEMMINI_TILES * tile] + [{}]
    row_max = (1 << (scale.data_width * scale.dim)) - 1
    lane_stimuli = []
    for lane in range(batch):
        rng = _lane_rng(seed, lane)
        lane_stimuli.append(
            [
                {
                    name: rng.randrange(row_max) if name in ("wgt_bus", "act_bus") else value
                    for name, value in vec.items()
                }
                for vec in control
            ]
        )
    return Inputs(
        stimuli=[[stim[c] for stim in lane_stimuli] for c in range(len(control))],
        lane_stimuli=lane_stimuli,
        expected_out=[None] * batch,
    )


# ---------------------------------------------------------------------------
# The cold-compiled design
# ---------------------------------------------------------------------------


def build_cold_circuit() -> Circuit:
    return build_openpiton_like(OpenPitonScale(cores=3))


def _openpiton3_inputs() -> Inputs:
    # the design's own public workload; the compile is the input that
    # matters here and it does not depend on the seed
    wl = dw.openpiton_workloads(cores=3)["ldst_quad2"]
    return Inputs(
        stimuli=wl.stimuli,
        lane_stimuli=[wl.stimuli],
        expected_out=[wl.expected_out],
        out_port=wl.out_port,
        valid_port=wl.valid_port,
    )


# ---------------------------------------------------------------------------


def _sample_lanes(seed: int, batch: int, count: int = 8) -> list[int]:
    """Lane 0, the last lane, and seeded others — the WordSim sample."""
    if batch <= count:
        return list(range(batch))
    rng = random.Random(f"gem-e2e-sample:{seed}")
    middle = rng.sample(range(1, batch - 1), count - 2)
    return sorted([0, batch - 1, *middle])


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    if spec.design is None:
        inputs = _openpiton3_inputs()
    elif spec.design == "rocketchip":
        inputs = _cpu_inputs(seed, spec.batch, spec.driver)
    elif spec.design == "gemmini":
        inputs = _gemmini_inputs(seed, spec.batch)
    else:
        raise KeyError(spec.design)
    inputs.sample_lanes = _sample_lanes(seed, spec.batch)
    return inputs


def stimuli_sha256(inputs: Inputs) -> str:
    payload = json.dumps(inputs.stimuli, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def distinct_pi_frac(inputs: Inputs, pi_names: list[str]) -> float:
    """Share of (cycle, PI) pairs on which the lanes do not all agree."""
    lanes = inputs.lane_stimuli
    if len(lanes) == 1:
        return 0.0
    distinct = 0
    for c in range(inputs.cycles):
        vecs = [stim[c] for stim in lanes]
        first = vecs[0]
        for name in pi_names:
            value = first.get(name, 0)
            if any(vec.get(name, 0) != value for vec in vecs):
                distinct += 1
    return distinct / (inputs.cycles * len(pi_names))
