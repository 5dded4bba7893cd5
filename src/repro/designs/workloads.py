"""Benchmark workloads — the Test Name column of the paper's Table II.

Each design gets workloads analogous to the paper's official benchmarks:
real MiniRV programs for the CPU designs (loaded over the boot bus),
tile/stream schedules for the accelerators.  Every workload carries the
full input stimulus sequence plus, where a software golden model exists,
the expected visible outputs — so the same workload object drives GEM, the
gate-level simulator whose counts feed the Table II baselines, and the
correctness tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.designs.isa_mini import Assembler, reference_execute


@dataclass
class Workload:
    """One named stimulus sequence for one design."""

    name: str
    design: str
    stimuli: list[dict[str, int]]
    #: expected values on the design's ``out``-style ports, when a golden
    #: software model exists (CPU programs); None otherwise
    expected_out: list[int] | None = None
    note: str = ""
    #: output ports carrying the observable stream ``expected_out`` checks
    out_port: str = "out"
    valid_port: str = "out_valid"

    @property
    def cycles(self) -> int:
        return len(self.stimuli)


# ---------------------------------------------------------------------------
# MiniRV programs (the CPU workloads)
# ---------------------------------------------------------------------------


def program_dhrystone(iterations: int = 12) -> Assembler:
    """Mixed integer/branch/memory loop (the dhrystone stand-in)."""
    a = Assembler()
    a.addi(1, 0, iterations)  # loop counter
    a.addi(2, 0, 0)  # checksum
    a.addi(3, 0, 17)  # working value
    a.label("loop")
    a.add(3, 3, 1)
    a.xor(2, 2, 3)
    a.shl(4, 3, 1)
    a.or_(2, 2, 4)
    a.st(2, 1, 16)  # record[i]
    a.ld(5, 1, 16)
    a.sub(5, 5, 3)
    a.add(2, 2, 5)
    a.addi(1, 1, -1)
    a.bne(1, 0, "loop")
    a.out(2)
    a.halt()
    return a


def program_memcpy(words: int = 24) -> Assembler:
    """Copy a block, then fold it into a checksum (mt-memcpy stand-in)."""
    a = Assembler()
    a.addi(1, 0, 0)  # src base
    a.addi(2, 0, 64)  # dst base
    a.addi(3, 0, words)  # count
    a.label("copy")
    a.ld(4, 1, 0)
    a.st(4, 2, 0)
    a.addi(1, 1, 1)
    a.addi(2, 2, 1)
    a.addi(3, 3, -1)
    a.bne(3, 0, "copy")
    a.addi(2, 0, 64)
    a.addi(3, 0, words)
    a.addi(5, 0, 0)
    a.label("sum")
    a.ld(4, 2, 0)
    a.add(5, 5, 4)
    a.addi(2, 2, 1)
    a.addi(3, 3, -1)
    a.bne(3, 0, "sum")
    a.out(5)
    a.halt()
    return a


def program_pmp(checks: int = 16) -> Assembler:
    """Bound-check-heavy loop (the pmp privilege-check stand-in)."""
    a = Assembler()
    a.addi(1, 0, checks)
    a.addi(2, 0, 0)  # grants
    a.addi(3, 0, 0)  # denials
    a.addi(6, 0, 5)  # lower bound
    a.addi(7, 0, 11)  # upper bound
    a.label("loop")
    a.shl(4, 1, 1)  # address under test = i << 1
    a.blt(4, 6, "deny")
    a.blt(7, 4, "deny")
    a.addi(2, 2, 1)
    a.jal(0, "next")
    a.label("deny")
    a.addi(3, 3, 1)
    a.label("next")
    a.addi(1, 1, -1)
    a.bne(1, 0, "loop")
    a.shl(2, 2, 2)  # pack grants/denials: grants << grants? no: << r2? fixed
    a.add(2, 2, 3)
    a.out(2)
    a.halt()
    return a


def program_qsort(seed: int = 3, n: int = 10) -> Assembler:
    """Insertion sort of pre-loaded data then output min/max/sum (qsort)."""
    a = Assembler()
    # data pre-loaded at dmem[0..n-1] by the boot sequence
    a.addi(1, 0, 1)  # i
    a.addi(8, 0, n)
    a.label("outer")
    a.ld(2, 1, 0)  # key
    a.add(3, 1, 0)  # j = i
    a.label("inner")
    a.beq(3, 0, "place")
    a.addi(4, 3, -1)
    a.ld(5, 4, 0)  # data[j-1]
    a.blt(2, 5, "shift")
    a.jal(0, "place")
    a.label("shift")
    a.st(5, 3, 0)
    a.addi(3, 3, -1)
    a.jal(0, "inner")
    a.label("place")
    a.st(2, 3, 0)
    a.addi(1, 1, 1)
    a.bne(1, 8, "outer")
    a.ld(6, 0, 0)  # min
    a.addi(7, 8, -1)
    a.ld(7, 7, 0)  # max
    a.out(6)
    a.out(7)
    a.addi(1, 0, 0)
    a.addi(5, 0, 0)
    a.label("sum")
    a.ld(4, 1, 0)
    a.add(5, 5, 4)
    a.addi(1, 1, 1)
    a.bne(1, 8, "sum")
    a.out(5)
    a.halt()
    return a


def program_spmv(nnz: int = 12) -> Assembler:
    """Indexed gather/MAC loop (the spmv stand-in).

    dmem layout (boot-loaded): cols at [0..nnz), vals at [32..32+nnz),
    x-vector at [96..).
    """
    a = Assembler()
    a.addi(1, 0, nnz)
    a.addi(2, 0, 0)  # k
    a.addi(5, 0, 0)  # y accumulator
    a.label("loop")
    a.ld(3, 2, 0)  # col index
    a.addi(4, 3, 96)
    a.ld(4, 4, 0)  # x[col]
    a.ld(6, 2, 32)  # val
    a.mul(7, 4, 6)
    a.add(5, 5, 7)
    a.addi(2, 2, 1)
    a.bne(2, 1, "loop")
    a.out(5)
    a.halt()
    return a


def program_idle(spins: int = 2) -> Assembler:
    """Tiny spin-then-halt used by inactive multicore tiles."""
    a = Assembler()
    a.addi(1, 0, spins)
    a.label("spin")
    a.addi(1, 1, -1)
    a.bne(1, 0, "spin")
    a.halt()
    return a


def program_alu_mix(iterations: int = 14) -> Assembler:
    """ALU-dense loop without loads (fp_mt_combo stand-in, integer form)."""
    a = Assembler()
    a.addi(1, 0, iterations)
    a.addi(2, 0, 0x1F)
    a.addi(3, 0, 3)
    a.label("loop")
    a.add(2, 2, 3)
    a.xor(2, 2, 1)
    a.shl(4, 2, 3)
    a.shr(5, 4, 3)
    a.or_(2, 2, 5)
    a.sub(2, 2, 3)
    a.addi(1, 1, -1)
    a.bne(1, 0, "loop")
    a.out(2)
    a.halt()
    return a


def program_ldst(quads: int = 10) -> Assembler:
    """Load/store-dominated loop (ldst_quad2 stand-in)."""
    a = Assembler()
    a.addi(1, 0, quads)
    a.addi(2, 0, 0)
    a.label("loop")
    a.st(1, 1, 8)
    a.st(2, 1, 40)
    a.ld(3, 1, 8)
    a.ld(4, 1, 40)
    a.add(2, 2, 3)
    a.xor(2, 2, 4)
    a.addi(1, 1, -1)
    a.bne(1, 0, "loop")
    a.out(2)
    a.halt()
    return a


# ---------------------------------------------------------------------------
# Boot + run stimulus assembly
# ---------------------------------------------------------------------------


def _cpu_boot(
    program: list[int],
    dmem: dict[int, int] | None = None,
    core: int | None = None,
) -> list[dict[str, int]]:
    """Boot-bus stimulus loading one core's instruction and data memory."""
    stimuli: list[dict[str, int]] = []
    sel = {} if core is None else {"boot_core": core}
    for addr, word in enumerate(program):
        stimuli.append(
            {"boot_mode": 1, "boot_imem_wen": 1, "boot_addr": addr, "boot_data": word, **sel}
        )
    for addr, word in sorted((dmem or {}).items()):
        stimuli.append(
            {"boot_mode": 1, "boot_dmem_wen": 1, "boot_addr": addr, "boot_data": word, **sel}
        )
    return stimuli


def _cpu_workload(
    design: str,
    name: str,
    assembler: Assembler,
    dmem: dict[int, int] | None = None,
    dmem_depth: int = 256,
    cores: int = 1,
    note: str = "",
    idle_program: Assembler | None = None,
) -> Workload:
    program = assembler.assemble()
    dmem_init = [0] * dmem_depth
    for addr, word in (dmem or {}).items():
        dmem_init[addr] = word
    ref = reference_execute(program, dmem_init, dmem_depth=dmem_depth)
    stimuli: list[dict[str, int]] = []
    if cores == 1 and design == "rocket_like":
        stimuli += _cpu_boot(program, dmem)
    else:
        stimuli += _cpu_boot(program, dmem, core=0)
        idle = (idle_program or program_idle()).assemble()
        for c in range(1, cores):
            stimuli += _cpu_boot(idle, core=c)
    run_cycles = 3 * ref["steps"] + 40
    stimuli += [{} for _ in range(run_cycles)]
    multi = cores > 1 or design.startswith("openpiton")
    return Workload(
        name=name,
        design=design,
        stimuli=stimuli,
        expected_out=ref["out"],
        note=note,
        out_port="out0" if multi else "out",
        valid_port="out_valid0" if multi else "out_valid",
    )


def rocket_workloads(dmem_depth: int = 256) -> dict[str, Workload]:
    rng = random.Random(42)
    qsort_data = {i: rng.randrange(1, 100) for i in range(10)}
    spmv_dmem: dict[int, int] = {}
    for k in range(12):
        spmv_dmem[k] = rng.randrange(0, 16)  # col index
        spmv_dmem[32 + k] = rng.randrange(1, 9)  # value
    for j in range(16):
        spmv_dmem[96 + j] = rng.randrange(1, 50)  # x vector
    mk = lambda name, asm, dmem=None, note="": _cpu_workload(
        "rocket_like", name, asm, dmem, dmem_depth, note=note
    )
    return {
        "dhrystone": mk("dhrystone", program_dhrystone(), note="mixed integer loop"),
        "mt-memcpy": mk(
            "mt-memcpy",
            program_memcpy(),
            {i: rng.randrange(1, 1000) for i in range(24)},
            note="block copy + checksum",
        ),
        "pmp": mk("pmp", program_pmp(), note="bound-check/branch heavy"),
        "qsort": mk("qsort", program_qsort(), qsort_data, note="insertion sort"),
        "spmv": mk("spmv", program_spmv(), spmv_dmem, note="indexed gather/MAC"),
    }


def openpiton_workloads(cores: int, dmem_depth: int = 128) -> dict[str, Workload]:
    design = f"openpiton{cores}_like"
    mk = lambda name, asm, note="": _cpu_workload(
        design, name, asm, None, dmem_depth, cores=cores, note=note
    )
    return {
        "ldst_quad2": mk("ldst_quad2", program_ldst(), note="load/store dominated"),
        "fp_mt_combo0": mk("fp_mt_combo0", program_alu_mix(), note="ALU dense"),
        "asi_notused_priv": mk(
            "asi_notused_priv", program_pmp(10), note="privilege checks, low activity"
        ),
    }


# ---------------------------------------------------------------------------
# Accelerator workloads
# ---------------------------------------------------------------------------


def nvdla_workloads(scale=None) -> dict[str, Workload]:
    """Conv schedules named after the paper's NVDLA tests.

    Like the real benchmarks, each test exercises *one* engine (direct-conv
    tests the conv core, ``cdp_*`` the normalization engine, ``pdp*`` the
    pooling engine) while the others idle — the activity profile behind the
    commercial tool's 1.7–7.8 kHz spread on NVDLA in the paper's Table II.
    """
    from repro.designs.nvdla_like import NvdlaScale

    scale = scale or NvdlaScale()
    rng = random.Random(7)
    max_data = (1 << (scale.data_width * scale.lanes)) - 1

    def conv(name: str, engine: int, acts: int, length: int, note: str) -> Workload:
        engine = engine % scale.engines
        stimuli: list[dict[str, int]] = []
        for addr in range(acts):
            stimuli.append(
                {
                    "engine": engine,
                    "act_wen": 1,
                    "load_addr": addr,
                    "load_data": rng.randrange(max_data),
                }
            )
        for addr in range(scale.taps):
            stimuli.append(
                {
                    "engine": engine,
                    "wgt_wen": 1,
                    "load_addr": addr,
                    "load_data": rng.randrange(max_data),
                }
            )
        stimuli.append({"engine": engine, "start": 1, "length": length})
        run = length * (scale.taps + 3) + 20
        stimuli += [{"engine": engine} for _ in range(run)]
        return Workload(name=name, design="nvdla_like", stimuli=stimuli, note=note)

    return {
        "dc6x3x76x270_int8_0": conv("dc6x3x76x270_int8_0", 0, 96, 88, "long direct conv"),
        "dc6x3x76x16_int8_0": conv("dc6x3x76x16_int8_0", 0, 64, 56, "short direct conv"),
        "img_51x96x4int8_0": conv("img_51x96x4int8_0", 0, 96, 80, "image mode"),
        "cdp_8x8x32_lrn3_int8_2": conv("cdp_8x8x32_lrn3_int8_2", 1, 48, 40, "cross-channel"),
        "pdpmax_int8_0": conv("pdpmax_int8_0", 2, 32, 24, "pooling-ish short run"),
    }


def gemmini_workloads(scale=None) -> dict[str, Workload]:
    from repro.designs.gemmini_like import GemminiScale

    scale = scale or GemminiScale()
    rng = random.Random(9)
    N = scale.dim
    row_max = (1 << (scale.data_width * N)) - 1

    def matmul(name: str, tiles: int, streams: int, note: str) -> Workload:
        stimuli: list[dict[str, int]] = []
        addr = 0
        for _tile in range(tiles):
            stimuli.append({"acc_clear": 1})
            for row in range(N):
                stimuli.append(
                    {"wgt_wen": 1, "wgt_row": row, "wgt_bus": rng.randrange(row_max)}
                )
            for _ in range(streams):
                stimuli.append({"act_valid": 1, "act_bus": rng.randrange(row_max)})
            for row in range(N):
                stimuli.append(
                    {
                        "drain": 1,
                        "drain_row": row,
                        "drain_addr": addr,
                        "t_wen": 1,
                        "t_addr": addr & 15,
                    }
                )
                addr += 1
            # Scratchpad/DMA refill stall between tiles: the systolic array
            # idles while the next tile's operands are fetched (real Gemmini
            # spends a large share of cycles on mvin/mvout).
            stimuli += [{} for _ in range(2 * N)]
        stimuli.append({})
        return Workload(name=name, design="gemmini_like", stimuli=stimuli, note=note)

    return {
        "tiled_matmul_ws_full_C": matmul("tiled_matmul_ws_full_C", 4, 3 * N, "full tiles"),
        "tiled_matmul_ws_perf": matmul("tiled_matmul_ws_perf", 6, 2 * N, "perf tiles"),
    }


def workloads_for(design_name: str, **kwargs) -> dict[str, Workload]:
    """Dispatch per design (openpiton wants ``cores=``)."""
    if design_name == "rocket_like":
        return rocket_workloads(**kwargs)
    if design_name == "nvdla_like":
        return nvdla_workloads(**kwargs)
    if design_name == "gemmini_like":
        return gemmini_workloads(**kwargs)
    if design_name.startswith("openpiton"):
        cores = int(design_name.removeprefix("openpiton").split("_")[0])
        return openpiton_workloads(cores=cores, **kwargs)
    raise KeyError(f"unknown design {design_name!r}")
