"""Flagship equivalence: every level of the flow in lockstep on real designs.

This is the repository's central correctness statement: the golden
word-level simulator, the gate-level simulator of the synthesized E-AIG,
and the GEM interpreter (through synthesis, multi-stage RepCut, merging,
placement and binary bitstream) produce identical outputs on every cycle
of real workloads.
"""

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.core.ram_mapping import RamMappingConfig
from repro.core.synthesis import SynthesisConfig, synthesize
from repro.designs.gemmini_like import GemminiScale, build_gemmini_like
from repro.designs.nvdla_like import NvdlaScale, build_nvdla_like
from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like
from repro.designs.rocket_like import RocketScale, build_rocket_like
from repro.designs.workloads import (
    gemmini_workloads,
    nvdla_workloads,
    openpiton_workloads,
    rocket_workloads,
)
from repro.rtl import Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim
from tests.helpers import lockstep


def _config():
    return GemConfig(
        synthesis=SynthesisConfig(ram=RamMappingConfig(addr_bits=5, data_bits=16)),
        partition=PartitionConfig(gates_per_partition=2500),
        boomerang=BoomerangConfig(width_log2=13),  # the paper's 8192-bit core
    )


def _all_engines(circuit):
    netlist = Netlist(circuit)
    synth = synthesize(circuit, _config().synthesis)
    design = GemCompiler(_config()).compile(circuit)
    return {
        "word": WordSim(netlist),
        "gate": GateLevelSim(synth),
        "gem": design.simulator(),
    }


@pytest.mark.slow
@pytest.mark.parametrize(
    "workload", ["dhrystone", "pmp"], ids=["dhrystone", "pmp"]
)
def test_rocket_all_engines(workload):
    scale = RocketScale(imem_depth=128, dmem_depth=128, rocc_macs=1)
    circuit = build_rocket_like(scale)
    wl = rocket_workloads(dmem_depth=scale.dmem_depth)[workload]
    engines = _all_engines(circuit)
    lockstep(engines, wl.stimuli)


@pytest.mark.slow
def test_openpiton2_all_engines():
    scale = OpenPitonScale(cores=2, imem_depth=64, dmem_depth=64)
    circuit = build_openpiton_like(scale)
    wl = openpiton_workloads(cores=2, dmem_depth=64)["fp_mt_combo0"]
    engines = _all_engines(circuit)
    lockstep(engines, wl.stimuli)


@pytest.mark.slow
def test_nvdla_all_engines():
    scale = NvdlaScale(engines=2, lanes=2, taps=2, act_depth=64, wgt_depth=16, out_depth=64)
    circuit = build_nvdla_like(scale)
    wl = nvdla_workloads(scale)["pdpmax_int8_0"]
    engines = _all_engines(circuit)
    lockstep(engines, wl.stimuli)


@pytest.mark.slow
def test_gemmini_all_engines():
    scale = GemminiScale(dim=2, spad_depth=32)
    circuit = build_gemmini_like(scale)
    wl = gemmini_workloads(scale)["tiled_matmul_ws_perf"]
    engines = _all_engines(circuit)
    lockstep(engines, wl.stimuli)
