"""Integration: every CPU workload runs correctly on GEM (and pruned GEM).

These drive the full compiled designs through complete workloads; the
designs come from the harness cache (`.gem_cache/`), so the first run
compiles them (~a minute each) and later runs are fast.  They certify the
same property as Table II's execution column: the bitstream interpreter is
a drop-in replacement for the reference simulator on real programs.
"""

import pytest

from repro.extensions.pruning import PruningGemInterpreter
from repro.harness.runner import compile_design, design_workloads


def _run_stream(sim, wl):
    observed = []
    for vec in wl.stimuli:
        outs = sim.step(vec)
        if outs.get(wl.valid_port):
            observed.append(outs[wl.out_port])
        if outs.get("halted") or outs.get("all_halted"):
            break
    return observed


@pytest.mark.parametrize("workload", ["dhrystone", "mt-memcpy", "pmp", "qsort", "spmv"])
def test_rocket_workloads_on_gem(workload):
    design = compile_design("rocketchip")
    wl = design_workloads("rocketchip")[workload]
    assert _run_stream(design.simulator(), wl) == wl.expected_out


@pytest.mark.parametrize("workload", ["ldst_quad2", "fp_mt_combo0", "asi_notused_priv"])
def test_openpiton1_workloads_on_gem(workload):
    design = compile_design("openpiton1")
    wl = design_workloads("openpiton1")[workload]
    assert _run_stream(design.simulator(), wl) == wl.expected_out


@pytest.mark.slow
def test_openpiton8_workload_on_pruned_gem():
    """The pruning extension stays bit-exact on the full multicore run."""
    design = compile_design("openpiton8")
    wl = design_workloads("openpiton8")["fp_mt_combo0"]
    sim = PruningGemInterpreter(design.program)
    assert _run_stream(sim, wl) == wl.expected_out
    assert sim.blocks_skipped > 0  # pruning actually engaged


@pytest.mark.slow
def test_nvdla_checksum_on_gem():
    design = compile_design("nvdla")
    wl = design_workloads("nvdla")["pdpmax_int8_0"]
    gem = design.simulator()
    last = {}
    for vec in wl.stimuli:
        last = gem.step(vec)
    assert last["done"] == 1
    assert last["checksum"] != 0
