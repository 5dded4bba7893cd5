"""Stage-fused executor (repro.core.fused): differential equivalence.

The executor replaces the ISA's per-partition walk with a
constant-folded, CSE'd, wave-scheduled AND-DAG executed as a handful of
whole-stage array ops (docs/ENGINE.md §6).  Everything here certifies
that the rewrite is *invisible*: bit-identical outputs and state digests
against the ISA-literal reference interpreter ("legacy" in the test
names: it is the per-partition loop that used to be ``mode="legacy"``)
over the real designs at batch 1/16/64, identical work counters,
checkpoint/resume compatibility mid-run across the two engines, and the
decode/fusion caches that let Supervisor primary+shadow fuse once.
"""

import dataclasses

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.interpreter import (
    CycleCounters,
    clear_decode_cache,
    decode_cache_stats,
)
from repro.core.fused import clear_fusion_cache, fusion_cache_stats
from repro.core.partition import PartitionConfig
from repro.harness.runner import DESIGNS, compile_design, design_workloads
from repro.runtime.supervisor import Supervisor, state_digest
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import random_circuit, random_vectors

BATCHES = (1, 16, 64)
CYCLES = 40


def _compile_small(circuit):
    return GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)


def _lane_streams(stimuli, batch, cycles):
    """``batch`` distinct stimulus streams: lane ``l`` starts ``l`` cycles
    into the workload (wrapping), so lanes genuinely diverge."""
    n = len(stimuli)
    return [
        [stimuli[(cycle + lane) % n] for cycle in range(cycles)]
        for lane in range(batch)
    ]


def _differential(design, stimuli, batch, cycles):
    fused = design.simulator(batch=batch)
    legacy = ReferenceInterpreter(design.program, batch=batch)
    streams = _lane_streams(stimuli, batch, cycles)
    for cycle in range(cycles):
        vecs = [streams[lane][cycle] for lane in range(batch)]
        if batch == 1:
            out_f, out_l = fused.step(vecs[0]), legacy.step(vecs[0])
        else:
            out_f, out_l = fused.step_lanes(vecs), legacy.step_lanes(vecs)
        assert out_f == out_l, f"outputs diverge at cycle {cycle} (batch={batch})"
    assert state_digest(fused) == state_digest(legacy)
    return fused, legacy


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize(
    "name",
    [
        n if n in ("rocketchip", "gemmini", "openpiton1")
        else pytest.param(n, marks=pytest.mark.slow)
        for n in sorted(DESIGNS)
    ],
)
def test_fused_matches_legacy_on_designs(name, batch):
    """The sweep the acceptance criteria name: every design in
    ``repro.designs``, batch 1/16/64, bit-identical outputs + digests."""
    design = compile_design(name)
    wl = next(iter(design_workloads(name).values()))
    _differential(design, wl.stimuli, batch, min(CYCLES, len(wl.stimuli)))


@pytest.mark.parametrize("batch", BATCHES)
def test_fused_matches_legacy_random_memory_design(batch):
    """Random circuit with RAMs: exercises per-lane addressing, write
    enables, and deferred commits under fusion."""
    circuit = random_circuit(977, n_ops=60, n_regs=4, with_memory=True)
    design = _compile_small(circuit)
    stimuli = random_vectors(circuit, seed=11, cycles=CYCLES)
    _differential(design, stimuli, batch, CYCLES)


def test_fused_is_the_default_mode():
    """``mode`` is a constant now — the record field run reports and the
    frozen benchmark read — not a switch."""
    circuit = random_circuit(31, n_ops=30)
    design = _compile_small(circuit)
    assert design.simulator().mode == "fused"
    assert ReferenceInterpreter(design.program).mode == "reference"


def test_counters_identical_across_modes():
    """Work accounting is engine-independent: the executor's static
    per-cycle deltas equal what the reference interpreter counts
    instruction by instruction, and both carry both array-op counters."""
    design = compile_design("rocketchip")
    wl = next(iter(design_workloads("rocketchip").values()))
    fused, legacy = _differential(design, wl.stimuli, batch=1, cycles=16)
    for field in dataclasses.fields(CycleCounters):
        assert getattr(fused.counters, field.name) == getattr(
            legacy.counters, field.name
        ), f"counter {field.name} diverges between the engines"
    per_cycle = fused.counters.per_cycle()
    assert per_cycle["fused_array_ops"] > 0
    assert per_cycle["array_ops"] >= 10 * per_cycle["fused_array_ops"]


def test_checkpoint_resume_mid_run_fused():
    """Snapshot a fused run mid-flight, resume into a fresh fused
    simulator, and finish bit-identically (outputs and digest)."""
    from repro.runtime.checkpoint import restore, snapshot

    design = compile_design("rocketchip")
    wl = next(iter(design_workloads("rocketchip").values()))
    stimuli = wl.stimuli[:32]
    sim = design.simulator()
    for vec in stimuli[:16]:
        sim.step(vec)
    ckpt = snapshot(sim)
    tail = [sim.step(vec) for vec in stimuli[16:]]

    resumed = restore(design.simulator(), ckpt)
    assert [resumed.step(vec) for vec in stimuli[16:]] == tail
    assert state_digest(resumed) == state_digest(sim)


def test_legacy_checkpoint_loads_into_fused_and_back():
    """The engine is not part of the checkpoint: a reference-interpreter
    snapshot resumes under the executor, and the executor's snapshot
    back under the reference interpreter, bit-identically."""
    from repro.runtime.checkpoint import restore, snapshot

    circuit = random_circuit(55, n_ops=50, n_regs=3, with_memory=True)
    design = _compile_small(circuit)
    stimuli = random_vectors(circuit, seed=7, cycles=24)
    legacy = ReferenceInterpreter(design.program)
    for vec in stimuli[:12]:
        legacy.step(vec)
    ckpt = snapshot(legacy)
    tail = [legacy.step(vec) for vec in stimuli[12:18]]

    fused = restore(design.simulator(), ckpt)
    assert [fused.step(vec) for vec in stimuli[12:18]] == tail
    assert state_digest(fused) == state_digest(legacy)

    back = restore(ReferenceInterpreter(design.program), snapshot(fused))
    assert [back.step(v) for v in stimuli[18:]] == [fused.step(v) for v in stimuli[18:]]
    assert state_digest(back) == state_digest(fused)


class TestDecodeAndFusionCaches:
    @pytest.fixture(autouse=True)
    def _empty_plan_store(self, tmp_path, monkeypatch):
        """Counts must not depend on what an earlier run stored."""
        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path / "cache"))

    def test_supervisor_decodes_and_fuses_once(self):
        """Primary + redundant shadow share one decode and one fusion
        (the satellite: Supervisor no longer decodes the program twice;
        decode being demand-driven, the shadow's fusion hit does not
        even look the partitions up)."""
        circuit = random_circuit(123, n_ops=40, n_regs=3, with_memory=True)
        design = _compile_small(circuit)
        stimuli = random_vectors(circuit, seed=3, cycles=8)
        clear_decode_cache()
        clear_fusion_cache()
        result = Supervisor(design, shadow="redundant", batch=4).run(stimuli)
        assert result.cycles == len(stimuli)
        fusion = fusion_cache_stats()
        assert decode_cache_stats() == {"misses": 1, "hits": 0}
        assert fusion["misses"] == 1 and fusion["hits"] >= 1

    def test_every_batch_shares_one_program(self, tmp_path, monkeypatch):
        """The program is lane-free: loading one bitstream at 1, 3, 64 and
        1024 lanes — the executor on each backend and the reference
        interpreter — decodes once, fuses once and stores one plan file,
        which a fresh process at yet another batch reads from disk."""
        import repro.core.fused as fused_mod
        from repro.core.backend import available_backends
        from repro.obs.metrics import REGISTRY

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(fused_mod, "PERSIST_MIN_NODES", 0)
        design = _compile_small(random_circuit(124, n_ops=40, n_regs=2, with_memory=True))
        clear_decode_cache()
        clear_fusion_cache()
        REGISTRY.clear()
        backends = available_backends()
        design.simulator(batch=1, backend=backends[0])
        design.simulator(batch=3, backend=backends[-1])
        ReferenceInterpreter(design.program, batch=64)  # reads the partitions
        design.simulator(batch=1024)
        assert decode_cache_stats() == {"misses": 1, "hits": 1}
        assert fusion_cache_stats() == {"misses": 1, "hits": 3}
        assert len(list(tmp_path.glob("plan-*.bin"))) == 1
        clear_decode_cache()  # a fresh process, at another batch
        clear_fusion_cache()
        design.simulator(batch=128)
        assert REGISTRY.snapshot()['gem_fusion_cache_hits_total{tier="disk"}'] == 1
        assert decode_cache_stats() == {"misses": 0, "hits": 0}
        REGISTRY.clear()

    def test_repeated_instantiation_hits(self):
        circuit = random_circuit(125, n_ops=40, n_regs=2)
        design = _compile_small(circuit)
        clear_decode_cache()
        clear_fusion_cache()
        design.simulator(batch=2)
        design.simulator(batch=2)
        assert decode_cache_stats() == {"misses": 1, "hits": 0}  # the hit never decodes
        assert fusion_cache_stats() == {"misses": 1, "hits": 1}


def test_profile_timers_populate():
    """--profile's data source: phase_times buckets fill under the
    executor (all four) and the reference interpreter (no gather/fold
    boundary there) and cover inject/gather/fold/commit."""
    circuit = random_circuit(222, n_ops=40, n_regs=3, with_memory=True)
    design = _compile_small(circuit)
    stimuli = random_vectors(circuit, seed=5, cycles=12)
    for sim, phases in (
        (design.simulator(profile=True), ("inject", "gather", "fold", "commit")),
        (
            ReferenceInterpreter(design.program, profile=True),
            ("inject", "fold", "commit"),
        ),
    ):
        for vec in stimuli:
            sim.step(vec)
        assert set(sim.phase_times) == {"inject", "gather", "fold", "commit"}
        for phase in phases:
            assert sim.phase_times[phase] > 0.0, f"{sim.mode}: {phase} never timed"
