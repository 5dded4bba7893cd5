"""Regression pins for quiet behaviors that previously had no tests.

1. The ``FusionError`` guard: a stage in which one partition reads a
   global bit another writes immediately cannot be scheduled reads-first,
   so ``fuse()`` must refuse it, and — there being no other way to run a
   program — the refusal must surface from ``GemSimulator(...)`` as a
   typed load error, not as a warning or a silent change of engine.
2. Config-aware cache keying (docs/TUNING.md): tuned and default compiles
   of the same design must cache *independently* at both the runner layer
   (disk pickle per ``GemConfig.digest()``) and the interpreter's decode
   cache (``ProgramMeta.config_digest`` in the key) — before this keying a
   tuned compile could silently serve a default-config artifact.
3. The autotuner seed-determinism pin: same seed + same design CRC must
   pick the identical winning config and produce a bit-identical
   bitstream across two fresh processes, regardless of PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from tests.helpers import random_circuit, random_vectors


class TestFusionErrorGuard:
    @staticmethod
    def _passthrough(read, write):
        """A one-instruction-pair block: READ global ``read`` into local
        slot 1, GWRITE slot 1 immediately to global ``write``."""
        from repro.core.engine import constant_column
        from repro.core.interpreter import _DecodedPartition

        def index(*values):
            return np.array(values, dtype=np.int64)

        no_inv = constant_column([False])
        none = (index(), constant_column([]), index())
        return _DecodedPartition(
            stage=0,
            state_slots=2,
            read_gidx=index(read),
            read_slots=index(1),
            read_inv=no_inv,
            layers=[],
            gw_now=(index(1), no_inv, index(write)),
            gw_deferred=none,
            ramops=[],
            instruction_words=4,
        )

    def test_same_stage_read_of_immediate_write_refuses_to_fuse(self):
        from repro.core.fused import FusionError, fuse

        writer = self._passthrough(read=0, write=5)
        reader = self._passthrough(read=5, write=7)
        with pytest.raises(FusionError, match=r"stage 0 reads global bits \[5\]"):
            fuse([writer, reader], [[0, 1]])
        # a stage apart, the same pair is the ordinary cut-value handoff
        fused = fuse([writer, reader], [[0], [1]])
        assert [plan.gwn_gidx.tolist() for plan in fused.stages] == [[5], [7]]

    def test_fusion_error_surfaces_as_typed_load_error(self, monkeypatch, caplog, recwarn):
        import repro.core.interpreter as interp_mod
        from repro.core.compiler import GemSimulator
        from repro.core.fused import FusionError
        from repro.errors import GemError

        design = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=400),
                boomerang=BoomerangConfig(width_log2=10),
            )
        ).compile(random_circuit(7, n_ops=30))

        def boom(*args, **kwargs):
            raise FusionError("deliberately broken for the regression test")

        monkeypatch.setattr(interp_mod, "fused_program", boom)
        with caplog.at_level(logging.INFO):
            with pytest.raises(GemError, match="deliberately broken") as exc:
                GemSimulator(design.program)
        assert isinstance(exc.value, FusionError)
        assert not caplog.records and not recwarn.list


class TestConfigCacheKeying:
    """Tuned vs default artifacts must never share a cache slot."""

    def _tiny_entry(self):
        from repro.harness import runner

        return runner.DesignEntry(
            "tinyreg",
            lambda: random_circuit(31, n_ops=200, max_width=10, with_memory=False),
            "tinyreg_like",
        )

    def _tiny_base(self):
        return GemConfig(
            partition=PartitionConfig(gates_per_partition=300, num_stages=2),
            boomerang=BoomerangConfig(width_log2=9),
        )

    def test_runner_compile_cache_is_config_keyed(self, tmp_path, monkeypatch):
        from repro.core.placement import RefineConfig
        from repro.harness import runner

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "_memory_cache", {})
        monkeypatch.setitem(runner.DESIGNS, "tinyreg", self._tiny_entry())

        default_cfg = self._tiny_base()
        tuned_cfg = GemConfig(
            partition=PartitionConfig(gates_per_partition=300, num_stages=1),
            boomerang=BoomerangConfig(width_log2=9),
            refine=RefineConfig(iterations=4, seed=1),
        )
        default = runner.compile_design("tinyreg", default_cfg)
        tuned = runner.compile_design("tinyreg", tuned_cfg)
        assert default.report.config_digest != tuned.report.config_digest

        pickles = sorted(p.name for p in tmp_path.glob("compile-*.pkl"))
        assert len(pickles) == 2, f"expected 2 config-keyed entries, got {pickles}"

        # Recompiling under either config must hit, not rebuild: a fresh
        # memory cache forces the disk tier, and the entries round-trip to
        # the *matching* compiled artifact.
        monkeypatch.setattr(runner, "_memory_cache", {})
        assert (
            runner.compile_design("tinyreg", tuned_cfg).report.config_digest
            == tuned.report.config_digest
        )
        assert (
            runner.compile_design("tinyreg", default_cfg).report.config_digest
            == default.report.config_digest
        )
        assert sorted(p.name for p in tmp_path.glob("compile-*.pkl")) == pickles

    def test_one_cache_root_read_at_call_time(self, tmp_path, monkeypatch):
        """``runner`` used to freeze its directory at import while plans
        and the kernel followed ``$GEM_CACHE_DIR`` at call time: a process
        that set the variable after the import split its cache in two.
        Set it now (``runner`` is long imported): the compile pickle and
        the plan file land side by side."""
        import repro.core.fused as fused
        from repro.harness import runner

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path / "late"))
        monkeypatch.setattr(runner, "_memory_cache", {})
        monkeypatch.setitem(runner.DESIGNS, "tinyreg", self._tiny_entry())
        monkeypatch.setattr(fused, "PERSIST_MIN_NODES", 0)
        fused.clear_fusion_cache()
        runner.compile_design("tinyreg", self._tiny_base()).simulator()
        kinds = {p.name.split("-")[0] for p in (tmp_path / "late").iterdir()}
        assert {"compile", "plan"} <= kinds

    def test_decode_cache_is_config_keyed(self, tmp_path, monkeypatch):
        """Decode and fusion are keyed by what they are functions of: the
        SHA-256 of the bitstream words (plus the loader sources).
        Two configs share an entry exactly when they assembled identical
        words — the old CRC32 key needed the config digest folded in to
        tell near-collisions apart; a cryptographic hash does not."""
        import copy

        from repro.core.fused import clear_fusion_cache, fusion_cache_stats
        from repro.core.interpreter import clear_decode_cache, decode_cache_stats

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        circ = random_circuit(33, n_ops=200, max_width=10, with_memory=False)
        design = GemCompiler(self._tiny_base()).compile(circ)
        retuned = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=300, num_stages=1),
                boomerang=BoomerangConfig(width_log2=9),
            )
        ).compile(circ)
        assert retuned.program.digest() != design.program.digest()
        # same words under another config label: the same program
        twin = copy.deepcopy(design)
        twin.program.meta.config_digest = "f" * 16

        clear_decode_cache()
        clear_fusion_cache()
        vec = random_vectors(circ, 7, cycles=1)[0]
        want = design.simulator().step(vec)
        assert retuned.simulator().step(vec) == want
        assert decode_cache_stats() == {"misses": 2, "hits": 0}
        assert fusion_cache_stats() == {"misses": 2, "hits": 0}

        assert twin.simulator().step(vec) == want
        design.simulator().step(vec)
        assert fusion_cache_stats() == {"misses": 2, "hits": 2}  # true re-use hits
        assert decode_cache_stats() == {"misses": 2, "hits": 0}  # and decodes nothing
        assert not list(tmp_path.iterdir())  # far too small to persist


class TestAutotuneSeedDeterminism:
    """Same seed + design CRC → same winner + bit-identical bitstream,
    across processes and under different PYTHONHASHSEED values."""

    SCRIPT = r"""
import hashlib, json, sys
from repro.core.autotune import AutotuneConfig, KnobSpace, autotune
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.depth_opt import optimize
from repro.core.partition import PartitionConfig
from repro.core.synthesis import synthesize
from tests.helpers import random_circuit

synth = optimize(synthesize(random_circuit(41, n_ops=220, max_width=10)))
base = GemConfig(
    partition=PartitionConfig(gates_per_partition=300, num_stages=2),
    boomerang=BoomerangConfig(width_log2=9),
)
space = KnobSpace(
    gates_per_partition=(250, 300, 450),
    num_stages=(1, 2),
    width_log2=(9,),
    sa_iterations=(0, 6),
)
result = autotune(
    synth,
    name="pinned",
    base=base,
    space=space,
    opts=AutotuneConfig(budget=5, seed=13, cache_dir=sys.argv[1]),
)
program = GemCompiler(result.winning_config(base)).compile(synth).program
print(json.dumps({
    "knobs": result.winner_knobs,
    "digest": result.winner_digest,
    "crc": result.crc,
    "bitstream": hashlib.sha256(program.words.tobytes()).hexdigest(),
}))
"""

    def _run(self, tmp_path, tag, hashseed):
        import os
        import subprocess
        import sys

        cache = tmp_path / tag
        cache.mkdir()
        env = dict(os.environ)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(repo, "src") + os.pathsep + repo
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(cache)],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_two_processes_agree_bit_for_bit(self, tmp_path):
        a = self._run(tmp_path, "a", "0")
        b = self._run(tmp_path, "b", "1")
        assert a["crc"] == b["crc"], "design CRC must be hash-seed independent"
        assert a["knobs"] == b["knobs"]
        assert a["digest"] == b["digest"]
        assert a["bitstream"] == b["bitstream"]


class TestFourStateRegressions:
    """Pins for the v4 checkpoint container and dual-rail observability.

    5. Checkpoint format v4 added a ``values`` header word, and restore
       refuses to mix value systems.  (v3/v2/v1 refusal is pinned in
       test_runtime_checkpoint / test_engine_lanes.)
    6. Probe taps attach to a dual-rail (``values=4``) run unchanged:
       the catalog exposes both rails of every 4-state register and a
       ring capture of value-rail words completes without crashing.
    """

    def _dual_design(self, seed=909):
        from repro.core.compiler import compile_circuit

        circuit = random_circuit(seed, n_ops=25, n_regs=3)
        return circuit, compile_circuit(circuit, values=4)

    def test_restore_refuses_mixed_value_systems(self):
        import dataclasses

        import pytest

        from repro.errors import CheckpointError
        from repro.runtime.checkpoint import restore, snapshot

        circuit, design = self._dual_design()
        sim = design.simulator()
        sim.run(random_vectors(circuit, 5, 4))
        ckpt = snapshot(sim)
        assert ckpt.values == 4
        with pytest.raises(CheckpointError, match="2-state engine"):
            restore(design.simulator(), dataclasses.replace(ckpt, values=2))
        two_state = GemCompiler().compile(circuit).simulator()
        with pytest.raises(CheckpointError):
            restore(two_state, ckpt)

    def test_ckpt_v4_roundtrip_resumes_dual_rail_bit_identical(self):
        from repro.runtime.checkpoint import (
            checkpoint_from_words,
            checkpoint_to_words,
            restore,
            snapshot,
        )

        circuit, design = self._dual_design(911)
        stimuli = random_vectors(circuit, 6, 12)
        straight = design.simulator()
        golden = [straight.step(vec) for vec in stimuli]
        first = design.simulator()
        for vec in stimuli[:5]:
            first.step(vec)
        back = checkpoint_from_words(checkpoint_to_words(snapshot(first)))
        assert back.values == 4
        resumed = design.simulator()
        restore(resumed, back)
        assert [resumed.step(vec) for vec in stimuli[5:]] == golden[5:]

    def test_probe_taps_on_dual_rail_run(self):
        from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan, probe_catalog

        circuit, design = self._dual_design(913)
        nets = probe_catalog(design)
        reg_names = {n.name for n in nets if n.kind == "register"}
        value_rails = {n for n in reg_names if n.endswith("__d")}
        known_rails = {n for n in reg_names if n.endswith("__u")}
        assert value_rails and known_rails
        assert {v[:-3] for v in value_rails} == {u[:-3] for u in known_rails}
        plan = build_probe_plan(design, "registers")
        ring = WaveRing(plan, capacity=8)
        tap = ProbeTap(plan, [ring])
        sim = design.simulator()
        tap.attach(sim)
        for vec in random_vectors(circuit, 17, 8):
            sim.step(vec)
        assert tap.captured == 8
        samples = ring.lane_samples(0)
        assert len(samples) == 8
        # captured names carry both rails, value-rail words are ints
        _, last = samples[-1]
        assert any(name.endswith("__d") for name in last)
        assert any(name.endswith("__u") for name in last)
