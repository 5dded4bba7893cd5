"""Compile-time autotuner: knob sweep, placement refinement, tuning cache.

Covers the docs/TUNING.md contracts:

* the placement refinement never worsens ``placement_cost``, is
  deterministic under a seed, and leaves simulated behavior bit-identical;
* the knob sweep is deterministic, records unmappable candidates instead
  of dying, and crowns a tuned winner only when its modelled speed beats
  the default's by ``MIN_GAIN``;
* the tuning cache turns the second autotune of the same (design CRC,
  knob space, options) into a pure cache hit — no sweep re-run — proved
  on the ``gem_tune_*`` counters, while a stale or hand-edited cache file
  is a miss, never a crash.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.autotune import (
    MIN_GAIN,
    AutotuneConfig,
    AutotuneResult,
    KnobSpace,
    apply_knobs,
    autotune,
    design_crc,
)
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.depth_opt import optimize
from repro.core.partition import PartitionConfig, partition_design
from repro.core.placement import (
    RefineConfig,
    place_partition,
    placement_cost,
    refine_placement,
)
from repro.core.synthesis import synthesize
from repro.obs.metrics import REGISTRY
from tests.helpers import random_circuit, random_vectors


def _tiny_config(**kwargs) -> GemConfig:
    return GemConfig(
        partition=PartitionConfig(
            gates_per_partition=kwargs.pop("gates_per_partition", 400),
            num_stages=kwargs.pop("num_stages", 2),
        ),
        boomerang=BoomerangConfig(width_log2=kwargs.pop("width_log2", 9)),
        **kwargs,
    )


@pytest.fixture(scope="module")
def tiny():
    circ = random_circuit(11, n_ops=240, max_width=12, with_memory=False)
    synth = optimize(synthesize(circ))
    return circ, synth


def _counter_value(name: str) -> float:
    return REGISTRY.counter(name).value


class TestRefinement:
    """Seeded best-of-N jittered re-placement over boomerang placement."""

    def _first_spec(self, synth, config):
        plan = partition_design(synth.eaig, config.partition)
        # the deepest partition benefits most; just take the largest
        specs = [s for stage in plan.stages for s in stage]
        return max(specs, key=lambda s: len(s.nodes))

    def test_never_worse_and_deterministic(self, tiny):
        _, synth = tiny
        config = _tiny_config()
        spec = self._first_spec(synth, config)
        base = place_partition(synth.eaig, spec, config.boomerang)
        refine = RefineConfig(iterations=12, seed=5)
        a = refine_placement(synth.eaig, base, refine)
        b = refine_placement(synth.eaig, base, refine)
        assert placement_cost(a) <= placement_cost(base)
        assert placement_cost(a) == placement_cost(b)
        assert [layer.perm.tolist() for layer in a.layers] == [
            layer.perm.tolist() for layer in b.layers
        ]

    def test_zero_iterations_is_baseline(self, tiny):
        _, synth = tiny
        config = _tiny_config()
        spec = self._first_spec(synth, config)
        base = place_partition(synth.eaig, spec, config.boomerang)
        assert refine_placement(synth.eaig, base, RefineConfig(iterations=0)) is base

    def test_partition_without_nodes_ships_as_is(self):
        """A partition of sources only has nothing to jitter; refining it
        used to draw from an empty node list and raise ValueError."""
        from repro.rtl import CircuitBuilder

        b = CircuitBuilder()
        r = b.reg("r", 4)
        r.next = b.input("x", 4)
        b.output("q", r)
        design = GemCompiler(GemConfig(refine=RefineConfig(iterations=4))).compile(b.build())
        assert [p.num_layers for p in design.merge.placements] == [0]

    def test_refined_compile_outputs_bit_identical(self, tiny):
        circ, synth = tiny
        default = GemCompiler(_tiny_config()).compile(synth)
        refined = GemCompiler(
            _tiny_config(refine=RefineConfig(iterations=8, seed=2))
        ).compile(synth)
        assert default.report.config_digest != refined.report.config_digest
        sim_d, sim_r = default.simulator(), refined.simulator()
        for vec in random_vectors(circ, 17, cycles=24):
            assert sim_d.step(vec) == sim_r.step(vec)


class TestKnobSpace:
    def test_grid_is_deterministic(self):
        space = KnobSpace(gates_per_partition=(256, 512), num_stages=(1, 2))
        assert space.grid() == space.grid()
        assert space.digest() == KnobSpace(
            gates_per_partition=(256, 512), num_stages=(1, 2)
        ).digest()
        assert space.digest() != KnobSpace(gates_per_partition=(256,)).digest()

    def test_apply_knobs_builds_fresh_config(self):
        base = _tiny_config()
        tuned = apply_knobs(base, {"num_stages": 1, "sa_iterations": 4})
        assert tuned.partition.num_stages == 1
        assert tuned.refine.iterations == 4
        assert tuned.partition is not base.partition  # no aliasing
        assert base.partition.num_stages == 2
        # width budget re-wired by __post_init__
        assert tuned.partition.width == tuned.boomerang.state_size

    def test_config_digest_covers_nested_knobs(self):
        a = _tiny_config()
        b = apply_knobs(a, {"num_stages": 1})
        c = _tiny_config(refine=RefineConfig(iterations=3))
        assert len({a.digest(), b.digest(), c.digest()}) == 3


class TestDesignCrc:
    def test_stable_and_structural(self, tiny):
        circ, synth = tiny
        assert design_crc(synth) == design_crc(synth)
        resynth = optimize(synthesize(circ))
        assert design_crc(synth) == design_crc(resynth)
        other = optimize(synthesize(random_circuit(12, n_ops=240, max_width=12)))
        assert design_crc(synth) != design_crc(other)


class TestAutotune:
    SPACE = KnobSpace(
        gates_per_partition=(300, 400, 600),
        num_stages=(1, 2),
        width_log2=(9,),
        sa_iterations=(0, 6),
    )

    def test_model_only_winner_and_cache_hit_counters(self, tiny, tmp_path):
        _, synth = tiny
        opts = AutotuneConfig(
            budget=5, seed=7, cache_dir=str(tmp_path)
        )
        hits0 = _counter_value("gem_tune_cache_hits_total")
        misses0 = _counter_value("gem_tune_cache_misses_total")
        compiled0 = _counter_value("gem_tune_candidates_total")

        first = autotune(
            synth, name="tiny", base=_tiny_config(), space=self.SPACE, opts=opts
        )
        assert not first.cache_hit
        assert first.winner_label in ("default", "tuned")
        assert _counter_value("gem_tune_cache_misses_total") == misses0 + 1
        compiled_after_first = _counter_value("gem_tune_candidates_total")
        assert compiled_after_first > compiled0

        second = autotune(
            synth, name="tiny", base=_tiny_config(), space=self.SPACE, opts=opts
        )
        assert second.cache_hit
        assert second.winner_knobs == first.winner_knobs
        assert second.winner_digest == first.winner_digest
        # A cache hit runs no sweep: hit counter up, candidate counter flat.
        assert _counter_value("gem_tune_cache_hits_total") == hits0 + 1
        assert _counter_value("gem_tune_candidates_total") == compiled_after_first

    def test_recall_hits_a_sweep_whatever_its_search_options(self, tiny, tmp_path):
        """What ``gem run --tune`` does after ``gem tune``: the sweep ran with
        a budget and seed of its own; a recall at the default
        options is still a hit, and only a different netlist or base config
        sweeps afresh."""
        _, synth = tiny
        swept = autotune(
            synth, name="tiny", base=_tiny_config(), space=self.SPACE,
            opts=AutotuneConfig(budget=3, seed=9, cache_dir=str(tmp_path)),
        )
        defaults = AutotuneConfig(cache_dir=str(tmp_path))
        compiled = _counter_value("gem_tune_candidates_total")
        hits = _counter_value("gem_tune_cache_hits_total")

        recalled = autotune(synth, name="tiny", base=_tiny_config(), opts=defaults, recall=True)
        assert recalled.cache_hit and recalled.cache_path == swept.cache_path
        assert recalled.winner_knobs == swept.winner_knobs
        assert recalled.winner_digest == swept.winner_digest
        assert _counter_value("gem_tune_candidates_total") == compiled
        assert _counter_value("gem_tune_cache_hits_total") == hits + 1

        # the newest matching sweep wins
        newer = autotune(
            synth, name="tiny", base=_tiny_config(), space=self.SPACE,
            opts=AutotuneConfig(budget=2, seed=1, cache_dir=str(tmp_path)),
        )
        os.utime(newer.cache_path, (2e9, 2e9))
        again = autotune(synth, name="tiny", base=_tiny_config(), opts=defaults, recall=True)
        assert again.cache_path == newer.cache_path != swept.cache_path

        # another base config is another question: nothing to recall, so it sweeps
        model_only = AutotuneConfig(budget=2, cache_dir=str(tmp_path))
        other = autotune(
            synth, name="tiny", base=_tiny_config(gates_per_partition=300),
            space=self.SPACE, opts=model_only, recall=True,
        )
        assert not other.cache_hit
        # and without recall the search options are part of the identity, as before
        assert not autotune(
            synth, name="tiny", base=_tiny_config(), space=self.SPACE, opts=model_only
        ).cache_hit

    def test_unmappable_candidates_recorded_not_fatal(self, tiny, tmp_path):
        _, synth = tiny
        # width_log2=5 gives 31 usable state slots — the 2-stage cut of a
        # 240-op circuit cannot fit, so those candidates must be recorded
        # as unmappable while the sane ones proceed.
        space = KnobSpace(
            gates_per_partition=(400,),
            num_stages=(2,),
            width_log2=(5, 9),
            sa_iterations=(0,),
        )
        base = _tiny_config(max_partition_retries=0)
        result = autotune(
            synth,
            name="tiny-unmap",
            base=base,
            space=space,
            opts=AutotuneConfig(budget=4, cache_dir=str(tmp_path)),
        )
        statuses = {c.status for c in result.candidates}
        assert "unmappable" in statuses
        assert "ok" in statuses
        assert result.winner_digest  # a mappable winner was still chosen

    def test_model_winner_clears_min_gain_or_is_default(self, tiny, tmp_path):
        _, synth = tiny
        result = autotune(
            synth,
            name="tiny-model",
            base=_tiny_config(),
            space=self.SPACE,
            opts=AutotuneConfig(budget=4, cache_dir=str(tmp_path)),
        )
        default = result.candidates[0]
        winner = next(c for c in result.candidates if c.digest == result.winner_digest)
        if result.winner_label == "default":
            assert winner is default and result.winner_knobs == {}
        else:
            assert winner.model_hz >= default.model_hz * (1 + MIN_GAIN)
        best = max(c.model_hz for c in result.candidates if c.status == "ok")
        assert winner.model_hz == best or winner is default

    def test_crashing_candidate_recorded_not_fatal(self, tiny, tmp_path):
        """A knob corner that dies mid-compile (not merely unmappable) is
        recorded as status="error" and the sweep keeps going."""
        _, synth = tiny
        base = _tiny_config()

        def compile_fn(config):
            if config.digest() != base.digest():
                raise RuntimeError("kaboom in assembly")
            return GemCompiler(config).compile(synth)

        result = autotune(
            synth,
            name="tiny-crash",
            base=base,
            space=KnobSpace(
                gates_per_partition=(400,),
                num_stages=(1,),
                width_log2=(9,),
                sa_iterations=(0,),
            ),
            opts=AutotuneConfig(budget=4, cache_dir=str(tmp_path)),
            compile_fn=compile_fn,
        )
        statuses = [c.status for c in result.candidates]
        assert statuses[0] == "ok"
        assert "error" in statuses
        assert result.winner_label == "default"
        err = next(c for c in result.candidates if c.status == "error")
        assert "RuntimeError" in err.error

    def test_failing_base_config_is_fatal(self, tiny, tmp_path):
        """If the *base* config itself cannot compile there is nothing to
        tune against — the sweep must raise, not crown a random winner."""
        from repro.errors import UnmappableError

        _, synth = tiny
        base = _tiny_config()

        def compile_fn(config):
            if config.digest() == base.digest():
                raise RuntimeError("base is broken")
            return GemCompiler(config).compile(synth)

        with pytest.raises(UnmappableError, match="base config itself failed"):
            autotune(
                synth,
                name="tiny-badbase",
                base=base,
                # non-default candidates must be mappable so the failure is
                # attributable to the broken base, not an empty sweep
                space=KnobSpace(
                    gates_per_partition=(300,),
                    num_stages=(2,),
                    width_log2=(9,),
                    sa_iterations=(0, 6),
                ),
                opts=AutotuneConfig(
                    budget=3, cache_dir=str(tmp_path)
                ),
                compile_fn=compile_fn,
            )

    def test_cache_payload_roundtrip(self, tiny, tmp_path):
        _, synth = tiny
        opts = AutotuneConfig(budget=3, cache_dir=str(tmp_path))
        result = autotune(
            synth, name="tiny-rt", base=_tiny_config(), space=self.SPACE, opts=opts
        )
        loaded = AutotuneResult.from_payload(result.to_payload(), result.cache_path)
        assert loaded.winner_knobs == result.winner_knobs
        assert loaded.winning_config(_tiny_config()).digest() == result.winner_digest

    def test_a_v1_cache_file_is_recalled_as_a_miss(self, tiny, tmp_path):
        """Every v1 file on disk records a measured finalist phase; a recall
        skips it and sweeps afresh instead of crowning its stale winner."""
        _, synth = tiny
        base = _tiny_config()
        stale = {
            "version": 1, "design": "tiny-v1", "crc": design_crc(synth),
            "space_digest": KnobSpace().digest(), "base_digest": base.digest(),
            "key": "0123456789abcdef", "seed": 0,
            "winner_knobs": {"num_stages": 1}, "winner_digest": "f" * 16,
            "winner_label": "tuned",
            "candidates": [{
                "knobs": {}, "digest": base.digest(), "status": "ok",
                "score": {"model_hz": 1.0}, "measured_cycles_per_s": 900.0,
                "compile_s": 0.1, "error": "",
            }],
        }
        (tmp_path / "tiny-v1-0123456789ab.json").write_text(json.dumps(stale))
        compiled = _counter_value("gem_tune_candidates_total")
        result = autotune(
            synth, name="tiny-v1", base=base, space=self.SPACE,
            opts=AutotuneConfig(budget=2, cache_dir=str(tmp_path)), recall=True,
        )
        assert not result.cache_hit
        assert result.winner_digest != stale["winner_digest"]
        assert _counter_value("gem_tune_candidates_total") == compiled + 2

    def test_an_unknown_candidate_field_is_a_miss(self, tiny, tmp_path):
        """A file of this version with the right key that no longer builds a
        result is ignored, never trusted, under both lookups."""
        _, synth = tiny
        kwargs = dict(
            name="tiny-edit", base=_tiny_config(), space=self.SPACE,
            opts=AutotuneConfig(budget=2, cache_dir=str(tmp_path)),
        )
        swept = autotune(synth, **kwargs)
        with open(swept.cache_path) as f:
            payload = json.load(f)
        for recall in (False, True):
            payload["candidates"][0]["bogus"] = 1
            with open(swept.cache_path, "w") as f:
                json.dump(payload, f)
            again = autotune(synth, recall=recall, **kwargs)
            assert not again.cache_hit
            assert again.winner_digest == swept.winner_digest
