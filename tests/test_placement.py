"""Boomerang layers and Algorithm 2 placement (paper §III-A/D)."""

import hashlib
import random

import numpy as np
import pytest

from repro.core import placement, placement_kernel
from repro.core.boomerang import BoomerangConfig, Layer, count_layer_work
from repro.core.compiler import GemConfig, compile_circuit
from repro.core.eaig import EAIG
from repro.core.partition import PartitionConfig, PartitionSpec, partition_design
from repro.core.placement import (
    RefineConfig,
    UnmappableError,
    naive_levelized_layers,
    place_partition,
    placement_cost,
)
from repro.core.synthesis import synthesize
from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like
from repro.errors import GemError, PlacementStallError
from repro.harness.runner import DESIGNS
from tests.helpers import eaig_sim, pi_inputs, random_circuit


def _reference_fold(layer: Layer, state: np.ndarray) -> np.ndarray:
    """Slow, obviously-correct model of a boomerang layer's semantics."""
    state = state.copy()
    vec = np.array(
        [bool(state[s]) if s >= 0 else False for s in layer.perm], dtype=bool
    )
    for step in range(layer.config.width_log2):
        nxt = np.zeros(len(vec) // 2, dtype=bool)
        for i in range(len(nxt)):
            a = vec[2 * i] ^ layer.xor_a[step][i]
            b = (vec[2 * i + 1] ^ layer.xor_b[step][i]) | layer.or_b[step][i]
            nxt[i] = a & b
        vec = nxt
        for pos, slot in layer.writebacks[step]:
            state[slot] = vec[pos]
    return state


class TestBoomerangLayer:
    def test_empty_layer_defaults(self):
        cfg = BoomerangConfig(width_log2=4)
        layer = Layer.empty(cfg)
        assert layer.perm.shape == (16,)
        assert all((layer.or_b[s] == True).all() for s in range(4))  # noqa: E712

    @pytest.mark.parametrize("seed", range(5))
    def test_execute_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        cfg = BoomerangConfig(width_log2=5)
        layer = Layer.empty(cfg)
        layer.perm = rng.integers(-1, cfg.state_size, size=cfg.width).astype(np.int32)
        for step in range(cfg.width_log2):
            layer.xor_a[step] = rng.random(len(layer.xor_a[step])) < 0.5
            layer.xor_b[step] = rng.random(len(layer.xor_b[step])) < 0.5
            layer.or_b[step] = rng.random(len(layer.or_b[step])) < 0.5
            size = cfg.width >> (step + 1)
            # one random writeback per step to a high slot
            layer.writebacks[step] = [(int(rng.integers(size)), int(rng.integers(1, cfg.state_size)))]
        state = rng.random(cfg.state_size) < 0.5
        expected = _reference_fold(layer, state)
        got = state.copy()
        layer.execute(got)
        assert (got == expected).all()

    def test_count_layer_work(self):
        cfg = BoomerangConfig(width_log2=4)
        layers = [Layer.empty(cfg), Layer.empty(cfg)]
        work = count_layer_work(layers)
        assert work["layers"] == 2
        assert work["fold_steps"] == 8
        assert count_layer_work([])["layers"] == 0

    def test_config_properties(self):
        cfg = BoomerangConfig()
        assert cfg.width == 8192
        assert cfg.state_size == 8192
        assert cfg.threads == 256


def _placed_design(seed=2, n_ops=80, width_log2=10):
    eaig = synthesize(random_circuit(seed, n_ops=n_ops, n_regs=5)).eaig
    plan = partition_design(eaig, PartitionConfig(gates_per_partition=500, num_stages=1))
    cfg = BoomerangConfig(width_log2=width_log2)
    placed = [place_partition(eaig, spec, cfg) for spec in plan.partitions]
    return eaig, plan, placed, cfg


class TestPlacement:
    def test_all_partition_values_computed_correctly(self):
        eaig, plan, placed, cfg = _placed_design()
        sim = eaig_sim(eaig)
        rng = random.Random(0)

        def check(settled):
            for pp in placed:
                local_nodes = set(pp.spec.nodes)
                state = np.zeros(cfg.state_size, dtype=bool)
                for node, slot in pp.slot_of.items():
                    if node not in local_nodes:
                        state[slot] = bool(settled.value[node])
                for layer in pp.layers:
                    layer.execute(state)
                for node, slot in pp.slot_of.items():
                    assert bool(state[slot]) == bool(settled.value[node]), node

        sim.probe_hook = check
        for _ in range(10):
            sim.step(pi_inputs(sim, [rng.getrandbits(1) for _ in eaig.pis]))

    def test_layers_beat_levelization(self):
        """Fig. 3's claim at unit scale: boomerang layers need far fewer
        synchronizations than one-per-level execution."""
        eaig, plan, placed, cfg = _placed_design(n_ops=120)
        for pp in placed:
            naive = naive_levelized_layers(eaig, pp.spec, cfg)
            if naive["layers"] >= 10:
                assert len(pp.layers) * 2 <= naive["layers"]

    def test_slot_accounting(self):
        eaig, plan, placed, cfg = _placed_design()
        for pp in placed:
            assert pp.num_slots <= cfg.state_size
            # sources all have slots, slot 0 reserved for constant
            assert 0 not in pp.slot_of.values()
            for src in pp.spec.sources:
                assert src in pp.slot_of

    def test_root_literals_resolvable(self):
        eaig, plan, placed, cfg = _placed_design()
        for pp in placed:
            for literal in pp.spec.root_literals():
                slot, inv = pp.slot_and_invert(literal)
                assert 0 <= slot < pp.num_slots

    def test_unmappable_raises(self):
        eaig = synthesize(random_circuit(4, n_ops=150, n_regs=4)).eaig
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=10_000, num_stages=1))
        tiny = BoomerangConfig(width_log2=5)  # 32-bit state: hopeless
        with pytest.raises(UnmappableError):
            for spec in plan.partitions:
                place_partition(eaig, spec, tiny)

    def test_empty_partition_places_to_zero_layers(self):
        # A partition whose endpoints are fed directly by sources.
        from repro.rtl import CircuitBuilder

        b = CircuitBuilder()
        x = b.input("x", 4)
        r = b.reg("r", 4)
        r.next = x
        b.output("q", r)
        eaig = synthesize(b.build()).eaig
        plan = partition_design(eaig, PartitionConfig())
        pp = place_partition(eaig, plan.partitions[0], BoomerangConfig(width_log2=6))
        assert pp.layers == []


def _bitstream_sha256(design) -> str:
    return hashlib.sha256(np.ascontiguousarray(design.program.words).tobytes()).hexdigest()


_SA_REFINE = RefineConfig(iterations=6, seed=3)


class TestGoldenBitstreams:
    """sha256 of ``program.words`` for cold default-config compiles, recorded
    when Algorithm 2's level loop began to fill the fold tree from the root
    level down.  Placement and partitioner speed-ups must leave every
    decision — and so every byte — where it was:
    each pin holds with the whole flow on its C loops and on its Python ones."""

    @pytest.fixture(autouse=True, params=["native", "python"])
    def loops(self, request):
        request.getfixturevalue(f"{request.param}_loops")

    def test_openpiton1(self):
        design = compile_circuit(DESIGNS["openpiton1"].build())
        assert _bitstream_sha256(design) == (
            "aa449e78fed8440ef66f46df3e722aa772a6cd04691a5e1a115aaecae75b8a33"
        )

    def test_openpiton3_and_which_partition_moved(self):
        design = compile_circuit(build_openpiton_like(OpenPitonScale(cores=3)))
        # (layers, writebacks, slots) per partition first: a mismatch here
        # names the partition whose placement changed.
        assert [placement_cost(p) for p in design.merge.placements] == [
            (3, 4117, 6263),
            (6, 4678, 6393),
            (6, 3158, 4348),
        ]
        assert [p.num_slots for p in design.merge.placements] == [6263, 6393, 4348]
        assert _bitstream_sha256(design) == (
            "fea083d94f1332a269d29857c67a64605dca4864e12632c75ac3c7c37bcb5288"
        )

    def test_sa_refined_openpiton1_spends_budget_on_candidates_only(self, monkeypatch):
        """``sa_iterations=N`` is N placements per surviving partition on top
        of the greedy compile: refinement races the placement Algorithm 1
        already holds instead of re-placing it."""
        calls = []
        real = placement._place_once

        def counting(*args, **kwargs):
            calls.append(kwargs.get("bias") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(placement, "_place_once", counting)
        circuit = DESIGNS["openpiton1"].build()
        greedy = compile_circuit(circuit)
        greedy_calls = len(calls)
        assert not any(calls)
        del calls[:]
        refined = compile_circuit(circuit, GemConfig(refine=_SA_REFINE))
        survivors = len(refined.merge.placements)
        assert survivors == len(greedy.merge.placements)
        assert sum(calls) == _SA_REFINE.iterations * survivors
        assert len(calls) == greedy_calls + _SA_REFINE.iterations * survivors
        assert [placement_cost(p) for p in refined.merge.placements] == [(7, 3280, 4040)]
        assert _bitstream_sha256(refined) == (
            "eb2162909684acb90aacbc7cb4cb40e0c665907a5de6ba0b76c4f9a176ccd5df"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["rocketchip", "gemmini", "nvdla"])
    def test_registered_designs(self, name):
        assert _bitstream_sha256(compile_circuit(DESIGNS[name].build())) == {
            "rocketchip": "4b9446b5d1472204b73f9bcc4a057245f2dd6ffd078e4bca856451fb3609a561",
            "gemmini": "36ad0529a81ced4a4a4913f34e714a006adc7a58969308a5c09c47273d79b96c",
            "nvdla": "f9f26b3fc96449fb36561257b974f1ed3be788d935e2c728b5b88339f422f2d8",
        }[name]

    @pytest.mark.slow
    def test_gemmini_array_ops_per_cycle(self):
        """What that gemmini bitstream costs to run, as the two counts its
        schedule fixes: the per-partition walk dispatches 2851 array ops a
        cycle, the fused program 291 (9.80x fewer — on the deepest design
        fusion amortises least; rocketchip's >= 10x is asserted in
        tests/test_fused_engine.py)."""
        from repro.harness.runner import compile_design, design_workloads

        sim = compile_design("gemmini").simulator()
        sim.step(next(iter(design_workloads("gemmini").values())).stimuli[0])
        per_cycle = sim.counters.per_cycle()
        assert (per_cycle["array_ops"], per_cycle["fused_array_ops"]) == (2851, 291)


class TestRefinementGain:
    @pytest.mark.slow
    def test_rocketchip_sheds_layers_at_every_seed(self):
        """What refinement is for: twelve jittered restarts per partition
        ship rocketchip in at most 45 layers at seeds 0-4, against the
        greedy placement's 47 (EXPERIMENTS.md §P4)."""
        from repro.core.compiler import GemCompiler

        greedy = compile_circuit(DESIGNS["rocketchip"].build())
        assert sum(p.num_layers for p in greedy.merge.placements) == 47
        for seed in range(5):
            config = GemConfig(refine=RefineConfig(iterations=12, seed=seed))
            refined = GemCompiler(config).compile(greedy.synth)
            assert sum(p.num_layers for p in refined.merge.placements) <= 45, seed


class TestPackedLayers:
    def test_cost_and_stats_read_the_packed_form(self, monkeypatch):
        eaig, plan, placed, cfg = _placed_design()
        pp = placed[0]
        layers = pp.layers
        monkeypatch.setattr(placement.PackedLayer, "unpack", None)  # any unpack now raises
        assert placement_cost(pp) == (len(layers), pp.num_writebacks, pp.num_slots)
        assert pp.num_writebacks == sum(layer.num_writebacks() for layer in layers)
        assert pp.stats()["layers"] == len(layers)
        assert pp.stats()["leaf_bits_used"] == sum(int((l.perm >= 0).sum()) for l in layers)

    def test_unpacked_layers_have_the_shape_of_empty_ones(self):
        eaig, plan, placed, cfg = _placed_design()
        blank = Layer.empty(cfg)
        for layer in placed[0].layers:
            assert layer.perm.dtype == blank.perm.dtype and layer.perm.shape == blank.perm.shape
            for mine, ref in zip(
                layer.xor_a + layer.xor_b + layer.or_b, blank.xor_a + blank.xor_b + blank.or_b
            ):
                assert mine.dtype == ref.dtype and mine.shape == ref.shape
            assert len(layer.writebacks) == cfg.width_log2


def _one_and_partition() -> tuple[EAIG, PartitionSpec]:
    from repro.rtl import CircuitBuilder

    b = CircuitBuilder()
    x = b.input("x", 1)
    y = b.input("y", 1)
    b.output("q", x & y)
    eaig = synthesize(b.build()).eaig
    plan = partition_design(eaig, PartitionConfig())
    (spec,) = plan.partitions
    assert len(spec.nodes) == 1
    return eaig, spec


class TestSmallestCore:
    def test_one_node_partition_places_or_raises_typed(self):
        """``width_log2=1``: one AND position over two leaves.  The flow
        must terminate — with a placement, or a typed error."""
        eaig, spec = _one_and_partition()
        # 2 state bits cannot even hold constant + two sources
        with pytest.raises(UnmappableError):
            place_partition(eaig, spec, BoomerangConfig(width_log2=1))
        pp = place_partition(eaig, spec, BoomerangConfig(width_log2=1, state_bits=8))
        assert pp.num_layers == 1 and pp.num_writebacks == 1
        state = np.zeros(8, dtype=bool)
        for src in spec.sources:
            state[pp.slot_of[src]] = True
        pp.layers[0].execute(state)
        slot, inv = pp.slot_and_invert(spec.root_literals()[0])
        assert bool(state[slot]) ^ inv

    def test_no_progress_is_a_typed_error(self, python_loops, monkeypatch):
        eaig, spec = _one_and_partition()
        monkeypatch.setattr(
            placement._LayerBuilder, "try_map_node", lambda self, n, level: False
        )
        with pytest.raises(PlacementStallError) as info:
            place_partition(eaig, spec, BoomerangConfig(width_log2=1, state_bits=8))
        assert (info.value.stage, info.value.index) == (spec.stage, spec.index)
        assert isinstance(info.value, GemError)
        assert isinstance(info.value, RuntimeError)  # pre-existing except sites

    @pytest.mark.parametrize("path", ["native", "python"])
    def test_a_fanin_missing_from_the_sources_is_a_gem_error(self, path, request):
        """A hand-built partition whose ``sources`` omit a fan-in: both
        layer loops refuse it with a :class:`GemError`, not an assert."""
        request.getfixturevalue(f"{path}_loops")
        eaig = EAIG()
        a, b = eaig.add_pi("a"), eaig.add_pi("b")
        y = eaig.add_and(a, b)
        eaig.add_output("y", y)
        spec = PartitionSpec(stage=0, index=0, nodes=[y >> 1], groups=[], sources=[a >> 1])
        with pytest.raises(GemError, match=f"fanin {b >> 1} neither available nor local") as info:
            place_partition(eaig, spec, BoomerangConfig(width_log2=4))
        assert not isinstance(info.value, (UnmappableError, PlacementStallError))

    def test_no_progress_is_a_typed_error_on_the_native_path(self, native_loops, monkeypatch):
        """The layer loop in C places nothing when it is handed no
        candidates; the caller turns that into the same typed error."""
        eaig, spec = _one_and_partition()
        stalled = native_loops._replace(
            place_layer=lambda ref, order, norder: native_loops.place_layer(ref, order, 0)
        )
        monkeypatch.setattr(placement_kernel, "library", lambda: stalled)
        with pytest.raises(PlacementStallError, match="placement made no progress") as info:
            place_partition(eaig, spec, BoomerangConfig(width_log2=1, state_bits=8))
        assert (info.value.stage, info.value.index) == (spec.stage, spec.index)


def _outcome(place, *args):
    """A placement's whole observable result, or its typed error."""
    try:
        pp = place(*args)
    except (UnmappableError, PlacementStallError) as exc:
        return type(exc).__name__, str(exc)
    layers = [
        (
            p.perm.dtype.str,
            p.perm.tolist(),
            p.fold.dtype.str,
            p.fold.tolist(),
            p.writebacks.dtype.str,
            p.writebacks.tolist(),
        )
        for p in pp.packed
    ]
    return layers, pp.slot_node.tolist(), list(pp.slot_of.items()), pp.num_slots


_DIFFERENTIAL_DESIGNS = {}


def _differential_design(seed, profile, gates_per_partition=150):
    """A seeded generated design, synthesized and partitioned once."""
    key = (seed, profile, gates_per_partition)
    if key not in _DIFFERENTIAL_DESIGNS:
        from repro.fuzz.designgen import generate_design

        eaig = synthesize(generate_design(seed, profile).spec.build()).eaig
        pconfig = PartitionConfig(gates_per_partition=gates_per_partition, num_stages=2)
        _DIFFERENTIAL_DESIGNS[key] = eaig, partition_design(eaig, pconfig).partitions
    return _DIFFERENTIAL_DESIGNS[key]


class TestNativeMatchesPython:
    """The layer loop in C (:mod:`repro.core.placement_kernel`) against the
    Python loop it replaces, on every partition of seeded generated
    designs: the same packed layers, writebacks, slot table and slot count,
    or the same typed error — across core shapes, both criticality modes
    and chains of criticality jitter (refinement draws one at a time)."""

    @pytest.mark.parametrize(
        "width_log2, state_bits",
        [(1, 8), (4, None), (4, 4096), (6, None), (6, 4096), (9, None), (13, None)],
    )
    @pytest.mark.parametrize("timing_driven", [True, False])
    @pytest.mark.parametrize("seed, profile", [(3, "mixed"), (5, "deep"), (8, "merge_stress")])
    def test_every_partition(
        self, seed, profile, width_log2, state_bits, timing_driven, native_loops
    ):
        # a 2-leaf tree over 8 state bits places only the smallest partitions
        eaig, specs = _differential_design(seed, profile, 8 if width_log2 == 1 else 150)
        cfg = BoomerangConfig(width_log2=width_log2, state_bits=state_bits)
        rng = random.Random(seed)
        placed = 0
        for spec in specs:
            bias: dict[int, float] = {}
            nodes = sorted(spec.nodes)
            for _ in range(3):  # unperturbed, then two chained bias maps
                python = _outcome(placement._place_python, eaig, spec, cfg, timing_driven, bias)
                native = _outcome(
                    placement._place_native, native_loops, eaig, spec, cfg, timing_driven, bias
                )
                assert native == python, (spec.stage, spec.index, bias)
                placed += isinstance(python[0], list)
                if nodes:  # re-jitter about 30 % of the nodes, over twice refinement's share
                    bias = dict(bias)
                    for _ in range(max(1, int(len(nodes) * 0.3))):
                        bias[rng.choice(nodes)] = rng.uniform(-placement.JITTER, placement.JITTER)
        if state_bits is not None or width_log2 >= 9:  # else the state is too narrow
            assert placed, "every partition failed: the case compares errors only"

    def test_state_overflow_is_the_same_error(self, native_loops):
        """A state that holds the sources but not the writebacks."""
        eaig, specs = _differential_design(5, "deep")
        spec = max(specs, key=lambda s: len(s.nodes))
        cfg = BoomerangConfig(width_log2=4, state_bits=len(spec.sources) + 3)
        python = _outcome(placement._place_python, eaig, spec, cfg, True)
        assert python[0] == "UnmappableError" and "state overflow" in python[1]
        native = _outcome(placement._place_native, native_loops, eaig, spec, cfg, True, None)
        assert native == python

    def test_importing_the_flow_resolves_nothing(self):
        """Importing every module of the compile flow loads no library; the
        first question resolves the one library, and every loop shares it."""
        import subprocess
        import sys

        code = (
            "import repro.core.compiler, repro.core.depth_opt, repro.core.placement\n"
            "import repro.core.partition, repro.partition.fm, repro.partition.multilevel\n"
            "import repro.core.placement_kernel as k\n"
            "assert k._RESOLVED == []\n"
            "print(k.loops(), len(k._RESOLVED))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [placement_kernel.loops(), "1"]
