"""Cross-cutting property-based tests on the core data structures.

Hypothesis-driven invariants that no directed test pins down:

* random E-AIGs placed onto random-width boomerang configurations execute
  bit-exactly (placement is total and correct for any mappable shape);
* the bitstream survives assembly/decode for random designs, and corrupt
  binaries fail loudly instead of mis-executing;
* RepCut's accounting identities hold on random cone structures;
* the compiled cycle simulator's generated code is deterministic.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boomerang import BoomerangConfig
from repro.core.eaig import EAIG, EAIGSim, TRUE
from repro.core.partition import PartitionConfig, partition_design
from repro.core import placement, placement_kernel
from repro.core.placement import UnmappableError, place_partition
from repro.errors import PlacementStallError
from repro.partition.repcut import repcut_partition
from tests.helpers import random_circuit


def random_eaig(rng: random.Random, n_pis: int, n_ffs: int, n_gates: int) -> EAIG:
    """A random, well-formed E-AIG with feedback through FFs."""
    g = EAIG(f"rand{rng.randrange(1 << 30)}")
    literals = [TRUE]
    for i in range(n_pis):
        literals.append(g.add_pi(f"p{i}"))
    ffs = [g.add_ff(init=rng.randrange(2), name=f"f{i}") for i in range(n_ffs)]
    literals.extend(ffs)
    for _ in range(n_gates):
        a = rng.choice(literals) ^ rng.randrange(2)
        b = rng.choice(literals) ^ rng.randrange(2)
        literals.append(g.add_and(a, b))
    for ff in ffs:
        g.set_ff_input(ff, rng.choice(literals) ^ rng.randrange(2))
    for i in range(4):
        g.add_output(f"o{i}[0]", rng.choice(literals) ^ rng.randrange(2))
    g.check()
    return g


class TestPlacementProperty:
    @given(seed=st.integers(0, 10_000), width_log2=st.integers(6, 9))
    @settings(max_examples=15, deadline=None)
    def test_random_eaig_placement_is_correct(self, seed, width_log2):
        rng = random.Random(seed)
        eaig = random_eaig(rng, n_pis=5, n_ffs=3, n_gates=40)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=1000, num_stages=1))
        cfg = BoomerangConfig(width_log2=width_log2)
        try:
            placed = [place_partition(eaig, spec, cfg) for spec in plan.partitions]
        except UnmappableError:
            return  # legitimately too small a core for this shape
        sim = EAIGSim(eaig)
        for _ in range(5):
            sim.settle([rng.getrandbits(1) for _ in eaig.pis])
            for pp in placed:
                local = set(pp.spec.nodes)
                state = np.zeros(cfg.state_size, dtype=bool)
                for node, slot in pp.slot_of.items():
                    if node not in local:
                        state[slot] = bool(sim.value[node])
                for layer in pp.layers:
                    layer.execute(state)
                for node, slot in pp.slot_of.items():
                    assert bool(state[slot]) == bool(sim.value[node])
            sim.clock_edge()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_layer_count_bounded_by_local_depth(self, seed):
        rng = random.Random(seed)
        eaig = random_eaig(rng, n_pis=4, n_ffs=2, n_gates=60)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=1000, num_stages=1))
        for spec in plan.partitions:
            pp = place_partition(eaig, spec, BoomerangConfig(width_log2=10))
            # A layer always realizes at least one level, so layers never
            # exceed the node count; and every node ends up with a slot or
            # is consumed purely in-tree.
            assert len(pp.layers) <= max(1, len(spec.nodes))
            for literal in spec.root_literals():
                pp.slot_and_invert(literal)  # resolvable


def _assert_occupancy_exact(builder) -> None:
    """Recount the tree from ``occ`` alone and compare every counter."""
    width, occ = builder.width, builder.occ
    count = [0] * (2 * width)
    for k in range(2 * width - 1, 0, -1):
        below = count[2 * k] + count[2 * k + 1] if k < width else 0
        count[k] = (0 if occ[k] else 1) + below
    assert builder.free[1:] == count[1:]
    for level, free_here in enumerate(builder.free_at_level):
        row = occ[width >> level : (width >> level) * 2]
        assert free_here == len(row) - sum(row), level
    # AND positions and leaves carry content; bypass positions only occupy
    assert all(occ[k] for k in builder.content)
    assert all(occ[k] for k in builder.mapped.values())


class TestOccupancyInvariant:
    @given(
        seed=st.integers(0, 10_000),
        width_log2=st.integers(4, 6),
        n_gates=st.integers(5, 60),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_exact_after_every_attempt(self, seed, width_log2, n_gates):
        """After every ``try_map_node`` — success or failure — ``free`` and
        ``free_at_level`` equal a brute-force recount, and a failure leaves
        ``occ`` / ``content`` / ``mapped`` exactly as it found them."""
        rng = random.Random(seed)
        eaig = random_eaig(rng, n_pis=4, n_ffs=3, n_gates=n_gates)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=1000, num_stages=1))
        outcomes = {True: 0, False: 0}
        real = placement._LayerBuilder.try_map_node

        def checked(builder, n, level):
            before = (bytes(builder.occ), dict(builder.content), list(builder.mapped.items()))
            ok = real(builder, n, level)
            _assert_occupancy_exact(builder)
            after = (bytes(builder.occ), dict(builder.content), list(builder.mapped.items()))
            if ok:
                assert n in builder.mapped and after != before
            else:
                assert after == before
            outcomes[ok] += 1
            return ok

        placement._LayerBuilder.try_map_node = checked
        library = placement_kernel.library
        placement_kernel.library = lambda: None  # the Python loop: its builder is checked
        try:
            # a narrow tree over a roomy state: many layers, many failed attempts
            cfg = BoomerangConfig(width_log2=width_log2, state_bits=4096)
            for spec in plan.partitions:
                try:
                    place_partition(eaig, spec, cfg)
                except (UnmappableError, PlacementStallError):
                    pass
        finally:
            placement._LayerBuilder.try_map_node = real
            placement_kernel.library = library
        assert outcomes[True] > 0 or not any(spec.nodes for spec in plan.partitions)


class TestRepcutProperty:
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_accounting_identities(self, seed, k):
        rng = random.Random(seed)
        eaig = random_eaig(rng, n_pis=4, n_ffs=4, n_gates=50)
        groups = [[eaig.fanin0[ff]] for ff in eaig.ffs]
        groups += [[lit] for _, lit in eaig.outputs]
        result = repcut_partition(eaig, groups, k=k, seed=seed)
        # Every group assigned to exactly one part.
        assert sorted(g for part in result.part_groups for g in part) == list(
            range(len(groups))
        )
        # Node multiset identity: total placed = live + replicated.
        placed = sum(len(nodes) for nodes in result.part_nodes)
        assert placed == result.total_nodes + result.replicated_nodes
        assert result.replication_cost >= 0.0
        # Each part's nodes cover its groups' cones.
        for p, group_ids in enumerate(result.part_groups):
            part_nodes = set(result.part_nodes[p])
            for gi in group_ids:
                assert eaig.cone(groups[gi]) <= part_nodes


class TestBitstreamRobustness:
    def _program(self, seed=42):
        from repro.core.compiler import GemCompiler, GemConfig

        circuit = random_circuit(seed, n_ops=40)
        return GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=400),
                boomerang=BoomerangConfig(width_log2=10),
            )
        ).compile(circuit)

    def test_truncated_binary_fails_loudly(self):
        from repro.core.interpreter import GemInterpreter

        design = self._program()
        program = design.program
        program.words = program.words[: len(program.words) // 2].copy()
        with pytest.raises(Exception):
            GemInterpreter(program)

    def test_corrupted_opcode_fails_loudly(self):
        from repro.core.interpreter import GemInterpreter

        design = self._program(43)
        words = design.program.words.copy()
        # Find the first instruction header and stamp an invalid opcode.
        num_stages = int(words[5])
        table_base = 8 + num_stages
        first = int(words[table_base])
        words[first] = np.uint32(0xFF << 24)
        design.program.words = words
        with pytest.raises(ValueError):
            GemInterpreter(design.program)

    def test_assembly_is_deterministic(self):
        a = self._program(44).program.words
        b = self._program(44).program.words
        assert (a == b).all()


class TestCompiledSimDeterminism:
    def test_generated_source_stable(self):
        from repro.rtl import Netlist
        from repro.simref.cycle_sim import generate_cycle_source

        circuit = random_circuit(45, n_ops=40)
        src1 = generate_cycle_source(Netlist(circuit))
        src2 = generate_cycle_source(Netlist(circuit))
        assert src1 == src2


class TestFuzzGeneratorProperties:
    """Hypothesis strategies drawn from the fuzz design generator.

    Small shapes only: each example compiles a full design.  The heavier,
    curated structures live in tests/corpus/ (replayed, not generated).
    """

    SMALL = None  # populated lazily to keep import cost out of collection

    @staticmethod
    def _small_knobs():
        from repro.fuzz import ShapeKnobs

        return ShapeKnobs(
            n_inputs=3,
            n_regs=2,
            n_ops=10,
            widths=(1, 3, 8),
            max_arith_width=8,
            clock_enable_frac=0.5,
            mem_recipes=(((4, 8), (3, 5), 0.7, 0.2, 0.2),),
            n_outputs=3,
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_generated_specs_roundtrip_and_build(self, seed):
        from repro.fuzz import DesignSpec, random_spec

        spec = random_spec(seed, self._small_knobs())
        again = DesignSpec.from_json(spec.to_json())
        assert again.to_json() == spec.to_json()
        circuit = spec.build()
        assert circuit.name == spec.name

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_engines_agree_on_generated_designs(self, seed):
        """fused == legacy == simref == word on generator output."""
        from repro.fuzz import OracleConfig, random_spec, random_stimuli, run_oracle

        spec = random_spec(seed, self._small_knobs())
        stimuli = random_stimuli(spec, seed, 8)
        result = run_oracle(
            spec, stimuli, OracleConfig(batches=(1, 4), compile_profile="small")
        )
        assert result.ok, result.divergence.describe()

    @given(seed=st.integers(0, 10_000), cut=st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_checkpoint_resume_bit_identity_mid_fuzz(self, seed, cut):
        """Snapshot at a random cycle, restore into a fresh interpreter,
        and finish the stimulus: outputs and state digests must match the
        uninterrupted run bit-for-bit."""
        from repro.core.compiler import GemCompiler
        from repro.fuzz import random_spec, random_stimuli
        from repro.fuzz.oracle import compile_profile
        from repro.runtime.checkpoint import restore, snapshot
        from repro.runtime.supervisor import state_digest

        spec = random_spec(seed, self._small_knobs())
        stimuli = random_stimuli(spec, seed, 8)
        design = GemCompiler(compile_profile("small")).compile(spec.build())

        straight = design.simulator()
        full_trace = [straight.step(vec) for vec in stimuli]

        first = design.simulator()
        for vec in stimuli[:cut]:
            first.step(vec)
        ckpt = snapshot(first)
        resumed = design.simulator()
        restore(resumed, ckpt)
        tail = [resumed.step(vec) for vec in stimuli[cut:]]
        assert tail == full_trace[cut:]
        assert state_digest(resumed) == state_digest(straight)


class TestFourStateProperties:
    """Property tests for dual-rail 4-state execution (docs/FUZZING.md).

    (a) the fast dual-rail engines agree with the golden
        ``repro.fourstate.sim`` reference at batch 1, 16 and 64 on
        generated designs with x-injecting stimuli;
    (b) with fully-known inputs and known power-on state the 4-state
        compile is *bit-identical* to the plain 2-state fused engine —
        the known-rail machinery must cost zero semantic drift.
    """

    @staticmethod
    def _small_knobs(**over):
        from repro.fuzz import ShapeKnobs

        base = dict(
            n_inputs=3,
            n_regs=2,
            n_ops=10,
            widths=(1, 3, 8),
            max_arith_width=8,
            clock_enable_frac=0.5,
            mem_recipes=(((4, 8), (3, 5), 0.7, 0.2, 0.2),),
            n_outputs=3,
        )
        base.update(over)
        return ShapeKnobs(**base)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_dual_rail_engines_agree_with_fourstate_sim(self, seed):
        """4-value oracle: every fast engine == FourStateSim, X-for-X,
        at single-lane, packed-word, and full-word batch widths."""
        from repro.fuzz import OracleConfig, random_spec, random_stimuli, run_oracle

        knobs = self._small_knobs(x_input_rate=0.35, values=4)
        spec = random_spec(seed, knobs)
        stimuli = random_stimuli(spec, seed, 8, x_rate=knobs.x_input_rate)
        result = run_oracle(
            spec, stimuli,
            OracleConfig(batches=(1, 16, 64), compile_profile="small", values=4),
        )
        assert result.ok, result.divergence.describe()
        assert "values:4" in result.coverage

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_fully_known_values4_bit_identical_to_2state(self, seed):
        """Known inputs + known power-on: the dual-rail fused engine's
        value rail reproduces the 2-state fused engine bit-for-bit and
        reports zero unknown output bits."""
        from repro.core.compiler import GemCompiler, compile_circuit
        from repro.fuzz import random_spec, random_stimuli
        from repro.fuzz.oracle import compile_profile

        spec = random_spec(seed, self._small_knobs())
        stimuli = random_stimuli(spec, seed, 8)
        circuit = spec.build()
        config = compile_profile("small")
        plain = GemCompiler(config).compile(circuit).simulator()
        dual = compile_circuit(
            circuit, config, values=4, x_reset=False, x_memory=False
        ).simulator()
        for cycle, vec in enumerate(stimuli):
            expect = plain.step(vec)
            got4 = dual.step4(vec)
            got = {name: v.value() for name, v in got4.items()}
            assert got == expect, (cycle, vec)
            assert dual.unknown_output_bits() == 0


class TestLaneMetamorphicProperties:
    """Metamorphic properties of the packed lanes, through the array API
    (``step_arrays``): which lane a stimulus stream rides in, and how the
    streams are split over runs, must not change any stream's results."""

    CYCLES = 10
    _design = None

    @classmethod
    def _compiled(cls):
        if cls._design is None:
            from repro.core.compiler import GemCompiler, GemConfig

            circuit = random_circuit(977, n_ops=60, n_regs=4, with_memory=True)
            config = GemConfig(
                partition=PartitionConfig(gates_per_partition=400),
                boomerang=BoomerangConfig(width_log2=10),
            )
            cls._design = (circuit, GemCompiler(config).compile(circuit))
        return cls._design

    @classmethod
    def _stimulus_columns(cls, seed, lanes):
        """Per cycle ``{pi: (lanes,) uint64}`` of seeded random values."""
        circuit, _ = cls._compiled()
        rng = np.random.default_rng(seed)
        return [
            {
                sig.name: rng.integers(0, 1 << sig.width, lanes, dtype=np.uint64)
                for sig in circuit.inputs
            }
            for _ in range(cls.CYCLES)
        ]

    @staticmethod
    def _run(design, batch, stimulus):
        sim = design.simulator(batch=batch)
        return [sim.step_arrays(cols) for cols in stimulus], sim

    @given(seed=st.integers(0, 10_000), batch=st.sampled_from([5, 64, 128]))
    @settings(max_examples=8, deadline=None)
    def test_lane_permutation_invariance(self, seed, batch):
        _, design = self._compiled()
        stimulus = self._stimulus_columns(seed, batch)
        perm = np.random.default_rng(seed + 1).permutation(batch)
        straight, _ = self._run(design, batch, stimulus)
        shuffled, _ = self._run(
            design, batch, [{k: v[perm] for k, v in cols.items()} for cols in stimulus]
        )
        for want, got in zip(straight, shuffled):
            for name in want:
                assert np.array_equal(got[name], want[name][perm]), name

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_batch_split_invariance(self, seed):
        """One 128-lane run is two 64-lane runs, column for column, and
        the halves' RAM images stack into the whole's."""
        _, design = self._compiled()
        stimulus = self._stimulus_columns(seed, 128)
        whole, big = self._run(design, 128, stimulus)
        for half in (slice(0, 64), slice(64, 128)):
            part, small = self._run(
                design, 64, [{k: v[half] for k, v in cols.items()} for cols in stimulus]
            )
            for want, got in zip(whole, part):
                for name in want:
                    assert np.array_equal(got[name], want[name][half]), name
            for big_ram, small_ram in zip(big.ram_arrays, small.ram_arrays):
                assert np.array_equal(big_ram[half], small_ram)
