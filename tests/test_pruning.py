"""Event-based pruning in GEM (extension of the paper's §IV future work)."""

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.core.perfmodel import A100, gem_metrics, gem_speed
from repro.extensions.pruning import PruningGemInterpreter, gem_pruned_speed
from repro.rtl import CircuitBuilder, Netlist, WordSim
from tests.helpers import lockstep, random_circuit, random_vectors


def _compile(circuit, gpp=400, width_log2=10):
    return GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=gpp),
            boomerang=BoomerangConfig(width_log2=width_log2),
        )
    ).compile(circuit)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_matches_golden(self, seed):
        circuit = random_circuit(seed + 300, n_ops=60, n_regs=4, with_memory=True)
        design = _compile(circuit)
        lockstep(
            {
                "word": WordSim(Netlist(circuit)),
                "executor": design.simulator(),
                "pruned": PruningGemInterpreter(design.program),
            },
            random_vectors(circuit, seed, 40),
        )

    def test_pruned_matches_golden_under_idle_phases(self):
        """Alternating busy/idle input phases — the case pruning targets
        and the case where stale-value bugs would show."""
        circuit = random_circuit(555, n_ops=60, n_regs=4, with_memory=True)
        design = _compile(circuit)
        stimuli = []
        busy = random_vectors(circuit, 1, 60)
        for i, vec in enumerate(busy):
            stimuli.append(vec if (i // 10) % 2 == 0 else dict(busy[(i // 10) * 10]))
        lockstep(
            {
                "word": WordSim(Netlist(circuit)),
                "pruned": PruningGemInterpreter(design.program),
            },
            stimuli,
        )

    def test_ram_partitions_wait_one_extra_cycle(self):
        # A design that writes once then idles: the value written in the
        # last busy cycle must surface on the read port one cycle later
        # even though sources are already stable.
        b = CircuitBuilder()
        wen = b.input("wen", 1)
        addr = b.input("addr", 2)
        data = b.input("data", 8)
        mem = b.memory("m", 4, 8)
        b.write(mem, wen, addr, data)
        b.output("rd", b.read(mem, addr, sync=True))
        circuit = b.build()
        design = _compile(circuit)
        gem = PruningGemInterpreter(design.program)
        word = WordSim(Netlist(circuit))
        seq = [
            {"wen": 1, "addr": 2, "data": 77},
            {"wen": 0, "addr": 2, "data": 77},  # sources change (wen)
            {"wen": 0, "addr": 2, "data": 77},  # stable; rd must show 77
            {"wen": 0, "addr": 2, "data": 77},
        ]
        for vec in seq:
            assert gem.step(vec) == word.step(vec)


class TestSkipBehaviour:
    def test_idle_inputs_skip_blocks(self):
        circuit = random_circuit(556, n_ops=80, n_regs=2)
        design = _compile(circuit, gpp=200)
        gem = PruningGemInterpreter(design.program)
        frozen = random_vectors(circuit, 2, 1)[0]
        for _ in range(30):
            gem.step(frozen)
        # With constant inputs the design settles; most executions prune.
        assert gem.skip_fraction > 0.3, gem.skip_fraction

    def test_busy_inputs_rarely_skip(self):
        circuit = random_circuit(557, n_ops=80, n_regs=2)
        design = _compile(circuit, gpp=200)
        gem = PruningGemInterpreter(design.program)
        for vec in random_vectors(circuit, 3, 30):
            gem.step(vec)
        assert gem.skip_fraction < 0.5

    def test_skip_fraction_reads_only_the_batch(self):
        """Pruning compares its sources under the batch's lanes: the same
        broadcast stream skips the same blocks at batch 3 as at batch 1,
        and poisoning the lanes beyond the batch mid-run moves nothing."""
        circuit = random_circuit(556, n_ops=80, n_regs=2)
        design = _compile(circuit, gpp=200)
        busy = random_vectors(circuit, 2, 10)
        stimuli = busy + [busy[-1]] * 30  # then idle: the design settles

        def counts(batch, poison):
            gem = PruningGemInterpreter(design.program, batch=batch)
            gem.run(stimuli[:25])
            if poison:  # mid-way through the idle phase
                gem.global_state ^= ~gem.engine.lanes_mask(range(batch))
            gem.run(stimuli[25:])
            return gem.blocks_executed, gem.blocks_skipped

        want = counts(1, poison=False)
        assert want[1] > 0
        for batch, poison in ((3, False), (1, True), (3, True)):
            assert counts(batch, poison) == want, (batch, poison)

    def test_counters(self):
        circuit = random_circuit(558, n_ops=40)
        design = _compile(circuit)
        gem = PruningGemInterpreter(design.program)
        for _ in range(10):
            gem.step({})
        total = gem.blocks_executed + gem.blocks_skipped
        assert total == 10 * design.merge.plan.num_partitions


class TestPrunedModel:
    def test_speedup_monotone_in_skip_fraction(self):
        circuit = random_circuit(559, n_ops=60)
        metrics = gem_metrics(_compile(circuit))
        speeds = [gem_pruned_speed(metrics, f) for f in (0.0, 0.3, 0.6, 0.9)]
        assert speeds == sorted(speeds)

    def test_zero_skip_matches_baseline(self):
        circuit = random_circuit(560, n_ops=60)
        metrics = gem_metrics(_compile(circuit))
        assert gem_pruned_speed(metrics, 0.0) == pytest.approx(gem_speed(metrics, A100))

    def test_invalid_fraction(self):
        circuit = random_circuit(561, n_ops=30)
        metrics = gem_metrics(_compile(circuit))
        with pytest.raises(ValueError):
            gem_pruned_speed(metrics, 1.5)
