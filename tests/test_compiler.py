"""End-to-end compiler API (repro.core.compiler)."""

import pytest

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import CompileReport, GemCompiler, GemConfig, compile_circuit
from repro.core.partition import PartitionConfig
from repro.core.synthesis import synthesize
from repro.rtl import CircuitBuilder
from tests.helpers import random_circuit, random_vectors


def _config(width_log2=10, gpp=300, state_bits=None):
    return GemConfig(
        partition=PartitionConfig(gates_per_partition=gpp),
        boomerang=BoomerangConfig(width_log2=width_log2, state_bits=state_bits),
    )


class TestCompile:
    def test_report_fields_consistent(self):
        circuit = random_circuit(11, n_ops=60)
        design = GemCompiler(_config()).compile(circuit)
        r = design.report
        assert r.gates == design.synth.eaig.num_gates()
        assert r.partitions == design.merge.plan.num_partitions
        assert r.stages == design.merge.plan.num_stages
        assert r.layers == max(len(p.layers) for p in design.merge.placements)
        assert r.bitstream_bytes == design.program.num_bytes
        row = r.row()
        assert row["#E-AIG Gates"] == r.gates
        assert "MB" in row["Bitstream"]

    def test_layers_much_smaller_than_levels(self):
        """The §IV headline: #layers is several times below logic depth."""
        circuit = random_circuit(13, n_ops=200, n_regs=8)
        design = GemCompiler(_config()).compile(circuit)
        if design.report.levels >= 20:
            assert design.report.layers <= design.report.levels / 2

    def test_accepts_presynthesized_input(self):
        circuit = random_circuit(12, n_ops=40)
        synth = synthesize(circuit)
        design = GemCompiler(_config()).compile(synth)
        assert design.synth is synth

    def test_compile_circuit_convenience(self):
        circuit = random_circuit(14, n_ops=30)
        design = compile_circuit(circuit, _config())
        sim = design.simulator()
        sim.step(random_vectors(circuit, 0, 1)[0])

    def test_width_config_propagates(self):
        cfg = _config(width_log2=9)
        assert cfg.partition.width == 512
        circuit = random_circuit(15, n_ops=30)
        design = GemCompiler(cfg).compile(circuit)
        assert design.merge.placements[0].config.width_log2 == 9

    def test_retry_shrinks_partitions_when_unmappable(self):
        """A narrow core forces the retry loop to subdivide partitions."""
        circuit = random_circuit(16, n_ops=400, n_regs=10, max_width=32)
        wide = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=4000, num_stages=1),
                boomerang=BoomerangConfig(width_log2=13),
            )
        ).compile(circuit)
        narrow = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=4000, num_stages=1),
                boomerang=BoomerangConfig(width_log2=10),
            )
        ).compile(circuit)
        # The 1024-bit core cannot hold the single wide partition; the retry
        # loop must have subdivided.
        assert wide.merge.plan.num_partitions == 1
        assert narrow.merge.plan.num_partitions > 1
        for placed in narrow.merge.placements:
            assert placed.num_slots <= 1024

    def test_unmappable_design_raises_cleanly(self):
        """A single endpoint cone bigger than the core state is a hard
        failure: the retry loop must give up with a clear error."""
        from repro.core.placement import UnmappableError

        circuit = random_circuit(16, n_ops=400, n_regs=10, max_width=32)
        cfg = GemConfig(
            partition=PartitionConfig(gates_per_partition=4000, num_stages=1),
            boomerang=BoomerangConfig(width_log2=9),
            max_partition_retries=1,
        )
        with pytest.raises(UnmappableError, match="could not find"):
            GemCompiler(cfg).compile(circuit)

    @pytest.mark.parametrize(
        "width_log2, state_bits",
        [(14, None), (15, None), (0, None), (10, 0), (10, -5), (10, 3), (10, (1 << 14) + 1)],
        ids=["14", "15", "0", "state_bits=0", "state_bits=-5", "state_bits=3", "state_bits=16385"],
    )
    def test_unsupported_core_width_rejected_at_compile_start(
        self, width_log2, state_bits, tmp_path
    ):
        """A core wider than one FOLD instruction can program used to die
        with an IndexError in bitstream assembly; it is now a typed error
        raised before any compile work, and the autotuner's sweep records
        the candidate from it instead of from a crash.  So is a state too
        small to place one AND (which used to search partition sizes down
        to the floor before failing) or too big for a writeback's 14-bit
        slot (which used to escape assembly as an untyped ValueError)."""
        from repro.core.autotune import AutotuneConfig, KnobSpace, autotune
        from repro.errors import ConfigError, GemError

        circuit = random_circuit(15, n_ops=30)
        if state_bits is None:
            message = rf"width_log2={width_log2} is outside \[1, 13\]"
        else:
            message = rf"state_bits={state_bits} is outside \[4, 16384\]"
        with pytest.raises(ConfigError, match=message) as exc:
            GemCompiler(_config(width_log2, state_bits=state_bits)).compile(circuit)
        assert isinstance(exc.value, GemError)
        if width_log2 != 14:
            return
        result = autotune(
            synthesize(circuit),
            name="wide-core",
            base=_config(),
            space=KnobSpace(
                gates_per_partition=(300,),
                num_stages=(1,),
                width_log2=(10, 14),
                sa_iterations=(0,),
            ),
            opts=AutotuneConfig(budget=4, cache_dir=str(tmp_path)),
        )
        rejected = [c for c in result.candidates if c.knobs.get("width_log2") == 14]
        assert rejected and all(c.status == "error" for c in rejected)
        assert all("ConfigError" in c.error for c in rejected)

    @pytest.mark.parametrize("gpp", [0, -1])
    def test_nonpositive_partition_size_rejected_at_compile_start(self, gpp, monkeypatch):
        """``gates_per_partition=0`` used to die with a ZeroDivisionError in
        the partitioner's stage heuristic; it is a typed error raised before
        synthesis runs."""
        from repro.core import synthesis
        from repro.errors import ConfigError

        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran before the config was checked")

        monkeypatch.setattr(synthesis, "synthesize", no_synthesis)
        with pytest.raises(ConfigError, match=rf"gates_per_partition={gpp} is below 1"):
            compile_circuit(random_circuit(15, n_ops=30), _config(gpp=gpp))

    def test_simulator_instances_independent(self):
        circuit = random_circuit(17, n_ops=40)
        design = GemCompiler(_config()).compile(circuit)
        a = design.simulator()
        b = design.simulator()
        vecs = random_vectors(circuit, 3, 5)
        for vec in vecs:
            a.step(vec)
        before = b.outputs()
        assert b.outputs() == before  # b untouched by a's steps


class TestDegenerateDesigns:
    def test_single_gate(self):
        b = CircuitBuilder()
        x = b.input("x", 1)
        y = b.input("y", 1)
        b.output("z", x & y)
        design = GemCompiler(_config()).compile(b.build())
        sim = design.simulator()
        assert sim.step({"x": 1, "y": 1})["z"] == 1
        assert sim.step({"x": 1, "y": 0})["z"] == 0

    def test_constant_output(self):
        b = CircuitBuilder()
        b.input("x", 1)
        b.output("z", b.const(1, 1))
        design = GemCompiler(_config()).compile(b.build())
        assert design.simulator().step({})["z"] == 1

    def test_passthrough_inverted(self):
        b = CircuitBuilder()
        x = b.input("x", 4)
        b.output("z", ~x)
        design = GemCompiler(_config()).compile(b.build())
        assert design.simulator().step({"x": 0b1010})["z"] == 0b0101
