"""Co-simulation utility (repro.harness.cosim)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.cosim as cosim_module
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.harness.cosim import (
    Divergence,
    cosim,
    cosim_vcd,
    dump_response_vcd,
    lockstep,
    output_mismatches,
)
from repro.rtl import CircuitBuilder, Netlist, WordSim
from repro.waveform.vcd import read_vcd_stimuli, write_vcd
from tests.helpers import brute_force_site, random_circuit, random_vectors


def _counter(bug_at: int | None = None):
    """8-bit counter; optionally with a planted off-by-one at a value."""
    b = CircuitBuilder()
    en = b.input("en", 1)
    count = b.reg("count", 8)
    step = b.const(1, 8)
    if bug_at is not None:
        step = b.mux(count == bug_at, b.const(2, 8), step)  # planted bug
    count.next = b.mux(en, count + step, count)
    b.output("q", count)
    return b.build()


class TestCosim:
    def test_identical_engines_pass(self):
        circuit = random_circuit(900, n_ops=40)
        result = cosim(
            WordSim(Netlist(circuit)),
            WordSim(Netlist(circuit)),
            random_vectors(circuit, 0, 30),
        )
        assert result.passed
        assert result.cycles == 30
        assert "PASS" in result.report()

    def test_divergence_localized(self):
        good = WordSim(Netlist(_counter()))
        bad = WordSim(Netlist(_counter(bug_at=5)))
        result = cosim(good, bad, [{"en": 1}] * 20)
        assert not result.passed
        d = result.divergence
        # count reaches 5 at cycle 5; the wrong step lands at cycle 6.
        assert d.cycle == 6
        assert d.signals["q"] == (6, 7)
        assert "first divergence at cycle 6" in d.describe()

    def test_run_stops_at_the_end_of_the_diverging_block(self, monkeypatch):
        """Neither engine declares a block length: the module constant cuts
        the stream, and both stand on the boundary after the divergence."""
        monkeypatch.setattr(cosim_module, "BLOCK_CYCLES", 4)
        good = WordSim(Netlist(_counter()))
        bad = WordSim(Netlist(_counter(bug_at=5)))
        result = cosim(good, bad, [{"en": 1}] * 20)
        assert result.divergence.cycle == 6  # the first one, in block [4, 8)
        assert result.cycles == 8 and good.cycle == bad.cycle == 8
        assert [out["q"] for out in result.trace] == list(range(8))

    def test_signal_filter(self):
        b1 = _counter()
        good = WordSim(Netlist(b1))
        bad = WordSim(Netlist(_counter(bug_at=3)))
        result = cosim(good, bad, [{"en": 1}] * 10, signals=[])
        assert result.passed  # nothing watched, nothing diverges

    def test_history_depth(self):
        good = WordSim(Netlist(_counter()))
        bad = WordSim(Netlist(_counter(bug_at=5)))
        result = cosim(good, bad, [{"en": i & 1} for i in range(20)])
        d = result.divergence
        # en is high on odd cycles: the sixth increment shows at cycle 12
        assert (d.cycle, d.inputs) == (12, {"en": 0})
        assert d.recent_inputs == [{"en": i & 1} for i in range(12 - cosim_module.HISTORY, 12)]

    def test_gem_vs_golden_through_cosim(self):
        circuit = random_circuit(901, n_ops=50, n_regs=3)
        design = GemCompiler(
            GemConfig(
                partition=PartitionConfig(gates_per_partition=400),
                boomerang=BoomerangConfig(width_log2=10),
            )
        ).compile(circuit)
        result = cosim(
            WordSim(Netlist(circuit)),
            design.simulator(),
            random_vectors(circuit, 7, 30),
        )
        assert result.passed
        assert len(result.trace) == 30  # the reference's outputs, always kept


class TestDivergenceReporting:
    """Formatting and edge cases of the divergence report."""

    def test_describe_formatting(self):
        d = Divergence(
            cycle=12,
            signals={"q": (0x1F, 0x20), "alpha": (0, 1)},
            inputs={"en": 1},
            recent_inputs=[{"en": 0}, {"en": 1}],
        )
        text = d.describe()
        lines = text.splitlines()
        assert lines[0] == "first divergence at cycle 12:"
        # signals sorted by name, values in hex
        assert lines[1] == "  alpha: reference=0x0 dut=0x1"
        assert lines[2] == "  q: reference=0x1f dut=0x20"
        assert "inputs that cycle: {'en': 1}" in text
        assert "previous 2 input vectors:" in text
        # history is oldest-first, labelled t-N .. t-1
        assert lines.index("    t-2: {'en': 0}") < lines.index("    t-1: {'en': 1}")

    def test_describe_without_history(self):
        d = Divergence(cycle=0, signals={"q": (1, 0)}, inputs={}, recent_inputs=[])
        text = d.describe()
        assert "previous" not in text
        assert "first divergence at cycle 0:" in text

    def test_empty_stimulus_trace(self):
        good = WordSim(Netlist(_counter()))
        bad = WordSim(Netlist(_counter(bug_at=0)))
        result = cosim(good, bad, [])
        assert result.passed
        assert result.cycles == 0
        assert result.divergence is None
        assert result.trace == []
        assert result.report() == "PASS: 0 cycles, outputs identical"

    def test_divergence_on_cycle_zero(self):
        # Different register init values disagree on the very first cycle.
        def counter(init):
            b = CircuitBuilder()
            count = b.reg("count", 8, init=init)
            count.next = count + b.const(1, 8)
            b.output("q", count)
            return b.build()

        result = cosim(
            WordSim(Netlist(counter(0))),
            WordSim(Netlist(counter(1))),
            [{}] * 5,
        )
        assert not result.passed
        d = result.divergence
        assert d.cycle == 0
        assert d.recent_inputs == []  # nothing precedes cycle 0
        assert d.signals["q"] == (0, 1)
        assert "first divergence at cycle 0" in result.report()
        assert result.report().startswith("FAIL after 1 cycles")

    def test_output_mismatches_helper(self):
        ref = {"a": 1, "b": 2, "c": 3}
        dut = {"a": 1, "b": 5, "d": 9}
        assert output_mismatches(ref, dut) == {"b": (2, 5)}
        # restricted signal list, including one only the reference has
        assert output_mismatches(ref, dut, signals=["a", "c"]) == {"c": (3, None)}
        assert output_mismatches(ref, ref) == {}


class TestVcdIntegration:
    def test_cosim_from_vcd(self, tmp_path):
        circuit = _counter()
        stimuli = [{"en": i % 2} for i in range(16)]
        path = str(tmp_path / "stim.vcd")
        write_vcd(path, stimuli, {"en": 1})
        result = cosim_vcd(WordSim(Netlist(circuit)), WordSim(Netlist(circuit)), path)
        assert result.passed
        assert result.cycles == 16

    def test_dump_response_roundtrip(self, tmp_path):
        circuit = _counter()
        path = str(tmp_path / "resp.vcd")
        n = dump_response_vcd(
            WordSim(Netlist(circuit)), [{"en": 1}] * 10, path, {"q": 8}
        )
        assert n == 10
        responses = read_vcd_stimuli(path)
        assert [r["q"] for r in responses] == list(range(10))


# -- the one loop: repro.harness.cosim.lockstep --------------------------------


@functools.lru_cache(maxsize=None)
def _lane_design():
    circuit = random_circuit(903, n_ops=40, n_regs=3, with_memory=True)
    config = GemConfig(
        partition=PartitionConfig(gates_per_partition=400),
        boomerang=BoomerangConfig(width_log2=10),
    )
    return circuit, GemCompiler(config).compile(circuit)


class Liar:
    """A participant that flips bit 0 of one output at one (cycle, lane)."""

    def __init__(self, engine, cycle, lane, signal, declare=False):
        self.engine, self.site, self.seen = engine, (cycle, lane, signal), 0
        if declare:
            self.block_cycles = engine.block_cycles

    def _lie(self, outputs):
        cycle, lane, signal = self.site
        if 0 <= cycle - self.seen < len(outputs):
            row = outputs[cycle - self.seen]
            (row if lane is None else row[lane])[signal] ^= 1
        self.seen += len(outputs)
        return outputs

    def run(self, stimuli):
        return self._lie(self.engine.run(stimuli))

    def run_lanes(self, stimuli):
        return self._lie(self.engine.run_lanes(stimuli))


class TestLockstepSite:
    """Whatever the block length, the site reported is the one a
    cycle-at-a-time comparison finds (``tests.helpers.brute_force_site``)."""

    #: the block length an engine declares in the ``block=None`` cases
    OWN = 5

    def _participants(self, lanes, lies, declare):
        circuit, design = _lane_design()
        duts = {}
        for name, (cycle, lane, signal) in lies.items():
            sim = design.simulator(batch=lanes or 1)
            sim.block_cycles = self.OWN
            duts[name] = Liar(sim, cycle, lane, signal, declare)
        if lanes is None:
            return WordSim(Netlist(circuit)), duts
        return [WordSim(Netlist(circuit)) for _ in range(lanes)], duts

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        lanes=st.sampled_from([None, 3, 64]),
        block=st.sampled_from([1, 7, None]),
        cycles=st.integers(0, 16),
    )
    def test_first_lie_is_the_site(self, data, lanes, block, cycles):
        circuit, _ = _lane_design()
        size = block or self.OWN
        names = [name for name, _ in circuit.outputs]
        lane = st.none() if lanes is None else st.integers(0, lanes - 1)
        # cycle 0, the last cycle of a block and beyond the stream are all drawn
        first = data.draw(st.sampled_from([0, size - 1, 2 * size - 1]) | st.integers(0, cycles + 2))

        def draw_site(cycle):
            return cycle, data.draw(lane), data.draw(st.sampled_from(names))

        lies = {
            "first": draw_site(first),
            "same": draw_site(first),
            "later": draw_site(first + data.draw(st.integers(1, 8))),
        }
        order = data.draw(st.permutations(list(lies)))
        lies = {name: lies[name] for name in order}
        if lanes is None:
            stimuli = random_vectors(circuit, cycles, cycles)
        else:
            streams = [random_vectors(circuit, 100 * cycles + i, cycles) for i in range(lanes)]
            stimuli = [list(vecs) for vecs in zip(*streams)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cosim_module, "BLOCK_CYCLES", block or 10**6)
            reference, duts = self._participants(lanes, lies, declare=block is None)
            site, trace = lockstep(reference, duts, stimuli, start=100)
        expected = brute_force_site(*self._participants(lanes, lies, False), stimuli)

        if first >= cycles:
            assert site is None and expected is None and len(trace) == cycles
            return
        cycle, dut, at, differ = expected
        assert (cycle, dut) == (first, next(n for n in order if n != "later"))
        assert (site.cycle, site.dut, site.lane) == (100 + cycle, dut, at)
        assert sorted(site.signals) == differ
        # the run stopped at the end of the block that diverged
        assert len(trace) == min(cycles, (first // size + 1) * size)
        engines = reference if lanes else [reference]
        assert {engine.cycle for engine in engines} == {len(trace)}
        assert {liar.engine.cycle for liar in duts.values()} == {len(trace)}

    def test_empty_stream(self):
        reference, duts = self._participants(3, {"dut": (0, 0, "o0")}, declare=True)
        assert lockstep(reference, duts, []) == (None, [])


class TestLockstepBlocks:
    """Blocks shown by count, not by clock: a fused DUT is entered once per
    block of ``block_cycles``, in ``cosim`` and in both oracle phases."""

    BLOCK, CYCLES = 10, 48

    @pytest.fixture(params=["native", "numpy"])
    def calls(self, request, monkeypatch):
        """Cycles per call into the default backend's block entry."""
        import repro.core.backend as backend
        import repro.core.interpreter as interpreter

        if request.param not in backend.available_backends():
            pytest.skip("no C compiler and no cached kernel here")
        calls = []
        monkeypatch.setattr(backend, "BACKEND_NAMES", (request.param,))
        monkeypatch.setattr(interpreter, "BLOCK_MAX_CYCLES", self.BLOCK)
        if request.param == "native":
            native = backend.resolve_backend("native")
            kernel = native._kernel

            def counted(program, n, pi, po, ticks):
                calls.append(n)
                return kernel(program, n, pi, po, ticks)

            monkeypatch.setattr(native, "_kernel", counted)
        else:
            run = backend._NumpyCycle.run

            def counted(self, n, pi_block, po_block, times):
                calls.append(n)
                return run(self, n, pi_block, po_block, times)

            monkeypatch.setattr(backend._NumpyCycle, "run", counted)
        return calls

    def test_cosim_enters_the_dut_once_per_block(self, calls):
        circuit, design = _lane_design()
        result = cosim(
            WordSim(Netlist(circuit)), design.simulator(), random_vectors(circuit, 1, self.CYCLES)
        )
        assert result.passed and result.cycles == self.CYCLES
        assert calls == [10, 10, 10, 10, 8]

    @pytest.mark.parametrize(
        "checkpoint_cycle, phase1", [(None, [10, 10, 10, 10, 8]), (24, [10, 10, 5, 10, 10, 3])]
    )
    def test_oracle_phases_run_blocks(self, calls, checkpoint_cycle, phase1):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        spec = generate_design(1234, "mixed").spec
        config = OracleConfig(
            engines=("word", "fused"), batches=(1, 16), checkpoint_cycle=checkpoint_cycle
        )
        result = run_oracle(spec, random_stimuli(spec, 1234, self.CYCLES), config)
        assert result.ok
        assert ("checkpoint:roundtrip" in result.coverage) == (checkpoint_cycle is not None)
        # phase 1 (one more call per cut), then phase 2's one batch
        assert calls == phase1 + [10, 10, 10, 10, 8]
