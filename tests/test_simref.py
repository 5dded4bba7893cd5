"""Baseline simulators: equivalence and the properties Table II relies on."""

import pytest

from repro.core.eaig import EAIG, FALSE, TRUE
from repro.core.synthesis import synthesize
from repro.rtl import CircuitBuilder, Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim
from repro.simref.threads import ThreadScalingModel
from tests.helpers import eaig_sim, lockstep, random_circuit, random_vectors


class TestGateLevelSim:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence(self, seed):
        circuit = random_circuit(seed + 90, n_ops=50, with_memory=True)
        synth = synthesize(circuit)
        lockstep(
            {"word": WordSim(Netlist(circuit)), "gate": GateLevelSim(synth)},
            random_vectors(circuit, seed, 40),
        )

    @pytest.mark.parametrize(
        "seed, events", [(0, 8086), (1, 58759), (2, 9004), (3, 3186)]
    )
    def test_event_count(self, seed, events):
        """Signal events are AND toggles plus source-bit changes (PI bits
        set, FF and RAM-data commits): a zero-delay event-driven
        simulator's count, pinned on designs with feedback and a RAM."""
        circuit = random_circuit(seed + 40, n_ops=60, with_memory=True)
        sim = GateLevelSim(synthesize(circuit))
        sim.run(random_vectors(circuit, seed, 60))
        assert sim.total_events == events
        assert sim.events_per_cycle == events / 60
        assert sim.total_toggles < sim.total_events

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_async_memory(self, seed):
        circuit = random_circuit(
            seed + 70, n_ops=50, with_memory=True, with_async_memory=True
        )
        lockstep(
            {"word": WordSim(Netlist(circuit)), "gate": GateLevelSim(synthesize(circuit))},
            random_vectors(circuit, seed, 40),
        )

    def test_run_batch(self):
        circuit = random_circuit(32, n_ops=30, with_memory=True)
        synth = synthesize(circuit)
        vecs = random_vectors(circuit, 9, 15)
        batch = GateLevelSim(synth).run(vecs)
        stepped = GateLevelSim(synth)
        assert batch == [stepped.step(v) for v in vecs]

    def test_toggle_counting(self):
        circuit = random_circuit(44, n_ops=60)
        sim = GateLevelSim(synthesize(circuit))
        for vec in random_vectors(circuit, 3, 20):
            sim.step(vec)
        assert sim.cycle == 20
        assert sim.total_toggles > 0
        assert sim.toggles_per_cycle == sim.total_toggles / 20

    def test_event_counter_monotone(self):
        """Per step, both counters only grow, and events never fall below
        toggles: every toggle is an event."""
        circuit = random_circuit(43, n_ops=40, with_memory=True)
        sim = GateLevelSim(synthesize(circuit))
        for vec in random_vectors(circuit, 1, 10):
            events, toggles = sim.total_events, sim.total_toggles
            sim.step(vec)
            assert sim.total_events >= events and sim.total_toggles >= toggles
            assert sim.total_events - events >= sim.total_toggles - toggles

    def test_pi_and_ff_changes_are_events(self):
        """A register pipeline has no gates to toggle: its events are the
        input bits that change and the flip-flop bits that commit."""
        b = CircuitBuilder()
        d = b.input("d", 8)
        q = b.reg("q", 8)
        q.next = d
        b.output("q", q)
        sim = GateLevelSim(synthesize(b.build()))
        assert sim.gates == 0
        sim.step({"d": 0xFF})  # 8 input bits rise, then 8 flip-flops
        assert sim.total_events == 16
        sim.step({"d": 0xFF})  # nothing changes
        assert sim.total_events == 16
        sim.step({"d": 0x0F})  # 4 input bits fall, then 4 flip-flops
        assert sim.total_events == 24
        assert sim.total_toggles == 0

    def test_ram_data_commits_are_events(self):
        """A sync read commits the RAM's data bits at the edge; each bit
        that changes is one event."""
        g = EAIG()
        ram = g.add_ram("m", addr_bits=1, data_bits=4, init=[0b0101, 0b0110])
        addr = g.add_pi("a")
        ram.raddr = [addr]
        ram.ren = TRUE
        ram.waddr = [addr]
        ram.wdata = [FALSE] * 4
        ram.wen = FALSE
        sim = eaig_sim(g, {"q": [2 * node for node in ram.data_nodes]})
        sim.step({"a": 0})  # 0000 -> 0101
        assert sim.total_events == 2
        sim.step({"a": 1})  # the address bit, then 0101 -> 0110
        assert sim.total_events == 2 + 1 + 2
        assert sim.step({"a": 1})["q"] == 0b0110
        assert sim.total_toggles == 0

    def test_probe_hook_sees_the_settled_cycle(self):
        """The hook fires after the combinational settle and before the
        edge: it sees this cycle's inputs and the old register value."""
        g = EAIG()
        a = g.add_pi("a")
        q = g.add_ff(init=0, name="q")
        x = g.add_xor(a, q)
        g.set_ff_input(q, x)
        g.add_output("q", q)
        sim = eaig_sim(g)
        seen = []
        sim.probe_hook = lambda s: seen.append((s._lit(q), s._lit(x)))
        for bit in [1, 0, 1, 1]:
            sim.step({"a": bit})
        assert seen == [(0, 1), (1, 1), (1, 0), (0, 1)]

    def test_activity_sensitivity(self):
        """The property the commercial and GL0AM models lean on (paper §II):
        an idle design produces almost no events or toggles, a busy one
        produces many."""
        b = CircuitBuilder()
        en = b.input("en", 1)
        acc = b.reg("acc", 32)
        acc.next = b.mux(en, acc * 2654435761 + 12345, acc)
        b.output("q", acc)
        synth = synthesize(b.build())
        busy = GateLevelSim(synth)
        for _ in range(30):
            busy.step({"en": 1})
        quiet = GateLevelSim(synth)
        quiet.step({"en": 1})  # one change, then hold
        for _ in range(29):
            quiet.step({"en": 0})
        assert quiet.events_per_cycle < busy.events_per_cycle / 5
        assert quiet.toggles_per_cycle < busy.toggles_per_cycle / 5

    def test_levelization_complete(self):
        circuit = random_circuit(45, n_ops=60)
        synth = synthesize(circuit)
        sim = GateLevelSim(synth)
        counted = sum(len(batch[0]) for batch in sim.level_batches)
        assert counted == synth.eaig.num_gates()


class TestThreadScaling:
    def test_monotone_until_knee(self):
        model = ThreadScalingModel()
        speedups = [model.speedup(t) for t in range(1, 9)]
        assert all(b >= a * 0.98 for a, b in zip(speedups, speedups[1:]))

    def test_paper_degradation_band(self):
        """§IV: 16 threads run at 80–95%% of 8-thread speed."""
        model = ThreadScalingModel()
        assert 0.78 <= model.degradation_16_vs_8() <= 0.96

    def test_eight_thread_speedup_plausible(self):
        # Table II shows roughly 2-4x for 8 threads on real designs.
        model = ThreadScalingModel()
        assert 1.8 <= model.speedup(8) <= 4.5

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            ThreadScalingModel().cycle_time(0)

    def test_sweep_shape(self):
        sweep = ThreadScalingModel().sweep(16)
        assert len(sweep) == 16
        assert sweep[0] == (1, 1.0)
