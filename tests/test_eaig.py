"""E-AIG structure, strashing, and its semantics on the gate-level simulator."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import depth_opt
from repro.core.compiler import compile_circuit
from repro.core.eaig import EAIG, FALSE, TRUE, NodeKind, lit_not
from repro.core.synthesis import synthesize
from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like
from repro.fourstate.dualrail import to_dual_rail
from repro.harness.runner import DESIGNS
from tests.helpers import eaig_sim, pi_inputs, random_circuit


class TestLiterals:
    def test_constants(self):
        assert FALSE == 0
        assert TRUE == 1
        assert lit_not(FALSE) == TRUE


#: designs whose optimized graphs :class:`TestStrash` probes: the cold
#: benchmark's and a dual-rail one (4-state compiles run depth_opt too)
STRASH_CASES = {
    "openpiton3": lambda: build_openpiton_like(OpenPitonScale(cores=3)),
    "dual-rail": lambda: to_dual_rail(
        random_circuit(11, n_ops=60, n_regs=4, with_memory=True)
    ).circuit,
}


def _assert_strash_finds_every_and(g: EAIG) -> None:
    ands = [node for node, kind in enumerate(g.kind) if kind is NodeKind.AND]
    size = len(g)
    for node in ands:
        assert g.add_and(g.fanin0[node], g.fanin1[node]) == 2 * node
        assert g.add_and(g.fanin1[node], g.fanin0[node]) == 2 * node
    assert len(g) == size and g.num_gates() == len(ands) > 0


class TestStrash:
    def test_and_constant_folding(self):
        g = EAIG()
        a = g.add_pi("a")
        assert g.add_and(a, FALSE) == FALSE
        assert g.add_and(a, TRUE) == a
        assert g.add_and(a, a) == a
        assert g.add_and(a, lit_not(a)) == FALSE

    def test_structural_hashing_dedupes(self):
        g = EAIG()
        a = g.add_pi()
        b = g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(b, a)  # commuted
        assert x == y
        assert g.num_gates() == 1

    def test_or_xor_mux_built_from_ands(self):
        g = EAIG()
        a = g.add_pi()
        b = g.add_pi()
        g.add_or(a, b)
        g.add_xor(a, b)
        sel = g.add_pi()
        g.add_mux(sel, a, b)
        assert g.num_gates() > 0

    def test_mux_simplifications(self):
        g = EAIG()
        a = g.add_pi()
        b = g.add_pi()
        sel = g.add_pi()
        assert g.add_mux(sel, a, a) == a
        assert g.add_mux(TRUE, a, b) == a
        assert g.add_mux(FALSE, a, b) == b

    def test_key_is_one_int(self):
        g = EAIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(b, lit_not(a))  # normalised to (~a, b): ~a < b
        assert g._strash == {lit_not(a) << 32 | b: x >> 1}

    def test_check_bounds_the_node_count(self, monkeypatch):
        g = EAIG()
        g.add_output("y", g.add_and(g.add_pi(), g.add_pi()))
        g.check()
        monkeypatch.setattr(EAIG, "MAX_NODES", len(g))
        with pytest.raises(ValueError, match="strash key"):
            g.check()

    @pytest.mark.parametrize("loops", ["native_loops", "python_loops"])
    @pytest.mark.parametrize("case", sorted(STRASH_CASES))
    def test_every_and_found_again_after_depth_opt(self, case, loops, request):
        """``add_and`` on an AND's own fan-ins returns that AND and adds
        nothing, on every construction path: the builder, both rebuild
        loops (the native one fills the strash from arrays) and a pickle
        round trip (the form a flow file holds)."""
        request.getfixturevalue(loops)
        synth = synthesize(STRASH_CASES[case]())
        _assert_strash_finds_every_and(synth.eaig)
        optimized = depth_opt.optimize(synth).eaig
        _assert_strash_finds_every_and(optimized)
        _assert_strash_finds_every_and(pickle.loads(pickle.dumps(optimized)))


class TestState:
    def test_ff_two_phase_wiring(self):
        g = EAIG()
        a = g.add_pi()
        q = g.add_ff(init=1)
        g.set_ff_input(q, lit_not(a))
        g.add_output("q", q)
        g.check()

    def test_pending_ff_fails_check(self):
        g = EAIG()
        g.add_ff()
        with pytest.raises(ValueError, match="no d input"):
            g.check()

    def test_ff_input_set_twice_rejected(self):
        g = EAIG()
        q = g.add_ff()
        g.set_ff_input(q, TRUE)
        with pytest.raises(ValueError, match="already set"):
            g.set_ff_input(q, FALSE)

    def test_ram_requires_full_ports(self):
        g = EAIG()
        ram = g.add_ram("r", addr_bits=2, data_bits=4)
        with pytest.raises(ValueError, match="address ports incomplete"):
            g.check()
        ram.raddr = [FALSE] * 2
        ram.waddr = [FALSE] * 2
        ram.wdata = [FALSE] * 4
        g.check()


class TestAnalysis:
    def test_levels_count_ands_only(self):
        g = EAIG()
        a = g.add_pi()
        b = g.add_pi()
        x = g.add_and(a, b)  # level 1
        y = g.add_and(x, lit_not(b))  # level 2; inversion is free
        g.add_output("y", y)
        assert g.depth() == 2
        assert g.lit_level(y) == 2

    def test_level_histogram(self):
        g = EAIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_and(x, c)
        hist = g.level_histogram()
        assert hist == {1: 1, 2: 1}

    def test_cone(self):
        g = EAIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        cone = g.cone([y])
        assert cone == {x >> 1, y >> 1}

    def test_fanout_counts(self):
        g = EAIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_and(x, lit_not(a))
        g.add_output("o", x)
        counts = g.fanout_counts()
        assert counts[x >> 1] == 2  # one AND consumer + one output

    def test_stats(self):
        g = EAIG("t")
        a = g.add_pi()
        q = g.add_ff()
        g.set_ff_input(q, a)
        s = g.stats()
        assert s["pis"] == 1 and s["ffs"] == 1


class TestEAIGSemantics:
    def _xor_graph(self):
        g = EAIG()
        a = g.add_pi("a")
        b = g.add_pi("b")
        g.add_output("y", g.add_xor(a, b))
        return g

    @given(st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=8, deadline=None)
    def test_xor_truth_table(self, a, b):
        sim = eaig_sim(self._xor_graph())
        assert sim.step({"a": a, "b": b})["y"] == a ^ b

    def test_ff_sequence(self):
        g = EAIG()
        a = g.add_pi("a")
        q = g.add_ff(init=0, name="q")
        g.set_ff_input(q, g.add_xor(a, q))
        g.add_output("q", q)
        sim = eaig_sim(g)
        seq = [1, 1, 0, 1]
        expect = []
        state = 0
        for bit in seq:
            expect.append(state)
            state ^= bit
        got = [sim.step({"a": bit})["q"] for bit in seq]
        assert got == expect

    def test_ram_read_write(self):
        g = EAIG()
        ram = g.add_ram("m", addr_bits=2, data_bits=4, init=[5])
        addr = [g.add_pi(f"a{i}") for i in range(2)]
        data = [g.add_pi(f"d{i}") for i in range(4)]
        wen = g.add_pi("wen")
        ram.raddr = list(addr)
        ram.ren = TRUE
        ram.waddr = list(addr)
        ram.wdata = list(data)
        ram.wen = wen
        q = [2 * node for node in ram.data_nodes]
        sim = eaig_sim(g, {"q": q})

        def step(a, d, w):
            bits = [(a >> 0) & 1, (a >> 1) & 1] + [(d >> i) & 1 for i in range(4)] + [w]
            return sim.step(pi_inputs(sim, bits))["q"]

        step(0, 0, 0)
        assert step(0, 0, 0) == 5  # init value at addr 0
        step(2, 9, 1)  # write 9 to addr 2 (read-first: sampled old)
        assert step(2, 0, 0) == 0  # read of addr 2 sampled before write
        assert step(0, 0, 0) == 9  # now the write is visible


# -- the array view and the O(1) counts ------------------------------------------


def _assert_view(g: EAIG) -> None:
    arrays = g.arrays()
    assert arrays.kind.dtype.name == "int8" and arrays.fanin0.dtype.name == "int64"
    assert arrays.kind.tolist() == [int(k) for k in g.kind]
    assert arrays.fanin0.tolist() == g.fanin0
    assert arrays.fanin1.tolist() == g.fanin1
    assert arrays.level.tolist() == g.level_of
    assert not any(a.flags.writeable for a in arrays)


def _assert_counts(g: EAIG) -> None:
    """``num_gates`` against a kind scan, ``levels``/``depth`` against the
    recursive definition (AND = 1 + max of its fan-ins, sources 0), and
    ``fanout_counts``/``level_histogram`` (dict order too) against their
    loops."""
    assert g.num_gates() == sum(1 for k in g.kind if k is NodeKind.AND)
    level = [0] * len(g)
    fanout = [0] * len(g)
    hist: dict[int, int] = {}
    for node, kind in enumerate(g.kind):
        if kind is NodeKind.AND:
            level[node] = 1 + max(level[g.fanin0[node] >> 1], level[g.fanin1[node] >> 1])
            fanout[g.fanin0[node] >> 1] += 1
            fanout[g.fanin1[node] >> 1] += 1
            hist[level[node]] = hist.get(level[node], 0) + 1
        elif kind is NodeKind.FF:
            fanout[g.fanin0[node] >> 1] += 1
    ports = [literal for ram in g.rams for literal in ram.port_literals()]
    for literal in ports + [literal for _, literal in g.outputs]:
        fanout[literal >> 1] += 1
    assert g.levels() == level
    assert g.depth() == max(level)
    assert g.fanout_counts().tolist() == fanout
    assert list(g.level_histogram().items()) == list(hist.items())


class TestArrays:
    def test_view_is_memoised_and_dropped_by_every_mutation(self):
        g = EAIG()
        a, b = g.add_pi(), g.add_pi()
        q = g.add_ff()
        x = g.add_and(a, lit_not(b))
        view = g.arrays()
        assert g.arrays() is view
        _assert_view(g)
        assert g.add_and(lit_not(b), a) == x and g.arrays() is view  # a strash hit adds nothing
        y = g.add_and(x, q)
        assert g.arrays() is not view
        _assert_view(g)
        view = g.arrays()
        g.set_ff_input(q, y)
        assert g.arrays() is not view and g.arrays().fanin0[q >> 1] == y
        _assert_view(g)
        g.add_ram("m", addr_bits=1, data_bits=2)
        _assert_view(g)
        view = g.arrays()
        g.drop_arrays()
        assert g.arrays() is not view

    def test_view_is_never_pickled(self):
        g = EAIG()
        g.add_output("y", g.add_and(g.add_pi(), g.add_pi()))
        without = pickle.dumps(g)  # the form of a flow file written before the view
        g.arrays()
        assert pickle.dumps(g) == without
        loaded = pickle.loads(without)
        assert "_arrays" not in vars(loaded)
        _assert_view(loaded)

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_counts_on_registered_designs(self, name):
        synth = synthesize(DESIGNS[name].build())
        _assert_counts(synth.eaig)
        _assert_counts(depth_opt.optimize(synth).eaig)

    def test_counts_on_a_dual_rail_compile(self):
        design = compile_circuit(random_circuit(11, n_ops=60, n_regs=4), values=4)
        assert design.fourstate is not None
        assert vars(design.synth.eaig).get("_arrays") is None, "the compile kept its view"
        _assert_counts(design.synth.eaig)
        _assert_view(design.synth.eaig)
