"""Synthesis correctness: word-level lowering vs the golden WordSim.

These are the paper's §III-B guarantees: the E-AIG implements the RTL
exactly, and the arithmetic constructions are depth-optimized (log-depth
carry networks).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eaig import EAIG, FALSE, TRUE
from repro.core.synthesis import (
    add_words,
    const_bits,
    equal_words,
    less_than,
    multiply,
    shift_words,
    sub_words,
    synthesize,
    tree_and,
    tree_or,
    tree_xor,
)
from repro.rtl import CircuitBuilder, Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim
from tests.helpers import eaig_sim, lockstep, pi_inputs, random_circuit, random_vectors


def _bits_of(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def _eval_bits(eaig: EAIG, pi_values: list[int], literals: list[int]) -> int:
    sim = eaig_sim(eaig, {"value": list(literals)})
    return sim.step(pi_inputs(sim, pi_values))["value"]


class TestOperatorLibrary:
    W = 6
    MASK = (1 << W) - 1

    def _operands(self):
        g = EAIG()
        a = [g.add_pi(f"a{i}") for i in range(self.W)]
        b = [g.add_pi(f"b{i}") for i in range(self.W)]
        return g, a, b

    @given(st.integers(0, MASK), st.integers(0, MASK), st.integers(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_adder_exhaustive_random(self, x, y, cin):
        g, a, b = self._operands()
        total, carry = add_words(g, a, b, TRUE if cin else FALSE)
        got = _eval_bits(g, _bits_of(x, self.W) + _bits_of(y, self.W), total + [carry])
        expect = x + y + cin
        assert got == expect

    @given(st.integers(0, MASK), st.integers(0, MASK))
    @settings(max_examples=80, deadline=None)
    def test_subtract_and_compare(self, x, y):
        g, a, b = self._operands()
        diff, _ = sub_words(g, a, b)
        lt = less_than(g, a, b)
        eq = equal_words(g, a, b)
        pis = _bits_of(x, self.W) + _bits_of(y, self.W)
        assert _eval_bits(g, pis, diff) == (x - y) & self.MASK
        assert _eval_bits(g, pis, [lt]) == int(x < y)
        assert _eval_bits(g, pis, [eq]) == int(x == y)

    @given(st.integers(0, MASK), st.integers(0, MASK))
    @settings(max_examples=60, deadline=None)
    def test_multiplier(self, x, y):
        g, a, b = self._operands()
        product = multiply(g, a, b)
        pis = _bits_of(x, self.W) + _bits_of(y, self.W)
        assert _eval_bits(g, pis, product) == (x * y) & self.MASK

    @given(st.integers(0, MASK), st.integers(0, MASK), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_barrel_shifter(self, x, amount, left):
        g, a, b = self._operands()
        shifted = shift_words(g, a, b, left=left)
        pis = _bits_of(x, self.W) + _bits_of(amount, self.W)
        if left:
            expect = (x << amount) & self.MASK if amount < self.W else 0
        else:
            expect = x >> amount if amount < self.W else 0
        assert _eval_bits(g, pis, shifted) == expect

    @given(st.integers(0, MASK))
    @settings(max_examples=40, deadline=None)
    def test_reductions(self, x):
        g, a, _ = self._operands()
        pis = _bits_of(x, self.W) + [0] * self.W
        assert _eval_bits(g, pis, [tree_and(g, a)]) == int(x == self.MASK)
        assert _eval_bits(g, pis, [tree_or(g, a)]) == int(x != 0)
        assert _eval_bits(g, pis, [tree_xor(g, a)]) == bin(x).count("1") % 2

    def test_empty_reductions(self):
        g = EAIG()
        assert tree_and(g, []) == TRUE
        assert tree_or(g, []) == FALSE
        assert tree_xor(g, []) == FALSE

    def test_const_bits(self):
        assert const_bits(0b1010, 4) == [FALSE, TRUE, FALSE, TRUE]


class TestDepthOptimality:
    def test_adder_depth_is_logarithmic(self):
        """The paper requires depth-optimized synthesis; a ripple adder
        would be depth O(W), Kogge-Stone must stay O(log W)."""
        for W in (8, 16, 32, 64):
            g = EAIG()
            a = [g.add_pi() for _ in range(W)]
            b = [g.add_pi() for _ in range(W)]
            total, carry = add_words(g, a, b)
            depth = max(g.lit_level(t) for t in total + [carry])
            assert depth <= 3 * math.ceil(math.log2(W)) + 4, (W, depth)

    def test_reduction_depth_is_logarithmic(self):
        g = EAIG()
        a = [g.add_pi() for _ in range(64)]
        out = tree_and(g, a)
        assert g.lit_level(out) <= 7

    def test_huffman_merging_prefers_shallow(self):
        # One deep literal + many shallow: balanced reduce keeps the deep
        # literal near the root instead of serializing after it.
        g = EAIG()
        deep = g.add_pi()
        for _ in range(5):
            deep = g.add_and(deep, g.add_pi())
        shallow = [g.add_pi() for _ in range(8)]
        out = tree_and(g, [deep] + shallow)
        assert g.lit_level(out) <= g.lit_level(deep) + 2


class TestCircuitSynthesis:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_equivalent(self, seed):
        circuit = random_circuit(seed, n_ops=50)
        word = WordSim(Netlist(circuit))
        synth = GateLevelSim(synthesize(circuit))
        lockstep({"word": word, "eaig": synth}, random_vectors(circuit, seed + 100, 40))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_with_memory(self, seed):
        circuit = random_circuit(seed + 50, n_ops=40, with_memory=True, with_async_memory=True)
        word = WordSim(Netlist(circuit))
        synth = GateLevelSim(synthesize(circuit))
        lockstep({"word": word, "eaig": synth}, random_vectors(circuit, seed + 200, 40))

    def test_io_binding_complete(self):
        circuit = random_circuit(1, n_ops=30)
        result = synthesize(circuit)
        assert set(result.input_bits) == {s.name for s in circuit.inputs}
        assert set(result.output_bits) == {name for name, _ in circuit.outputs}
        for sig in circuit.inputs:
            assert len(result.input_bits[sig.name]) == sig.width

    def test_register_init_values(self):
        b = CircuitBuilder()
        r = b.reg("r", 8, init=0xA5)
        r.next = r
        b.output("q", r)
        sim = GateLevelSim(synthesize(b.build()))
        assert sim.step({})["q"] == 0xA5
