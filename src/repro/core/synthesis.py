"""Word-level RTL → E-AIG synthesis (paper §III-B).

The paper feeds Verilog through Yosys (RAM mapping) and a commercial ASIC
synthesizer with a fake AND/OR/INV/FF library whose timing model makes
timing-driven synthesis equivalent to *depth* optimization.  This module is
our equivalent: it lowers every word-level op of an RTL
:class:`~repro.rtl.ir.Circuit` into AND/INV logic using depth-optimized
constructions:

* carry operators use Kogge–Stone parallel-prefix networks (log-depth
  adders, subtractors and unsigned comparators);
* multipliers reduce partial products with 3:2 carry-save compressors
  (Wallace style) before one final prefix adder;
* reductions and decoders use level-aware Huffman tree balancing — operands
  are merged shallowest-first, which is optimal when input depths differ;
* structural hashing and constant folding happen in :class:`EAIG` itself.

Behavioral memories are delegated to :mod:`repro.core.ram_mapping`.

The output is a :class:`SynthesisResult` carrying the E-AIG plus the
word-level I/O binding; :class:`repro.simref.gate_sim.GateLevelSim` runs
it with word-valued I/O, which is how the test suite proves the lowering
correct against :class:`repro.rtl.netlist.WordSim`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.config import SynthesisConfig
from repro.core.eaig import EAIG, FALSE, TRUE, lit_not
from repro.core.ram_mapping import MappedMemory, MappingReport, map_memory
from repro.rtl.ir import Circuit, Op, OpKind, Signal
from repro.rtl.netlist import Netlist


@dataclass
class SynthesisResult:
    """E-AIG plus word-level I/O binding for a synthesized circuit."""

    eaig: EAIG
    #: circuit input name -> PI literals (LSB first)
    input_bits: dict[str, list[int]]
    #: circuit output name -> literals (LSB first)
    output_bits: dict[str, list[int]]
    #: per-memory mapping accounting (blocks vs polyfill)
    memory_reports: list[MappingReport]


# ---------------------------------------------------------------------------
# Bit-level operator library
# ---------------------------------------------------------------------------


def reduce_tree(eaig: EAIG, lits: Sequence[int], combine: Callable[[int, int], int], empty: int) -> int:
    """Level-aware (Huffman) tree reduction: merge two shallowest first."""
    if not lits:
        return empty
    heap = [(eaig.lit_level(literal), i, literal) for i, literal in enumerate(lits)]
    heapq.heapify(heap)
    counter = len(lits)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        merged = combine(a, b)
        heapq.heappush(heap, (eaig.lit_level(merged), counter, merged))
        counter += 1
    return heap[0][2]


def tree_and(eaig: EAIG, lits: Sequence[int]) -> int:
    return reduce_tree(eaig, lits, eaig.add_and, TRUE)


def tree_or(eaig: EAIG, lits: Sequence[int]) -> int:
    return reduce_tree(eaig, lits, eaig.add_or, FALSE)


def tree_xor(eaig: EAIG, lits: Sequence[int]) -> int:
    return reduce_tree(eaig, lits, eaig.add_xor, FALSE)


def const_bits(value: int, width: int) -> list[int]:
    return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]


def prefix_carries(eaig: EAIG, g: list[int], p: list[int], cin: int) -> list[int]:
    """Kogge–Stone prefix network: carries[0..n] given generate/propagate."""
    n = len(g)
    G = list(g)
    P = list(p)
    dist = 1
    while dist < n:
        new_g = list(G)
        new_p = list(P)
        for i in range(dist, n):
            new_g[i] = eaig.add_or(G[i], eaig.add_and(P[i], G[i - dist]))
            new_p[i] = eaig.add_and(P[i], P[i - dist])
        G, P = new_g, new_p
        dist <<= 1
    carries = [cin]
    for i in range(n):
        carries.append(eaig.add_or(G[i], eaig.add_and(P[i], cin)))
    return carries


def add_words(eaig: EAIG, a: Sequence[int], b: Sequence[int], cin: int = FALSE) -> tuple[list[int], int]:
    """Log-depth adder; returns (sum bits, carry out)."""
    if len(a) != len(b):
        raise ValueError("adder operands must have equal width")
    g = [eaig.add_and(x, y) for x, y in zip(a, b)]
    p = [eaig.add_xor(x, y) for x, y in zip(a, b)]
    carries = prefix_carries(eaig, g, p, cin)
    total = [eaig.add_xor(p[i], carries[i]) for i in range(len(a))]
    return total, carries[len(a)]


def sub_words(eaig: EAIG, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """a - b via a + ~b + 1; second result is the carry (a >= b)."""
    nb = [lit_not(x) for x in b]
    return add_words(eaig, list(a), nb, cin=TRUE)


def less_than(eaig: EAIG, a: Sequence[int], b: Sequence[int]) -> int:
    """Unsigned a < b."""
    _, carry = sub_words(eaig, a, b)
    return lit_not(carry)


def equal_words(eaig: EAIG, a: Sequence[int], b: Sequence[int]) -> int:
    xnors = [lit_not(eaig.add_xor(x, y)) for x, y in zip(a, b)]
    return tree_and(eaig, xnors)


def mux_words(eaig: EAIG, sel: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [eaig.add_mux(sel, x, y) for x, y in zip(a, b)]


def csa(eaig: EAIG, x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> tuple[list[int], list[int]]:
    """3:2 carry-save compressor over equal-width vectors.

    Returns (sum, carry) where ``x + y + z == sum + carry`` and carry is
    already shifted left by one position (width preserved, overflow drops).
    """
    n = len(x)
    s = [tree_xor(eaig, [x[i], y[i], z[i]]) for i in range(n)]
    maj = [
        tree_or(eaig, [eaig.add_and(x[i], y[i]), eaig.add_and(x[i], z[i]), eaig.add_and(y[i], z[i])])
        for i in range(n)
    ]
    carry = [FALSE] + maj[: n - 1]
    return s, carry


def multiply(eaig: EAIG, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Wallace-style multiplier truncated to the operand width."""
    n = len(a)
    rows: list[list[int]] = []
    for j in range(n):
        row = [FALSE] * j + [eaig.add_and(a[i], b[j]) for i in range(n - j)]
        rows.append(row)
    while len(rows) > 2:
        next_rows: list[list[int]] = []
        for k in range(0, len(rows) - 2, 3):
            s, c = csa(eaig, rows[k], rows[k + 1], rows[k + 2])
            next_rows.extend((s, c))
        next_rows.extend(rows[len(rows) - (len(rows) % 3) :])
        rows = next_rows
    if len(rows) == 1:
        return list(rows[0])
    total, _ = add_words(eaig, rows[0], rows[1])
    return total


def shift_words(eaig: EAIG, a: Sequence[int], amount: Sequence[int], left: bool) -> list[int]:
    """Barrel shifter; amounts >= width produce zero (RTL semantics)."""
    n = len(a)
    result = list(a)
    stages = max(1, (n - 1).bit_length()) if n > 1 else 1
    for k in range(min(len(amount), stages)):
        shift = 1 << k
        if left:
            shifted = [FALSE] * shift + result[: n - shift]
        else:
            shifted = result[shift:] + [FALSE] * shift
        result = mux_words(eaig, amount[k], shifted, result)
    oversize = tree_or(eaig, list(amount[stages:]))
    if oversize != FALSE:
        keep = lit_not(oversize)
        result = [eaig.add_and(bit, keep) for bit in result]
    return result


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def synthesize(circuit: Circuit | Netlist, config: SynthesisConfig | None = None) -> SynthesisResult:
    """Lower a word-level circuit to an E-AIG (the paper's compile step 1)."""
    config = config or SynthesisConfig()
    netlist = circuit if isinstance(circuit, Netlist) else Netlist(circuit)
    circ = netlist.circuit
    eaig = EAIG(circ.name)
    env: dict[int, list[int]] = {}

    def lits_of(sig: Signal) -> list[int]:
        return env[sig.uid]

    input_bits: dict[str, list[int]] = {}
    for sig in circ.inputs:
        bits = [eaig.add_pi(f"{sig.name}[{i}]") for i in range(sig.width)]
        env[sig.uid] = bits
        input_bits[sig.name] = bits

    ff_ops: list[Op] = []
    for op in circ.ops:
        if op.kind is OpKind.CONST:
            env[op.out.uid] = const_bits(op.attrs["value"], op.out.width)
        elif op.kind is OpKind.REG:
            init = op.attrs.get("init", 0)
            env[op.out.uid] = [
                eaig.add_ff(init=(init >> i) & 1, name=f"{op.out.name}[{i}]")
                for i in range(op.out.width)
            ]
            ff_ops.append(op)

    mapped: dict[str, MappedMemory] = {}
    for mem in circ.memories:
        mapped[mem.name] = map_memory(eaig, mem, config.ram)
    # Synchronous read data is state: publish it before combinational lowering.
    for op in circ.ops:
        if op.kind is OpKind.MEMRD and op.attrs["sync"]:
            data = mapped[op.attrs["memory"]].sync_read_data(op.attrs["port"])
            env[op.out.uid] = list(data[: op.out.width])

    for op in netlist.order:
        env[op.out.uid] = _lower(eaig, op, env, mapped)

    output_bits: dict[str, list[int]] = {}
    for name, sig in circ.outputs:
        bits = env[sig.uid]
        output_bits[name] = bits
        for i, literal in enumerate(bits):
            eaig.add_output(f"{name}[{i}]", literal)

    for op in ff_ops:
        d_bits = env[op.inputs[0].uid]
        for ff_lit, d in zip(env[op.out.uid], d_bits):
            eaig.set_ff_input(ff_lit, d)
    for mem in circ.memories:
        mapped[mem.name].finalize(lits_of)

    eaig.check()
    return SynthesisResult(
        eaig=eaig,
        input_bits=input_bits,
        output_bits=output_bits,
        memory_reports=[m.report for m in mapped.values()],
    )


def _lower(eaig: EAIG, op: Op, env: dict[int, list[int]], mapped: dict[str, MappedMemory]) -> list[int]:
    """Lower one combinational word-level op to literals."""
    kind = op.kind
    ins = [env[s.uid] for s in op.inputs]
    width = op.out.width
    if kind is OpKind.AND:
        return [eaig.add_and(a, b) for a, b in zip(*ins)]
    if kind is OpKind.OR:
        return [eaig.add_or(a, b) for a, b in zip(*ins)]
    if kind is OpKind.XOR:
        return [eaig.add_xor(a, b) for a, b in zip(*ins)]
    if kind is OpKind.NOT:
        return [lit_not(a) for a in ins[0]]
    if kind is OpKind.ADD:
        total, _ = add_words(eaig, ins[0], ins[1])
        return total
    if kind is OpKind.SUB:
        total, _ = sub_words(eaig, ins[0], ins[1])
        return total
    if kind is OpKind.MUL:
        return multiply(eaig, ins[0], ins[1])
    if kind is OpKind.EQ:
        return [equal_words(eaig, ins[0], ins[1])]
    if kind is OpKind.LT:
        return [less_than(eaig, ins[0], ins[1])]
    if kind is OpKind.MUX:
        sel, a, b = ins
        return mux_words(eaig, sel[0], a, b)
    if kind is OpKind.REDAND:
        return [tree_and(eaig, ins[0])]
    if kind is OpKind.REDOR:
        return [tree_or(eaig, ins[0])]
    if kind is OpKind.REDXOR:
        return [tree_xor(eaig, ins[0])]
    if kind is OpKind.SHLI:
        amount = op.attrs["amount"]
        if amount >= width:
            return [FALSE] * width
        return [FALSE] * amount + list(ins[0][: width - amount])
    if kind is OpKind.SHRI:
        amount = op.attrs["amount"]
        if amount >= width:
            return [FALSE] * width
        return list(ins[0][amount:]) + [FALSE] * amount
    if kind is OpKind.SHL:
        return shift_words(eaig, ins[0], ins[1], left=True)
    if kind is OpKind.SHR:
        return shift_words(eaig, ins[0], ins[1], left=False)
    if kind is OpKind.SLICE:
        lo = op.attrs["lo"]
        return list(ins[0][lo : lo + width])
    if kind is OpKind.CONCAT:
        bits: list[int] = []
        for vec in ins:
            bits.extend(vec)
        return bits
    if kind is OpKind.MEMRD:  # asynchronous read port (sync handled earlier)
        mm = mapped[op.attrs["memory"]]
        data = mm.async_read_data(op.attrs["port"], ins[0])
        return list(data[:width])
    raise NotImplementedError(f"cannot lower {kind}")
