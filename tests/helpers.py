"""Shared test utilities: random circuit generation and lockstep comparison.

The equivalence strategy of this repository: every engine (word-level
golden sim, gate-level E-AIG sim, and the GEM interpreter itself) exposes
``step(inputs) -> outputs``; tests drive them in lockstep on random and
directed stimuli and require identical output words every cycle.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.eaig import EAIG
from repro.core.synthesis import SynthesisResult
from repro.harness import cosim
from repro.rtl.builder import CircuitBuilder, Value
from repro.rtl.ir import Circuit
from repro.simref.gate_sim import GateLevelSim


def random_circuit(
    seed: int,
    n_ops: int = 60,
    max_width: int = 16,
    with_memory: bool = False,
    with_async_memory: bool = False,
    n_inputs: int = 4,
    n_regs: int = 3,
) -> Circuit:
    """A random synchronous circuit with feedback registers.

    Every generated op's output is a candidate operand for later ops, so
    the result is a connected DAG with registers in feedback loops and all
    word-level op kinds exercised.
    """
    rng = random.Random(seed)
    b = CircuitBuilder(f"rand{seed}")
    widths = [1, 4, 8, max_width]
    pool: list[Value] = []
    for i in range(n_inputs):
        pool.append(b.input(f"in{i}", rng.choice(widths)))
    regs = []
    for i in range(n_regs):
        r = b.reg(f"r{i}", rng.choice(widths), init=rng.randrange(2))
        regs.append(r)
        pool.append(r)

    def pick(width: int | None = None) -> Value:
        if width is None:
            return rng.choice(pool)
        candidates = [v for v in pool if v.width == width]
        if candidates:
            return rng.choice(candidates)
        return rng.choice(pool).resize(width)

    def pick_any_pair() -> tuple[Value, Value]:
        a = pick()
        return a, pick(a.width)

    for _ in range(n_ops):
        kind = rng.randrange(12)
        try:
            if kind == 0:
                a, c = pick_any_pair()
                v = [a & c, a | c, a ^ c][rng.randrange(3)]
            elif kind == 1:
                a, c = pick_any_pair()
                v = [a + c, a - c][rng.randrange(2)]
            elif kind == 2:
                a, c = pick_any_pair()
                if a.width > 12:
                    a, c = a.trunc(8), c.trunc(8)
                v = a * c
            elif kind == 3:
                a, c = pick_any_pair()
                v = [(a == c), (a < c)][rng.randrange(2)].zext(rng.choice(widths))
            elif kind == 4:
                a = pick()
                v = ~a
            elif kind == 5:
                sel = pick(1)
                a, c = pick_any_pair()
                v = b.mux(sel, a, c)
            elif kind == 6:
                a = pick()
                v = [a.reduce_and(), a.reduce_or(), a.reduce_xor()][rng.randrange(3)]
            elif kind == 7:
                a = pick()
                amount = rng.randrange(0, a.width + 2)
                v = (a << amount) if rng.random() < 0.5 else (a >> amount)
            elif kind == 8:
                a = pick()
                c = pick(a.width)
                v = (a << c) if rng.random() < 0.5 else (a >> c)
            elif kind == 9:
                a = pick()
                hi = rng.randrange(a.width)
                lo = rng.randrange(hi + 1)
                v = a[hi:lo]
            elif kind == 10:
                a, c = pick(), pick()
                if a.width + c.width <= 48:
                    v = b.concat(a, c)
                else:
                    v = a
            else:
                a = pick()
                v = a.resize(rng.choice(widths))
            pool.append(v)
        except ValueError:
            continue  # width edge cases; skip this op

    # Registers: connect next states from the pool.
    for r in regs:
        r.next = pick(r.width)

    if with_memory or with_async_memory:
        mem = b.memory("mem", 16, 8, init=[rng.randrange(256) for _ in range(8)])
        addr = pick(4)
        wdata = pick(8)
        wen = pick(1)
        b.write(mem, wen, addr, wdata)
        b.output("mem_s", b.read(mem, addr, sync=True, en=pick(1)))
        if with_async_memory:
            b.output("mem_a", b.read(mem, pick(4), sync=False))

    # Outputs: a handful of pool values (always include register values).
    for i, r in enumerate(regs):
        b.output(f"reg{i}", r)
    for i in range(6):
        b.output(f"o{i}", rng.choice(pool))
    return b.build()


def random_vectors(circuit: Circuit, seed: int, cycles: int) -> list[dict[str, int]]:
    rng = random.Random(seed)
    return [
        {sig.name: rng.getrandbits(sig.width) for sig in circuit.inputs}
        for _ in range(cycles)
    ]


def eaig_sim(eaig: EAIG, outputs: dict[str, list[int]] | None = None) -> GateLevelSim:
    """A hand-built E-AIG on the gate-level simulator: one single-bit
    input per PI, named as the E-AIG names it (``pi<index>`` when it is
    unnamed), in PI order, and one single-bit output per E-AIG output —
    or the words ``outputs`` names (name -> literals, LSB first)."""
    names = [eaig.names.get(node, f"pi{idx}") for idx, node in enumerate(eaig.pis)]
    assert len(set(names)) == len(names), "PI names must be unique"
    synth = SynthesisResult(
        eaig,
        input_bits={name: [2 * node] for name, node in zip(names, eaig.pis)},
        output_bits=outputs or {name: [literal] for name, literal in eaig.outputs},
        memory_reports=[],
    )
    return GateLevelSim(synth)


def pi_inputs(sim: GateLevelSim, bits) -> dict[str, int]:
    """Positional PI values as the inputs of an :func:`eaig_sim`."""
    return dict(zip(sim.synth.input_bits, bits, strict=True))


def lockstep(engines: dict[str, object], stimuli: list[dict[str, int]]) -> None:
    """Drive all engines with the same stimuli (the first is the
    reference); assert identical outputs."""
    (reference, golden), *duts = engines.items()
    site, _ = cosim.lockstep(golden, dict(duts), stimuli)
    assert site is None, (
        f"cycle {site.cycle}: {site.dut} diverged from {reference}: "
        f"{site.signals} on inputs {stimuli[site.cycle]}"
    )


def brute_force_site(reference, duts: dict[str, object], stimuli: list) -> tuple | None:
    """What :func:`repro.harness.cosim.lockstep` must report, the slow
    way: every participant driven one cycle per call and every output
    dict compared — ``(cycle, dut, lane, signals)`` of the first
    difference (lowest cycle, then DUT in order, then lowest lane; lane
    ``None`` when the cycle's outputs are one dict)."""
    lanes = isinstance(reference, list)
    for cycle, row in enumerate(stimuli):
        if lanes:
            want = [engine.run([vec])[0] for engine, vec in zip(reference, row)]
        else:
            want = [reference.run([row])[0]]
        for name, dut in duts.items():
            got = dut.run_lanes([row])[0] if lanes else dut.run([row])
            for lane, (ref_out, dut_out) in enumerate(zip(want, got)):
                if ref_out != dut_out:
                    differ = sorted(k for k in ref_out if ref_out[k] != dut_out[k])
                    return cycle, name, lane if lanes else None, differ
    return None


# -- per-bit reference conversions the lane and pack-layer tests compare against --


def int_to_bits(value: int, nbits: int) -> np.ndarray:
    """Little-endian bit vector of ``value`` (bool, vectorized, any width)."""
    nbytes = (nbits + 7) // 8
    raw = np.frombuffer(
        (value & ((1 << nbits) - 1)).to_bytes(nbytes, "little"), dtype=np.uint8
    )
    return np.unpackbits(raw, bitorder="little")[:nbits].astype(bool)


def bits_to_int(bits: np.ndarray) -> int:
    """Inverse of :func:`int_to_bits` (accepts any 0/1 integer array)."""
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")
