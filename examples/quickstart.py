"""Quickstart: describe a circuit, compile it for GEM, simulate it.

Run:  python examples/quickstart.py

Walks the whole pipeline on a small design — a pipelined multiply-
accumulate unit with a coefficient table in RAM — and cross-checks the GEM
interpreter against the golden word-level simulator on random stimuli.
"""

import random

from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.core.ram_mapping import RamMappingConfig
from repro.core.synthesis import SynthesisConfig
from repro.harness.cosim import cosim
from repro.rtl import CircuitBuilder, Netlist, WordSim


def build_mac_unit():
    """y[t+1] = relu(coeff[sel] * x + y[t]), coefficients host-loadable."""
    b = CircuitBuilder("mac_unit")
    x = b.input("x", 16)
    sel = b.input("sel", 4)
    coeff_wen = b.input("coeff_wen", 1)
    coeff_data = b.input("coeff_data", 16)

    coeffs = b.memory("coeffs", 16, 16, init=[1, 2, 3, 5, 8, 13, 21, 34])
    b.write(coeffs, coeff_wen, sel, coeff_data)
    c = b.read(coeffs, sel, sync=True)  # synchronous: maps to a RAM block

    acc = b.reg("acc", 32)
    product = c.zext(32) * x.zext(32)
    total = acc + product
    relu = b.mux(total[31], b.const(0, 32), total)  # clamp "negative" MSB
    acc.next = relu

    b.output("acc", acc)
    b.output("coeff", c)
    return b.build()


def main() -> None:
    circuit = build_mac_unit()
    print(f"built {circuit.name}: {circuit.stats()['ops']} word-level ops")

    # Compile: synthesis -> E-AIG -> RepCut -> merging -> placement -> bitstream.
    # A small virtual core (512-bit) keeps this demo instructive; the paper's
    # core is 8192 bits (BoomerangConfig() default).
    config = GemConfig(
        synthesis=SynthesisConfig(ram=RamMappingConfig(addr_bits=4, data_bits=16)),
        partition=PartitionConfig(gates_per_partition=600),
        boomerang=BoomerangConfig(width_log2=9),
    )
    design = GemCompiler(config).compile(circuit)
    report = design.report
    print("compile report (the paper's Table I columns):")
    for key, value in report.row().items():
        print(f"  {key:14s} {value}")
    print(f"  {'utilization':14s} {report.mean_utilization:.1%}")

    # Execute on the GEM interpreter and on the golden model, in lockstep.
    gem = design.simulator()
    rng = random.Random(0)
    stimuli = []
    for _ in range(200):
        stimulus = {"x": rng.getrandbits(16), "sel": rng.getrandbits(3)}
        if rng.random() < 0.1:
            stimulus.update(coeff_wen=1, coeff_data=rng.getrandbits(16))
        stimuli.append(stimulus)
    result = cosim(WordSim(Netlist(circuit)), gem, stimuli)
    assert result.passed, result.report()
    print("200 random cycles: GEM output bit-exact against the golden model ✓")
    print(f"final accumulator: {result.trace[-1]['acc']:#010x}")
    print("per-cycle interpreter work:", gem.counters.per_cycle())


if __name__ == "__main__":
    main()
