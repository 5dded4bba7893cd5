"""Run one workload on every level of the flow and compare them.

Run:  python examples/compare_simulators.py

Drives the same OpenPiton-like workload through the golden word-level
simulator, the gate-level simulator of the synthesized E-AIG (the GL0AM
stand-in, whose counts also drive the commercial event-driven model) and
the GEM interpreter, verifying they agree cycle-for-cycle and reporting
each engine's host wall-clock plus the activity statistics the performance
models consume.
"""

import time

from repro.core.compiler import GemCompiler
from repro.core.synthesis import synthesize
from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like
from repro.designs.workloads import openpiton_workloads
from repro.rtl import Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim


def main() -> None:
    scale = OpenPitonScale(cores=2, imem_depth=128, dmem_depth=128)
    circuit = build_openpiton_like(scale)
    wl = openpiton_workloads(cores=2, dmem_depth=128)["ldst_quad2"]
    synth = synthesize(circuit)
    print(f"design: {circuit.name}, E-AIG {synth.eaig.num_gates()} gates, "
          f"workload {wl.name} ({wl.cycles} cycles)")

    print("compiling for GEM...")
    design = GemCompiler().compile(circuit)
    engines = {
        "word (golden)": WordSim(Netlist(circuit)),
        "gate-level": GateLevelSim(synth),
        "GEM interpreter": design.simulator(),
    }

    results = {}
    timings = {}
    for name, engine in engines.items():
        t0 = time.time()
        results[name] = [engine.step(vec) for vec in wl.stimuli]
        timings[name] = time.time() - t0

    reference = results["word (golden)"]
    print(f"\n{'engine':24s} {'host time':>10s} {'host Hz':>10s}  agrees")
    for name in engines:
        agrees = results[name] == reference
        hz = wl.cycles / timings[name]
        print(f"{name:24s} {timings[name]:9.2f}s {hz:9.0f}  {'✓' if agrees else '✗'}")
        assert agrees, name

    gl = engines["gate-level"]
    gem = engines["GEM interpreter"]
    print("\nactivity statistics (performance-model inputs):")
    print(f"  signal events / cycle (commercial model): {gl.events_per_cycle:8.1f}")
    print(f"  gate toggles  / cycle (GL0AM model):      {gl.toggles_per_cycle:8.1f}")
    print(f"  GEM per-cycle work: {gem.counters.per_cycle()}")
    print(f"\nworkload output stream matches the software model: "
          f"{[o['out0'] for o in reference if o.get('out_valid0')] == wl.expected_out}")


if __name__ == "__main__":
    main()
