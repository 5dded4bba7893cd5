"""RAM-adapter edge-case matrix vs the word-level golden model (§III-B).

The adapter synthesis paths — width chunking onto 32-bit native blocks,
bank splitting past 13 address bits, and FF polyfill for the shapes
blocks cannot host — were previously covered only by the five curated
designs.  This matrix pins the extremes: 1-bit and 33-bit words, depth 1,
a depth-8193 request (which rounds up to 16384 and therefore splits into
two native banks), and read-during-write on both ports of a dual-read
memory at the same address (read-first semantics everywhere).

Every case runs three independent implementations in lockstep: the
word-level golden model, the synthesized gate-level reference (the first
engine that actually contains the adapter logic), and the fused GEM
engine over the assembled bitstream.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compiler import GemCompiler, GemConfig
from repro.core.boomerang import BoomerangConfig
from repro.core.partition import PartitionConfig
from repro.fuzz.designgen import DesignSpec, MemSpec, _pow2_depth
from repro.rtl.builder import CircuitBuilder
from repro.rtl.netlist import Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim


def _config() -> GemConfig:
    return GemConfig(
        partition=PartitionConfig(gates_per_partition=400),
        boomerang=BoomerangConfig(width_log2=10),
    )


def _mem_circuit(depth: int, width: int, *, dual_read: bool = False):
    """One memory with write port + sync read(s), all ports primary I/O."""
    b = CircuitBuilder(f"ram_{depth}x{width}")
    abits = max(1, (depth - 1).bit_length())
    addr = b.input("addr", abits)
    wdata = b.input("wdata", width)
    wen = b.input("wen", 1)
    mem = b.memory("m", depth, width)
    b.write(mem, wen, addr, wdata)
    b.output("rd", b.read(mem, addr, sync=True))
    if dual_read:
        addr2 = b.input("addr2", abits)
        b.output("rd2", b.read(mem, addr2, sync=True))
    return b.build()


def _lockstep(circuit, stimuli) -> None:
    design = GemCompiler(_config()).compile(circuit)
    golden = WordSim(Netlist(circuit))
    gate = GateLevelSim(design.synth)
    gem = design.simulator()
    for cycle, vec in enumerate(stimuli):
        want = golden.step(vec)
        got_gate = gate.step(vec)
        got_gem = gem.step(vec)
        assert got_gate == want, f"gate-level diverged at cycle {cycle}: {got_gate} != {want}"
        assert got_gem == want, f"GEM diverged at cycle {cycle}: {got_gem} != {want}"


def _sweep_stimuli(depth: int, width: int, seed: int, cycles: int = 40):
    """Writes and reads hammering low/high addresses and mask edges."""
    rng = random.Random(seed)
    abits = max(1, (depth - 1).bit_length())
    edge_addrs = [0, depth - 1, depth // 2, (1 << abits) - 1]
    edge_data = [0, 1, (1 << width) - 1, 1 << (width - 1)]
    out = []
    for _ in range(cycles):
        out.append(
            {
                "addr": rng.choice(edge_addrs) if rng.random() < 0.5 else rng.getrandbits(abits),
                "wdata": rng.choice(edge_data) if rng.random() < 0.5 else rng.getrandbits(width),
                "wen": rng.getrandbits(1),
            }
        )
    return out


@pytest.mark.parametrize(
    "depth,width",
    [
        (16, 1),  # width 1: single-bit chunks
        (16, 33),  # width 33: 32+1 chunking on native 32-bit blocks
        (1, 8),  # depth 1: degenerate address decode
        (2, 33),  # both extremes at once
        (64, 5),  # odd width, comfortable depth
    ],
    ids=lambda v: str(v),
)
def test_adapter_widths_and_depths(depth, width):
    _lockstep(_mem_circuit(depth, width), _sweep_stimuli(depth, width, seed=depth * 100 + width))


def test_depth_8193_rounds_up_and_splits_banks():
    """A depth-8193 request becomes a 16384-deep memory (power-of-two
    storage) and must split into two native 8192-word banks."""
    spec = DesignSpec(
        name="deep_ram",
        inputs=[("addr", 14), ("wdata", 4), ("wen", 1)],
        mems=[MemSpec(name="m", depth=8193, width=4, addr=0, wdata=1, wen=2)],
        outputs=[("rd", 3)],
    )
    assert _pow2_depth(8193) == 16384
    circuit = spec.build()
    design = GemCompiler(_config()).compile(circuit)
    (report,) = design.synth.memory_reports
    assert report.mode == "blocks"
    assert report.blocks == 2, "16384 deep / 8192-per-bank native = 2 banks"

    rng = random.Random(8193)
    # Hammer the bank boundary: addresses straddling 8191/8192.
    addrs = [8190, 8191, 8192, 8193, 0, 16383]
    stimuli = [
        {
            "addr": rng.choice(addrs) if rng.random() < 0.7 else rng.getrandbits(14),
            "wdata": rng.getrandbits(4),
            "wen": rng.getrandbits(1),
        }
        for _ in range(30)
    ]
    _lockstep(circuit, stimuli)


def test_read_during_write_same_address_both_ports():
    """Both read ports aimed at the write address while writing: sync
    reads return the *old* word (read-first), on every engine."""
    circuit = _mem_circuit(8, 6, dual_read=True)
    stimuli = []
    for cycle in range(24):
        addr = cycle % 8
        stimuli.append(
            {"addr": addr, "addr2": addr, "wdata": (cycle * 7 + 3) % 64, "wen": 1}
        )
        # Next cycle reads the same address without writing: sees the new word.
        stimuli.append({"addr": addr, "addr2": addr, "wdata": 63, "wen": 0})
    _lockstep(circuit, stimuli)


def test_polyfill_read_during_write_same_address():
    """The same read-during-write contract holds on the polyfill path
    (async read port forces FF+mux synthesis): combinational reads see
    the old word during the write cycle, the new word after the edge."""
    b = CircuitBuilder("poly_rdw")
    addr = b.input("addr", 3)
    wdata = b.input("wdata", 4)
    wen = b.input("wen", 1)
    mem = b.memory("m", 8, 4)
    b.write(mem, wen, addr, wdata)
    b.output("rd", b.read(mem, addr, sync=False))
    circuit = b.build()
    design = GemCompiler(_config()).compile(circuit)
    (report,) = design.synth.memory_reports
    assert report.mode == "polyfill"

    stimuli = [
        {"addr": c % 8, "wdata": (3 * c + 1) % 16, "wen": int(c % 3 != 0)}
        for c in range(30)
    ]
    _lockstep(circuit, stimuli)
