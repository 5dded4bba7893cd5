"""RAM mapping (paper §III-B): native blocks, adapters, polyfill."""

import random

import pytest

from repro.core.ram_mapping import RamMappingConfig
from repro.core.synthesis import SynthesisConfig, synthesize
from repro.rtl import CircuitBuilder, Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim
from tests.helpers import lockstep


def _mem_design(depth=64, width=24, sync=True, read_ports=1, write_ports=1, read_en=False):
    b = CircuitBuilder("memdut")
    mem = b.memory("m", depth, width, init=[i * 3 for i in range(min(depth, 20))])
    abits = mem.addr_bits
    for p in range(write_ports):
        b.write(
            mem,
            b.input(f"wen{p}", 1),
            b.input(f"waddr{p}", abits),
            b.input(f"wdata{p}", width),
        )
    for p in range(read_ports):
        addr = b.input(f"raddr{p}", abits)
        en = b.input(f"ren{p}", 1) if (read_en and sync) else None
        b.output(f"rd{p}", b.read(mem, addr, sync=sync, en=en))
    return b.build()


def _rand_stimuli(circuit, seed, n):
    rng = random.Random(seed)
    return [
        {s.name: rng.getrandbits(s.width) for s in circuit.inputs} for _ in range(n)
    ]


def _check_equivalent(circuit, config=None, cycles=150, seed=0):
    word = WordSim(Netlist(circuit))
    synth = GateLevelSim(synthesize(circuit, config))
    lockstep({"word": word, "gem": synth}, _rand_stimuli(circuit, seed, cycles))


class TestBlockMapping:
    CFG = SynthesisConfig(ram=RamMappingConfig(addr_bits=4, data_bits=8))

    def test_single_block_fit(self):
        circuit = _mem_design(depth=16, width=8)
        result = synthesize(circuit, self.CFG)
        report = result.memory_reports[0]
        assert report.mode == "blocks"
        assert report.blocks == 1
        _check_equivalent(circuit, self.CFG)

    def test_width_chunking(self):
        circuit = _mem_design(depth=16, width=24)
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].blocks == 3  # ceil(24/8) chunks
        _check_equivalent(circuit, self.CFG)

    def test_depth_banking(self):
        circuit = _mem_design(depth=64, width=8)
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].blocks == 4  # 64 / 2^4 banks
        assert result.memory_reports[0].adapter_gates > 0
        _check_equivalent(circuit, self.CFG)

    def test_multi_read_port_duplicates_blocks(self):
        circuit = _mem_design(depth=32, width=8, read_ports=2)
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].blocks == 2 * 2  # ports x banks
        _check_equivalent(circuit, self.CFG)

    def test_read_enable_hold(self):
        circuit = _mem_design(depth=64, width=16, read_en=True)
        _check_equivalent(circuit, self.CFG, cycles=200)

    def test_shallow_memory_pads_address(self):
        circuit = _mem_design(depth=8, width=8)  # depth < 2^addr_bits
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].blocks == 1
        _check_equivalent(circuit, self.CFG)

    def test_rom_is_mappable(self):
        b = CircuitBuilder()
        rom = b.memory("rom", 16, 8, init=list(range(16)))
        addr = b.input("addr", 4)
        b.output("data", b.read(rom, addr, sync=True))
        circuit = b.build()
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].mode == "blocks"
        _check_equivalent(circuit, self.CFG)


class TestPolyfill:
    CFG = SynthesisConfig(ram=RamMappingConfig(addr_bits=4, data_bits=8))

    def test_async_read_forces_polyfill(self):
        circuit = _mem_design(depth=16, width=8, sync=False)
        result = synthesize(circuit, self.CFG)
        report = result.memory_reports[0]
        assert report.mode == "polyfill"
        assert report.polyfill_ffs >= 16 * 8
        _check_equivalent(circuit, self.CFG)

    def test_multi_write_forces_polyfill(self):
        circuit = _mem_design(depth=16, width=8, write_ports=2)
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].mode == "polyfill"
        _check_equivalent(circuit, self.CFG)

    def test_mixed_sync_async_ports(self):
        b = CircuitBuilder()
        mem = b.memory("m", 16, 8)
        b.write(mem, b.input("wen", 1), b.input("waddr", 4), b.input("wdata", 8))
        b.output("s", b.read(mem, b.input("ra", 4), sync=True))
        b.output("a", b.read(mem, b.input("rb", 4), sync=False))
        circuit = b.build()
        result = synthesize(circuit, self.CFG)
        assert result.memory_reports[0].mode == "polyfill"
        _check_equivalent(circuit, self.CFG)

    def test_write_port_priority_matches_wordsim(self):
        # Two write ports hitting the same address: later port wins.
        b = CircuitBuilder()
        mem = b.memory("m", 8, 8)
        addr = b.input("addr", 3)
        b.write(mem, b.input("we0", 1), addr, b.input("d0", 8))
        b.write(mem, b.input("we1", 1), addr, b.input("d1", 8))
        b.output("rd", b.read(mem, addr, sync=False))
        circuit = b.build()
        word = WordSim(Netlist(circuit))
        synth = GateLevelSim(synthesize(circuit, self.CFG))
        vec = {"addr": 3, "we0": 1, "we1": 1, "d0": 11, "d1": 22}
        word.step(vec)
        synth.step(vec)
        assert word.step({"addr": 3})["rd"] == 22
        assert synth.step({"addr": 3})["rd"] == 22

    def test_polyfill_async_cost_exceeds_block_cost(self):
        """The paper's §IV observation: async RAMs cost far more logic."""
        cfg = self.CFG
        sync_version = synthesize(_mem_design(depth=64, width=16, sync=True), cfg)
        async_version = synthesize(_mem_design(depth=64, width=16, sync=False), cfg)
        assert async_version.eaig.num_gates() > 4 * sync_version.eaig.num_gates()


class TestDefaults:
    def test_paper_block_shape(self):
        cfg = RamMappingConfig()
        assert cfg.addr_bits == 13
        assert cfg.data_bits == 32
