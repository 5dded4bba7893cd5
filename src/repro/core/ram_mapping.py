"""RAM mapping onto the fixed native RAM block type (paper §III-B).

GEM's E-AIG supports one native RAM block shape — by default 13 address bits
× 32 data bits, one synchronous read port, one write port.  This module
performs the job the paper delegates to Yosys with a fake FPGA target:

* A behavioral memory with only synchronous read ports and at most one
  write port is decomposed onto native blocks: the depth is split into
  *banks* of ``2**addr_bits`` words and the width into *chunks* of
  ``data_bits`` bits.  Adapter logic is generated automatically — write
  enables gated by bank decode, and read data selected by a *registered*
  bank index (registered because native read data arrives one cycle after
  the address).  Each additional read port instantiates its own copy of
  every block (content duplication, the standard BRAM multi-port recipe).
* A memory with any **asynchronous** read port, or with multiple write
  ports, cannot use native blocks and is *polyfilled* with flip-flops,
  write decoders and read mux trees — exactly the costly fallback the paper
  describes for the four non-NVDLA designs (§IV), and the subject of the
  async-RAM penalty experiment (X3 in DESIGN.md).

Construction is three-phase to fit the synthesizer's topological lowering
(see :mod:`repro.core.synthesis`): state nodes first, combinational reads
on demand, port wiring last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.config import RamMappingConfig
from repro.core.eaig import EAIG, FALSE, TRUE, lit_not
from repro.rtl.memory import Memory

#: Resolver from an RTL signal to its E-AIG literal vector (LSB first).
LitsOf = Callable[[object], list[int]]


@dataclass
class MappingReport:
    """Per-memory accounting, consumed by the async-RAM penalty experiment."""

    name: str
    mode: str  # "blocks" | "polyfill"
    blocks: int = 0
    polyfill_ffs: int = 0
    adapter_gates_before: int = 0
    adapter_gates_after: int = 0

    @property
    def adapter_gates(self) -> int:
        return self.adapter_gates_after - self.adapter_gates_before


def _eq_const(eaig: EAIG, lits: Sequence[int], value: int) -> int:
    """Literal for ``lits == value`` (balanced AND of matched bits)."""
    terms = []
    for i, literal in enumerate(lits):
        terms.append(literal if (value >> i) & 1 else lit_not(literal))
    level = terms
    if not level:
        return TRUE
    while len(level) > 1:
        nxt = [eaig.add_and(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _effective_addr_bits(memory: Memory) -> int:
    """Address bits that actually select a word: ``log2(depth)``.

    ``Memory.addr_bits`` is floored at 1 so a port signal always exists,
    which leaves a depth-1 memory with one *dead* address bit.  The word
    simulator indexes modulo depth, so every mapping must ignore dead
    bits rather than decode them (a depth-1 write at address 1 wraps to
    word 0; it is neither dropped nor stored elsewhere).
    """
    return max(0, (memory.depth - 1).bit_length())


def _mux_word(eaig: EAIG, sel: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [eaig.add_mux(sel, ai, bi) for ai, bi in zip(a, b)]


def _mux_tree(eaig: EAIG, addr: Sequence[int], words: Sequence[Sequence[int]]) -> list[int]:
    """Select ``words[addr]`` with a balanced mux tree.

    ``len(words)`` is a power of two for every caller (memory depths are
    enforced to be powers of two); address bits beyond ``log2(len(words))``
    are ignored, matching the word simulator's modulo indexing.
    """
    if not words:
        raise ValueError("mux tree over zero words")
    level = [list(w) for w in words]
    if len(level) & (len(level) - 1):
        raise ValueError("mux tree requires a power-of-two word count")
    bit = 0
    while len(level) > 1:
        sel = addr[bit] if bit < len(addr) else FALSE
        level = [_mux_word(eaig, sel, level[i + 1], level[i]) for i in range(0, len(level), 2)]
        bit += 1
    return level[0]


class MappedMemory:
    """Base class: one behavioral memory mapped into the E-AIG."""

    def __init__(self, eaig: EAIG, memory: Memory, report: MappingReport) -> None:
        self.eaig = eaig
        self.memory = memory
        self.report = report

    def sync_read_data(self, port_index: int) -> list[int]:
        """Data literals of a synchronous read port (state, available early)."""
        raise NotImplementedError

    def async_read_data(self, port_index: int, addr: Sequence[int]) -> list[int]:
        """Build combinational read logic for an asynchronous port."""
        raise NotImplementedError

    def finalize(self, lits_of: LitsOf) -> None:
        """Wire write/address/enable ports once all logic is lowered."""
        raise NotImplementedError


class BlockMappedMemory(MappedMemory):
    """Memory decomposed onto native RAM blocks with bank/width adapters."""

    def __init__(self, eaig: EAIG, memory: Memory, config: RamMappingConfig, report: MappingReport) -> None:
        super().__init__(eaig, memory, report)
        self.config = config
        ab, db = config.addr_bits, config.data_bits
        self.banks = max(1, -(-memory.depth // (1 << ab)))
        self.chunks = max(1, -(-memory.width // db))
        self.bank_bits = max(0, (self.banks - 1).bit_length())
        init = memory.initial_words()
        # blocks[port][bank][chunk]
        self.blocks = []
        for p in range(len(memory.read_ports)):
            per_port = []
            for bank in range(self.banks):
                per_bank = []
                base = bank << ab
                for chunk in range(self.chunks):
                    words = [
                        (init[base + w] >> (chunk * db)) & ((1 << db) - 1)
                        for w in range(min(1 << ab, memory.depth - base))
                    ]
                    ram = eaig.add_ram(f"{memory.name}.p{p}.b{bank}.c{chunk}", ab, db, init=words)
                    per_bank.append(ram)
                per_port.append(per_bank)
            self.blocks.append(per_port)
        report.blocks = len(memory.read_ports) * self.banks * self.chunks
        # Registered bank-select per read port (holds when ren is low); the
        # FF d inputs are wired in finalize().
        self.bank_sel_ffs: list[list[int]] = []
        for p, rp in enumerate(memory.read_ports):
            if not rp.sync:
                raise ValueError("BlockMappedMemory only supports synchronous read ports")
            self.bank_sel_ffs.append(
                [eaig.add_ff(name=f"{memory.name}.p{p}.banksel{b}") for b in range(self.bank_bits)]
            )
        # Pre-build the read-data bank mux for each port: all operands are
        # state nodes (RAMRD + bank-select FFs) so this is legal up front.
        self._read_data: list[list[int]] = []
        for p in range(len(memory.read_ports)):
            bank_words = []
            for bank in range(self.banks):
                bits: list[int] = []
                for chunk in range(self.chunks):
                    bits.extend(2 * n for n in self.blocks[p][bank][chunk].data_nodes)
                bank_words.append(bits[: memory.width])
            self._read_data.append(_mux_tree(eaig, self.bank_sel_ffs[p], bank_words))

    def sync_read_data(self, port_index: int) -> list[int]:
        return self._read_data[port_index]

    def async_read_data(self, port_index: int, addr: Sequence[int]) -> list[int]:
        raise ValueError("native RAM blocks have no asynchronous read path")

    def finalize(self, lits_of: LitsOf) -> None:
        eaig = self.eaig
        mem = self.memory
        ab, db = self.config.addr_bits, self.config.data_bits
        gates0 = eaig.num_gates()
        # Write side (single port, possibly absent for ROMs).
        eff = _effective_addr_bits(mem)
        if mem.write_ports:
            wp = mem.write_ports[0]
            wen = lits_of(wp.en)[0]
            waddr = lits_of(wp.addr)[:eff]
            wdata = lits_of(wp.data)
            wdata = (wdata + [FALSE] * (self.chunks * db))[: self.chunks * db]
            wlow = (waddr[:ab] + [FALSE] * ab)[:ab]
            whigh = waddr[ab : ab + self.bank_bits]
        for p, rp in enumerate(mem.read_ports):
            raddr = lits_of(rp.addr)[:eff]
            ren = lits_of(rp.en)[0] if rp.en is not None else TRUE
            rlow = (raddr[:ab] + [FALSE] * ab)[:ab]
            rhigh = raddr[ab : ab + self.bank_bits]
            for b, ff in enumerate(self.bank_sel_ffs[p]):
                hold = ff  # positive FF literal == its own current value
                bit = rhigh[b] if b < len(rhigh) else FALSE
                eaig.set_ff_input(ff, eaig.add_mux(ren, bit, hold))
            for bank in range(self.banks):
                bank_hit_w = _eq_const(eaig, whigh, bank) if mem.write_ports else FALSE
                for chunk in range(self.chunks):
                    ram = self.blocks[p][bank][chunk]
                    ram.raddr = list(rlow)
                    ram.ren = ren
                    if mem.write_ports:
                        ram.wen = eaig.add_and(wen, bank_hit_w)
                        ram.waddr = list(wlow)
                        ram.wdata = wdata[chunk * db : (chunk + 1) * db]
                    else:
                        ram.wen = FALSE
                        ram.waddr = [FALSE] * ab
                        ram.wdata = [FALSE] * db
        self.report.adapter_gates_after = eaig.num_gates()
        self.report.adapter_gates_before = gates0


class PolyfilledMemory(MappedMemory):
    """Memory implemented with FFs, write decoders and read mux trees.

    This is the paper's costly fallback for asynchronous read ports (and, in
    our reproduction, for multi-write-port memories, which the native block
    cannot express).  Gate cost grows linearly with ``depth * width``.
    """

    def __init__(self, eaig: EAIG, memory: Memory, report: MappingReport) -> None:
        super().__init__(eaig, memory, report)
        init = memory.initial_words()
        self.word_ffs: list[list[int]] = []
        for w in range(memory.depth):
            bits = [
                eaig.add_ff(init=(init[w] >> b) & 1, name=f"{memory.name}.w{w}b{b}")
                for b in range(memory.width)
            ]
            self.word_ffs.append(bits)
        self.sync_ffs: dict[int, list[int]] = {}
        for p, rp in enumerate(memory.read_ports):
            if rp.sync:
                self.sync_ffs[p] = [
                    eaig.add_ff(name=f"{memory.name}.p{p}.rd{b}") for b in range(memory.width)
                ]
        report.polyfill_ffs = memory.depth * memory.width + len(self.sync_ffs) * memory.width

    def sync_read_data(self, port_index: int) -> list[int]:
        return self.sync_ffs[port_index]

    def async_read_data(self, port_index: int, addr: Sequence[int]) -> list[int]:
        addr_bits = _effective_addr_bits(self.memory)
        return _mux_tree(self.eaig, list(addr)[:addr_bits], self.word_ffs)

    def finalize(self, lits_of: LitsOf) -> None:
        eaig = self.eaig
        mem = self.memory
        gates0 = eaig.num_gates()
        # Write decoders; ports applied in order so later ports win, matching
        # the word simulator's sequential application.
        next_words = [list(bits) for bits in self.word_ffs]
        eff = _effective_addr_bits(mem)
        for wp in mem.write_ports:
            wen = lits_of(wp.en)[0]
            waddr = lits_of(wp.addr)[:eff]
            wdata = lits_of(wp.data)
            for w in range(mem.depth):
                hit = eaig.add_and(wen, _eq_const(eaig, waddr, w))
                next_words[w] = _mux_word(eaig, hit, wdata, next_words[w])
        for w, bits in enumerate(self.word_ffs):
            for b, ff in enumerate(bits):
                eaig.set_ff_input(ff, next_words[w][b])
        # Sync read ports sample the *current* word FFs (read-first).
        for p, rp in enumerate(mem.read_ports):
            if not rp.sync:
                continue
            raddr = lits_of(rp.addr)[:eff]
            data = _mux_tree(eaig, raddr, self.word_ffs)
            ren = lits_of(rp.en)[0] if rp.en is not None else TRUE
            for b, ff in enumerate(self.sync_ffs[p]):
                eaig.set_ff_input(ff, eaig.add_mux(ren, data[b], ff))
        self.report.adapter_gates_after = eaig.num_gates()
        self.report.adapter_gates_before = gates0


def map_memory(
    eaig: EAIG, memory: Memory, config: RamMappingConfig | None = None
) -> MappedMemory:
    """Choose and build the mapping for ``memory`` (blocks vs polyfill)."""
    config = config or RamMappingConfig()
    can_use_blocks = all(rp.sync for rp in memory.read_ports) and len(memory.write_ports) <= 1
    mode = "blocks" if can_use_blocks else "polyfill"
    report = MappingReport(name=memory.name, mode=mode)
    if can_use_blocks:
        return BlockMappedMemory(eaig, memory, config, report)
    return PolyfilledMemory(eaig, memory, report)
