"""RAM ports across executors, and RAM ports that must not load.

The cycle seam (docs/ENGINE.md §6) moves the RAM port and the deferred
commit into the backend: the native backend runs them in C, the numpy
backend and the ISA-literal reference through the one numpy port of
:meth:`repro.core.engine.ExecutionEngine.ram_port`.  This file holds

* the differential — native ≡ numpy ≡ ``ReferenceInterpreter`` on a small
  design with separate read and write ports, per-lane distinct enables
  and addresses, through quarantine, reset and a checkpoint that changes
  backend between two RAM writes, at partial-word, full-word and K = 3
  lane geometries;
* the load-time gate — a RAMOP that disagrees with the RAM section, or
  reaches outside the state it indexes, is a :class:`BitstreamError` at
  construction on every backend, never an ``IndexError`` mid-run;
* the load boundary — a sealed container whose header, offset table or
  reset section is wrong is a :class:`BitstreamError` from
  ``parse_container`` for every engine, never a crash or an empty
  partition.

Without a C compiler the differential runs numpy against the reference.
"""

import functools
import os

import numpy as np
import pytest

from repro.core import isa
from repro.core.backend import available_backends
from repro.core.bitstream import GemProgram, parse_container, seal, verify_integrity
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig, GemSimulator
from repro.core.interpreter import GemInterpreter
from repro.core.partition import PartitionConfig
from repro.core.ram_mapping import RamMappingConfig
from repro.core.synthesis import SynthesisConfig
from repro.errors import BitstreamError
from repro.rtl import CircuitBuilder
from repro.runtime.checkpoint import load_checkpoint, restore, save_checkpoint, snapshot
from repro.runtime.supervisor import state_digest
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import random_circuit, random_vectors

BACKENDS = available_backends()  # ("native", "numpy") or ("numpy",)


def two_port_design(block=(4, 8)):
    """Two memories with separate read and write addresses: ``mem`` fills
    one native block, ``wide`` is shallower and wider than the block
    (width chunks, a dead address bit) and gates its ports on address
    bits, so enables differ between the RAMOPs of one cycle."""
    b = CircuitBuilder("tworam")
    raddr, waddr = b.input("raddr", 4), b.input("waddr", 4)
    wdata = b.input("wdata", 13)
    wen, ren = b.input("wen", 1), b.input("ren", 1)
    mem = b.memory("mem", 16, 8, init=[0xA0 + i for i in range(16)])
    b.write(mem, wen, waddr, wdata[7:0])
    b.output("rd", b.read(mem, raddr, sync=True, en=ren))
    wide = b.memory("wide", 8, 13, init=[0x1000 + 37 * i for i in range(8)])
    b.write(wide, wen & ~waddr[3], waddr[2:0], wdata)
    b.output("rdw", b.read(wide, raddr[2:0], sync=True, en=ren ^ raddr[3]))
    addr_bits, data_bits = block
    config = GemConfig(
        synthesis=SynthesisConfig(ram=RamMappingConfig(addr_bits=addr_bits, data_bits=data_bits)),
        partition=PartitionConfig(gates_per_partition=400),
        boomerang=BoomerangConfig(width_log2=10),
    )
    return GemCompiler(config).compile(b.build())


@pytest.fixture(scope="module", params=[(4, 8), (5, 32)], ids=["16x8", "32x32"])
def design(request):
    compiled = two_port_design(request.param)
    assert compiled.simulator().ram_arrays, "the memories must map onto native RAM blocks"
    return compiled


def lane_columns(batch, cycle, rng):
    """Per-lane distinct port stimulus for one cycle."""
    lanes = np.arange(batch, dtype=np.uint64)
    raddr = rng.integers(0, 16, batch, dtype=np.uint64)
    waddr = rng.integers(0, 16, batch, dtype=np.uint64)
    wen = rng.integers(0, 2, batch, dtype=np.uint64)
    ren = rng.integers(0, 2, batch, dtype=np.uint64)
    if cycle % 3 == 0:
        # same-address read + write on every lane: read-first must hold
        waddr, wen, ren = raddr.copy(), np.ones_like(wen), np.ones_like(ren)
    elif cycle % 3 == 1:
        # the write lands on a strict subset of the lanes
        wen = (lanes % np.uint64(3) == 0).astype(np.uint64)
    if cycle % 7 == 5:
        wen[:], ren[:] = 0, 0  # an idle cycle: no port fires anywhere
    wdata = rng.integers(0, 1 << 13, batch, dtype=np.uint64)
    return {"raddr": raddr, "waddr": waddr, "wdata": wdata, "wen": wen, "ren": ren}


def assert_same_state(sims):
    ref = sims["reference"]
    for label, sim in sims.items():
        assert sim.cycle == ref.cycle, label
        assert state_digest(sim) == state_digest(ref), label
        assert sim.counters.global_writes == ref.counters.global_writes, label
        assert sim.counters == ref.counters, label
        for a, b in zip(sim.ram_arrays, ref.ram_arrays):
            assert np.array_equal(a, b), label


class TestRamPortDifferential:
    CYCLES = 36

    def step_all(self, sims, columns, cycle):
        want = sims["reference"].step_arrays(columns)
        for label, sim in sims.items():
            if label == "reference":
                continue
            got = sim.step_arrays(columns)
            for po, column in want.items():
                assert np.array_equal(got[po], column), (label, cycle, po)

    @pytest.mark.parametrize("batch", [1, 16, 64, 192])
    def test_backends_agree_with_reference(self, design, batch, tmp_path):
        sims = {"reference": ReferenceInterpreter(design.program, batch=batch)}
        for name in BACKENDS:
            sims[name] = design.simulator(batch=batch, backend=name)
            assert sims[name].backend.name == name
        rng = np.random.default_rng(batch)
        for cycle in range(self.CYCLES):
            if cycle == 9:
                # between two RAM writes the checkpoint changes hands: every
                # backend resumes from the file the next one saved
                saved = {}
                for name in BACKENDS:
                    saved[name] = os.path.join(tmp_path, f"{name}.gemk")
                    save_checkpoint(snapshot(sims[name]), saved[name])
                for name, source in zip(BACKENDS, BACKENDS[1:] + BACKENDS[:1]):
                    fresh = design.simulator(batch=batch, backend=name)
                    sims[name] = restore(fresh, load_checkpoint(saved[source]))
                assert_same_state(sims)
                images = {name: [id(arr) for arr in sims[name].ram_arrays] for name in BACKENDS}
            if cycle == 14:
                for sim in sims.values():  # quarantined lanes keep running, from zero
                    sim.quarantine_lanes([0, batch - 1])
            if cycle == 23:
                for sim in sims.values():
                    sim.reset()
            self.step_all(sims, lane_columns(batch, cycle, rng), cycle)
            if cycle in (0, 8, 13, 22, 23):
                assert_same_state(sims)
        assert_same_state(sims)
        assert sims["reference"].counters.global_writes > 0
        for name in BACKENDS:  # never rebound: the kernel holds their addresses
            assert images[name] == [id(arr) for arr in sims[name].ram_arrays]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_first_and_lane_subset_writes(self, design, backend):
        """Directed: every lane reads and writes address 5 in one cycle;
        only even lanes' writes are enabled."""
        batch = 16
        sim = design.simulator(batch=batch, backend=backend)
        lanes = np.arange(batch, dtype=np.uint64)
        five = np.full(batch, 5, dtype=np.uint64)
        ones, zeros = np.ones(batch, dtype=np.uint64), np.zeros(batch, dtype=np.uint64)
        even = (lanes % np.uint64(2) == 0).astype(np.uint64)
        sim.step_arrays(
            {"raddr": five, "waddr": five, "wdata": 0x30 + lanes, "wen": even, "ren": ones}
        )
        out = sim.step_arrays({"raddr": five, "waddr": five, "wdata": zeros, "wen": zeros, "ren": ones})
        assert (out["rd"] == 0xA5).all(), "the read sampled the word before the write"
        out = sim.step_arrays({"wen": zeros, "ren": zeros})
        assert np.array_equal(out["rd"], np.where(even == 1, 0x30 + lanes, 0xA5))


# -- load-time RAM validation ---------------------------------------------------


def reseal(program, header=None, instructions=None, ram=None, reset=None):
    """``program`` with hand-mutated sections, section CRCs recomputed
    (``mutate_fold_constant`` does the same): a wrong program, not a
    corrupt container."""
    sections = verify_integrity(program.words)
    mutated = [header, instructions, ram, reset]
    words = seal([old if new is None else new for old, new in zip(sections, mutated)])
    return GemProgram(words=words, meta=program.meta)


@pytest.fixture
def beside_a_stored_plan(tmp_path, monkeypatch):
    """``store(program, batch)``: the plan of the *unmutated* program on
    disk (every plan is stored, whatever its size) and nothing in the
    in-process memos — so whatever the test then loads is loaded the way
    a fresh process would, next to the original's stored plan, and has to
    be refused (or fused anew) on its own words."""
    from repro.core import fused
    from repro.core.interpreter import clear_decode_cache, load_program

    monkeypatch.setattr(fused, "PERSIST_MIN_NODES", 0)
    monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path / "cache"))

    def fresh_process():
        fused.clear_fusion_cache()
        clear_decode_cache()

    def store(program, batch):
        fresh_process()
        load_program(program, batch)
        assert len(list((tmp_path / "cache").glob("plan-*.bin"))) == 1
        fresh_process()

    return store


def instruction_offsets(instructions, opcode=isa.Opcode.RAMOP):
    """Stream offsets of every ``opcode`` instruction."""
    offsets, pos = [], 0
    while pos < instructions.size:
        found, length, _ = isa.parse_header(int(instructions[pos]))
        if found is opcode:
            offsets.append(pos)
        pos += length
    return offsets


def _set_word(word, value):
    def mutate(inst, at):
        inst[at + word] = value

    return mutate


def _bump_port_slot(inst, at):
    inst[at + 4] = (int(inst[at + 4]) & 0xFFFF0000) | 0x7FFF  # raddr[0] -> slot 32767


class TestLoadTimeRamValidation:
    """Each of these loaded cleanly before and died mid-run with an
    ``IndexError`` under numpy (and would be an out-of-bounds write in C)."""

    @pytest.fixture(scope="class")
    def program(self):
        return two_port_design().program

    @pytest.fixture(autouse=True)
    def _warm_store(self, program, beside_a_stored_plan):
        beside_a_stored_plan(program, 4)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "mutate, match",
        [
            (_set_word(1, 9), "names RAM block 9"),  # ram_index >= num_rams
            (_set_word(2, (3 << 16) | 8), "RAM block 0 is"),  # addr_bits != the block's
            (_set_word(2, (4 << 16) | 9), "RAM block 0 is"),  # data_bits != the block's
            (_set_word(3, 1 << 20), "global bits"),  # rd_global_base + data_bits > global_bits
            (_bump_port_slot, "slot past"),  # port slot >= state_slots
            (_set_word(2, (400 << 16) | 300), "does not fit"),  # refs past the instruction
        ],
    )
    def test_bad_ramop_is_rejected_at_load(self, program, backend, mutate, match):
        instructions = verify_integrity(program.words)[1].copy()
        mutate(instructions, instruction_offsets(instructions)[0])
        bad = reseal(program, instructions=instructions)
        with pytest.raises(BitstreamError, match=match):
            GemInterpreter(bad, batch=4, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "word, value, match",
        [
            (1, 8, "RAM block 0: 8 words"),  # stored depth != 1 << addr_bits
            (0, (4 << 16) | 40, "40 bits"),  # data_bits > 32
        ],
    )
    def test_bad_ram_section_is_rejected_at_load(self, program, backend, word, value, match):
        ram = verify_integrity(program.words)[2].copy()
        ram[word] = value
        with pytest.raises(BitstreamError, match=match):
            GemInterpreter(reseal(program, ram=ram), batch=4, backend=backend)

    def test_reference_interpreter_shares_the_gate(self, program):
        instructions = verify_integrity(program.words)[1].copy()
        _set_word(1, 9)(instructions, instruction_offsets(instructions)[0])
        with pytest.raises(BitstreamError, match="names RAM block 9"):
            ReferenceInterpreter(reseal(program, instructions=instructions), batch=4)


def _entries(instructions, opcode):
    """``(offset, entry)`` of every entry of every ``opcode`` instruction."""
    for at in instruction_offsets(instructions, opcode):
        for entry in range(int(instructions[at]) & 0xFFFF):
            yield at, entry


def _field(word, shift, width, value):
    """``word`` with bits ``[shift, shift + width)`` replaced by ``value``."""
    mask = ((1 << width) - 1) << shift
    return (int(word) & ~mask) | (value << shift)


def _read(word, value):
    """The first READ entry's global bit (``word`` 1) or local slot (2)."""

    def mutate(inst, global_bits):
        at, _ = next(_entries(inst, isa.Opcode.READ))
        inst[at + word] = _field(inst[at + word], 0, 31, value(global_bits))

    return mutate


def _gwrite(deferred, word, value):
    """The first immediate / deferred GWRITE entry's local slot (``word``
    1) or global bit (2)."""

    def mutate(inst, global_bits):
        at, entry = next(
            (at, entry)
            for at, entry in _entries(inst, isa.Opcode.GWRITE)
            if int(inst[at + 2 + 2 * entry]) >> 31 == deferred
        )
        where = at + word + 2 * entry
        inst[where] = _field(inst[where], 0, 31, value(global_bits))

    return mutate


def _wb(shift, width, value):
    """The first WB entry's local slot (bits 0-13) or fold step (28-31)."""

    def mutate(inst, global_bits):
        at, _ = next(_entries(inst, isa.Opcode.WB))
        inst[at + 1] = _field(inst[at + 1], shift, width, value)

    return mutate


def _past(bits):
    return bits + 3


def _huge(bits):
    return 1 << 20


#: (id, mutation, what decode says) — one operand past what it indexes
BAD_OPERANDS = [
    ("read-global-bit", _read(1, _past), r"READ at word \d+: global bit"),
    ("read-slot", _read(2, _huge), r"READ at word \d+: local slot"),
    ("gwrite-global-bit", _gwrite(0, 2, _past), r"GWRITE at word \d+: global bit"),
    ("gwrite-deferred-global-bit", _gwrite(1, 2, _past), r"GWRITE at word \d+: global bit"),
    ("gwrite-slot", _gwrite(0, 1, _huge), r"GWRITE at word \d+: local slot"),
    ("wb-slot", _wb(0, 14, 0x3FFF), r"WB at word \d+: local slot"),
    ("wb-step", _wb(28, 4, 15), r"WB at word \d+: fold step"),
]


class TestLoadTimeOperandValidation:
    """Before decode checked operand ranges, one sealed bitstream got three
    verdicts: a READ of a global bit past the state loaded and ran under
    numpy (``take`` clamps), died mid-run with an ``IndexError`` in the
    reference and was refused at load by native; a slot past the block's
    state was an ``IndexError`` from fusion everywhere.  Now every engine
    refuses it at load, naming partition, opcode and word."""

    ENGINES = [
        *((name, functools.partial(GemInterpreter, batch=4, backend=name)) for name in BACKENDS),
        ("reference", functools.partial(ReferenceInterpreter, batch=4)),
    ]

    @pytest.fixture(scope="class")
    def program(self):
        config = GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
        circuit = random_circuit(80, n_ops=80, n_regs=4, with_memory=True)
        return GemCompiler(config).compile(circuit).program

    @pytest.fixture(autouse=True)
    def _warm_store(self, program, beside_a_stored_plan):
        beside_a_stored_plan(program, 4)

    @pytest.mark.parametrize("engine", [e[1] for e in ENGINES], ids=[e[0] for e in ENGINES])
    @pytest.mark.parametrize(
        "mutate, match", [row[1:] for row in BAD_OPERANDS], ids=[row[0] for row in BAD_OPERANDS]
    )
    def test_bad_operand_is_rejected_at_load(self, program, engine, mutate, match):
        instructions = verify_integrity(program.words)[1].copy()
        mutate(instructions, parse_container(program.words).global_bits)
        with pytest.raises(BitstreamError, match=rf"partition \d+: {match}"):
            engine(reseal(program, instructions=instructions))


# -- the load boundary ------------------------------------------------------------


def _header(word, change):
    def mutate(header, inst, reset):
        header[word] = change(header, inst)
        return {"header": header}

    return mutate


def _reset(change):
    return lambda header, inst, reset: {"reset": np.array(change(header, reset), dtype=np.uint32)}


#: (id, mutation, what parse_container says) of a 2-stage, 4-partition
#: container — header words: [3] global bits, [4] partitions, [8], [9]
#: partitions per stage, [10..17] four (start, length) pairs
BAD_CONTAINERS = [
    ("reset-index-past-global-bits", _reset(lambda h, r: [r[0] + 1, *r[1:], h[3]]), "outside the"),
    ("reset-count-past-entries", _reset(lambda h, r: [r[0] + 1, *r[1:]]), "reset section"),
    ("stage-counts-do-not-sum", _header(9, lambda h, i: h[9] + 1), "do not sum"),
    ("partition-cut-short", _header(13, lambda h, i: 3), "partition 2: starts at"),
    ("partition-starts-past-stream", _header(16, lambda h, i: 1 << 30), "partition 3"),
    ("partition-reaches-into-ram", _header(17, lambda h, i: h[17] + 4), "partitions cover"),
    ("more-partitions-than-offsets", _header(4, lambda h, i: h[4] + 1), "cannot hold"),
]


class TestLoadBoundary:
    """Sealed, CRC-valid, wrong.  Before ``parse_container``, on this
    design: three died with a bare ``IndexError`` somewhere in the
    constructor (reset index, stage counts, cut partition), two *loaded
    and ran* (a reset count reaching into the footer; a partition start
    past the container — an empty partition), and the last two were
    caught only by what the stray words happened to decode to."""

    ENGINES = [
        *((name, functools.partial(GemSimulator, backend=name)) for name in BACKENDS),
        ("reference", ReferenceInterpreter),
    ]

    @pytest.fixture(scope="class")
    def compiled(self):
        circuit = random_circuit(711, n_ops=120, n_regs=3, with_memory=True)
        config = GemConfig(
            partition=PartitionConfig(gates_per_partition=64),
            boomerang=BoomerangConfig(width_log2=8),
        )
        design = GemCompiler(config).compile(circuit)
        assert design.program.meta.stage_partition_counts == [3, 1]
        assert design.simulator().ram_arrays
        return circuit, design

    @pytest.fixture(autouse=True)
    def _warm_store(self, compiled, beside_a_stored_plan):
        beside_a_stored_plan(compiled[1].program, 1)

    @pytest.mark.parametrize("engine", [e[1] for e in ENGINES], ids=[e[0] for e in ENGINES])
    @pytest.mark.parametrize(
        "mutate, match", [row[1:] for row in BAD_CONTAINERS], ids=[row[0] for row in BAD_CONTAINERS]
    )
    def test_wrong_container_is_rejected_by_the_parser(self, compiled, engine, mutate, match):
        program = compiled[1].program
        header, inst, _, reset = (sec.copy() for sec in verify_integrity(program.words))
        with pytest.raises(BitstreamError, match=match) as caught:
            engine(reseal(program, **mutate(header, inst, reset)))
        assert caught.traceback[-1].name == "parse_container"

    @pytest.mark.parametrize("engine", [e[1] for e in ENGINES], ids=[e[0] for e in ENGINES])
    def test_unmutated_reseal_loads_and_matches_golden(self, compiled, engine):
        circuit, design = compiled
        stimuli = random_vectors(circuit, 5, 24)
        assert engine(reseal(design.program)).run(stimuli) == design.simulator().run(stimuli)
