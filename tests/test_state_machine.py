"""Program and state as properties (ROADMAP: "snapshot∘restore = identity").

``GemInterpreter`` is an immutable :class:`LoadedProgram` plus a mutable
:class:`SimState`.  Two things follow, and this file states both:

* **Every operation on the state commutes with the choice of engine.**  A
  hypothesis state machine drives the executor (whatever backend resolves
  here: the C kernel, or numpy without a compiler) and the ISA-literal
  :class:`ReferenceInterpreter` through the same interleaving of scalar
  steps, per-lane-distinct array steps, blocks of cycles (the executor in
  one backend call, the reference a cycle at a time), snapshots, restores into the same
  or a fresh instance, serialisation round trips, lane quarantine and
  reset; after every rule their outputs, cycle, work counters and
  ``state_digest`` are equal.  The state operations are code the two
  share, so each rule also says what the operation *means*: a restore
  reproduces the digests its snapshot was taken at on every lane the
  target has not quarantined and leaves those it has at zero, a reset the
  power-on digest, a quarantine zeroes its lane and leaves every other
  lane's digest alone.  Geometries: a partial word, a full word and two
  lane-plane words on a two-port RAM design, batch 1, and a ``values=4``
  (dual-rail) design driven on its raw rails.
* **Nothing a run does reaches the program.**  A digest over every array
  reachable from a ``LoadedProgram`` is unchanged by stepping,
  quarantine, restore and reset, and a ``Supervisor``'s primary and
  redundant shadow hold the very same decoded-partition and
  ``FusedProgram`` objects.
"""

import dataclasses
import functools
import zlib

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.compiler import compile_circuit
from repro.obs.trace import TRACER
from repro.runtime.checkpoint import checkpoint_from_words, checkpoint_to_words, restore, snapshot
from repro.runtime.supervisor import Supervisor, state_digest, state_digest_lanes
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import random_circuit, random_vectors
from tests.test_ram_differential import two_port_design


@functools.cache
def _design(kind):
    if kind == "ram":
        return two_port_design()
    return compile_circuit(random_circuit(909, n_ops=25, n_regs=3), values=4)


class _ReferenceOf(ReferenceInterpreter):
    """The reference over a dual-rail program checkpoints as 4-state too."""

    values = 4


SEEDS = st.integers(0, 2**32 - 1)


class EngineVsReference(RuleBasedStateMachine):
    kind, batch = "ram", 1

    def __init__(self):
        super().__init__()
        self.design = _design(self.kind)
        self.sut = self.design.simulator(batch=self.batch)
        self.model = self._reference()
        self.widths = {name: idx.size for name, idx in self.sut.loaded.pi_tables.items()}
        self.power_on = state_digest(self.sut)
        #: (executor's checkpoint, reference's checkpoint, per-lane digests when taken)
        self.saved = []

    def _reference(self):
        cls = _ReferenceOf if self.sut.values == 4 else ReferenceInterpreter
        return cls(self.design.program, batch=self.batch)

    # -- stepping ---------------------------------------------------------------

    @rule(seed=SEEDS)
    def step(self, seed):
        rng = np.random.default_rng(seed)
        vec = {name: int(rng.integers(1 << min(width, 62))) for name, width in self.widths.items()}
        assert self.sut.step(vec) == self.model.step(vec)

    @rule(seed=SEEDS)
    def step_arrays(self, seed):
        rng = np.random.default_rng(seed)
        columns = {
            name: rng.integers(1 << min(width, 62), size=self.batch)
            for name, width in self.widths.items()
        }
        got, want = self.sut.step_arrays(columns), self.model.step_arrays(columns)
        assert all(np.array_equal(got[name], want[name]) for name in want)

    @rule(seed=SEEDS, n=st.integers(0, 9), per_lane=st.booleans())
    def run_block(self, seed, n, per_lane):
        """``n`` cycles as one block on the executor (``block_cycles`` is
        far beyond 9 on these designs) against ``n`` single steps of the
        reference."""
        rng = np.random.default_rng(seed)

        def vec():
            return {name: int(rng.integers(1 << min(w, 62))) for name, w in self.widths.items()}

        assert self.sut.block_cycles > 9
        if per_lane:
            stimuli = [[vec() for _ in range(self.batch)] for _ in range(n)]
            assert self.sut.run_lanes(iter(stimuli)) == [self.model.step_lanes(v) for v in stimuli]
        else:
            stimuli = [vec() for _ in range(n)]
            assert self.sut.run(iter(stimuli)) == [self.model.step(v) for v in stimuli]

    # -- checkpoints ------------------------------------------------------------

    @rule()
    def save(self):
        self.saved.append((snapshot(self.sut), snapshot(self.model), state_digest_lanes(self.sut)))

    @precondition(lambda self: self.saved)
    @rule(pick=SEEDS, fresh=st.booleans())
    def restore(self, pick, fresh):
        ours, theirs, digests = self.saved[pick % len(self.saved)]
        if fresh:
            self.sut, self.model = self.design.simulator(batch=self.batch), self._reference()
        assert restore(self.sut, ours) is self.sut
        restore(self.model, theirs)
        # a lane the target has given up on stays given up on, record and
        # bits (it restarts from zero); every other lane is the snapshot's
        restored = state_digest_lanes(self.sut)
        for lane in range(self.batch):
            if lane in self.sut.quarantined_lanes:
                assert not self.sut.engine.unpack_lanes(self.sut.global_state)[:, lane].any()
                assert not any(image[lane].any() for image in self.sut.ram_arrays)
            else:
                assert restored[lane] == digests[lane]
        assert self.sut.cycle == ours.cycle and self.sut.counters == ours.counters

    @precondition(lambda self: self.saved)
    @rule(pick=SEEDS)
    def through_words(self, pick):
        index = pick % len(self.saved)
        *ckpts, digest = self.saved[index]
        back = [checkpoint_from_words(checkpoint_to_words(ckpt)) for ckpt in ckpts]
        for before, after in zip(ckpts, back):
            assert after.counters == before.counters and after.cycle == before.cycle
            assert (after.batch, after.words, after.values) == (
                before.batch,
                before.words,
                before.values,
            )
            assert np.array_equal(after.global_state, before.global_state)
            assert all(map(np.array_equal, after.ram_arrays, before.ram_arrays))
        self.saved[index] = (*back, digest)

    # -- the rest of the state's operations ----------------------------------------

    @rule(lane=SEEDS)
    def quarantine(self, lane):
        lane %= self.batch
        lanes_before = state_digest_lanes(self.sut)
        self.sut.quarantine_lanes([lane])
        self.model.quarantine_lanes([lane])
        assert lane in self.sut.quarantined_lanes
        assert not self.sut.engine.unpack_lanes(self.sut.global_state)[:, lane].any()
        assert not any(image[lane].any() for image in self.sut.ram_arrays)
        lanes_after = state_digest_lanes(self.sut)
        healthy = set(range(self.batch)) - set(self.sut.quarantined_lanes)
        assert all(lanes_after[i] == lanes_before[i] for i in healthy)

    @rule()
    def reset(self):
        self.sut.reset()
        self.model.reset()
        assert (state_digest(self.sut), self.sut.cycle) == (self.power_on, 0)
        assert not self.sut.quarantined_lanes and not self.sut.counters.fold_steps

    @invariant()
    def engines_agree(self):
        got, want = self.sut.outputs_arrays(), self.model.outputs_arrays()
        assert all(np.array_equal(got[name], want[name]) for name in want)
        assert self.sut.cycle == self.model.cycle
        assert self.sut.counters == self.model.counters
        assert self.sut.quarantined_lanes == self.model.quarantined_lanes
        assert state_digest(self.sut) == state_digest(self.model)


def _machine(kind, batch):
    cls = type(f"Machine_{kind}_b{batch}", (EngineVsReference,), {"kind": kind, "batch": batch})
    case = cls.TestCase
    case.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
    return case


TestBatch1 = _machine("ram", 1)
TestPartialWord = _machine("ram", 6)
TestFullWord = _machine("ram", 64)
TestTwoWordPlanes = _machine("ram", 128)
TestFourState = _machine("fourstate", 6)


# -- immutability of the loaded program ---------------------------------------------


def reachable_digest(obj, h=0):
    """CRC32 over every array (and scalar) reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(obj).tobytes(), h)
    if isinstance(obj, dict):
        obj = [*obj.keys(), *obj.values()]
    elif dataclasses.is_dataclass(obj) or hasattr(obj, "__dict__"):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            h = reachable_digest(item, h)
        return h
    return zlib.crc32(repr(obj).encode(), h)


def test_a_run_never_writes_the_loaded_program(tmp_path, monkeypatch):
    """Whether the program was fused in this process or read back from
    the plan store (every plan is stored here, whatever its size)."""
    from repro.core import fused

    monkeypatch.setattr(fused, "PERSIST_MIN_NODES", 0)
    monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
    circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
    design = compile_circuit(circuit)
    stimuli = random_vectors(circuit, 3, 12)
    for tier in ("fuse", "disk"):
        fused.clear_fusion_cache()  # the second pass starts like a new process
        TRACER.clear()
        TRACER.enable()
        try:
            sim = design.simulator(batch=6)
        finally:
            TRACER.disable()
        assert [ev["args"]["tier"] for ev in TRACER.events() if ev["name"] == "plan"] == [tier]
        other = design.simulator(batch=6)  # shares partitions and the fused program
        assert sim.loaded.partitions is other.loaded.partitions  # decoded: the digest sees them
        before = reachable_digest(sim.loaded)
        assert before != reachable_digest(design.simulator(batch=7).loaded)  # it sees the tables

        sim.run(stimuli[:5])
        ckpt = snapshot(sim)
        sim.quarantine_lanes([1, 4])
        sim.run_lanes([[vec] * 6 for vec in stimuli[5:9]])
        restore(sim, ckpt)
        sim.step_arrays({name: np.arange(6) for name in sim.loaded.pi_tables})
        sim.reset()
        sim.run(stimuli)

        assert reachable_digest(sim.loaded) == before == reachable_digest(other.loaded)
        assert other.cycle == 0 and state_digest(other) == state_digest(design.simulator(batch=6))


def test_supervisor_primary_and_shadow_share_one_program(monkeypatch):
    circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
    design = compile_circuit(circuit)
    built = []
    build = design.simulator
    monkeypatch.setattr(design, "simulator", lambda **kw: built.append(build(**kw)) or built[-1])
    result = Supervisor(design, shadow="redundant", batch=2).run(random_vectors(circuit, 7, 6))
    assert result.healthy
    primary, shadow = built
    assert primary.loaded.partitions is shadow.loaded.partitions
    assert primary.loaded.fused is shadow.loaded.fused
    assert primary.state is not shadow.state
    assert not np.shares_memory(primary.global_state, shadow.global_state)
