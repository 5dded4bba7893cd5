"""The plan store: the fused program persisted beside the compile cache.

``fused_program`` is memory memo -> plan file -> ``fuse()``.  These tests
hold the disk tier to three promises, each against a cache directory of
the test's own:

* *equivalence* — a plan read back equals a fresh ``fuse()`` array for
  array, on every registry design and lane geometry, and an executor
  built from it agrees with the reference interpreter on both backends
  (one file serves both);
* *robustness* — a file that is torn, corrupted, misfiled, foreign or in
  the way is deleted with one warning and rebuilt, never interpreted; a
  directory that cannot be written costs one warning and nothing else;
  racing processes each see a whole file or none;
* *economy* — a design below ``PERSIST_MIN_NODES`` never touches the
  disk, and clearing the in-process memo never touches the store.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import fused as fused_mod
from repro.core.backend import available_backends
from repro.core.bitstream import GemProgram
from repro.core.fused import clear_fusion_cache, fusion_cache_stats
from repro.core.interpreter import clear_decode_cache, decode_cache_stats, load_program
from repro.errors import BitstreamError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.runtime.supervisor import state_digest
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import random_circuit, random_vectors
from tests.test_backends import _lane_columns, _registry_case, _stimulus_table
from tests.test_fused_engine import _compile_small

DISK_HITS = 'gem_fusion_cache_hits_total{tier="disk"}'
DISCARDS = 'gem_cache_discards_total{cache="plan"}'


def fresh_process():
    """What a new process starts with: empty memos, whatever is on disk."""
    clear_decode_cache()
    clear_fusion_cache()


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty cache directory, empty memos, a clean registry."""
    path = tmp_path / "cache"
    monkeypatch.setenv("GEM_CACHE_DIR", str(path))
    fresh_process()
    REGISTRY.clear()
    yield path
    fresh_process()
    REGISTRY.clear()


@pytest.fixture
def persist_all(monkeypatch):
    """Store every plan, so that second-sized designs exercise the disk tier."""
    monkeypatch.setattr(fused_mod, "PERSIST_MIN_NODES", 0)


def plan_files(store):
    return sorted(store.glob("plan-*.bin")) if store.is_dir() else []


def tiers():
    snap = REGISTRY.snapshot()
    return {
        "fused": snap.get("gem_fusion_cache_misses_total", 0),
        "disk": snap.get(DISK_HITS, 0),
        "discarded": snap.get(DISCARDS, 0),
    }


# -- equivalence --------------------------------------------------------------------


def assert_same_array(got, want, what):
    assert isinstance(got, np.ndarray), what
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    for flag in ("C_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED"):
        assert got.flags[flag] == want.flags[flag], (what, flag)
    assert got.flags.c_contiguous, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_fields(got, want, what):
    """Two dataclass instances equal field by field: arrays by dtype,
    shape, layout and bytes; everything else by value and type."""
    assert type(got) is type(want), what
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        where = f"{what}.{field.name}"
        if isinstance(b, np.ndarray):
            assert_same_array(a, b, where)
        elif dataclasses.is_dataclass(b):
            assert_same_fields(a, b, where)
        elif field.name == "stages":
            assert len(a) == len(b), where
            for i, (x, y) in enumerate(zip(a, b)):
                assert_same_fields(x, y, f"{where}[{i}]")
        elif field.name == "ramops":
            assert [pidx for pidx, _ in a] == [pidx for pidx, _ in b], where
            for i, ((_, x), (_, y)) in enumerate(zip(a, b)):
                assert_same_fields(x, y, f"{where}[{i}]")
        else:
            assert a == b and type(a) is type(b), where


def lockstep(program, batch, sims, cycles, stimuli):
    """``sims`` against the reference interpreter, lane ``l`` running
    ``l`` cycles ahead in the workload (X rails of a 4-state build float
    on some lanes); outputs, state and work counters equal."""
    reference = ReferenceInterpreter(program, batch=batch)
    rng = np.random.default_rng(batch)
    table = _stimulus_table(reference, stimuli)
    for cycle in range(cycles):
        columns = _lane_columns(reference, table, cycle, rng)
        want = reference.step_arrays(columns)
        for sim in sims:
            got = sim.step_arrays(columns)
            for po, column in want.items():
                assert np.array_equal(got[po], column), (sim.backend.name, cycle, po)
    for sim in sims:
        assert state_digest(sim) == state_digest(reference), sim.backend.name
        assert sim.counters == reference.counters, sim.backend.name


def _check_design(design, stimuli, batch, store):
    program = design.program
    fresh = load_program(program, batch).fused
    assert tiers() == {"fused": 1, "disk": 0, "discarded": 0}
    (path,) = plan_files(store)
    written = path.read_bytes()

    fresh_process()
    loaded = load_program(program, batch)
    assert tiers() == {"fused": 1, "disk": 1, "discarded": 0}
    assert decode_cache_stats() == {"misses": 0, "hits": 0}, "a plan hit decodes nothing"
    assert loaded.fused is not fresh
    assert_same_fields(loaded.fused, fresh, "fused")

    # one file serves every backend, and executors built from it agree
    # with the ISA-literal walk of the same bitstream
    sims = []
    for backend in available_backends():
        fresh_process()
        sims.append(design.simulator(batch=batch, backend=backend))
        assert sims[-1].backend.name == backend
    assert tiers() == {"fused": 1, "disk": 1 + len(sims), "discarded": 0}
    lockstep(program, batch, sims, 8, stimuli)
    assert [p.read_bytes() for p in plan_files(store)] == [written]


@pytest.mark.parametrize("batch", [1, 64, 128])
@pytest.mark.parametrize(
    "name", [_registry_case(n) for n in ("gemmini", "nvdla", "openpiton1", "openpiton8", "rocketchip")]
)
def test_disk_plan_equals_fresh_fuse_on_registry_designs(name, batch, store):
    from repro.harness.runner import compile_design, design_workloads

    stimuli = next(iter(design_workloads(name).values())).stimuli
    _check_design(compile_design(name), stimuli, batch, store)


def test_disk_plan_equals_fresh_fuse_four_state(store):
    from repro.harness.runner import compile_design, design_workloads

    design = compile_design("openpiton1", values=4)
    stimuli = next(iter(design_workloads("openpiton1").values())).stimuli
    _check_design(design, stimuli, 64, store)
    assert design.simulator(batch=64).values == 4


@pytest.mark.parametrize("batch", [1, 6, 192])
def test_disk_plan_equals_fresh_fuse_with_ram_ports(batch, store, persist_all):
    """RAM ports are stored as ISA specs and decoded back to the same
    tables at every batch: partial word, full word and three-word lane
    planes."""
    circuit = random_circuit(977, n_ops=60, n_regs=4, with_memory=True)
    design = _compile_small(circuit)
    assert any(plan.ramops for plan in load_program(design.program, batch).fused.stages)
    fresh_process()
    REGISTRY.clear()
    for path in plan_files(store):
        path.unlink()
    _check_design(design, random_vectors(circuit, seed=11, cycles=16), batch, store)


# -- economy --------------------------------------------------------------------------


def test_small_designs_never_touch_the_disk(store):
    circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
    design = _compile_small(circuit)
    design.simulator()
    fresh_process()
    design.simulator()
    nodes = sum(plan.gather.size for plan in design.simulator().loaded.fused.stages) // 2
    assert 0 < nodes < fused_mod.PERSIST_MIN_NODES
    assert not store.exists()
    assert tiers() == {"fused": 2, "disk": 0, "discarded": 0}


def test_clearing_the_memo_leaves_the_store_alone(store, persist_all):
    """``clear_fusion_cache`` stands in for a fresh process (tests, the
    frozen benchmark): it must not reach the disk tier, and a memory miss
    is a miss in ``stats()`` whichever tier then serves it."""
    design = _compile_small(random_circuit(711, n_ops=40, n_regs=3, with_memory=True))
    design.simulator()
    (path,) = plan_files(store)
    stamp = path.stat().st_mtime_ns
    clear_fusion_cache()
    clear_decode_cache()
    assert path.stat().st_mtime_ns == stamp
    design.simulator()
    design.simulator()
    assert fusion_cache_stats() == {"misses": 1, "hits": 1}
    assert tiers()["disk"] == 1 and path.stat().st_mtime_ns == stamp


def test_load_emits_one_span_naming_the_tier(store, persist_all):
    design = _compile_small(random_circuit(711, n_ops=40, n_regs=3, with_memory=True))
    TRACER.clear()
    TRACER.enable()
    try:
        for _ in range(2):
            design.simulator()
        fresh_process()
        design.simulator()
    finally:
        TRACER.disable()
    spans = [ev for ev in TRACER.events() if ev["name"] == "plan"]
    TRACER.clear()
    assert [ev["args"]["tier"] for ev in spans] == ["fuse", "memory", "disk"]
    size = plan_files(store)[0].stat().st_size
    assert [ev["args"]["bytes"] for ev in spans] == [size, 0, size]
    assert all(ev["cat"] == "compile" for ev in spans)


# -- robustness -----------------------------------------------------------------------


@pytest.fixture
def stored(store, persist_all):
    """A small design with its plan on disk, and what a never-cached load
    of it produces."""
    circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
    design = _compile_small(circuit)
    stimuli = random_vectors(circuit, seed=7, cycles=12)
    sim = design.simulator(batch=2)
    want = (sim.run(stimuli), state_digest(sim))
    (path,) = plan_files(store)
    fresh_process()
    REGISTRY.clear()

    def reload():
        sim = design.simulator(batch=2)
        return sim.run(stimuli), state_digest(sim)

    return design, path, want, reload


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x40
    path.write_bytes(bytes(data))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _misfile(path, design):
    """A whole, valid plan — of another bitstream."""
    from repro.core.bitstream import mutate_fold_constant

    load_program(mutate_fold_constant(design.program, 0, 0), 2)
    (other,) = set(path.parent.glob("plan-*.bin")) - {path}
    path.write_bytes(other.read_bytes())
    other.unlink()


def _other_sources(path, design, monkeypatch):
    """The file a loader with different sources left under this name."""
    path.unlink()
    with monkeypatch.context() as patch:
        patch.setattr(fused_mod, "_loader_digest", lambda: "0" * 64)
        design.simulator(batch=2)
    assert path.exists()


def _directory(path):
    path.unlink()
    path.mkdir()


#: name -> damage(path, design, monkeypatch)
DAMAGE = {
    "truncated": lambda path, *_: _truncate(path),
    "empty": lambda path, *_: path.write_bytes(b""),
    "flipped-magic": lambda path, *_: _flip(path, 3),
    "flipped-key": lambda path, *_: _flip(path, 20),
    "flipped-digest": lambda path, *_: _flip(path, 50),
    "flipped-payload": lambda path, *_: _flip(path, path.stat().st_size - 9),
    "other-key": lambda path, design, _: _misfile(path, design),
    "other-sources": _other_sources,
    "directory": lambda path, *_: _directory(path),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_unusable_plan_file_is_discarded_and_rebuilt(damage, stored, monkeypatch, caplog):
    design, path, want, reload = stored
    good = path.read_bytes()
    DAMAGE[damage](path, design, monkeypatch)
    fresh_process()
    REGISTRY.clear()
    with caplog.at_level(logging.WARNING):
        assert reload() == want
    assert [rec.name for rec in caplog.records] == ["repro.core.fused"], caplog.text
    assert "discarding plan file" in caplog.text
    assert tiers() == {"fused": 1, "disk": 0, "discarded": 1}
    # the rebuild put a good file back: the next process reads it
    assert [p.read_bytes() for p in plan_files(path.parent)] == [good]
    assert not list(path.parent.glob("*.tmp"))
    fresh_process()
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert reload() == want
    assert tiers() == {"fused": 1, "disk": 1, "discarded": 1} and not caplog.records


def test_unwritable_cache_directory_costs_one_warning(tmp_path, monkeypatch, persist_all, caplog):
    """(A regular file where the directory should be: unwritable for root too.)"""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
    design = _compile_small(circuit)
    stimuli = random_vectors(circuit, seed=7, cycles=12)
    monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path / "elsewhere"))
    fresh_process()
    sim = design.simulator(batch=2)
    want = (sim.run(stimuli), state_digest(sim))

    monkeypatch.setenv("GEM_CACHE_DIR", str(blocker / "cache"))
    fresh_process()
    with caplog.at_level(logging.WARNING):
        sim = design.simulator(batch=2)
    assert (sim.run(stimuli), state_digest(sim)) == want
    assert len(caplog.records) == 1 and "cannot store the fused plan" in caplog.text
    assert blocker.read_text() == "not a directory"
    fresh_process()


def test_mutated_bitstream_never_hits_the_original_plan(stored):
    """The key is the SHA-256 of the words: a resealed mutation is another
    program, and a malformed one is still refused at load (the load
    boundary tables of tests/test_ram_differential.py run beside a stored
    plan of their unmutated design too)."""
    from repro.core.bitstream import mutate_fold_constant, verify_integrity
    from tests.test_ram_differential import reseal

    design, path, want, reload = stored
    program = design.program
    load_program(mutate_fold_constant(program, 0, 0), 2)  # well-formed, different
    assert tiers() == {"fused": 1, "disk": 0, "discarded": 0}
    assert len(plan_files(path.parent)) == 2

    ram = verify_integrity(program.words)[2]
    with pytest.raises(BitstreamError):
        load_program(reseal(program, ram=ram[:-1]), 2)  # sealed, wrong
    flipped = program.words.copy()
    flipped[flipped.size // 2] ^= 1  # corrupt: refused before any key is looked up
    with pytest.raises(BitstreamError):
        load_program(GemProgram(words=flipped, meta=program.meta), 2)
    assert reload() == want
    assert tiers() == {"fused": 1, "disk": 1, "discarded": 0}


_RACER = """
import os, sys, time
from repro.core import fused
from repro.core.fused import clear_fusion_cache
from repro.runtime.supervisor import state_digest
from tests.helpers import random_circuit, random_vectors
from tests.test_backends import _lane_columns, _registry_case, _stimulus_table
from tests.test_fused_engine import _compile_small

fused.PERSIST_MIN_NODES = 0
circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
design = _compile_small(circuit)
stimuli = random_vectors(circuit, seed=7, cycles=6)
go = sys.argv[1]
print("ready", flush=True)
deadline = time.monotonic() + 60
while not os.path.exists(go):
    assert time.monotonic() < deadline
    time.sleep(0.001)
digests = set()
for round in range(30):
    clear_fusion_cache()
    if round % 3 == 2:  # someone cleans the cache under everyone's feet
        for name in os.listdir(os.environ["GEM_CACHE_DIR"]):
            if name.startswith("plan-") and name.endswith(".bin"):
                try:
                    os.remove(os.path.join(os.environ["GEM_CACHE_DIR"], name))
                except FileNotFoundError:
                    pass
    sim = design.simulator(batch=2)
    sim.run(stimuli)
    digests.add(state_digest(sim))
print("digests", sorted(digests), flush=True)
"""


def test_racing_processes_share_one_store(store, persist_all):
    """Three processes (more than this host has cores) fill, read and
    clean one empty directory at once: every load succeeds with the same
    result, nobody ever sees a torn file, and one valid plan is left."""
    store.mkdir()
    go = store / "go"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {
        **os.environ,
        "GEM_CACHE_DIR": str(store),
        "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root]),
    }
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(go)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(3)
    ]  # fmt: skip
    try:
        for proc in procs:
            assert proc.stdout.readline().strip() == "ready", proc.stderr.read()
        go.write_text("go")
        results = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert "discarding" not in err and "cannot store" not in err, err
    assert len({out for out, _ in results}) == 1 and "digests [" in results[0][0]
    assert len(eval(results[0][0].split("digests ", 1)[1])) == 1
    assert not list(store.glob("*.tmp"))
    # whatever survived the last cleaner is whole: a fresh load reads it
    design = _compile_small(random_circuit(711, n_ops=40, n_regs=3, with_memory=True))
    design.simulator(batch=2)
    fresh_process()
    design.simulator(batch=2)
    assert len(plan_files(store)) == 1
    assert tiers()["disk"] >= 1 and tiers()["discarded"] == 0
