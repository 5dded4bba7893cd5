"""Execution-backend seam: resolution, the native kernel's build cache,
plan validation, and kernel equivalence.

The contract under test (docs/ENGINE.md §6):

* ``resolve_backend(None)`` is the first backend that resolves — the
  native C block kernel where a compiler or a cached build exists, numpy
  otherwise (reason logged once, no warning); ``"native"`` by name falls
  back to numpy with exactly one warning per process and hard-fails only
  under ``strict=True``;
* the kernel library is built once into the compile cache, atomically,
  and a warm start spawns no compiler;
* ``NativeBackend.compile_cycle`` rejects a program with an index the C
  kernel would follow out of bounds — stage, RAM-port, commit and block
  row tables alike — and ``run`` a block that is not the array it was
  compiled for, before the library is entered;
* a block of ``n`` cycles is one call into the library;
* native ≡ numpy ≡ the ISA-literal reference interpreter, outputs and
  state, at every lane geometry and across a mid-run checkpoint.

Everything that needs the kernel skips on a host where it cannot be
built, so the suite passes there on numpy alone.
"""

import dataclasses
import logging
import os
import platform
import shlex
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import isa
from repro.core import backend as backend_module
from repro.core.backend import (
    KERNEL_SOURCE,
    CycleBuffers,
    NativeBackend,
    NumpyBackend,
    StagePlan,
    _find_compiler,
    available_backends,
    library_path,
    resolve_backend,
    reset_backend_state,
)
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.engine import ExecutionEngine
from repro.core.fused import FusedProgram
from repro.core.interpreter import _decode_ramop
from repro.core.partition import PartitionConfig
from repro.errors import BackendUnavailableError, BitstreamError, GemError, LaneConfigError
from repro.runtime.checkpoint import load_checkpoint, restore, save_checkpoint, snapshot
from repro.runtime.supervisor import state_digest
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import random_circuit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_native = pytest.mark.skipif(
    "native" not in available_backends(), reason="no C compiler and no cached kernel here"
)


@pytest.fixture(autouse=True)
def _clean_backend_state():
    reset_backend_state()
    yield
    reset_backend_state()


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A host with no C compiler and an empty compile cache."""
    monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path / "empty-cache"))
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setattr(shutil, "which", lambda name, *a, **kw: None)


def _design(seed=7, n_ops=40, with_memory=False):
    circuit = random_circuit(seed, n_ops=n_ops, with_memory=with_memory)
    return GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)


def _lockstep(ref, dut, batch, cycles=24):
    """Random per-lane stimuli through both; outputs, state, RAMs equal."""
    rng = np.random.default_rng(batch)
    names = list(ref.loaded.pi_tables)
    for _ in range(cycles):
        vecs = [
            {n: int(v) for n, v in zip(names, rng.integers(0, 1 << 12, len(names)))}
            for _ in range(batch)
        ]
        assert ref.step_lanes(vecs) == dut.step_lanes(vecs)
    assert np.array_equal(ref.global_state, dut.global_state)
    for a, b in zip(ref.ram_arrays, dut.ram_arrays):
        assert np.array_equal(a, b)


def tiny_program(planes=1, ram=True):
    """A hand-built one-stage program — ``t2 = a & b``, ``t3 = a & ~t2`` —
    with one store of each terminal kind and, with ``ram``, one constant
    deferred write and one RAM port (a 4 x 3-bit block: ``ren`` is
    ``t3``'s arena slot, the address and write-side inputs rest at
    constant 0).  Without it the program is the bare stage: five global
    rows, one arena row.  A block's two PI rows are ``a`` and ``b``, its
    three sample rows ``t2``, the constant store and ``t3``'s deferred
    target.  Returns ``(fused, buffers)``."""
    i64 = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
    u64 = lambda *v: np.array(v, dtype=np.uint64)  # noqa: E731
    ones = 0xFFFFFFFFFFFFFFFF
    engine = ExecutionEngine(64 * planes)
    port = isa.RamOp(
        ram_index=0,
        addr_bits=2,
        data_bits=3,
        rd_global_base=6,
        raddr=[(1, False), (1, False)],
        ren=(0, True),
        waddr=[(1, False), (1, False)],
        wdata=[(1, False), (1, True), (1, False)],
        wen=(1, False),
    )
    plan = StagePlan(
        trace_size=4,
        read_gidx=i64(0, 1),
        wave_count=i64(1, 1),
        wave_out=i64(2, 3),
        wave_start=i64(0, 2),
        gather=i64(0, 1, 0, 2),
        flips=u64(0, 0, 0, ones),
        gwn_gidx=i64(2, 3),
        gwn_src=i64(2),
        gwn_inv=u64(0),
        gwn_const=u64(ones),
        ram_slots=i64(0),
        ram_src=i64(3),
        ram_inv=u64(ones),
        def_gidx=i64(4),
        def_src=i64(3),
        def_inv=u64(0),
        ramops=[(0, _decode_ramop(port))] if ram else [],
    )
    arena_rows = 2 if ram else 1
    fused = FusedProgram(
        arena_size=arena_rows,
        arena_base=[0],
        arena_span=[arena_rows],
        preset_slots=i64(),
        stages=[plan],
        def_const_gidx=i64(5) if ram else i64(),
        def_const_vals=u64(0b0110) if ram else u64(),
    )
    image = np.tile(np.array([5, 1, 2, 3], dtype=np.uint32), (engine.batch, 1))
    buffers = CycleBuffers(
        engine=engine,
        gstate=engine.zeros(9 if ram else 5),
        pi_rows=i64(0, 1),
        sample_rows=i64(2, 3, 4),
        trace=engine.zeros(4),
        arena=engine.zeros(arena_rows),
        rams=[image] if ram else [],
    )
    return fused, buffers


def tiny_blocks(buffers, n=1):
    """``a=0b1100, b=0b1010`` on each of ``n`` cycles, and the block
    their samples land in."""
    engine = buffers.engine
    pi_block = engine.zeros(n * 2).reshape(n, 2, *buffers.gstate.shape[1:])
    pi_block[:, 0] = 0b1100
    pi_block[:, 1] = 0b1010
    return pi_block, engine.zeros(n * 3).reshape(n, 3, *buffers.gstate.shape[1:])


def run_tiny_program(backend, planes=1):
    """One cycle of :func:`tiny_blocks` through :func:`tiny_program`;
    returns ``(gstate, arena, RAM image, global writes, sampled block)``."""
    fused, buffers = tiny_program(planes)
    cycle = resolve_backend(backend, strict=True).compile_cycle(fused, buffers)
    pi_block, po_block = tiny_blocks(buffers)
    writes = cycle.run(1, pi_block, po_block, None)
    return buffers.gstate, buffers.arena, buffers.rams[0], writes, po_block


def wave_program(counts, planes, seed=0):
    """A hand-built one-stage program whose waves hold ``counts`` nodes:
    eight PI rows read into the trace, every operand a random row below
    its wave's outputs under a random flip word (zero, all-ones or any),
    and the whole trace stored to the global rows behind the PIs, which
    a block samples.  Returns ``(fused, buffers)``."""
    rng = np.random.default_rng(seed)
    engine = ExecutionEngine(64 * planes)
    nread = 8
    count = np.array(counts, dtype=np.int64)
    out = nread + np.cumsum(count) - count
    size = nread + int(count.sum())
    gather = np.concatenate([rng.integers(0, o, 2 * n) for o, n in zip(out, count)])
    choice = rng.integers(0, 3, gather.size)
    words = rng.integers(0, 1 << 64, gather.size, dtype=np.uint64)
    flips = np.where(choice == 0, 0, np.where(choice == 1, ~np.uint64(0), words))
    i64 = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
    u64 = lambda *v: np.array(v, dtype=np.uint64)  # noqa: E731
    plan = StagePlan(
        trace_size=size,
        read_gidx=np.arange(nread, dtype=np.int64),
        wave_count=count,
        wave_out=out.astype(np.int64),
        wave_start=(np.cumsum(2 * count) - 2 * count).astype(np.int64),
        gather=gather.astype(np.int64),
        flips=flips.astype(np.uint64),
        gwn_gidx=np.arange(nread, nread + size, dtype=np.int64),
        gwn_src=np.arange(size, dtype=np.int64),
        gwn_inv=np.zeros(size, dtype=np.uint64),
        gwn_const=u64(),
        ram_slots=i64(),
        ram_src=i64(),
        ram_inv=u64(),
        def_gidx=i64(),
        def_src=i64(),
        def_inv=u64(),
        ramops=[],
    )
    fused = FusedProgram(
        arena_size=1,
        arena_base=[0],
        arena_span=[1],
        preset_slots=i64(),
        stages=[plan],
        def_const_gidx=i64(),
        def_const_vals=u64(),
    )
    buffers = CycleBuffers(
        engine=engine,
        gstate=engine.zeros(nread + size),
        pi_rows=np.arange(nread, dtype=np.int64),
        sample_rows=np.arange(nread, nread + size, dtype=np.int64),
        trace=engine.zeros(size),
        arena=engine.zeros(1),
        rams=[],
    )
    return fused, buffers


def _child_env(cache, **env):
    return {
        **os.environ,
        "PYTHONPATH": os.path.join(ROOT, "src") + os.pathsep + ROOT,
        "GEM_CACHE_DIR": str(cache),
        **env,
    }


def _child(code, cache, **env):
    """Run ``code`` in a fresh interpreter on the given compile cache."""
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=_child_env(cache, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )


#: resolve the kernel strictly and push one cycle through it
USE_KERNEL = (
    "from tests.test_backends import run_tiny_program\n"
    "g, arena, image, writes, po_block = run_tiny_program('native')\n"
    "assert g[2, 0] == 0b1000 and g[4, 0] == 0b0100 and writes == 3, (g, writes)\n"
    "print('kernel ok')\n"
)


def _libraries(cache):
    return sorted(p for p in os.listdir(cache) if p.startswith("native-") and p.endswith(".so"))


class TestResolution:
    @needs_native
    def test_none_means_native(self):
        assert resolve_backend(None).name == "native"
        assert isinstance(resolve_backend(None), NativeBackend)
        assert available_backends() == ("native", "numpy")

    def test_none_means_numpy(self, no_compiler, caplog):
        """...where there is neither a compiler nor a cached library: the
        default quietly runs numpy and says why, once, below WARNING."""
        with caplog.at_level(logging.INFO, logger="repro.core.backend"):
            assert isinstance(resolve_backend(None), NumpyBackend)
            assert resolve_backend(None).name == "numpy"
        records = [r for r in caplog.records if "falling back to numpy" in r.getMessage()]
        assert len(records) == 1 and records[0].levelno == logging.INFO
        assert "no C compiler" in records[0].getMessage()
        assert available_backends() == ("numpy",)

    def test_instance_passes_through(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst

    def test_unknown_name_raises_typed(self):
        with pytest.raises(BackendUnavailableError) as exc:
            resolve_backend("tpu")
        assert isinstance(exc.value, GemError)
        assert "tpu" in str(exc.value)

    def test_instances_are_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")
        assert resolve_backend(None) is resolve_backend(None)

    def test_available_backends_always_has_numpy(self):
        assert "numpy" in available_backends()

    def test_strict_raises_when_native_unavailable(self, no_compiler):
        with pytest.raises(BackendUnavailableError, match="no C compiler"):
            resolve_backend("native", strict=True)
        # strict does not forbid the default its own fallback
        assert resolve_backend(None, strict=True).name == "numpy"

    def test_cc_names_the_only_compiler_tried(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/nonexistent/cc")
        with pytest.raises(BackendUnavailableError, match="/nonexistent/cc"):
            resolve_backend("native", strict=True)


class TestFallbackWarnsOnce:
    """``native`` asked for by name where it cannot be built downgrades
    to numpy, loudly, once."""

    def test_fallback_warns_once_and_still_resolves(self, no_compiler, caplog):
        with caplog.at_level(logging.INFO, logger="repro.core.backend"):
            resolve_backend(None)  # the default's own note must not use up the warning
            first = resolve_backend("native")
            second = resolve_backend("native")
        warnings = [
            r
            for r in caplog.records
            if r.levelno == logging.WARNING and "falling back to numpy" in r.getMessage()
        ]
        assert len(warnings) == 1, "exactly one fallback warning per process"
        assert "no C compiler" in warnings[0].getMessage()
        assert first.name == "numpy" and second.name == "numpy"

    def test_simulator_falls_back_and_runs(self, no_compiler, caplog):
        design = _design()
        with caplog.at_level(logging.WARNING, logger="repro.core.backend"):
            sim = design.simulator(batch=4, backend="native")
        assert sim.backend.name == "numpy"
        sim.step({})  # and it still simulates
        assert design.simulator(batch=4).backend.name == "numpy"


class TestLibraryKey:
    def test_the_key_covers_the_build_flags(self, monkeypatch):
        """A flag change must build a new library, not load one built
        under the old flags."""
        before = library_path(KERNEL_SOURCE)
        monkeypatch.setattr(backend_module, "_CFLAGS", ("-O2", "-shared", "-fPIC"))
        assert library_path(KERNEL_SOURCE) != before
        assert library_path(KERNEL_SOURCE + "\n") != library_path(KERNEL_SOURCE)


@needs_native
class TestBuildCache:
    """One library per source, built atomically, never rebuilt warm."""

    def test_warm_start_spawns_no_compiler(self, tmp_path):
        cold = _child(USE_KERNEL, tmp_path)
        assert cold.returncode == 0, cold.stderr
        (lib,) = _libraries(tmp_path)
        assert os.path.exists(tmp_path / (lib[:-3] + ".json")), "compiler identity sidecar"
        mtime = os.stat(tmp_path / lib).st_mtime_ns
        forbid = (
            "import subprocess\n"
            "def refuse(*a, **kw): raise AssertionError('warm start spawned a process')\n"
            "subprocess.run = subprocess.Popen = refuse\n"
        )
        warm = _child(forbid + USE_KERNEL, tmp_path)
        assert warm.returncode == 0, warm.stderr
        assert os.stat(tmp_path / lib).st_mtime_ns == mtime
        # the same holds with no compiler at all: the cached build is enough
        bare = _child(forbid + USE_KERNEL, tmp_path, CC="/nonexistent/cc")
        assert bare.returncode == 0, bare.stderr

    @pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64") or platform.libc_ver()[0] != "glibc",
        reason="per-ISA clones are built on x86-64 glibc only",
    )
    def test_x86_64_glibc_build_carries_the_wave_clones(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        NativeBackend()
        (lib,) = _libraries(tmp_path)
        image = (tmp_path / lib).read_bytes()
        assert b"waves.avx512f" in image and b"waves.avx2" in image and b"waves1.avx2" in image

    def test_unguarded_build_agrees_with_numpy(self, monkeypatch, tmp_path):
        """Where the toolchain cannot dispatch clones (no ``__GNUC__``
        stands for it) the kernel is one plain ``-O3`` function per wave
        loop, and it still builds and matches numpy on both wave paths."""
        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", shlex.join([*_find_compiler(), "-U__GNUC__"]))
        native = NativeBackend()
        (lib,) = _libraries(tmp_path)
        assert b"waves1.avx2" not in (tmp_path / lib).read_bytes()
        design = _design(seed=11, n_ops=60, with_memory=True)
        for batch in (1, 192):
            ref = design.simulator(batch=batch, backend="numpy")
            _lockstep(ref, design.simulator(batch=batch, backend=native), batch)

    def test_racing_cold_builds_both_load(self, tmp_path):
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", USE_KERNEL],
                cwd=ROOT,
                env=_child_env(tmp_path),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in racers:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert "kernel ok" in out
        assert len(_libraries(tmp_path)) == 1
        assert not [p for p in os.listdir(tmp_path) if p.startswith("native-build-")]

    def test_truncated_library_is_rebuilt(self, tmp_path):
        assert _child(USE_KERNEL, tmp_path).returncode == 0
        (lib,) = _libraries(tmp_path)
        path = tmp_path / lib
        whole = path.read_bytes()
        path.write_bytes(whole[:100])
        again = _child(USE_KERNEL, tmp_path)
        assert again.returncode == 0, again.stderr
        assert len(path.read_bytes()) == len(whole)

    def test_truncated_library_without_compiler_falls_back(self, tmp_path):
        assert _child(USE_KERNEL, tmp_path).returncode == 0
        (lib,) = _libraries(tmp_path)
        (tmp_path / lib).write_bytes(b"\x7fELF")
        code = (
            "from repro.core.backend import resolve_backend\n"
            "assert resolve_backend(None).name == 'numpy'\n"
        )
        fallback = _child(code, tmp_path, CC="/nonexistent/cc")
        assert fallback.returncode == 0, fallback.stderr


@needs_native
class TestPlanValidation:
    """numpy survives a bad index table (``take(..., "clip")``, fancy-index
    ``IndexError``); C would not, so ``compile_cycle`` checks them all."""

    def test_tiny_stage_agrees_with_numpy(self):
        for planes in (1, 3):
            got, want = run_tiny_program("native", planes), run_tiny_program("numpy", planes)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            gstate, arena, image, writes, po_block = got
            word = gstate[:, 0]
            # the samples are the settled point's: t2 and the constant store
            # have landed, t3's deferred write has not
            sampled = po_block[0, :, 0]
            assert sampled.tolist() == [0b1000, 0xFFFFFFFFFFFFFFFF, 0]
            # t3 = a & ~(a & b) = 0b0100 is the deferred write and, inverted
            # twice on its way through the arena, the port's read enable:
            # lane 2 alone reads word 0 (0b101) into global bits 6..8
            assert word[2] == 0b1000 and word[4] == 0b0100 and word[5] == 0b0110
            assert [int(w) for w in word[6:9]] == [0b0100, 0, 0b0100]
            assert writes == 3 and np.array_equal(image[0], [5, 1, 2, 3])

    @pytest.mark.parametrize(
        "table, position, value",
        [
            ("gather", 2, 3),  # wave 2 reading its own output row
            ("gather", 0, -1),
            ("read_gidx", 1, 5),
            ("ram_slots", 0, 1),
            ("gwn_gidx", 0, 5),
            ("gwn_src", 0, 4),
            ("ram_src", 0, 4),
            ("def_src", 0, 4),
            ("wave_out", 1, 4),  # output row past the trace
            ("wave_start", 1, 1),
            ("def_gidx", 0, 5),
        ],
    )
    def test_out_of_range_entry_raises_before_any_call(self, table, position, value):
        fused, buffers = tiny_program(ram=False)
        (plan,) = fused.stages
        bad = getattr(plan, table).copy()
        bad[position] = value
        fused.stages = [dataclasses.replace(plan, **{table: bad})]
        with pytest.raises(BitstreamError, match=table):
            resolve_backend("native").compile_cycle(fused, buffers)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("raddr_slots", np.array([1, 2], dtype=np.int64), "raddr_slots"),
            ("waddr_slots", np.array([-1, 1], dtype=np.int64), "waddr_slots"),
            ("wdata_slots", np.array([1, 1], dtype=np.int64), "wdata_slots"),  # one bit short
            ("wdata_inv", np.zeros(2, dtype=np.uint64), "wdata_inv"),
            ("ren_slot", 2, "ren_slot"),
            ("wen_slot", 7, "wen_slot"),
        ],
    )
    def test_out_of_range_ram_port_raises(self, field, value, match):
        fused, buffers = tiny_program()
        ((pidx, op),) = fused.stages[0].ramops
        fused.stages[0].ramops = [(pidx, dataclasses.replace(op, **{field: value}))]
        with pytest.raises(BitstreamError, match=match):
            resolve_backend("native").compile_cycle(fused, buffers)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"ram_index": 1}, "ram_index"),
            ({"rd_global_base": 7}, "rd_global_base"),  # 3 data bits from row 7 of 9
            ({"addr_bits": 3}, "image"),  # the block holds 4 words, not 8
            ({"data_bits": 33}, "33 data bits"),
        ],
    )
    def test_ram_port_disagreeing_with_its_block_raises(self, change, match):
        fused, buffers = tiny_program()
        ((pidx, op),) = fused.stages[0].ramops
        spec = dataclasses.replace(op.spec, **change)
        fused.stages[0].ramops = [(pidx, dataclasses.replace(op, spec=spec))]
        with pytest.raises(BitstreamError, match=match):
            resolve_backend("native").compile_cycle(fused, buffers)

    def test_out_of_range_commit_and_arena_tables_raise(self):
        native = resolve_backend("native")
        fused, buffers = tiny_program()
        fused.def_const_gidx = np.array([9], dtype=np.int64)
        with pytest.raises(BitstreamError, match="def_const_gidx"):
            native.compile_cycle(fused, buffers)
        fused, buffers = tiny_program()
        fused.def_const_vals = fused.def_const_vals[:0]
        with pytest.raises(BitstreamError, match="def_const_vals"):
            native.compile_cycle(fused, buffers)
        fused, buffers = tiny_program()
        fused.arena_base = [1]  # the port's span now ends past the arena
        with pytest.raises(BitstreamError, match="arena span"):
            native.compile_cycle(fused, buffers)

    def test_wrong_dtype_layout_or_size_raises(self):
        native = resolve_backend("native")

        def compile_with(plan_change=None, **buffer_change):
            fused, buffers = tiny_program()
            if plan_change:
                fused.stages = [dataclasses.replace(fused.stages[0], **plan_change)]
            native.compile_cycle(fused, dataclasses.replace(buffers, **buffer_change))

        plan = tiny_program()[0].stages[0]
        with pytest.raises(BitstreamError, match="gather"):
            compile_with({"gather": plan.gather.astype(np.int32)})
        with pytest.raises(BitstreamError, match="flips"):
            compile_with({"flips": plan.flips[:-1]})
        with pytest.raises(BitstreamError, match="gwn_const"):
            compile_with({"gwn_const": plan.gwn_const[:0]})
        with pytest.raises(BitstreamError, match="def_gidx"):
            compile_with({"def_gidx": plan.def_gidx[:0]})
        with pytest.raises(BitstreamError, match="trace"):
            compile_with(trace=np.zeros(8, dtype=np.uint64)[::2])
        with pytest.raises(BitstreamError, match="trace"):
            compile_with(trace=np.zeros(3, dtype=np.uint64))
        with pytest.raises(BitstreamError, match="arena"):
            compile_with(arena=np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(BitstreamError, match="image"):
            compile_with(rams=[np.zeros((64, 4), dtype=np.uint64)])
        with pytest.raises(BitstreamError, match="image"):
            compile_with(rams=[np.zeros((63, 4), dtype=np.uint32)])

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    @pytest.mark.parametrize("table", ["pi_rows", "sample_rows"])
    def test_block_row_tables_are_held_against_the_global_state(self, backend, table):
        for bad in ([0, 9], [-1, 1], np.array([0, 1], dtype=np.int32)):
            fused, buffers = tiny_program()
            change = {table: np.asarray(bad, dtype=getattr(bad, "dtype", np.int64))}
            with pytest.raises(BitstreamError, match=table):
                resolve_backend(backend).compile_cycle(fused, dataclasses.replace(buffers, **change))

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    @pytest.mark.parametrize("planes", [1, 2])
    def test_a_block_of_the_wrong_shape_dtype_or_layout_never_runs(self, backend, planes):
        fused, buffers = tiny_program(planes)
        backend = resolve_backend(backend)
        cycle = backend.compile_cycle(fused, buffers)
        if backend.name == "native":
            cycle._run = lambda *args: pytest.fail("the library was entered")
        pi_block, po_block = tiny_blocks(buffers, n=2)
        before = buffers.gstate.copy()
        for name, bad in [
            ("pi_block", pi_block[:1]),  # one cycle short
            ("pi_block", pi_block.astype(np.int64)),
            ("pi_block", np.concatenate([pi_block, pi_block], axis=1)[:, ::2]),  # strided rows
            ("pi_block", pi_block.tolist()),
            ("po_block", po_block[:, :2]),  # one sample row short
            ("po_block", po_block.astype(np.uint32)),
            ("po_block", po_block[..., None]),  # a rank too many
        ]:
            blocks = {"pi_block": pi_block, "po_block": po_block, name: bad}
            with pytest.raises(LaneConfigError, match=name):
                cycle.run(2, blocks["pi_block"], blocks["po_block"], None)
        assert np.array_equal(buffers.gstate, before)


@needs_native
class TestCompiledKernelEquivalence:
    """The native kernel must match the numpy stage bit-for-bit."""

    @pytest.mark.parametrize("batch", [1, 3, 64, 128, 192, 256, 320])
    def test_generic_compile_stage_matches_numpy(self, batch):
        """The one generic cycle kernel in lockstep with numpy on a
        RAM-bearing design: single-word batches through the ``K == 1``
        fast path, K-word planes through the plane path (K = 2, 3, 4
        and 5 each through its own constant-K copy)."""
        design = _design(seed=11, n_ops=60, with_memory=True)
        dut = design.simulator(batch=batch, backend="native")
        assert dut.backend.name == "native"
        ref = design.simulator(batch=batch, backend="numpy")
        assert ref.ram_arrays, "the design must exercise the RAM-port path"
        _lockstep(ref, dut, batch)

    @pytest.mark.parametrize("planes", [1, 2, 3, 5, 8, 11])
    def test_waves_of_1_to_17_nodes_agree_with_numpy(self, planes):
        """Every remainder of a 2-, 4- or 8-wide vector loop, on the
        ``K == 1`` wave and the plane wave of whichever clone runs, at a
        constant K below 8 and a run-time K from 8 up."""
        counts = list(range(1, 18))
        np.random.default_rng(planes).shuffle(counts)
        blocks = []
        for backend in ("native", "numpy"):
            fused, buffers = wave_program(counts, planes)
            cycle = resolve_backend(backend, strict=True).compile_cycle(fused, buffers)
            pi_block, po_block = (
                buffers.engine.zeros(4 * rows.size).reshape(4, rows.size, planes)
                for rows in (buffers.pi_rows, buffers.sample_rows)
            )
            pi_block[:] = np.random.default_rng(5).integers(
                0, 1 << 64, pi_block.shape, dtype=np.uint64
            )
            cycle.run(4, pi_block, po_block, None)
            blocks.append(po_block)
        assert np.array_equal(*blocks)
        assert blocks[0][:, 8:].any() and not blocks[0][:, 8:].all()

    def test_native_profile_splits_gather_fold_commit(self):
        """``clock_gettime`` inside the kernel: every phase is non-zero and
        together they fit inside the wall time measured around the run."""
        design = _design(seed=11, n_ops=60, with_memory=True)
        for batch in (1, 128):
            sim = design.simulator(batch=batch, backend="native", profile=True)
            t0 = time.perf_counter()
            for _ in range(20):
                sim.step({})
            wall = time.perf_counter() - t0
            times = sim.phase_times
            assert times["gather"] > 0.0 and times["fold"] > 0.0 and times["commit"] > 0.0
            assert sum(times.values()) <= wall


@needs_native
class TestOneCallPerBlock:
    """The cycle loop is inside the library: a block of cycles is one
    call, whatever its length, and the settled point — inside that call
    now — is still where probes and readback look."""

    @staticmethod
    def counting_backend(calls):
        backend = NativeBackend()
        kernel = backend._kernel

        def counted(program, n, pi, po, ticks):
            calls.append(n)
            return kernel(program, n, pi, po, ticks)

        backend._kernel = counted
        return backend

    @pytest.mark.parametrize("batch", [1, 128])
    def test_exactly_one_native_call_per_step(self, batch):
        calls = []
        design = _design(seed=11, n_ops=60, with_memory=True)
        sim = design.simulator(batch=batch, backend=self.counting_backend(calls))
        ref = design.simulator(batch=batch, backend="numpy")
        assert sim.ram_arrays and not calls, "building the simulator runs nothing"
        _lockstep(ref, sim, batch, cycles=10)
        for _ in range(3):
            assert sim.step({}) == ref.step({})
            sim.step_arrays()
            ref.step_arrays()
            sim.advance_lanes()
            ref.advance_lanes()
        assert calls == [1] * sim.cycle
        assert sim.cycle == 19 and sim.counters == ref.counters

    @pytest.mark.parametrize("batch, driver", [(1, "run"), (3, "run_lanes"), (128, "run_lanes")])
    def test_a_run_is_one_native_call_per_block(self, batch, driver):
        """The deterministic form of the block kernel's gain: N cycles
        make ceil(N / block_cycles) calls into the library, not 2 N."""
        calls = []
        design = _design(seed=11, n_ops=60, with_memory=True)
        sim = design.simulator(batch=batch, backend=self.counting_backend(calls))
        ref = design.simulator(batch=batch, backend="numpy")
        block = sim.block_cycles
        assert 1 < block == ref.block_cycles, "a small design runs many cycles per block"
        cycles = 2 * block + 3
        rng = np.random.default_rng(batch)
        names = list(sim.loaded.pi_tables)
        stimuli = [
            {n: int(v) for n, v in zip(names, rng.integers(0, 1 << 12, len(names)))}
            for _ in range(cycles)
        ]
        if driver == "run_lanes":
            stimuli = [[vec] * batch for vec in stimuli]
        assert getattr(sim, driver)(iter(stimuli)) == getattr(ref, driver)(stimuli)
        assert calls == [block, block, 3]
        assert sim.cycle == cycles and sim.counters == ref.counters
        assert sim.state.digest() == ref.state.digest()

    def test_probe_tap_samples_inside_the_call(self):
        """A counter: at the tap the register still holds the value that
        entered the cycle while the outputs have settled to this cycle's —
        and the tap costs no call of its own."""
        from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan
        from repro.rtl.builder import CircuitBuilder

        b = CircuitBuilder("counter")
        tick = b.reg("tick", 3)
        tick.next = tick + 1
        b.output("n", tick + 1)
        design = GemCompiler(GemConfig()).compile(b.build())
        calls = []
        sim = design.simulator(backend=self.counting_backend(calls))
        plan = build_probe_plan(design)
        ring = WaveRing(plan, capacity=8)

        class Order:
            def on_block(self, first_cycle, words):
                calls.append(("tap", first_cycle, len(words)))

        ProbeTap(plan, [ring, Order()]).attach(sim)
        outs = [sim.step()["n"] for _ in range(2)] + [out["n"] for out in sim.run([{}] * 3)]
        assert calls == [1, ("tap", 0, 1), 1, ("tap", 1, 1), 3, ("tap", 2, 3)]
        samples = [values for _, values in ring.lane_samples(0)]
        assert [s["tick"] for s in samples] == [0, 1, 2, 3, 4], "FF bits before the commit"
        assert [s["n"] for s in samples] == outs == [1, 2, 3, 4, 5], "outputs after the waves"


def _registry_case(name):
    slow = name in ("nvdla", "openpiton8")
    return pytest.param(name, marks=pytest.mark.slow) if slow else name


def _stimulus_table(sim, stimuli):
    """The workload as one value array per value-rail PI (object dtype
    for ports wider than a word)."""
    return {
        name: np.array(
            [vec.get(name, 0) for vec in stimuli], dtype=np.uint64 if idx.size <= 64 else object
        )
        for name, idx in sim.loaded.pi_tables.items()
        if not name.endswith("__x")
    }


def _lane_columns(sim, table, cycle, rng):
    """Cycle ``cycle`` of the workload with lane ``l`` running ``l`` cycles
    ahead, as ``step_arrays`` columns; ``name__x`` rails (4-state designs)
    float random bits on every fifth lane."""
    lanes = np.arange(sim.batch)
    columns = {}
    for name, idx in sim.loaded.pi_tables.items():
        if name in table:
            columns[name] = table[name][(cycle + lanes) % len(table[name])]
        else:
            column = rng.integers(0, 1 << min(idx.size, 16), sim.batch, dtype=np.uint64)
            column[lanes % 5 != 3] = 0
            columns[name] = column
    return columns


@needs_native
class TestRegistryDesigns:
    """native ≡ numpy ≡ ReferenceInterpreter on the registered designs."""

    CYCLES = 14
    SWAP_AT = 6

    def _run(self, design, stimuli, batch, tmp_path):
        sims = {
            "reference": ReferenceInterpreter(design.program, batch=batch),
            "native": design.simulator(batch=batch, backend="native"),
            "numpy": design.simulator(batch=batch, backend="numpy"),
        }
        assert sims["native"].backend.name == "native"
        rng = np.random.default_rng(batch)
        table = _stimulus_table(sims["reference"], stimuli)
        for cycle in range(self.CYCLES):
            if cycle == self.SWAP_AT and batch <= 128:
                # mid-run checkpoints change hands: each backend resumes
                # from the file the other one saved (1024 lanes x every
                # RAM image makes the files the cost of the test; one- and
                # two-word planes cover both layouts)
                for saver, resumer in (("native", "numpy"), ("numpy", "native")):
                    path = os.path.join(tmp_path, f"{saver}.gemk")
                    save_checkpoint(snapshot(sims[saver]), path)
                    fresh = design.simulator(batch=batch, backend=resumer)
                    sims[f"{resumer}<-{saver}"] = restore(fresh, load_checkpoint(path))
                del sims["native"], sims["numpy"]
            columns = _lane_columns(sims["reference"], table, cycle, rng)
            want = sims["reference"].step_arrays(columns)
            for label, sim in sims.items():
                if label == "reference":
                    continue
                got = sim.step_arrays(columns)
                for po, column in want.items():
                    assert np.array_equal(got[po], column), (label, cycle, po)
        digest = state_digest(sims["reference"])
        for label, sim in sims.items():
            assert sim.cycle == self.CYCLES
            assert state_digest(sim) == digest, label

    @pytest.mark.parametrize("batch", [1, 16, 64, 128, 1024])
    @pytest.mark.parametrize(
        "name",
        [_registry_case(n) for n in ("gemmini", "nvdla", "openpiton1", "openpiton8", "rocketchip")],
    )
    def test_native_numpy_reference_agree(self, name, batch, tmp_path):
        from repro.harness.runner import compile_design, design_workloads

        stimuli = next(iter(design_workloads(name).values())).stimuli
        self._run(compile_design(name), stimuli, batch, tmp_path)

    @pytest.mark.parametrize("batch", [1, 64, 128])
    def test_four_state_rails_agree(self, batch, tmp_path):
        """``values=4``: the dual-rail program is ordinary plan data to
        the kernel; X bits float on some lanes' known rails."""
        from repro.harness.runner import compile_design, design_workloads

        design = compile_design("openpiton1", values=4)
        assert design.simulator().values == 4
        stimuli = next(iter(design_workloads("openpiton1").values())).stimuli
        self._run(design, stimuli, batch, tmp_path)

    def test_four_state_costs_under_twice_the_fused_ops(self):
        """The price of X/Z on the executor, as a count: the dual-rail
        program has both rails and the x-prop glue in one schedule, and
        dispatches 260 fused array ops a cycle where the 2-state compile
        of the same design dispatches 137 (1.90x)."""
        from repro.harness.runner import compile_design, design_workloads

        stimulus = next(iter(design_workloads("openpiton1").values())).stimuli[0]
        fused_ops = {}
        for values in (2, 4):
            sim = compile_design("openpiton1", values=values).simulator()
            sim.step(stimulus)
            fused_ops[values] = sim.counters.per_cycle()["fused_array_ops"]
        assert fused_ops == {2: 137, 4: 260}


class TestOracleEnrollment:
    """Backends ride the differential oracle at rotated lane batches."""

    def test_backend_runs_as_extra_oracle_engine(self):
        """By default every backend that resolves here is held against
        the others: the fused engine runs the default one, the rest
        enroll as extra engines."""
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        config = OracleConfig(batches=(1, 128))
        assert config.backends == available_backends()
        gen = generate_design(1234, "mixed")
        stimuli = random_stimuli(gen.spec, 1234, 12)
        result = run_oracle(gen.spec, stimuli, config)
        assert result.ok
        default = resolve_backend(None).name
        for name in available_backends():
            assert (f"backend:{name}" in result.coverage) == (name != default)

    def test_unavailable_backend_skips_with_marker(self):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        gen = generate_design(99, "mixed")
        stimuli = random_stimuli(gen.spec, 99, 8)
        result = run_oracle(
            gen.spec,
            stimuli,
            OracleConfig(batches=(1, 16), backends=("numpy", "tpu")),
        )
        assert result.ok
        assert "backend-skip:tpu" in result.coverage

    def test_native_skips_with_marker_without_a_compiler(self, no_compiler):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        gen = generate_design(99, "mixed")
        stimuli = random_stimuli(gen.spec, 99, 8)
        result = run_oracle(
            gen.spec, stimuli, OracleConfig(batches=(1, 16), backends=("native", "numpy"))
        )
        assert result.ok
        assert "backend-skip:native" in result.coverage

    def test_config_round_trips_backends(self):
        from repro.fuzz.oracle import OracleConfig

        config = OracleConfig(backends=("numpy", "native"))
        back = OracleConfig.from_json(config.to_json())
        assert back.backends == ("numpy", "native")
        # older configs without the key hydrate with the default
        legacy = OracleConfig.from_json({"batches": [1, 4]})
        assert legacy.backends == available_backends()

