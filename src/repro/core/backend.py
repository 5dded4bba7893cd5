"""Pluggable execution backends for the stage-fused executor.

:func:`repro.core.fused.fuse` emits one :class:`StagePlan` per stage —
fixed index arrays and constant vectors, no per-element Python control
flow — and :class:`~repro.core.fused.FusedExecutor` turns each plan into
a callable through the one seam a backend implements::

    run = backend.compile_stage(plan, buffers)   # once, at load
    run(times)                                   # once per stage per cycle

``buffers`` (:class:`StageBuffers`) are the executor-owned arrays the
stage reads and writes; ``times`` is the interpreter's ``phase_times``
dict while profiling, else ``None``.  Two backends implement the seam:

* :class:`NativeBackend` — the default wherever a C compiler (or an
  already-built library) exists: the paper's §III-E shape, **one fixed
  kernel with the bitstream as data**.  The read gather, every wave's
  gather+flip+AND and all terminal stores of a stage are one call into
  one C function (:data:`KERNEL_SOURCE`), built once with the host
  compiler into the compile cache and loaded through ``ctypes``.  The
  library is generic — every design, batch and stage passes its plan
  arrays as arguments; nothing is generated per design.
* :class:`NumpyBackend` — the same plan as a dispatch-bound array loop:
  presliced buffer views, bound-method ``take`` into preallocated
  outputs, XORs by all-zero constants elided at compile time.  It runs
  everywhere and is what the oracle holds the kernel against.

``resolve_backend(None)`` returns the first of :data:`BACKEND_NAMES`
that resolves, so a host without a compiler silently runs numpy (the
reason is logged once); asking for ``"native"`` by name there warns once
and falls back, ``strict=True`` raises.  A GPU backend slots in here
when there is a GPU to measure it on.

Lane planes: single-word batches keep 1-D ``(n,)`` buffers, K-word
batches ``(n, K)`` planes (:mod:`repro.core.engine`).  The numpy stage
works in whichever layout it is handed; the kernel sees row-major
``(n, K)`` either way and has a ``K == 1`` fast path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import BackendUnavailableError, BitstreamError

logger = logging.getLogger(__name__)

#: selectable backend names, in preference order
BACKEND_NAMES = ("native", "numpy")


@dataclass
class StagePlan:
    """One fused stage's schedule: the only schedule format there is.

    Per-wave tables are concatenated into flat arrays with per-wave
    ``(count, out, start)`` descriptors so a single compiled kernel can
    run any stage.  Every flip / inversion vector is materialized, zeros
    included: a native kernel XORs them for free, and the numpy backend
    elides the all-zero ones when it compiles the stage.
    """

    trace_size: int
    #: deduped global bits feeding the stage: ``trace[:n] = gstate[read_gidx]``
    read_gidx: np.ndarray  # int64 (nread,)
    wave_count: np.ndarray  # int64 (nwaves,) nodes per wave
    wave_out: np.ndarray  # int64 (nwaves,) trace offset of the outputs
    wave_start: np.ndarray  # int64 (nwaves,) offset into gather/flips
    gather: np.ndarray  # int64, all waves' operand positions (A then B)
    flips: np.ndarray  # uint64, matching edge-flip words
    #: immediate GWRITE table — dynamic prefix, constant tail
    gwn_gidx: np.ndarray  # int64, targets (dyn + const)
    gwn_src: np.ndarray  # int64, trace positions of the dynamic prefix
    gwn_inv: np.ndarray  # uint64 (ndyn,)
    gwn_const: np.ndarray  # uint64, the constant tail's words
    #: dynamic RAM-port inputs: ``arena[ram_slots] = trace[ram_src] ^ ram_inv``
    ram_slots: np.ndarray  # int64
    ram_src: np.ndarray  # int64
    ram_inv: np.ndarray  # uint64
    #: deferred GWRITEs sampled from this stage's trace (dynamic only)
    def_gidx: np.ndarray  # int64, commit targets
    def_src: np.ndarray  # int64, trace positions
    def_inv: np.ndarray  # uint64
    #: RAM ports as (partition index, decoded op), run by the executor at
    #: stage end on per-partition arena views
    ramops: list


@dataclass
class StageBuffers:
    """The executor-owned arrays one compiled stage reads and writes."""

    gstate: np.ndarray  # the interpreter's global state (never rebound)
    trace: np.ndarray  # [stage reads][wave 1][wave 2]…, shared by all stages
    arena: np.ndarray  # RAM-port input slots of every partition
    def_buf: np.ndarray  # receives this stage's deferred-GWRITE values


class ArrayBackend:
    """What the executor needs from a backend: a name and the stage seam."""

    name = "abstract"

    def compile_stage(self, plan: StagePlan, buffers: StageBuffers):
        """Compile one stage; returns ``run(times) -> None``.

        ``run`` performs the stage's read gather, every wave, and the
        gwn / ram / deferred terminal stores into ``buffers`` (the
        executor commits ``def_buf`` at the cycle boundary and runs the
        RAM ports).  ``times`` is ``None`` or the ``phase_times`` dict to
        add this call's wall time to.
        """
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """The portable backend: plain NumPy ufuncs on host memory.

    Every per-cycle call targets a presliced view of a preallocated
    buffer (zero allocation apart from the in-place fancy-index
    scatters), and the gathers go through the bound ``ndarray.take``,
    which skips ~2.5us of ``np.take`` wrapper dispatch per call.
    """

    name = "numpy"

    def compile_stage(self, plan: StagePlan, buffers: StageBuffers):
        gstate, trace, arena = buffers.gstate, buffers.trace, buffers.arena
        def_buf = buffers.def_buf
        lane_shape = trace.shape[1:]  # () or (K,)

        def col(vec):
            """A constant vector broadcastable across the lane plane."""
            return vec[:, None] if lane_shape else vec

        def flip(vec):
            """``col(vec)``, or ``None`` when all zero: the XOR is elided."""
            return col(vec) if vec.any() else None

        read_gidx = plan.read_gidx
        read_view = trace[: read_gidx.size]
        counts = plan.wave_count.tolist()
        wave_buf = np.zeros((2 * max(counts, default=0), *lane_shape), dtype=np.uint64)
        waves = []
        for n, out, s in zip(counts, plan.wave_out.tolist(), plan.wave_start.tolist()):
            ab = wave_buf[: 2 * n]
            waves.append(
                (
                    plan.gather[s : s + 2 * n],
                    flip(plan.flips[s : s + 2 * n]),
                    ab,
                    ab[:n],
                    ab[n:],
                    trace[out : out + n],
                )
            )

        gwn_gidx, gwn_src, gwn_inv = plan.gwn_gidx, plan.gwn_src, flip(plan.gwn_inv)
        gwn_buf = np.zeros((gwn_gidx.size, *lane_shape), dtype=np.uint64)
        gwn_buf[gwn_src.size :] = col(plan.gwn_const)  # constant tail, once
        gwn_dyn = gwn_buf[: gwn_src.size]
        ram_slots, ram_src, ram_inv = plan.ram_slots, plan.ram_src, flip(plan.ram_inv)
        ram_buf = np.zeros((ram_slots.size, *lane_shape), dtype=np.uint64)
        def_src, def_inv = plan.def_src, flip(plan.def_inv)
        take = trace.take
        xor, and_ = np.bitwise_xor, np.bitwise_and
        clock = time.perf_counter

        def run(times):
            if times is not None:
                t0 = clock()
            if read_gidx.size:
                gstate.take(read_gidx, 0, read_view, "clip")
            if times is not None:
                t1 = clock()
                times["gather"] += t1 - t0
                t0 = t1
            for gather, flips, ab, a, b, out in waves:
                take(gather, 0, ab, "clip")
                if flips is not None:
                    xor(ab, flips, out=ab)
                and_(a, b, out=out)
            if times is not None:
                t1 = clock()
                times["fold"] += t1 - t0
                t0 = t1
            if gwn_gidx.size:
                if gwn_src.size:
                    take(gwn_src, 0, gwn_dyn, "clip")
                    if gwn_inv is not None:
                        xor(gwn_dyn, gwn_inv, out=gwn_dyn)
                gstate[gwn_gidx] = gwn_buf
            if ram_slots.size:
                take(ram_src, 0, ram_buf, "clip")
                if ram_inv is not None:
                    xor(ram_buf, ram_inv, out=ram_buf)
                arena[ram_slots] = ram_buf
            if def_src.size:
                take(def_src, 0, def_buf, "clip")
                if def_inv is not None:
                    xor(def_buf, def_inv, out=def_buf)
            if times is not None:
                times["commit"] += clock() - t0

        return run


#: The one generic stage kernel.  Everything a stage does — read gather,
#: each wave's gather + flip + AND, terminal gwn/ram/deferred stores — is
#: a single loop nest over the plan's arrays: no per-wave dispatch, no
#: operand buffer, no constant-elision branches (zero XORs are free in
#: native code).  Within a wave every operand position is strictly below
#: the wave's output offset, so the in-place trace update is safe and the
#: ``restrict`` on the output row is honest.  The kernel is unchecked:
#: :meth:`NativeBackend.compile_stage` proves every index in range first.
KERNEL_SOURCE = r"""
#include <stdint.h>
#include <time.h>

typedef struct {
    int64_t K; /* words per lane plane: buffers are (rows, K), row-major */
    uint64_t *gstate, *trace, *arena, *def_buf;
    int64_t nread, nwaves, ngwn, ngwn_dyn, nram, ndef;
    const int64_t *read_gidx, *wave_count, *wave_out, *wave_start, *gather,
        *gwn_gidx, *gwn_src, *ram_slots, *ram_src, *def_src;
    const uint64_t *flips, *gwn_inv, *gwn_const, *ram_inv, *def_inv;
} gem_stage;

static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

#define INLINE static inline __attribute__((always_inline))

/* row(dst, idx ? idx[i] : i) = row(trace, src[i]) ^ inv[i] */
INLINE void store_rows(uint64_t *dst, const int64_t *idx, const uint64_t *trace,
                       const int64_t *src, const uint64_t *inv, int64_t n, const int64_t K)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t *restrict d = dst + (idx ? idx[i] : i) * K;
        const uint64_t *t = trace + src[i] * K;
        for (int64_t k = 0; k < K; k++)
            d[k] = t[k] ^ inv[i];
    }
}

/* Written once over (n, K) planes; inlined with K == 1 it is the scalar
   fast path (the k loops fold away), with K = s->K the plane path. */
INLINE void run_stage(const gem_stage *s, double *ticks, const int64_t K)
{
    uint64_t *const trace = s->trace, *const gstate = s->gstate;
    double t0 = ticks ? now() : 0.0, t1;

    for (int64_t i = 0; i < s->nread; i++) {
        uint64_t *restrict d = trace + i * K;
        const uint64_t *g = gstate + s->read_gidx[i] * K;
        for (int64_t k = 0; k < K; k++)
            d[k] = g[k];
    }
    if (ticks) {
        t1 = now();
        ticks[0] = t1 - t0;
        t0 = t1;
    }
    for (int64_t w = 0; w < s->nwaves; w++) {
        const int64_t n = s->wave_count[w];
        const int64_t *a = s->gather + s->wave_start[w], *b = a + n;
        const uint64_t *fa = s->flips + s->wave_start[w], *fb = fa + n;
        uint64_t *out = trace + s->wave_out[w] * K;
        for (int64_t p = 0; p < n; p++) {
            uint64_t *restrict d = out + p * K;
            const uint64_t *x = trace + a[p] * K, *y = trace + b[p] * K;
            for (int64_t k = 0; k < K; k++)
                d[k] = (x[k] ^ fa[p]) & (y[k] ^ fb[p]);
        }
    }
    if (ticks) {
        t1 = now();
        ticks[1] = t1 - t0;
        t0 = t1;
    }
    store_rows(gstate, s->gwn_gidx, trace, s->gwn_src, s->gwn_inv, s->ngwn_dyn, K);
    for (int64_t i = s->ngwn_dyn; i < s->ngwn; i++)
        for (int64_t k = 0; k < K; k++)
            gstate[s->gwn_gidx[i] * K + k] = s->gwn_const[i - s->ngwn_dyn];
    store_rows(s->arena, s->ram_slots, trace, s->ram_src, s->ram_inv, s->nram, K);
    store_rows(s->def_buf, 0, trace, s->def_src, s->def_inv, s->ndef, K);
    if (ticks)
        ticks[2] = now() - t0;
}

/* ticks: NULL, or three doubles that receive the seconds this call spent
   in the read gather, the waves and the terminal stores */
void gem_stage_run(const gem_stage *s, double *ticks)
{
    if (s->K == 1)
        run_stage(s, ticks, 1);
    else
        run_stage(s, ticks, s->K);
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_U64 = ctypes.POINTER(ctypes.c_uint64)

#: the plan's index and word tables, in ``gem_stage`` order
_INDEX_TABLES = (
    "read_gidx", "wave_count", "wave_out", "wave_start", "gather",
    "gwn_gidx", "gwn_src", "ram_slots", "ram_src", "def_src",
)  # fmt: skip
_WORD_TABLES = ("flips", "gwn_inv", "gwn_const", "ram_inv", "def_inv")


class _Stage(ctypes.Structure):
    """``gem_stage`` of :data:`KERNEL_SOURCE`, field for field."""

    _fields_ = [
        ("K", ctypes.c_int64),
        *((name, _U64) for name in ("gstate", "trace", "arena", "def_buf")),
        *((n, ctypes.c_int64) for n in ("nread", "nwaves", "ngwn", "ngwn_dyn", "nram", "ndef")),
        *((name, _I64) for name in _INDEX_TABLES),
        *((name, _U64) for name in _WORD_TABLES),
    ]


_CFLAGS = ("-O2", "-shared", "-fPIC")


def _find_compiler() -> list[str] | None:
    """``$CC`` when set (then nothing else is tried), else the first of
    ``cc`` / ``gcc`` / ``clang`` on the path."""
    import shlex
    import shutil

    if os.environ.get("CC"):
        argv = shlex.split(os.environ["CC"])
        return argv if shutil.which(argv[0]) else None
    return next(([cc] for cc in ("cc", "gcc", "clang") if shutil.which(cc)), None)


def _build_library(source: str, path: str) -> None:
    """Compile ``source`` into the shared library ``path``.

    Built inside a temporary directory next to ``path`` and moved into
    place with ``os.replace``: racing or interrupted builds never leave a
    partial library behind.  The compiler's identity goes into a
    ``.json`` sidecar, not into the file name — a warm start must not
    spawn a compiler just to ask its version.
    """
    import subprocess
    import tempfile

    compiler = _find_compiler()
    if compiler is None:
        tried = os.environ.get("CC") or "cc, gcc, clang"
        raise BackendUnavailableError(
            f"no C compiler ({tried}) and no kernel library cached at {path}"
        )
    folder = os.path.dirname(path)
    try:
        os.makedirs(folder, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=folder, prefix="native-build-") as tmp:
            src, lib, note = (os.path.join(tmp, f"kernel.{ext}") for ext in ("c", "so", "json"))
            with open(src, "w") as f:
                f.write(source)
            argv = [*compiler, *_CFLAGS, "-o", lib, src]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise BackendUnavailableError(
                    f"{' '.join(compiler)} could not build the stage kernel: "
                    f"{proc.stderr.strip()[-300:]}"
                )
            version = subprocess.run(
                [*compiler, "--version"], capture_output=True, text=True, timeout=30
            ).stdout.splitlines()[:1]
            with open(note, "w") as f:
                json.dump({"compiler": compiler, "version": version, "flags": _CFLAGS}, f)
            os.replace(note, os.path.splitext(path)[0] + ".json")
            os.replace(lib, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BackendUnavailableError(f"cannot build the stage kernel: {exc}") from exc


def _open_library(path: str):
    kernel = ctypes.CDLL(path).gem_stage_run
    kernel.argtypes = [ctypes.POINTER(_Stage), ctypes.POINTER(ctypes.c_double)]
    kernel.restype = None
    return kernel


def load_kernel(source: str = KERNEL_SOURCE):
    """``gem_stage_run`` of ``source`` as a ``ctypes`` function (the GIL
    is released while it runs), built on first use and cached.

    The library lives in the compile-cache directory (``GEM_CACHE_DIR``,
    default ``.gem_cache/``) as
    ``native-<sha256(source + machine + pointer size)>.so``; a cached
    file that does not load (truncated, foreign) is rebuilt once.
    """
    key = f"{source}\0{platform.machine()}\0{ctypes.sizeof(ctypes.c_void_p)}"
    cache = os.environ.get("GEM_CACHE_DIR", os.path.join(os.getcwd(), ".gem_cache"))
    path = os.path.join(cache, f"native-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so")
    if os.path.exists(path):
        try:
            return _open_library(path)
        except (OSError, AttributeError) as exc:
            logger.warning("rebuilding the stage kernel: %s does not load (%s)", path, exc)
    _build_library(source, path)
    try:
        return _open_library(path)
    except (OSError, AttributeError) as exc:
        raise BackendUnavailableError(f"{path} does not load: {exc}") from exc


def _table(arr: np.ndarray, name: str, dtype, size: int | None = None) -> None:
    """A plan table must be a contiguous 1-D ``dtype`` vector (of ``size``)."""
    if (
        arr.dtype != dtype
        or arr.ndim != 1
        or not arr.flags.c_contiguous
        or (size is not None and arr.size != size)
    ):
        want = "" if size is None else f" of {size} entries"
        raise BitstreamError(
            f"stage plan: {name} must be a contiguous {np.dtype(dtype)} vector{want}, "
            f"got {arr.dtype}{arr.shape}"
        )


def _index(arr: np.ndarray, name: str, bound, size: int | None = None) -> None:
    """An index table: ``int64``, every entry in ``[0, bound)`` (``bound``
    a scalar or one limit per entry)."""
    _table(arr, name, np.int64, size)
    if arr.size and (int(arr.min()) < 0 or bool((arr >= bound).any())):
        raise BitstreamError(f"stage plan: {name} holds an index out of range")


def _plane(buf: np.ndarray, name: str, rows: int, planes: int | None = None) -> int:
    """A buffer: contiguous ``uint64``, ``(n,)`` or ``(n, K)`` with at
    least ``rows`` rows (and ``planes`` words per row); returns ``K``."""
    k = buf.shape[1] if buf.ndim == 2 else 1
    if (
        buf.dtype != np.uint64
        or buf.ndim not in (1, 2)
        or not buf.flags.c_contiguous
        or buf.shape[0] < rows
        or planes not in (None, k)
    ):
        raise BitstreamError(
            f"stage buffers: {name} must be contiguous uint64 with >= {rows} rows"
            f"{'' if planes is None else f' of {planes} words'}, got {buf.dtype}{buf.shape}"
        )
    return k


class NativeBackend(ArrayBackend):
    """Every stage through the one C kernel: the bitstream is its data."""

    name = "native"

    def __init__(self) -> None:
        self._kernel = load_kernel()

    def compile_stage(self, plan: StagePlan, buffers: StageBuffers):
        """Prove every index of ``plan`` in range of ``buffers``, then bind
        both into one ``gem_stage``.  numpy's ``take(..., "clip")`` and
        fancy-index ``IndexError`` would survive a bad table; C would not,
        so a plan that fails here (:class:`BitstreamError`) never reaches
        the kernel."""
        gstate, trace, arena = buffers.gstate, buffers.trace, buffers.arena
        def_buf = buffers.def_buf
        size = plan.trace_size
        planes = _plane(trace, "trace", size)
        _plane(gstate, "gstate", 0, planes)
        _plane(arena, "arena", 0, planes)
        _plane(def_buf, "def_buf", plan.def_src.size, planes)
        count, out = plan.wave_count, plan.wave_out
        _index(plan.read_gidx, "read_gidx", gstate.shape[0])
        if plan.read_gidx.size > size:
            raise BitstreamError("stage plan: more reads than trace rows")
        _index(count, "wave_count", size + 1)
        _index(out, "wave_out", size + 1 - count, count.size)
        ends = np.cumsum(2 * count)
        _table(plan.wave_start, "wave_start", np.int64, count.size)
        if not np.array_equal(plan.wave_start, ends - 2 * count):
            raise BitstreamError("stage plan: wave_start is not the running operand count")
        operands = int(ends[-1]) if ends.size else 0
        _index(plan.gather, "gather", np.repeat(out, 2 * count), operands)
        _table(plan.flips, "flips", np.uint64, operands)
        _index(plan.gwn_gidx, "gwn_gidx", gstate.shape[0])
        _index(plan.gwn_src, "gwn_src", size)
        _table(plan.gwn_inv, "gwn_inv", np.uint64, plan.gwn_src.size)
        _table(plan.gwn_const, "gwn_const", np.uint64, plan.gwn_gidx.size - plan.gwn_src.size)
        _index(plan.ram_slots, "ram_slots", arena.shape[0])
        _index(plan.ram_src, "ram_src", size, plan.ram_slots.size)
        _table(plan.ram_inv, "ram_inv", np.uint64, plan.ram_slots.size)
        _index(plan.def_src, "def_src", size)
        _table(plan.def_inv, "def_inv", np.uint64, plan.def_src.size)

        stage = _Stage(
            K=planes,
            nread=plan.read_gidx.size,
            nwaves=count.size,
            ngwn=plan.gwn_gidx.size,
            ngwn_dyn=plan.gwn_src.size,
            nram=plan.ram_slots.size,
            ndef=plan.def_src.size,
            gstate=gstate.ctypes.data_as(_U64),
            trace=trace.ctypes.data_as(_U64),
            arena=arena.ctypes.data_as(_U64),
            def_buf=def_buf.ctypes.data_as(_U64),
            **{name: getattr(plan, name).ctypes.data_as(_I64) for name in _INDEX_TABLES},
            **{name: getattr(plan, name).ctypes.data_as(_U64) for name in _WORD_TABLES},
        )
        # the struct holds raw addresses: the arrays behind them must live
        # exactly as long as it does
        stage.keepalive = (plan, buffers)
        ref = ctypes.byref(stage)
        ticks = (ctypes.c_double * 3)()
        kernel = self._kernel

        def run(times):
            if times is None:
                kernel(ref, None)
                return
            kernel(ref, ticks)
            times["gather"] += ticks[0]
            times["fold"] += ticks[1]
            times["commit"] += ticks[2]

        return run


# -- resolution ---------------------------------------------------------------

_CLASSES = {"native": NativeBackend, "numpy": NumpyBackend}
_INSTANCES: dict[str, ArrayBackend] = {}
#: why a backend did not resolve, so a host without a compiler looks for
#: one once per process, not once per simulator
_UNAVAILABLE: dict[str, str] = {}
_FALLBACK_LOGGED: set[tuple[str, int]] = set()


def _instance(name: str) -> ArrayBackend:
    inst = _INSTANCES.get(name)
    if inst is None:
        if name in _UNAVAILABLE:
            raise BackendUnavailableError(_UNAVAILABLE[name])
        try:
            inst = _INSTANCES[name] = _CLASSES[name]()
        except BackendUnavailableError as exc:
            _UNAVAILABLE[name] = str(exc)
            raise
    return inst


def resolve_backend(name=None, *, strict: bool = False) -> ArrayBackend:
    """Resolve a backend name (or instance) to a live backend.

    ``None`` means the first of :data:`BACKEND_NAMES` that resolves:
    native where a C compiler or a cached kernel library exists, numpy
    otherwise (the reason is logged once, at INFO).  A backend asked for
    by name that cannot load falls back to numpy with one warning per
    process; ``strict=True`` raises :class:`BackendUnavailableError`
    instead.
    """
    if isinstance(name, ArrayBackend):
        return name
    if name is not None and name not in _CLASSES:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}"
        )
    level = logging.INFO if name is None else logging.WARNING
    for candidate in BACKEND_NAMES if name is None else (name, "numpy"):
        try:
            return _instance(candidate)
        except BackendUnavailableError as exc:
            if strict and name is not None:
                raise
            if (candidate, level) not in _FALLBACK_LOGGED:
                _FALLBACK_LOGGED.add((candidate, level))
                logger.log(
                    level, "%s backend unavailable (%s); falling back to numpy", candidate, exc
                )
    raise AssertionError("the numpy backend always resolves")  # pragma: no cover


def available_backends() -> tuple[str, ...]:
    """Backends that resolve on this machine, in preference order."""
    out = []
    for name in BACKEND_NAMES:
        try:
            _instance(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return tuple(out)


def reset_backend_state() -> None:
    """Drop cached instances, failures and the log-once set (tests)."""
    _INSTANCES.clear()
    _UNAVAILABLE.clear()
    _FALLBACK_LOGGED.clear()
