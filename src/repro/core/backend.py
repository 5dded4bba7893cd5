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

* :class:`NumpyBackend` — the default, and *the* hot loop: presliced
  buffer views, bound-method ``take`` into preallocated outputs, XORs by
  all-zero constants elided at compile time.
* :class:`NumbaBackend` — the same plan run by **one fused native
  kernel per stage**: the read gather, every wave's gather+flip+AND, and
  all terminal stores in a single nopython loop nest.  One generic
  kernel is compiled once per process (numba caches it on disk) and
  parameterized by each stage's tables.

A backend whose runtime dependency is missing resolves to numpy with a
single warning per process, so ``--backend numba`` never hard-fails a
run on a machine without it.  A GPU backend slots in here when there is
a GPU to measure it on.

Lane planes: single-word batches keep 1-D ``(n,)`` buffers, K-word
batches ``(n, K)`` planes (:mod:`repro.core.engine`).  The numpy stage
works in whichever layout it is handed; the numba kernel always sees
``(n, K)`` (``K == 1`` through zero-copy reshape views).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import BackendUnavailableError

logger = logging.getLogger(__name__)

#: selectable backend names, in preference order
BACKEND_NAMES = ("numpy", "numba")


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
    """The default backend: plain NumPy ufuncs on host memory.

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


def _build_numba_kernel(numba):
    """The one generic stage kernel, compiled lazily per process.

    Everything a stage does — read gather, each wave's gather + flip +
    AND, terminal gwn/ram/deferred stores — runs inside a single
    ``nopython`` loop nest over the ``(n, K)`` lane planes: no per-wave
    dispatch, no intermediate ``ab`` buffer, no constant-elision
    branches (zero XORs are free in native code).  Within a wave every
    operand position is strictly below the wave's output offset, so the
    sequential in-place trace update is safe.
    """

    @numba.njit(cache=True, fastmath=False)
    def stage_kernel(
        gstate,
        trace,
        arena,
        def_buf,
        read_gidx,
        wave_count,
        wave_out,
        wave_start,
        gather,
        flips,
        gwn_gidx,
        gwn_src,
        gwn_inv,
        gwn_const,
        ram_slots,
        ram_src,
        ram_inv,
        def_src,
        def_inv,
    ):  # pragma: no cover - requires numba
        K = gstate.shape[1]
        for i in range(read_gidx.size):
            g = read_gidx[i]
            for k in range(K):
                trace[i, k] = gstate[g, k]
        for w in range(wave_count.size):
            n = wave_count[w]
            out = wave_out[w]
            s = wave_start[w]
            for p in range(n):
                ia = gather[s + p]
                ib = gather[s + n + p]
                fa = flips[s + p]
                fb = flips[s + n + p]
                for k in range(K):
                    trace[out + p, k] = (trace[ia, k] ^ fa) & (trace[ib, k] ^ fb)
        ndyn = gwn_src.size
        for i in range(gwn_gidx.size):
            g = gwn_gidx[i]
            if i < ndyn:
                src = gwn_src[i]
                inv = gwn_inv[i]
                for k in range(K):
                    gstate[g, k] = trace[src, k] ^ inv
            else:
                c = gwn_const[i - ndyn]
                for k in range(K):
                    gstate[g, k] = c
        for i in range(ram_slots.size):
            src = ram_src[i]
            inv = ram_inv[i]
            slot = ram_slots[i]
            for k in range(K):
                arena[slot, k] = trace[src, k] ^ inv
        for i in range(def_src.size):
            src = def_src[i]
            inv = def_inv[i]
            for k in range(K):
                def_buf[i, k] = trace[src, k] ^ inv

    return stage_kernel


class NumbaBackend(ArrayBackend):
    """Stage schedules JIT-compiled to one native kernel per stage."""

    name = "numba"

    def __init__(self) -> None:
        try:
            import numba
        except ImportError as exc:
            raise BackendUnavailableError(
                "numba is not installed (pip install repro[numba])"
            ) from exc
        self._kernel = _build_numba_kernel(numba)

    def compile_stage(self, plan: StagePlan, buffers: StageBuffers):
        kernel = self._kernel
        # the kernel's (n, K) planes; K == 1 buffers are 1-D, viewed once here
        planes = tuple(
            buf if buf.ndim == 2 else buf.reshape(-1, 1)
            for buf in (buffers.gstate, buffers.trace, buffers.arena, buffers.def_buf)
        )
        args = planes + (
            plan.read_gidx,
            plan.wave_count,
            plan.wave_out,
            plan.wave_start,
            plan.gather,
            plan.flips,
            plan.gwn_gidx,
            plan.gwn_src,
            plan.gwn_inv,
            plan.gwn_const,
            plan.ram_slots,
            plan.ram_src,
            plan.ram_inv,
            plan.def_src,
            plan.def_inv,
        )

        def run(times):
            t0 = time.perf_counter()
            kernel(*args)
            if times is not None:
                # a fused native stage has no gather/fold boundary: its
                # whole wall time lands in ``fold``
                times["fold"] += time.perf_counter() - t0

        return run


# -- resolution ---------------------------------------------------------------

_CLASSES = {"numpy": NumpyBackend, "numba": NumbaBackend}
_INSTANCES: dict[str, ArrayBackend] = {}
_FALLBACK_WARNED: set[str] = set()


def resolve_backend(name=None, *, strict: bool = False) -> ArrayBackend:
    """Resolve a backend name (or instance) to a live backend.

    ``None`` means numpy.  A backend whose dependency is missing falls
    back to numpy with one warning per process (``strict=True`` raises
    :class:`BackendUnavailableError` instead).
    """
    if name is None:
        name = "numpy"
    if isinstance(name, ArrayBackend):
        return name
    if name not in _CLASSES:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}"
        )
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    try:
        inst = _CLASSES[name]()
    except BackendUnavailableError as exc:
        if strict:
            raise
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            logger.warning(
                "%s backend unavailable (%s); falling back to numpy", name, exc
            )
        return resolve_backend("numpy")
    _INSTANCES[name] = inst
    return inst


def available_backends() -> tuple[str, ...]:
    """Backends whose dependencies resolve on this machine."""
    out = []
    for name in BACKEND_NAMES:
        try:
            resolve_backend(name, strict=True)
        except BackendUnavailableError:
            continue
        out.append(name)
    return tuple(out)


def reset_backend_state() -> None:
    """Drop cached instances and the warn-once set (tests)."""
    _INSTANCES.clear()
    _FALLBACK_WARNED.clear()
