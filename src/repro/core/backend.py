"""Pluggable execution backends for the stage-fused executor.

:func:`repro.core.fused.fuse` emits one :class:`StagePlan` per stage —
fixed index arrays and constant vectors, no per-element Python control
flow — and the interpreter turns the whole
:class:`~repro.core.fused.FusedProgram` into one compiled *cycle*
through the one seam a backend implements::

    cycle = backend.compile_cycle(fused, buffers)        # once, at load
    writes = cycle.run(n, pi_block, po_block, times)     # once per block

``buffers`` (:class:`CycleBuffers`) are the interpreter-owned arrays the
cycle reads and writes and the two row tables that tie a block to them;
``times`` is the interpreter's ``phase_times`` dict while profiling,
else ``None``; :meth:`ArrayBackend.compile_cycle` says what ``run``
does each of its ``n`` cycles.  Two backends implement the seam:

* :class:`NativeBackend` — the default wherever a C compiler (or an
  already-built library) exists: the paper's §III-E shape, **one fixed
  resident kernel with the bitstream as data** that loops over cycles
  and does not return to the host in between.  A block is exactly one
  call into one C library (:data:`KERNEL_SOURCE`), built once with the
  host compiler into the compile cache and loaded through ``ctypes``.
  The library is generic — every design and batch passes its plan arrays
  as arguments; nothing is generated per design.
* :class:`NumpyBackend` — the same plan as a dispatch-bound array loop:
  presliced buffer views, bound-method ``take`` into preallocated
  outputs, XORs by all-zero constants elided at compile time, RAM ports
  through :meth:`~repro.core.engine.ExecutionEngine.ram_port`.  It runs
  everywhere and is what the oracle holds the kernel against.

``resolve_backend(None)`` returns the first of :data:`BACKEND_NAMES`
that resolves, so a host without a compiler silently runs numpy (the
reason is logged once); asking for ``"native"`` by name there warns once
and falls back, ``strict=True`` raises.  A GPU backend slots in here
when there is a GPU to measure it on.

Buffers and blocks are ``(rows, K)`` lane planes at every batch, ``K = 1``
up to 64 lanes (:mod:`repro.core.engine`): the numpy cycle broadcasts the
plan's constant words across the plane, the kernel walks row-major
``(n, K)`` planes with a ``K == 1`` fast path.
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
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cachefile import cache_dir
from repro.errors import BackendUnavailableError, BitstreamError, LaneConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ExecutionEngine
    from repro.core.fused import FusedProgram

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
    #: RAM ports as (partition index, decoded op), run at stage end on the
    #: partition's span of the arena
    ramops: list


@dataclass
class CycleBuffers:
    """The interpreter-owned arrays one compiled cycle reads and writes.

    None of them is ever rebound: ``reset``, checkpoint restore, lane
    quarantine and the fault injectors all write in place, so a backend
    may hold raw addresses into them for its lifetime.
    """

    engine: "ExecutionEngine"  # lane geometry: batch, K, the lanes of the batch
    gstate: np.ndarray  # the interpreter's global state
    pi_rows: np.ndarray  # int64: the gstate row each PI row of a block lands in
    sample_rows: np.ndarray  # int64: the gstate rows a block samples, per cycle
    trace: np.ndarray  # [stage reads][wave 1][wave 2]…, shared by all stages
    arena: np.ndarray  # RAM-port input slots of every partition
    rams: list  # per RAM block, the (batch, depth) uint32 lane images


class ArrayBackend:
    """What the interpreter needs from a backend: a name and the cycle seam."""

    name = "abstract"

    def compile_cycle(self, fused: "FusedProgram", buffers: CycleBuffers):
        """Compile one program; returns a cycle object with the one
        entry ``run(n, pi_block, po_block, times) -> int``.  Each of its
        ``n`` cycles scatters ``pi_block[c]`` over ``buffers.pi_rows``,
        runs every stage — read gather, waves, terminal stores, then
        that stage's RAM ports, in (stage, partition) order — gathers
        ``buffers.sample_rows`` into ``po_block[c]`` at the settled
        point (outputs and probed nets alike), and applies the deferred
        writes: each stage's sampled deferred GWRITEs, then its RAM read
        data under its read-enable lane plane, finally the shared
        constant tuple.  Returns the block's dynamic ``global_writes``
        increment (the data bits of every RAM port some lane read).
        The blocks are writable contiguous ``uint64``, ``(n, rows,
        K)`` — anything else is a :class:`~repro.errors.LaneConfigError`
        before a cycle runs; ``times`` is ``None`` or the ``phase_times``
        dict to add the call's ``gather`` / ``fold`` / ``commit`` to.
        """
        raise NotImplementedError


_UINT64 = np.dtype(np.uint64)


def _slab(rows: np.ndarray, name: str, gstate: np.ndarray) -> tuple:
    """Hold a block's row table against the global state -> one cycle's slab."""
    _index(rows, name, gstate.shape[0])
    return (rows.size, gstate.shape[1])


def _check_block(block: np.ndarray, name: str, shape: tuple) -> None:
    if not (
        isinstance(block, np.ndarray)
        and block.dtype == _UINT64
        and block.shape == shape
        and block.flags.c_contiguous
        and block.flags.writeable
    ):
        got = f"{getattr(block, 'dtype', type(block).__name__)}{getattr(block, 'shape', '')}"
        raise LaneConfigError(
            f"{name} must be a writable contiguous uint64 array of shape {shape}, got {got}"
        )


class _NumpyCycle:
    """A block as a Python loop over cycles, a cycle as a loop over
    compiled numpy stages and the engine's RAM-port and merge primitives."""

    def __init__(self, stages, def_const, buffers: CycleBuffers) -> None:
        #: per stage: (compiled stage, its deferred commit or None,
        #: its RAM ports as (op, partition arena view, lane images))
        self._stages = stages
        self._def_const = def_const
        self._buffers = buffers
        self._pi_shape = _slab(buffers.pi_rows, "pi_rows", buffers.gstate)
        self._po_shape = _slab(buffers.sample_rows, "sample_rows", buffers.gstate)

    def run(self, n: int, pi_block: np.ndarray, po_block: np.ndarray, times) -> int:
        _check_block(pi_block, "pi_block", (n, *self._pi_shape))
        _check_block(po_block, "po_block", (n, *self._po_shape))
        buffers = self._buffers
        gstate, pi_rows, sample_rows = buffers.gstate, buffers.pi_rows, buffers.sample_rows
        ram_port, merge = buffers.engine.ram_port, buffers.engine.merge
        clock, writes = time.perf_counter, 0
        for c in range(n):
            gstate[pi_rows] = pi_block[c]
            deferred = []  # this cycle's (gidx, values, lane mask) commits
            for run, def_commit, ports in self._stages:
                run(times)
                if def_commit is not None:
                    deferred.append(def_commit)
                t0 = clock()
                for op, view, image in ports:
                    read = ram_port(op, view, image)
                    if read is not None:
                        deferred.append(read)
                        writes += op.spec.data_bits
                if times is not None:
                    times["commit"] += clock() - t0
            if self._def_const is not None:
                deferred.append(self._def_const)
            gstate.take(sample_rows, 0, po_block[c], "clip")  # the settled point
            t0 = clock()
            for gidx, values, mask in deferred:
                merge(gstate, gidx, values, mask)
            if times is not None:
                times["commit"] += clock() - t0
        return writes


class NumpyBackend(ArrayBackend):
    """The portable backend: plain NumPy ufuncs on host memory.

    Every per-cycle call targets a presliced view of a preallocated
    buffer (zero allocation apart from the in-place fancy-index
    scatters), and the gathers go through the bound ``ndarray.take``,
    which skips ~2.5us of ``np.take`` wrapper dispatch per call.
    """

    name = "numpy"

    def compile_cycle(self, fused: "FusedProgram", buffers: CycleBuffers):
        eng = buffers.engine
        views = [
            buffers.arena[base : base + span]
            for base, span in zip(fused.arena_base, fused.arena_span)
        ]
        stages = []
        for plan in fused.stages:
            def_buf = eng.zeros(plan.def_gidx.size)
            stages.append(
                (
                    self._compile_stage(plan, buffers, def_buf),
                    (plan.def_gidx, def_buf, None) if plan.def_gidx.size else None,
                    [
                        (op, views[pidx], buffers.rams[op.spec.ram_index])
                        for pidx, op in plan.ramops
                    ],
                )
            )
        def_const = None
        if fused.def_const_gidx.size:  # constants broadcast as an (n, 1) column
            def_const = (fused.def_const_gidx, fused.def_const_vals[:, None], None)
        return _NumpyCycle(stages, def_const, buffers)

    @staticmethod
    def _compile_stage(plan: StagePlan, buffers: CycleBuffers, def_buf: np.ndarray):
        """One stage as ``run(times)``: the read gather, every wave, and
        the gwn / ram / deferred terminal stores (the sampled deferred
        values land in ``def_buf`` for the commit)."""
        gstate, trace, arena = buffers.gstate, buffers.trace, buffers.arena
        planes = trace.shape[1]

        def flip(vec):
            """``vec`` as a column across the lane plane, or ``None`` when
            all zero: the XOR is elided."""
            return vec[:, None] if vec.any() else None

        read_gidx = plan.read_gidx
        read_view = trace[: read_gidx.size]
        counts = plan.wave_count.tolist()
        wave_buf = np.zeros((2 * max(counts, default=0), planes), dtype=np.uint64)
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
        gwn_buf = np.zeros((gwn_gidx.size, planes), dtype=np.uint64)
        gwn_buf[gwn_src.size :] = plan.gwn_const[:, None]  # constant tail, once
        gwn_dyn = gwn_buf[: gwn_src.size]
        ram_slots, ram_src, ram_inv = plan.ram_slots, plan.ram_src, flip(plan.ram_inv)
        ram_buf = np.zeros((ram_slots.size, planes), dtype=np.uint64)
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


#: The one generic block kernel: ``gem_run`` loops over cycles and returns
#: to the host once per block.  Everything a stage does — read gather,
#: each wave's gather + flip + AND, terminal gwn/ram/deferred stores — is
#: a single loop nest over the plan's arrays: no per-wave dispatch, no
#: operand buffer, no constant-elision branches (zero XORs are free in
#: native code).  Within a wave every operand position is strictly below
#: the wave's output offset, so the in-place trace update is safe and the
#: ``restrict`` on the output row is honest.  A RAM port is the literal
#: per-lane loop of :meth:`~repro.core.engine.ExecutionEngine.ram_port`.
#: The kernel is unchecked: :meth:`NativeBackend.compile_cycle` proves
#: every index in range first.
KERNEL_SOURCE = r"""
#include <stdint.h>
#include <time.h>

#define MAX_PORT_BITS 32 /* widest RAM address / data word */

/* One RAM port.  Rows are absolute arena rows, inversion words are 0 or
   all-ones; image is the block's (batch, depth) contents. */
typedef struct {
    int64_t addr_bits, data_bits, depth, ren_row, wen_row, rd_base;
    uint64_t ren_inv, wen_inv;
    const int64_t *raddr_rows, *waddr_rows, *wdata_rows;
    const uint64_t *raddr_inv, *waddr_inv, *wdata_inv;
    uint32_t *image;
    uint64_t *rd_data; /* (data_bits, K): read data sampled this cycle */
    uint64_t *rd_en;   /* (K,): the lanes that read this cycle */
} gem_ramop;

typedef struct {
    int64_t nread, nwaves, ngwn, ngwn_dyn, nram, ndef, nports;
    uint64_t *def_buf; /* (ndef, K): deferred values sampled this cycle */
    const gem_ramop *ports;
    const int64_t *read_gidx, *wave_count, *wave_out, *wave_start, *gather,
        *gwn_gidx, *gwn_src, *ram_slots, *ram_src, *def_src, *def_gidx;
    const uint64_t *flips, *gwn_inv, *gwn_const, *ram_inv, *def_inv;
} gem_stage;

typedef struct {
    int64_t K; /* words per lane plane: buffers are (rows, K), row-major */
    int64_t nstages, nconst, npi, nsample;
    uint64_t lane_mask; /* the lanes of the batch: RAM-port enables are masked to it */
    uint64_t *gstate, *trace, *arena;
    const gem_stage *stages;
    const int64_t *const_gidx; /* the shared constant deferred tuple */
    const uint64_t *const_vals;
    const int64_t *pi_rows, *sample_rows; /* a block's rows -> gstate rows */
} gem_program;

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
   fast path (the k loops fold away), with K = prog->K the plane path. */
INLINE void run_stage(const gem_program *prog, const gem_stage *s, double *ticks, const int64_t K)
{
    uint64_t *const trace = prog->trace, *const gstate = prog->gstate;
    double t0 = ticks ? now() : 0.0, t1;

    for (int64_t i = 0; i < s->nread; i++) {
        uint64_t *restrict d = trace + i * K;
        const uint64_t *g = gstate + s->read_gidx[i] * K;
        for (int64_t k = 0; k < K; k++)
            d[k] = g[k];
    }
    if (ticks) {
        t1 = now();
        ticks[0] += t1 - t0;
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
        ticks[1] += t1 - t0;
    }
    store_rows(gstate, s->gwn_gidx, trace, s->gwn_src, s->gwn_inv, s->ngwn_dyn, K);
    for (int64_t i = s->ngwn_dyn; i < s->ngwn; i++)
        for (int64_t k = 0; k < K; k++)
            gstate[s->gwn_gidx[i] * K + k] = s->gwn_const[i - s->ngwn_dyn];
    store_rows(prog->arena, s->ram_slots, trace, s->ram_src, s->ram_inv, s->nram, K);
    store_rows(s->def_buf, 0, trace, s->def_src, s->def_inv, s->ndef, K);
}

/* words[b] = word k of arena row rows[b], inverted: bit b of every lane */
INLINE void port_words(uint64_t *words, const uint64_t *arena, const int64_t *rows,
                       const uint64_t *inv, int64_t n, const int64_t K, int64_t k)
{
    for (int64_t b = 0; b < n; b++)
        words[b] = arena[rows[b] * K + k] ^ inv[b];
}

INLINE uint64_t lane_value(const uint64_t *words, int64_t n, int lane)
{
    uint64_t v = 0;
    for (int64_t b = 0; b < n; b++)
        v |= ((words[b] >> lane) & 1) << b;
    return v;
}

/* One RAM port, lane by lane, read-first: the read samples the image
   before this port's write lands.  Returns 1 when any lane read. */
INLINE int run_port(const gem_program *prog, const gem_ramop *r, const int64_t K)
{
    const uint64_t *arena = prog->arena;
    int reads = 0;
    for (int64_t k = 0; k < K; k++) {
        const uint64_t ren = (arena[r->ren_row * K + k] ^ r->ren_inv) & prog->lane_mask;
        const uint64_t wen = (arena[r->wen_row * K + k] ^ r->wen_inv) & prog->lane_mask;
        uint64_t raddr[MAX_PORT_BITS], waddr[MAX_PORT_BITS], wdata[MAX_PORT_BITS];
        uint64_t rdata[MAX_PORT_BITS] = {0};
        if (ren)
            port_words(raddr, arena, r->raddr_rows, r->raddr_inv, r->addr_bits, K, k);
        if (wen) {
            port_words(waddr, arena, r->waddr_rows, r->waddr_inv, r->addr_bits, K, k);
            port_words(wdata, arena, r->wdata_rows, r->wdata_inv, r->data_bits, K, k);
        }
        for (uint64_t todo = ren | wen; todo; todo &= todo - 1) {
            const int lane = __builtin_ctzll(todo);
            uint32_t *image = r->image + (k * 64 + lane) * r->depth;
            if ((ren >> lane) & 1) {
                const uint64_t v = image[lane_value(raddr, r->addr_bits, lane)];
                for (int64_t b = 0; b < r->data_bits; b++)
                    rdata[b] |= ((v >> b) & 1) << lane;
            }
            if ((wen >> lane) & 1)
                image[lane_value(waddr, r->addr_bits, lane)] =
                    (uint32_t)lane_value(wdata, r->data_bits, lane);
        }
        for (int64_t b = 0; b < r->data_bits; b++)
            r->rd_data[b * K + k] = rdata[b];
        r->rd_en[k] = ren;
        reads |= ren != 0;
    }
    return reads;
}

/* One cycle up to the settled point: every stage, then its RAM ports.
   Returns the data bits of every port some lane read. */
INLINE int64_t cycle_eval(const gem_program *prog, double *ticks, const int64_t K)
{
    int64_t writes = 0;
    for (int64_t i = 0; i < prog->nstages; i++) {
        const gem_stage *s = prog->stages + i;
        run_stage(prog, s, ticks, K);
        for (int64_t j = 0; j < s->nports; j++)
            if (run_port(prog, s->ports + j, K))
                writes += s->ports[j].data_bits;
    }
    return writes;
}

/* The cycle boundary: per stage the sampled deferred GWRITEs, then its ports'
   read data under their read-enable planes; finally the constant tuple. */
INLINE void cycle_commit(const gem_program *prog, const int64_t K)
{
    uint64_t *const gstate = prog->gstate;
    for (int64_t i = 0; i < prog->nstages; i++) {
        const gem_stage *s = prog->stages + i;
        for (int64_t j = 0; j < s->ndef; j++)
            for (int64_t k = 0; k < K; k++)
                gstate[s->def_gidx[j] * K + k] = s->def_buf[j * K + k];
        for (int64_t j = 0; j < s->nports; j++) {
            const gem_ramop *r = s->ports + j;
            for (int64_t b = 0; b < r->data_bits; b++)
                for (int64_t k = 0; k < K; k++) {
                    uint64_t *g = gstate + (r->rd_base + b) * K + k;
                    *g = (*g & ~r->rd_en[k]) | (r->rd_data[b * K + k] & r->rd_en[k]);
                }
        }
    }
    for (int64_t i = 0; i < prog->nconst; i++)
        for (int64_t k = 0; k < K; k++)
            gstate[prog->const_gidx[i] * K + k] = prog->const_vals[i];
}

INLINE int64_t run_cycles(const gem_program *prog, int64_t n, const uint64_t *pi, uint64_t *po,
                          double *ticks, const int64_t K)
{
    uint64_t *const gstate = prog->gstate;
    const double t0 = ticks ? now() : 0.0;
    int64_t writes = 0;
    if (ticks)
        ticks[0] = ticks[1] = 0.0;
    for (int64_t c = 0; c < n; c++, pi += prog->npi * K, po += prog->nsample * K) {
        for (int64_t i = 0; i < prog->npi; i++)
            for (int64_t k = 0; k < K; k++)
                gstate[prog->pi_rows[i] * K + k] = pi[i * K + k];
        writes += cycle_eval(prog, ticks, K);
        for (int64_t i = 0; i < prog->nsample; i++) /* the settled point */
            for (int64_t k = 0; k < K; k++)
                po[i * K + k] = gstate[prog->sample_rows[i] * K + k];
        cycle_commit(prog, K);
    }
    if (ticks) /* the rest of the block */
        ticks[2] = now() - t0 - ticks[0] - ticks[1];
    return writes;
}

/* Simulate n cycles.  pi is (n, npi, K): cycle c's row i goes to gstate
   row pi_rows[i] before the stages run; po is (n, nsample, K): gstate
   row sample_rows[i] is read into cycle c's row i after the stages and
   before the commit.  Returns the block's dynamic global-write count.
   ticks: NULL, or three doubles that receive the seconds spent in the
   read gathers, the waves, and everything else. */
int64_t gem_run(const gem_program *prog, int64_t n, const uint64_t *pi, uint64_t *po, double *ticks)
{
    return prog->K == 1 ? run_cycles(prog, n, pi, po, ticks, 1)
                        : run_cycles(prog, n, pi, po, ticks, prog->K);
}
"""

_BYTE = ctypes.c_char
_I64 = ctypes.POINTER(ctypes.c_int64)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_U32 = ctypes.POINTER(ctypes.c_uint32)

#: widest RAM address / data word the kernel's port loop holds
#: (``MAX_PORT_BITS`` of :data:`KERNEL_SOURCE`)
MAX_PORT_BITS = 32

#: a :class:`StagePlan`'s ``int64`` index tables and ``uint64`` word
#: tables — all sixteen of its arrays — in ``gem_stage`` order (the plan
#: store writes them in this order too)
INDEX_TABLES = (
    "read_gidx", "wave_count", "wave_out", "wave_start", "gather",
    "gwn_gidx", "gwn_src", "ram_slots", "ram_src", "def_src", "def_gidx",
)  # fmt: skip
WORD_TABLES = ("flips", "gwn_inv", "gwn_const", "ram_inv", "def_inv")
#: a decoded RAM port's slot / inversion tables, in ``gem_ramop`` order
_PORT_TABLES = ("raddr", "waddr", "wdata")


class _RamOp(ctypes.Structure):
    """``gem_ramop`` of :data:`KERNEL_SOURCE`, field for field."""

    _fields_ = [
        *((n, ctypes.c_int64) for n in ("addr_bits", "data_bits", "depth", "ren_row", "wen_row", "rd_base")),
        *((n, ctypes.c_uint64) for n in ("ren_inv", "wen_inv")),
        *((f"{n}_rows", _I64) for n in _PORT_TABLES),
        *((f"{n}_inv", _U64) for n in _PORT_TABLES),
        ("image", _U32),
        ("rd_data", _U64),
        ("rd_en", _U64),
    ]  # fmt: skip


class _Stage(ctypes.Structure):
    """``gem_stage`` of :data:`KERNEL_SOURCE`, field for field."""

    _fields_ = [
        *((n, ctypes.c_int64) for n in ("nread", "nwaves", "ngwn", "ngwn_dyn", "nram", "ndef", "nports")),
        ("def_buf", _U64),
        ("ports", ctypes.POINTER(_RamOp)),
        *((name, _I64) for name in INDEX_TABLES),
        *((name, _U64) for name in WORD_TABLES),
    ]  # fmt: skip


class _Program(ctypes.Structure):
    """``gem_program`` of :data:`KERNEL_SOURCE`, field for field."""

    _fields_ = [
        *((n, ctypes.c_int64) for n in ("K", "nstages", "nconst", "npi", "nsample")),
        ("lane_mask", ctypes.c_uint64),
        *((name, _U64) for name in ("gstate", "trace", "arena")),
        ("stages", ctypes.POINTER(_Stage)),
        ("const_gidx", _I64),
        ("const_vals", _U64),
        ("pi_rows", _I64),
        ("sample_rows", _I64),
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
                    f"{' '.join(compiler)} could not build {os.path.basename(path)}: "
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
        raise BackendUnavailableError(f"cannot build {path}: {exc}") from exc


#: ``gem_run``'s ctypes signature: the blocks go in as plain addresses,
#: ``run()`` has checked the arrays
RUN_SIGNATURE = (
    (
        ctypes.POINTER(_Program),
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.POINTER(ctypes.c_double),
    ),
    ctypes.c_int64,
)


def _open_library(path: str, entry: str, signature: tuple):
    fn = getattr(ctypes.CDLL(path), entry)
    fn.argtypes, fn.restype = signature
    return fn


def library_path(source: str) -> str:
    """Where :func:`load_kernel` keeps the library built from ``source``:
    ``native-<sha256(source + machine + pointer size)>.so`` in the
    compile-cache directory (:func:`~repro.core.cachefile.cache_dir`)."""
    key = f"{source}\0{platform.machine()}\0{ctypes.sizeof(ctypes.c_void_p)}"
    return os.path.join(cache_dir(), f"native-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so")


def load_kernel(source: str, entry: str, signature: tuple):
    """``entry`` of the library built from ``source`` as a ``ctypes``
    function with ``signature`` (``(argtypes, restype)``; the GIL is
    released while it runs), built on first use and cached at
    :func:`library_path`.  A cached file that does not load (truncated,
    foreign) is rebuilt once.  The block kernel (:data:`KERNEL_SOURCE`)
    and Algorithm 2's layer loop (:mod:`repro.core.placement_kernel`)
    both come through here.
    """
    path = library_path(source)
    if os.path.exists(path):
        try:
            return _open_library(path, entry, signature)
        except (OSError, AttributeError) as exc:
            logger.warning("rebuilding %s: it does not load (%s)", path, exc)
    _build_library(source, path)
    try:
        return _open_library(path, entry, signature)
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


def _plane(buf: np.ndarray, name: str, rows: int, planes: int) -> None:
    """A buffer: a contiguous ``uint64`` ``(n, planes)`` plane with at
    least ``rows`` rows."""
    if (
        buf.dtype != np.uint64
        or buf.shape[1:] != (planes,)
        or not buf.flags.c_contiguous
        or buf.shape[0] < rows
    ):
        raise BitstreamError(
            f"stage buffers: {name} must be contiguous uint64 with >= {rows} rows "
            f"of {planes} words, got {buf.dtype}{buf.shape}"
        )


class _NativeCycle:
    """One bound ``gem_program``: a block is exactly one library call."""

    def __init__(self, kernel, program: _Program, shapes, keepalive: list) -> None:
        self._run = kernel
        self._ref = ctypes.byref(program)
        self._pi_shape, self._po_shape = shapes
        self._ticks = (ctypes.c_double * 3)()
        # the structs hold raw addresses: the arrays (and nested structs)
        # behind them must live exactly as long as this object does
        self._keepalive = (program, keepalive)

    def run(self, n: int, pi_block: np.ndarray, po_block: np.ndarray, times) -> int:
        _check_block(pi_block, "pi_block", (n, *self._pi_shape))
        _check_block(po_block, "po_block", (n, *self._po_shape))
        # (a third of .ctypes.data's cost at n = 1; wants at least one byte)
        pi = ctypes.addressof(_BYTE.from_buffer(pi_block)) if pi_block.size else 0
        po = ctypes.addressof(_BYTE.from_buffer(po_block)) if po_block.size else 0
        if times is None:
            return self._run(self._ref, n, pi, po, None)
        writes = self._run(self._ref, n, pi, po, self._ticks)
        for phase, seconds in zip(("gather", "fold", "commit"), self._ticks):
            times[phase] += seconds
        return writes


class NativeBackend(ArrayBackend):
    """Every cycle through the one C kernel: the bitstream is its data."""

    name = "native"

    def __init__(self) -> None:
        self._kernel = load_kernel(KERNEL_SOURCE, "gem_run", RUN_SIGNATURE)

    def compile_cycle(self, fused: "FusedProgram", buffers: CycleBuffers):
        """Prove every index of ``fused`` in range of ``buffers``, then
        bind both into one ``gem_program``.  numpy's ``take(..., "clip")``
        and fancy-index ``IndexError`` would survive a bad table; C would
        not, so a program that fails here (:class:`BitstreamError`) never
        reaches the kernel."""
        gstate, trace, arena = buffers.gstate, buffers.trace, buffers.arena
        size = max((plan.trace_size for plan in fused.stages), default=0)
        planes = buffers.engine.words
        _plane(trace, "trace", size, planes)
        _plane(gstate, "gstate", 0, planes)
        _plane(arena, "arena", fused.arena_size, planes)
        _index(fused.def_const_gidx, "def_const_gidx", gstate.shape[0])
        _table(fused.def_const_vals, "def_const_vals", np.uint64, fused.def_const_gidx.size)
        shapes = (
            _slab(buffers.pi_rows, "pi_rows", gstate),
            _slab(buffers.sample_rows, "sample_rows", gstate),
        )
        keep: list = [fused, buffers]
        stages = (_Stage * len(fused.stages))()
        for stage, plan in zip(stages, fused.stages):
            _bind_stage(stage, plan, fused, buffers, keep)
        program = _Program(
            K=planes,
            nstages=len(stages),
            nconst=fused.def_const_gidx.size,
            npi=buffers.pi_rows.size,
            nsample=buffers.sample_rows.size,
            lane_mask=int(buffers.engine.lane_mask),
            gstate=gstate.ctypes.data_as(_U64),
            trace=trace.ctypes.data_as(_U64),
            arena=arena.ctypes.data_as(_U64),
            stages=stages,
            const_gidx=fused.def_const_gidx.ctypes.data_as(_I64),
            const_vals=fused.def_const_vals.ctypes.data_as(_U64),
            pi_rows=buffers.pi_rows.ctypes.data_as(_I64),
            sample_rows=buffers.sample_rows.ctypes.data_as(_I64),
        )
        keep.append(stages)
        return _NativeCycle(self._kernel, program, shapes, keep)


def _bind_stage(stage: _Stage, plan: StagePlan, fused, buffers: CycleBuffers, keep: list) -> None:
    """Validate one :class:`StagePlan` against the buffers and fill its
    ``gem_stage`` (arrays the struct points into are appended to ``keep``)."""
    gstate, arena = buffers.gstate, buffers.arena
    size = plan.trace_size
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
    _index(plan.def_gidx, "def_gidx", gstate.shape[0], plan.def_src.size)

    def_buf = buffers.engine.zeros(plan.def_src.size)
    ports = (_RamOp * len(plan.ramops))()
    for port, (pidx, op) in zip(ports, plan.ramops):
        if not 0 <= pidx < len(fused.arena_base):
            raise BitstreamError(f"RAM port: partition {pidx} has no arena span")
        base, span = fused.arena_base[pidx], fused.arena_span[pidx]
        _bind_port(port, op, base, min(span, arena.shape[0] - base), buffers, keep)
    keep += [def_buf, ports]
    stage.nread = plan.read_gidx.size
    stage.nwaves = count.size
    stage.ngwn = plan.gwn_gidx.size
    stage.ngwn_dyn = plan.gwn_src.size
    stage.nram = plan.ram_slots.size
    stage.ndef = plan.def_src.size
    stage.nports = len(ports)
    stage.def_buf = def_buf.ctypes.data_as(_U64)
    stage.ports = ports
    for name in INDEX_TABLES:
        setattr(stage, name, getattr(plan, name).ctypes.data_as(_I64))
    for name in WORD_TABLES:
        setattr(stage, name, getattr(plan, name).ctypes.data_as(_U64))


def _bind_port(port: _RamOp, op, base: int, span: int, buffers: CycleBuffers, keep: list) -> None:
    """Validate one decoded RAM port (slots local to the arena span
    ``[base, base + span)``) and fill its ``gem_ramop``."""
    eng, spec = buffers.engine, op.spec
    addr_bits, data_bits = spec.addr_bits, spec.data_bits
    if not (0 <= addr_bits <= MAX_PORT_BITS and 0 <= data_bits <= MAX_PORT_BITS):
        raise BitstreamError(
            f"RAM port: {addr_bits} address / {data_bits} data bits exceed the "
            f"kernel's {MAX_PORT_BITS}-bit port words"
        )
    if not 0 <= spec.ram_index < len(buffers.rams):
        raise BitstreamError(
            f"RAM port: ram_index {spec.ram_index} but the program has {len(buffers.rams)} blocks"
        )
    image = buffers.rams[spec.ram_index]
    if (
        image.dtype != np.uint32
        or not image.flags.c_contiguous
        or image.shape != (eng.batch, 1 << addr_bits)
    ):
        raise BitstreamError(
            f"RAM port: image of block {spec.ram_index} must be contiguous uint32 "
            f"({eng.batch}, {1 << addr_bits}), got {image.dtype}{image.shape}"
        )
    if not 0 <= spec.rd_global_base <= buffers.gstate.shape[0] - data_bits:
        raise BitstreamError("RAM port: rd_global_base puts read data outside the global state")
    for name in ("ren_slot", "wen_slot"):
        if not 0 <= getattr(op, name) < span:
            raise BitstreamError(f"RAM port: {name} outside its partition's arena span")
    for name, nbits in zip(_PORT_TABLES, (addr_bits, addr_bits, data_bits)):
        slots = getattr(op, f"{name}_slots")
        _index(slots, f"{name}_slots", span, nbits)
        rows = slots + base
        # decoded inversions are (n, 1) constant columns
        inv = np.ascontiguousarray(np.ravel(getattr(op, f"{name}_inv")))
        _table(inv, f"{name}_inv", np.uint64, nbits)
        keep += [rows, inv]
        setattr(port, f"{name}_rows", rows.ctypes.data_as(_I64))
        setattr(port, f"{name}_inv", inv.ctypes.data_as(_U64))
    rd_data = eng.zeros(data_bits)
    rd_en = np.zeros(eng.words, dtype=np.uint64)
    keep += [rd_data, rd_en]
    port.addr_bits, port.data_bits, port.depth = addr_bits, data_bits, image.shape[1]
    port.ren_row, port.wen_row = base + op.ren_slot, base + op.wen_slot
    port.ren_inv, port.wen_inv = int(op.ren_inv), int(op.wen_inv)
    port.rd_base = spec.rd_global_base
    port.image = image.ctypes.data_as(_U32)
    port.rd_data = rd_data.ctypes.data_as(_U64)
    port.rd_en = rd_en.ctypes.data_as(_U64)


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
