"""The compile flow's one C library, and Algorithm 2's layer loop in it.

:data:`COMPILE_SOURCE` holds the flow's five hot loops: Algorithm 2's
``gem_place_layer`` (one call places one boomerang layer, here), the
partitioner's ``gem_cone_masks``, ``gem_fm_pass`` and ``gem_coarsen``
(:mod:`repro.partition.kernel`) and depth_opt's ``gem_rebuild``
(:mod:`repro.core.depth_opt`).  One source builds one library, so a host
has all five or none: :func:`library` resolves it once per process and
every loop of the flow forks on that one handle, taking its C entry point
or running its Python loop.  Both make the same decisions, so a bitstream
does not depend on which ran.  The library is built, cached and loaded by
:func:`repro.core.backend.load_kernel` (``$CC``, the compile-cache
directory, ``ctypes``) the first time the flow asks — never at import, so
a run, which compiles nothing, never loads it.

In :func:`repro.core.placement._place_once`'s layer loop, what C cannot
reproduce stays in Python: the iteration order of the
``remaining`` set (the tie order within a level; it arrives each layer as
an array of the set's nodes in that order), the state-slot table and the
typed errors.  Nodes are *local* indices — ranks in the partition's
ascending node list, which is topological.  A fan-in that is not a local
node is ``-1 - slot``: the constant (slot 0) or a source.
"""

from __future__ import annotations

import ctypes
import logging
from typing import NamedTuple

from repro.core import depth_opt
from repro.errors import BackendUnavailableError
from repro.partition import kernel

logger = logging.getLogger(__name__)

PLACEMENT_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ROUTE 4                       /* pass-through fold constant */
#define MAX_ATTEMPTS 8                /* placement attempts per node */
#define MAX_CONSECUTIVE_FAILURES 20   /* per level */
/* cone sizes saturate here: they are only compared against subtree
   capacities, which are below 2^15 */
#define NEED_CAP ((int64_t)1 << 40)

typedef struct {
    int64_t n, width_log2, state_size, timing_driven;
    int64_t next_slot;                /* in/out: next free state slot */
    int64_t nwb;                      /* out: writebacks of this layer */
    const int64_t *fan0, *fan1;       /* local node, or -1 - state slot */
    const int64_t *inverts;           /* fold constant of an AND: 0..3 */
    const int64_t *cons_start, *cons; /* local consumers, CSR */
    const uint8_t *root;              /* 1: feeds an endpoint */
    const double *bias;               /* criticality jitter, or NULL */
    const int64_t *promote;           /* level promotion, or NULL */
    int64_t *slot;                    /* in/out: state slot, -1 if none */
    uint8_t *alive;                   /* in/out: 1 while still to place */
    int32_t *perm;                    /* out: width leaves, preset to -1 */
    uint8_t *fold;                    /* out: width, preset to ROUTE */
    int64_t *mapped;                  /* out: local nodes, claim order */
    int64_t *wb;                      /* out: (level, pos, slot, node) */
} gem_place;

typedef struct {
    gem_place *p;
    int64_t width, top, nmapped, njournal, bad;
    int64_t *free;                    /* unoccupied positions per subtree */
    int64_t *need;                    /* duplicate-counting cone size */
    int64_t *mapped_k;                /* heap number of the first copy */
    int64_t *journal;                 /* positions of the running attempt */
    uint8_t *occ;
    int64_t free_at_level[64], cursor[64];
} builder;

static int64_t level_of(const builder *b, int64_t k)
{
    return b->top - (64 - __builtin_clzll((uint64_t)k));
}

static void rollback(builder *b, int64_t keep)
{
    const int64_t width = b->width;
    /* journal order is parent-before-child: recount bottom-up */
    for (int64_t j = b->njournal - 1; j >= 0; --j) {
        const int64_t k = b->journal[j];
        b->occ[k] = 0;
        if (k >= width)
            b->p->perm[k - width] = -1;
        else
            b->p->fold[k] = ROUTE;
        b->free_at_level[level_of(b, k)] += 1;
        b->free[k] = k >= width ? 1 : 1 + b->free[2 * k] + b->free[2 * k + 1];
    }
    for (int64_t j = keep; j < b->nmapped; ++j)
        b->mapped_k[b->p->mapped[j]] = 0;
    b->nmapped = keep;
}

/* bypass chain carrying a state slot from a leaf up to k */
static int route(builder *b, int64_t slot, int64_t k, int64_t level)
{
    int64_t j = k;
    for (int64_t t = 0; t <= level; ++t, j <<= 1)
        if (b->occ[j])
            return 0;
    int64_t below = level + 1;
    for (int64_t m = level; m > 0; --m, --below, k <<= 1) {
        b->occ[k] = 1;
        b->free[k] -= below;
        b->free_at_level[m] -= 1;
        b->journal[b->njournal++] = k;
    }
    b->occ[k] = 1;
    b->free[k] = 0;
    b->free_at_level[0] -= 1;
    b->journal[b->njournal++] = k;
    b->p->perm[k - b->width] = (int32_t)slot;
    return 1;
}

/* claim k for node n and, below it, n's fan-in cone; returns the
   positions claimed, 0 when it did not fit */
static int64_t map_rec(builder *b, int64_t n, int64_t k, int64_t level)
{
    gem_place *p = b->p;
    if (b->occ[k])
        return 0;
    b->occ[k] = 1;
    p->fold[k] = (uint8_t)p->inverts[n];
    b->free_at_level[level] -= 1;
    b->journal[b->njournal++] = k;
    if (!b->mapped_k[n]) {
        b->mapped_k[n] = k;
        p->mapped[b->nmapped++] = n;
    }
    int64_t claimed = 1, child = 2 * k;
    for (int side = 0; side < 2; ++side, ++child) {
        const int64_t f = side ? p->fan1[n] : p->fan0[n];
        const int64_t slot = f < 0 ? -1 - f : p->slot[f];
        if (slot >= 0) {
            /* a route needs one position per level down to the leaf */
            if (b->free[child] < level || !route(b, slot, child, level - 1))
                return 0;
            claimed += level;
        } else if (p->alive[f]) {
            if (b->free[child] < b->need[f])
                return 0;
            const int64_t sub = map_rec(b, f, child, level - 1);
            if (!sub)
                return 0;
            claimed += sub;
        } else {
            b->bad = 1; /* neither available nor local */
            return 0;
        }
    }
    b->free[k] -= claimed;
    return claimed;
}

/* first fit from the level's cursor, with the cone-size filter */
static int try_map(builder *b, int64_t n, int64_t level)
{
    const int64_t size = b->width >> level, min_need = b->need[n];
    const int64_t start = size + b->cursor[level] % size;
    int64_t attempts = 0;
    for (int64_t i = 0; i < size; ++i) {
        int64_t k = start + i;
        if (k >= 2 * size)
            k -= size;
        if (b->free[k] < min_need || b->occ[k])
            continue;
        const int64_t keep = b->nmapped;
        b->njournal = 0;
        const int64_t claimed = map_rec(b, n, k, level);
        if (claimed) {
            b->cursor[level] = k - size + 1;
            for (k >>= 1; k; k >>= 1)
                b->free[k] -= claimed;
            return 1;
        }
        rollback(b, keep);
        if (b->bad || ++attempts >= MAX_ATTEMPTS)
            break;
    }
    return 0;
}

/* out = x then y, merged most critical first; ties keep x's nodes first */
static void merge(const int64_t *x, int64_t nx, const int64_t *y, int64_t ny,
                  int64_t *out, const double *crit)
{
    int64_t i = 0, j = 0, o = 0;
    while (i < nx && j < ny)
        out[o++] = crit[y[j]] > crit[x[i]] ? y[j++] : x[i++];
    while (i < nx)
        out[o++] = x[i++];
    while (j < ny)
        out[o++] = y[j++];
}

/* stable sort, most critical first */
static void sort_by_crit(int64_t *a, int64_t len, int64_t *tmp, const double *crit)
{
    if (len < 2)
        return;
    const int64_t half = len / 2;
    sort_by_crit(a, half, tmp, crit);
    sort_by_crit(a + half, len - half, tmp, crit);
    merge(a, half, a + half, len - half, tmp, crit);
    memcpy(a, tmp, (size_t)len * sizeof *a);
}

static void fill_pass(builder *b, const int64_t *list, int64_t len, int64_t level)
{
    int64_t failures = 0;
    for (int64_t t = 0; t < len; ++t) {
        if (b->free_at_level[level] == 0 || failures >= MAX_CONSECUTIVE_FAILURES || b->bad)
            break;
        const int64_t n = list[t];
        if (b->mapped_k[n])
            continue;
        failures = try_map(b, n, level) ? 0 : failures + 1;
    }
}

/* Place one layer over the alive nodes; `order` is the remaining set in
   its iteration order.  Returns the nodes mapped (> 0), 0 when none fit,
   -1 on state overflow (next_slot says where), -2 when out of memory,
   -3 for a fan-in that is neither available nor local. */
int64_t gem_place_layer(gem_place *p, const int64_t *order, int64_t norder)
{
    const int64_t n = p->n, depth = p->width_log2, width = (int64_t)1 << depth;
    builder b;
    memset(&b, 0, sizeof b);
    b.p = p;
    b.width = width;
    b.top = depth + 1;
    int64_t *local = malloc((size_t)(n + 1) * sizeof *local);
    double *crit = malloc((size_t)(n + 1) * sizeof *crit);
    int64_t *lists = malloc((size_t)(3 * norder + depth + 3) * sizeof *lists);
    b.need = malloc((size_t)(n + 1) * sizeof *b.need);
    b.mapped_k = calloc((size_t)(n + 1), sizeof *b.mapped_k);
    b.free = malloc((size_t)(2 * width) * sizeof *b.free);
    b.journal = malloc((size_t)(2 * width) * sizeof *b.journal);
    b.occ = calloc((size_t)(2 * width), 1);
    int64_t rc = -2;
    if (!local || !crit || !lists || !b.need || !b.mapped_k || !b.free || !b.journal || !b.occ)
        goto done;

    /* local logic level and cone size over the remaining subgraph */
    for (int64_t i = 0; i < n; ++i) {
        if (!p->alive[i])
            continue;
        int64_t l0 = 0, l1 = 0, n0 = 1, n1 = 1;
        const int64_t f0 = p->fan0[i], f1 = p->fan1[i];
        if (f0 >= 0 && p->alive[f0]) {
            l0 = local[f0];
            n0 = b.need[f0];
        }
        if (f1 >= 0 && p->alive[f1]) {
            l1 = local[f1];
            n1 = b.need[f1];
        }
        local[i] = (l0 > l1 ? l0 : l1) + 1;
        const int64_t need = 1 + n0 + n1;
        b.need[i] = need < NEED_CAP ? need : NEED_CAP;
    }
    /* timing criticality: reverse depth over the remaining subgraph */
    for (int64_t i = n - 1; i >= 0; --i) {
        if (!p->alive[i])
            continue;
        double c = 0;
        if (p->timing_driven)
            for (int64_t e = p->cons_start[i]; e < p->cons_start[i + 1]; ++e) {
                const int64_t m = p->cons[e];
                if (p->alive[m] && crit[m] + 1 > c)
                    c = crit[m] + 1;
            }
        crit[i] = c;
    }
    if (p->bias)
        for (int64_t i = 0; i < n; ++i)
            if (p->alive[i])
                crit[i] += p->bias[i];

    /* nodes by placement level, each level in set order */
    int64_t *bucket = lists, *level_list = lists + norder, *tmp = lists + 2 * norder;
    int64_t *start = lists + 3 * norder; /* depth + 3 entries */
    for (int64_t l = 0; l < depth + 3; ++l)
        start[l] = 0;
    for (int64_t t = 0; t < norder; ++t) {
        const int64_t i = order[t];
        int64_t lvl = local[i];
        if (p->promote && lvl <= depth) {
            lvl += p->promote[i];
            if (lvl > depth)
                lvl = depth;
        }
        local[i] = lvl; /* from here on: the placement level */
        if (lvl >= 1 && lvl <= depth)
            start[lvl + 1] += 1;
    }
    for (int64_t l = 1; l < depth + 2; ++l)
        start[l + 1] += start[l];
    for (int64_t t = 0; t < norder; ++t) {
        const int64_t i = order[t], lvl = local[i];
        if (lvl >= 1 && lvl <= depth)
            bucket[start[lvl]++] = i;
    }
    /* start[l] is now where level l ends, and where level l + 1 begins */

    for (int64_t l = 0; l <= depth; ++l) {
        b.free_at_level[l] = width >> l;
        for (int64_t k = width >> l; k < (width >> l) * 2; ++k)
            b.free[k] = ((int64_t)1 << (l + 1)) - 1;
    }
    /* root level down: deep cones claim their subtrees first */
    for (int64_t level = depth; level >= 1 && !b.bad; --level) {
        const int64_t begin = start[level - 1], len = start[level] - begin;
        memcpy(level_list, bucket + begin, (size_t)len * sizeof *level_list);
        sort_by_crit(level_list, len, tmp, crit);
        fill_pass(&b, level_list, len, level);
    }
    if (b.bad) {
        rc = -3;
        goto done;
    }
    if (b.nmapped == 0) {
        rc = 0;
        goto done;
    }

    /* write back values needed by later layers or endpoint roots */
    int64_t next = p->next_slot, nwb = 0;
    for (int64_t j = 0; j < b.nmapped; ++j) {
        const int64_t i = p->mapped[j];
        int needed = p->root[i];
        for (int64_t e = p->cons_start[i]; !needed && e < p->cons_start[i + 1]; ++e)
            needed = p->alive[p->cons[e]] && !b.mapped_k[p->cons[e]];
        if (!needed)
            continue;
        if (next >= p->state_size) {
            p->next_slot = next;
            rc = -1;
            goto done;
        }
        p->slot[i] = next;
        const int64_t k = b.mapped_k[i], lvl = level_of(&b, k);
        int64_t *w = p->wb + 4 * nwb++;
        w[0] = lvl;
        w[1] = k - (width >> lvl);
        w[2] = next++;
        w[3] = i;
    }
    for (int64_t j = 0; j < b.nmapped; ++j)
        p->alive[p->mapped[j]] = 0;
    p->next_slot = next;
    p->nwb = nwb;
    rc = b.nmapped;
done:
    free(local);
    free(crit);
    free(lists);
    free(b.need);
    free(b.mapped_k);
    free(b.free);
    free(b.journal);
    free(b.occ);
    return rc;
}
"""

#: the compile flow's one C library: Algorithm 2's layer loop, the
#: partitioner's cone signatures, FM pass and coarsening round, and
#: depth_opt's rebuild (resolved by :func:`library`)
COMPILE_SOURCE = PLACEMENT_SOURCE + kernel.PARTITION_SOURCE + depth_opt.REBUILD_SOURCE


class Place(ctypes.Structure):
    """``gem_place`` of :data:`PLACEMENT_SOURCE`, field for field (the
    arrays as plain addresses)."""

    _fields_ = [
        *(
            (name, ctypes.c_int64)
            for name in ("n", "width_log2", "state_size", "timing_driven", "next_slot", "nwb")
        ),
        *(
            (name, ctypes.c_void_p)
            for name in (
                "fan0", "fan1", "inverts", "cons_start", "cons", "root", "bias", "promote",
                "slot", "alive", "perm", "fold", "mapped", "wb",
            )
        ),
    ]


#: ``gem_place_layer(place, order, norder)``
PLACE_LAYER_SIGNATURE = ((ctypes.POINTER(Place), ctypes.c_void_p, ctypes.c_int64), ctypes.c_int64)


class Library(NamedTuple):
    """:data:`COMPILE_SOURCE`'s five entry points as ``ctypes`` functions."""

    place_layer: object
    fm_pass: object
    coarsen: object
    cone_masks: object
    rebuild: object


#: the loaded library, or None where it cannot be built; empty until the
#: flow first asks
_RESOLVED: list = []


def library() -> Library | None:
    """The compile flow's C entry points, or ``None`` where no library can
    be built or loaded (the reason is logged once, at INFO, and every loop
    of the flow runs in Python).  Resolved once per process."""
    if not _RESOLVED:
        from repro.core.backend import load_kernel

        try:
            lib = Library(
                place_layer=load_kernel(COMPILE_SOURCE, "gem_place_layer", PLACE_LAYER_SIGNATURE),
                fm_pass=load_kernel(COMPILE_SOURCE, "gem_fm_pass", kernel.FM_PASS_SIGNATURE),
                coarsen=load_kernel(COMPILE_SOURCE, "gem_coarsen", kernel.COARSEN_SIGNATURE),
                cone_masks=load_kernel(
                    COMPILE_SOURCE, "gem_cone_masks", kernel.CONE_MASKS_SIGNATURE
                ),
                rebuild=load_kernel(COMPILE_SOURCE, "gem_rebuild", depth_opt.REBUILD_SIGNATURE),
            )
        except BackendUnavailableError as exc:
            logger.info(
                "native compile loops unavailable (%s); the compile flow runs in Python", exc
            )
            lib = None
        _RESOLVED.append(lib)
    return _RESOLVED[0]


def loops() -> str:
    """Which loops the compile flow runs in this process: ``"native"`` or
    ``"python"``."""
    return "python" if library() is None else "native"
