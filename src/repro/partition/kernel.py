"""The partitioner's two hot loops in C: an FM pass and a coarsening round.

:func:`repro.partition.fm.refine_bipartition` hands each
Fiduccia–Mattheyses pass to :data:`PARTITION_SOURCE`'s ``gem_fm_pass``, and
:func:`repro.partition.multilevel.coarsen` each heavy-edge matching and
contraction round to ``gem_coarsen``, when the library loads; both run
their Python loops otherwise, and both paths make the same decisions, so a
partition — and the bitstream built on it — does not depend on which ran.

The source is part of the compile flow's one C library
(:data:`repro.core.placement_kernel.COMPILE_SOURCE`, beside Algorithm 2's
layer loop), built, cached and loaded by
:func:`repro.core.backend.load_kernel` the first time a graph is
partitioned — never at import, so a run never loads it.

What C does not do is draw random numbers: the ``random.Random`` of a
k-way partition is shared by every bisection of it, so Python makes each
draw (the vertex order shuffled before each call, the initial
bipartition's seeds) and C consumes the shuffled order.  Graphs arrive as
:class:`~repro.partition.hypergraph.HypergraphArrays`.
"""

from __future__ import annotations

import ctypes
import logging
from typing import NamedTuple

from repro.errors import BackendUnavailableError

logger = logging.getLogger(__name__)

PARTITION_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MATCH_MAX_PINS 16             /* wider nets do not steer matching */
#define MAX_GAIN_SPAN ((int64_t)1 << 20)

typedef struct {
    int64_t n, m;
    const int64_t *net_start, *pins;  /* nets, CSR */
    const int64_t *inc_start, *inc;   /* vertex -> nets, ascending, CSR */
    const int64_t *net_weight, *vertex_weight;
} gem_hgraph;

typedef struct {
    int64_t nc, mc;                   /* out: coarse vertices and nets */
    int64_t *coarse_of;               /* out: coarse vertex per vertex */
    int64_t *vertex_weight;           /* out: nc entries (room for n) */
    int64_t *net_start, *pins;        /* out: nets, CSR (room for the fine) */
    int64_t *net_weight;              /* out: mc entries (room for m) */
} gem_coarse;

/* gain buckets: one LIFO stack per gain, entries chained in a pool */
typedef struct {
    int64_t *head;                    /* per gain + span: newest entry, -1 */
    int64_t *vertex, *next;
    int64_t len, cap, span, top;
} buckets;

static int push(buckets *b, int64_t v, int64_t gain)
{
    if (b->len == b->cap) {
        const int64_t cap = 2 * b->cap;
        int64_t *vertex = realloc(b->vertex, (size_t)cap * sizeof *vertex);
        if (!vertex)
            return 0;
        b->vertex = vertex;
        int64_t *next = realloc(b->next, (size_t)cap * sizeof *next);
        if (!next)
            return 0;
        b->next = next;
        b->cap = cap;
    }
    const int64_t k = gain + b->span;
    b->vertex[b->len] = v;
    b->next[b->len] = b->head[k];
    b->head[k] = b->len++;
    if (k > b->top)
        b->top = k;
    return 1;
}

typedef struct {
    const gem_hgraph *g;
    uint8_t *parts, *locked;
    const int64_t *max_w;
    int64_t *gain, *stale;            /* stale: entries to skip, per vertex */
    int64_t pw[2];
    buckets b;
    int oom;
} fm;

/* the vertex to move next: from the highest non-empty gain, newest
   first; an inadmissible one is locked for the rest of the pass */
static int64_t pop_best(fm *f)
{
    buckets *b = &f->b;
    while (b->top >= 0) {
        const int64_t e = b->head[b->top];
        if (e < 0) {
            b->top -= 1;
            continue;
        }
        b->head[b->top] = b->next[e];
        const int64_t v = b->vertex[e];
        if (f->stale[v] > 0) {
            f->stale[v] -= 1;
            continue;
        }
        if (f->locked[v])
            continue;
        const int dest = 1 - f->parts[v];
        if (f->pw[dest] + f->g->vertex_weight[v] > f->max_w[dest]) {
            f->locked[v] = 1;
            continue;
        }
        return v;
    }
    return -1;
}

static void requeue(fm *f, int64_t u, int64_t gain)
{
    if (f->locked[u] || f->gain[u] == gain)
        return;
    f->stale[u] += 1;
    f->gain[u] = gain;
    if (!push(&f->b, u, gain))
        f->oom = 1;
}

/* requeue with gain + delta every unlocked pin of net e (on side `side`
   only, when side >= 0) */
static void shift(fm *f, int64_t e, int side, int64_t delta)
{
    const gem_hgraph *g = f->g;
    for (int64_t p = g->net_start[e]; p < g->net_start[e + 1]; ++p) {
        const int64_t u = g->pins[p];
        if (!f->locked[u] && (side < 0 || f->parts[u] == side))
            requeue(f, u, f->gain[u] + delta);
    }
}

/* One Fiduccia–Mattheyses pass over `parts` (0/1 per vertex) under the
   per-side weight bounds max_w: every vertex moves at most once, in
   bucket order (`order` is the shuffled order the buckets are filled
   in), then the moves after the best strictly improving prefix are
   undone.  *cut receives the cut weight after the pass.  Returns 1 when
   the pass improved the cut, 0 when not, -2 when out of memory, -3 when
   the gains span too wide a range for the bucket array. */
int64_t gem_fm_pass(const gem_hgraph *g, uint8_t *parts, const int64_t *max_w,
                    const int64_t *order, int64_t *cut)
{
    const int64_t n = g->n, m = g->m;
    fm f;
    memset(&f, 0, sizeof f);
    f.g = g;
    f.parts = parts;
    f.max_w = max_w;
    int64_t span = 0;
    for (int64_t v = 0; v < n; ++v) {
        int64_t s = 0;
        for (int64_t j = g->inc_start[v]; j < g->inc_start[v + 1]; ++j)
            s += llabs(g->net_weight[g->inc[j]]);
        if (s > span)
            span = s;
    }
    if (span > MAX_GAIN_SPAN)
        return -3;
    int64_t *pins_in = malloc((size_t)(2 * m + 1) * sizeof *pins_in);
    int64_t *moves = malloc((size_t)(n + 1) * sizeof *moves);
    f.gain = malloc((size_t)(n + 1) * sizeof *f.gain);
    f.stale = calloc((size_t)(n + 1), sizeof *f.stale);
    f.locked = calloc((size_t)(n + 1), 1);
    f.b.span = span;
    f.b.top = -1;
    f.b.cap = 2 * n + 16;
    f.b.head = malloc((size_t)(2 * span + 1) * sizeof *f.b.head);
    f.b.vertex = malloc((size_t)f.b.cap * sizeof *f.b.vertex);
    f.b.next = malloc((size_t)f.b.cap * sizeof *f.b.next);
    int64_t rc = -2;
    if (!pins_in || !moves || !f.gain || !f.stale || !f.locked || !f.b.head || !f.b.vertex
        || !f.b.next)
        goto done;
    memset(f.b.head, 0xff, (size_t)(2 * span + 1) * sizeof *f.b.head);

    /* pins per side, the cut and the side weights */
    int64_t cut0 = 0;
    for (int64_t e = 0; e < m; ++e) {
        pins_in[2 * e] = pins_in[2 * e + 1] = 0;
        for (int64_t p = g->net_start[e]; p < g->net_start[e + 1]; ++p)
            pins_in[2 * e + parts[g->pins[p]]] += 1;
        if (pins_in[2 * e] && pins_in[2 * e + 1])
            cut0 += g->net_weight[e];
    }
    for (int64_t v = 0; v < n; ++v)
        f.pw[parts[v]] += g->vertex_weight[v];
    /* gain: cut-weight decrease if v moved to the other side */
    for (int64_t v = 0; v < n; ++v) {
        const int p = parts[v];
        int64_t gv = 0;
        for (int64_t j = g->inc_start[v]; j < g->inc_start[v + 1]; ++j) {
            const int64_t e = g->inc[j], w = g->net_weight[e];
            if (pins_in[2 * e + p] == 1)
                gv += w;
            if (pins_in[2 * e + 1 - p] == 0)
                gv -= w;
        }
        f.gain[v] = gv;
    }
    for (int64_t t = 0; t < n; ++t)
        push(&f.b, order[t], f.gain[order[t]]); /* cap >= n: cannot fail */

    int64_t nmoves = 0, cumulative = 0, best_prefix = 0, best_sum = 0;
    for (int64_t v; (v = pop_best(&f)) >= 0;) {
        const int src = parts[v], dst = 1 - src;
        f.locked[v] = 1;
        cumulative += f.gain[v];
        moves[nmoves++] = v;
        parts[v] = (uint8_t)dst;
        f.pw[src] -= g->vertex_weight[v];
        f.pw[dst] += g->vertex_weight[v];
        /* incremental gains (Fiduccia & Mattheyses 1982) */
        for (int64_t j = g->inc_start[v]; j < g->inc_start[v + 1]; ++j) {
            const int64_t e = g->inc[j], w = g->net_weight[e];
            const int64_t before_src = pins_in[2 * e + src], before_dst = pins_in[2 * e + dst];
            pins_in[2 * e + src] -= 1;
            pins_in[2 * e + dst] += 1;
            if (before_dst == 0)
                shift(&f, e, -1, w);
            else if (before_dst == 1)
                shift(&f, e, dst, -w);
            if (before_src == 1)
                shift(&f, e, -1, -w);
            else if (before_src == 2)
                shift(&f, e, src, w);
        }
        if (f.oom)
            goto done;
        if (cumulative > best_sum) {
            best_sum = cumulative;
            best_prefix = nmoves;
        }
    }
    for (int64_t t = nmoves - 1; t >= best_prefix; --t)
        parts[moves[t]] ^= 1;
    *cut = cut0 - best_sum;
    rc = nmoves > 0 && best_sum > 0;
done:
    free(pins_in);
    free(moves);
    free(f.gain);
    free(f.stale);
    free(f.locked);
    free(f.b.head);
    free(f.b.vertex);
    free(f.b.next);
    return rc;
}

static int cmp_int64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* sort ascending and drop duplicates; returns the new length */
static int64_t sort_unique(int64_t *a, int64_t len)
{
    if (len > 16)
        qsort(a, (size_t)len, sizeof *a, cmp_int64);
    else
        for (int64_t i = 1; i < len; ++i) {
            const int64_t x = a[i];
            int64_t j = i;
            for (; j > 0 && a[j - 1] > x; --j)
                a[j] = a[j - 1];
            a[j] = x;
        }
    int64_t out = 0;
    for (int64_t i = 0; i < len; ++i)
        if (out == 0 || a[i] != a[out - 1])
            a[out++] = a[i];
    return out;
}

static uint64_t hash_pins(const int64_t *a, int64_t len)
{
    uint64_t h = 1469598103934665603ULL;
    for (int64_t i = 0; i < len; ++i) {
        h ^= (uint64_t)a[i];
        h *= 1099511628211ULL;
    }
    return h ^ (h >> 29);
}

/* One coarsening round.  Heavy-edge matching: vertices in `order` (the
   shuffled order) each take the unmatched neighbour of highest score,
   the sum over shared nets of at most MATCH_MAX_PINS pins of
   weight / (pins - 1), accumulated as doubles in incidence and pin order;
   ties go to the neighbour scored first.  Contraction: coarse vertices
   numbered in vertex order, each net's coarse pins sorted and unique,
   nets of fewer than 2 pins dropped, equal nets merged into the first
   (weights added).  Returns 0, or -2 when out of memory. */
int64_t gem_coarsen(const gem_hgraph *g, const int64_t *order, gem_coarse *c)
{
    const int64_t n = g->n, m = g->m;
    int64_t *match = malloc((size_t)(n + 1) * sizeof *match);
    int64_t *touched = malloc((size_t)(n + 1) * sizeof *touched);
    double *score = malloc((size_t)(n + 1) * sizeof *score);
    uint8_t *scored = calloc((size_t)(n + 1), 1);
    int64_t size = 8;
    while (size < 2 * m)
        size *= 2;
    int64_t *table = malloc((size_t)size * sizeof *table);
    int64_t rc = -2;
    if (!match || !touched || !score || !scored || !table)
        goto done;

    for (int64_t v = 0; v < n; ++v)
        match[v] = -1;
    for (int64_t t = 0; t < n; ++t) {
        const int64_t v = order[t];
        if (match[v] != -1)
            continue;
        int64_t ntouched = 0;
        for (int64_t j = g->inc_start[v]; j < g->inc_start[v + 1]; ++j) {
            const int64_t e = g->inc[j], a = g->net_start[e], z = g->net_start[e + 1];
            if (z - a > MATCH_MAX_PINS)
                continue;
            const double contribution = (double)g->net_weight[e] / (double)(z - a - 1);
            for (int64_t p = a; p < z; ++p) {
                const int64_t u = g->pins[p];
                if (u == v || match[u] != -1)
                    continue;
                if (!scored[u]) {
                    scored[u] = 1;
                    score[u] = 0.0;
                    touched[ntouched++] = u;
                }
                score[u] += contribution;
            }
        }
        int64_t best = -1;
        double best_score = 0.0;
        for (int64_t s = 0; s < ntouched; ++s) {
            const int64_t u = touched[s];
            scored[u] = 0;
            if (score[u] > best_score) {
                best_score = score[u];
                best = u;
            }
        }
        if (best != -1) {
            match[v] = best;
            match[best] = v;
        } else
            match[v] = v;
    }

    int64_t nc = 0;
    for (int64_t v = 0; v < n; ++v)
        c->coarse_of[v] = -1;
    for (int64_t v = 0; v < n; ++v) {
        if (c->coarse_of[v] != -1)
            continue;
        c->coarse_of[v] = nc;
        if (match[v] != v)
            c->coarse_of[match[v]] = nc;
        c->vertex_weight[nc++] = 0;
    }
    for (int64_t v = 0; v < n; ++v)
        c->vertex_weight[c->coarse_of[v]] += g->vertex_weight[v];

    memset(table, 0xff, (size_t)size * sizeof *table);
    int64_t mc = 0, pos = 0;
    c->net_start[0] = 0;
    for (int64_t e = 0; e < m; ++e) {
        int64_t *buf = c->pins + pos, len = 0;
        for (int64_t p = g->net_start[e]; p < g->net_start[e + 1]; ++p)
            buf[len++] = c->coarse_of[g->pins[p]];
        len = sort_unique(buf, len);
        if (len < 2)
            continue;
        int64_t slot = (int64_t)(hash_pins(buf, len) & (uint64_t)(size - 1)), f;
        while ((f = table[slot]) != -1) {
            const int64_t start = c->net_start[f];
            if (c->net_start[f + 1] - start == len
                && !memcmp(c->pins + start, buf, (size_t)len * sizeof *buf))
                break;
            slot = (slot + 1) & (size - 1);
        }
        if (f != -1) {
            c->net_weight[f] += g->net_weight[e];
            continue;
        }
        table[slot] = mc;
        c->net_weight[mc] = g->net_weight[e];
        pos += len;
        c->net_start[++mc] = pos;
    }
    c->nc = nc;
    c->mc = mc;
    rc = 0;
done:
    free(match);
    free(touched);
    free(score);
    free(scored);
    free(table);
    return rc;
}
"""


class Graph(ctypes.Structure):
    """``gem_hgraph`` of :data:`PARTITION_SOURCE` (the arrays as plain
    addresses)."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("m", ctypes.c_int64),
        *(
            (name, ctypes.c_void_p)
            for name in ("net_start", "pins", "inc_start", "inc", "net_weight", "vertex_weight")
        ),
    ]


class Coarse(ctypes.Structure):
    """``gem_coarse`` of :data:`PARTITION_SOURCE`."""

    _fields_ = [
        ("nc", ctypes.c_int64),
        ("mc", ctypes.c_int64),
        *(
            (name, ctypes.c_void_p)
            for name in ("coarse_of", "vertex_weight", "net_start", "pins", "net_weight")
        ),
    ]


#: ``gem_fm_pass(graph, parts, max_w, order, cut)``
FM_PASS_SIGNATURE = (
    (
        ctypes.POINTER(Graph),
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.POINTER(ctypes.c_int64),
    ),
    ctypes.c_int64,
)
#: ``gem_coarsen(graph, order, coarse)``
COARSEN_SIGNATURE = (
    (ctypes.POINTER(Graph), ctypes.c_void_p, ctypes.POINTER(Coarse)),
    ctypes.c_int64,
)


class Kernels(NamedTuple):
    """``gem_fm_pass`` and ``gem_coarsen`` as ``ctypes`` functions."""

    fm_pass: object
    coarsen: object


def graph_struct(arrays) -> Graph:
    """The ``gem_hgraph`` view of a graph's
    :class:`~repro.partition.hypergraph.HypergraphArrays` (which the caller
    keeps alive while C reads it)."""
    return Graph(
        n=arrays.vertex_weight.size,
        m=arrays.net_weight.size,
        **{name: getattr(arrays, name).ctypes.data for name, _ in Graph._fields_[2:]},
    )


#: the loaded entry points, or None where they cannot be built; empty
#: until the first partition asks
_RESOLVED: list = []


def library() -> Kernels | None:
    """``gem_fm_pass`` and ``gem_coarsen`` as ``ctypes`` functions, or
    ``None`` where no library can be built or loaded (the reason is logged
    once, at INFO, and the partitioner runs its Python loops).  Resolved
    once per process."""
    if not _RESOLVED:
        from repro.core.backend import load_kernel
        from repro.core.placement_kernel import COMPILE_SOURCE

        try:
            fns = Kernels(
                fm_pass=load_kernel(COMPILE_SOURCE, "gem_fm_pass", FM_PASS_SIGNATURE),
                coarsen=load_kernel(COMPILE_SOURCE, "gem_coarsen", COARSEN_SIGNATURE),
            )
        except BackendUnavailableError as exc:
            logger.info(
                "native partitioner unavailable (%s); FM and coarsening run in Python", exc
            )
            fns = None
        _RESOLVED.append(fns)
    return _RESOLVED[0]


def kway() -> str:
    """Which partitioner loops run in this process: ``"native"`` or
    ``"python"``."""
    return "python" if library() is None else "native"
