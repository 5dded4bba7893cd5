"""The partitioner's hot loops in C: RepCut's cone signatures, an FM pass,
a coarsening round, a contraction and the vertex-order shuffle.

:func:`repro.partition.repcut.cone_signatures` hands the cone sweep of a
stage to :data:`PARTITION_SOURCE`'s ``gem_cone_masks``,
:func:`repro.partition.fm.refine_bipartition` each Fiduccia–Mattheyses
pass to ``gem_fm_pass``, and :mod:`repro.partition.multilevel` each
matching round to ``gem_coarsen`` and each induced sub-graph to
``gem_contract``, when the library loads; all run their Python loops
otherwise, and both paths make the same decisions, so a partition — and
the bitstream built on it — does not depend on which ran.  The source is
part of the compile flow's one C library, resolved by
:func:`repro.core.placement_kernel.library` the first time the flow asks —
never at import, so a run never loads it.

The ``random.Random`` of a k-way partition is shared by every bisection
of it.  ``gem_shuffle`` draws the vertex order before each coarsening
round and FM pass on that generator's own MT19937 state, exactly as
``random.Random.shuffle`` would, and :func:`shuffled_order` hands the
state back (below :data:`SHUFFLE_IN_C_FROM` vertices the shuffle itself is
cheaper than that round trip, and ``rng.shuffle`` draws); the initial
bipartition's draws stay in Python.
"""

from __future__ import annotations

import array
import ctypes
import random

import numpy as np

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

/* Contraction onto the c->nc coarse vertices of c->coarse_of (-1: the
   vertex is dropped, with its pins): coarse vertex weights summed, each
   net's coarse pins sorted and unique, nets of fewer than 2 pins
   dropped, equal nets merged into the first (weights added).  The
   induced sub-graph on ascending vertices v_0 < v_1 < ... is the
   contraction by coarse_of[v_i] = i.  Returns 0, or -2 when out of
   memory. */
int64_t gem_contract(const gem_hgraph *g, gem_coarse *c)
{
    const int64_t n = g->n, m = g->m;
    int64_t size = 8;
    while (size < 2 * m)
        size *= 2;
    int64_t *table = malloc((size_t)size * sizeof *table);
    if (!table)
        return -2;
    memset(table, 0xff, (size_t)size * sizeof *table);
    memset(c->vertex_weight, 0, (size_t)c->nc * sizeof *c->vertex_weight);
    for (int64_t v = 0; v < n; ++v)
        if (c->coarse_of[v] >= 0)
            c->vertex_weight[c->coarse_of[v]] += g->vertex_weight[v];

    int64_t mc = 0, pos = 0;
    c->net_start[0] = 0;
    for (int64_t e = 0; e < m; ++e) {
        int64_t *buf = c->pins + pos, len = 0;
        for (int64_t p = g->net_start[e]; p < g->net_start[e + 1]; ++p)
            if (c->coarse_of[g->pins[p]] >= 0)
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
    c->mc = mc;
    free(table);
    return 0;
}

/* One coarsening round.  Heavy-edge matching: vertices in `order` (the
   shuffled order) each take the unmatched neighbour of highest score,
   the sum over shared nets of at most MATCH_MAX_PINS pins of
   weight / (pins - 1), accumulated as doubles in incidence and pin order;
   ties go to the neighbour scored first.  Then coarse vertices are
   numbered in vertex order, a matched pair sharing one, and the graph is
   contracted onto them (gem_contract).  Returns 0, or -2 when out of
   memory. */
int64_t gem_coarsen(const gem_hgraph *g, const int64_t *order, gem_coarse *c)
{
    const int64_t n = g->n;
    int64_t *match = malloc((size_t)(n + 1) * sizeof *match);
    int64_t *touched = malloc((size_t)(n + 1) * sizeof *touched);
    double *score = malloc((size_t)(n + 1) * sizeof *score);
    uint8_t *scored = calloc((size_t)(n + 1), 1);
    int64_t rc = -2;
    if (!match || !touched || !score || !scored)
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
        nc += 1;
    }
    c->nc = nc;
    rc = gem_contract(g, c);
done:
    free(match);
    free(touched);
    free(score);
    free(scored);
    return rc;
}

#define MT_N 624                      /* CPython's MT19937 */
#define MT_M 397

static uint32_t mt_twist(uint32_t a, uint32_t b, uint32_t far)
{
    const uint32_t y = (a & 0x80000000U) | (b & 0x7fffffffU);
    return far ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
}

/* CPython's genrand_uint32 (Modules/_randommodule.c) on mt: 624 state
   words, then the index */
static uint32_t genrand_uint32(uint32_t *mt)
{
    if (mt[MT_N] >= MT_N) {
        int k = 0;
        for (; k < MT_N - MT_M; ++k)
            mt[k] = mt_twist(mt[k], mt[k + 1], mt[k + MT_M]);
        for (; k < MT_N - 1; ++k)
            mt[k] = mt_twist(mt[k], mt[k + 1], mt[k + MT_M - MT_N]);
        mt[MT_N - 1] = mt_twist(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
        mt[MT_N] = 0;
    }
    uint32_t y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* order = 0..n-1 as random.Random.shuffle leaves list(range(n)) from the
   state mt (getstate()[1]: 624 words, then the index), which advances as
   that shuffle advances it: for i = n-1 down to 1, swap i with
   _randbelow(i + 1), which draws getrandbits(k) = genrand_uint32() >>
   (32 - k), k the bit length of i + 1, until it is below i + 1.
   Returns 0, or -1 when n is 2^32 or more (k would pass 32). */
int64_t gem_shuffle(uint32_t *mt, int64_t n, int64_t *order)
{
    if (n >= ((int64_t)1 << 32))
        return -1;
    for (int64_t i = 0; i < n; ++i)
        order[i] = i;
    for (int64_t i = n - 1; i >= 1; --i) {
        const uint64_t bound = (uint64_t)i + 1;
        const int k = 64 - __builtin_clzll(bound);
        uint64_t r;
        do
            r = genrand_uint32(mt) >> (32 - k);
        while (r >= bound);
        const int64_t t = order[i];
        order[i] = order[r];
        order[r] = t;
    }
    return 0;
}

#define CONE_CHUNK 4                  /* mask words swept at a time */

typedef struct {
    int64_t n, words, ngroups;
    int64_t nsig;                     /* out: signatures; in when rows is set */
    const int8_t *kind;               /* NodeKind per node; AND is 2 */
    const int64_t *fanin0, *fanin1;   /* literals */
    const uint8_t *source;            /* 1: read as a source, or NULL */
    const int64_t *root_start, *roots; /* root literals per group, CSR */
    int64_t *signature;               /* out: per node, or -1 */
    int64_t *first;                   /* out: first node per signature */
    uint64_t *rows;                   /* NULL, or out: nsig rows of words */
} gem_cones;

static int cone_node(const gem_cones *c, int64_t node)
{
    return c->kind[node] == 2 && !(c->source && c->source[node]);
}

/* the cone masks of groups [64 * w0, 64 * (w0 + nb)): cur gets nb words
   per node, one reverse sweep (AND nodes only; a source truncates) */
static void sweep_chunk(const gem_cones *c, uint64_t *cur, int64_t w0, int64_t nb)
{
    const int64_t n = c->n;
    memset(cur, 0, (size_t)(n * nb) * sizeof *cur);
    const int64_t g_end = 64 * (w0 + nb) < c->ngroups ? 64 * (w0 + nb) : c->ngroups;
    for (int64_t g = 64 * w0; g < g_end; ++g)
        for (int64_t r = c->root_start[g]; r < c->root_start[g + 1]; ++r) {
            const int64_t node = c->roots[r] >> 1;
            if (cone_node(c, node))
                cur[node * nb + (g >> 6) - w0] |= (uint64_t)1 << (g & 63);
        }
    for (int64_t node = n - 1; node > 0; --node) {
        if (!cone_node(c, node))
            continue;
        const uint64_t *row = cur + node * nb;
        uint64_t any = 0;
        for (int64_t w = 0; w < nb; ++w)
            any |= row[w];
        if (!any)
            continue;
        const int64_t fanin[2] = {c->fanin0[node] >> 1, c->fanin1[node] >> 1};
        for (int side = 0; side < 2; ++side)
            if (cone_node(c, fanin[side])) {
                uint64_t *dst = cur + fanin[side] * nb;
                for (int64_t w = 0; w < nb; ++w)
                    dst[w] |= row[w];
            }
    }
}

static uint64_t hash_key(int64_t prev, const uint64_t *row, int64_t nb)
{
    uint64_t h = 1469598103934665603ULL ^ (uint64_t)prev;
    for (int64_t w = 0; w < nb; ++w)
        h = (h ^ row[w]) * 1099511628211ULL;
    return h ^ (h >> 29);
}

/* RepCut's cone signatures: the set of endpoint groups whose fan-in cone
   holds each node, numbered in ascending node order of their first
   holder.  The masks are swept CONE_CHUNK words at a time, and each chunk
   refines the numbering: a node's new number is that of the pair (its
   number so far, its words of this chunk), so only n x CONE_CHUNK words
   are ever held.  With rows NULL this fills signature and first and
   returns nsig; with rows set (after such a call) it writes each
   signature's mask words.  Returns -2 when out of memory. */
int64_t gem_cone_masks(gem_cones *c)
{
    const int64_t n = c->n, words = c->words;
    uint64_t *cur = malloc((size_t)(n * CONE_CHUNK + 1) * sizeof *cur);
    int64_t size = 16, ncone = 0;
    for (int64_t node = 0; node < n; ++node)
        ncone += cone_node(c, node);
    while (size < 2 * ncone)
        size <<= 1;
    int64_t *table = NULL, *key_prev = NULL;
    uint64_t *key_row = NULL;
    if (!c->rows) {
        table = malloc((size_t)size * sizeof *table);
        key_prev = malloc((size_t)(ncone + 1) * sizeof *key_prev);
        key_row = malloc((size_t)((ncone + 1) * CONE_CHUNK) * sizeof *key_row);
    }
    int64_t rc = -2;
    if (!cur || (!c->rows && (!table || !key_prev || !key_row)))
        goto done;
    if (!c->rows) {
        for (int64_t node = 0; node < n; ++node)
            c->signature[node] = -1;
        c->nsig = 0;
    }
    for (int64_t w0 = 0; w0 < words; w0 += CONE_CHUNK) {
        const int64_t nb = words - w0 < CONE_CHUNK ? words - w0 : CONE_CHUNK;
        sweep_chunk(c, cur, w0, nb);
        if (c->rows) {
            for (int64_t s = 0; s < c->nsig; ++s)
                memcpy(c->rows + s * words + w0, cur + c->first[s] * nb,
                       (size_t)nb * sizeof *cur);
            continue;
        }
        for (int64_t t = 0; t < size; ++t)
            table[t] = -1;
        int64_t count = 0;
        for (int64_t node = 0; node < n; ++node) {
            const int64_t prev = c->signature[node];
            const uint64_t *row = cur + node * nb;
            uint64_t any = 0;
            for (int64_t w = 0; w < nb; ++w)
                any |= row[w];
            if (prev == -1 && !any)
                continue;
            int64_t slot = (int64_t)(hash_key(prev, row, nb) & (uint64_t)(size - 1)), s;
            while ((s = table[slot]) != -1
                   && (key_prev[s] != prev
                       || memcmp(key_row + s * nb, row, (size_t)nb * sizeof *row)))
                slot = (slot + 1) & (size - 1);
            if (s == -1) {
                s = table[slot] = count++;
                key_prev[s] = prev;
                memcpy(key_row + s * nb, row, (size_t)nb * sizeof *row);
                c->first[s] = node;
            }
            c->signature[node] = s;
        }
        c->nsig = count;
    }
    rc = c->nsig;
done:
    free(cur);
    free(table);
    free(key_prev);
    free(key_row);
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
#: ``gem_contract(graph, coarse)``
CONTRACT_SIGNATURE = ((ctypes.POINTER(Graph), ctypes.POINTER(Coarse)), ctypes.c_int64)
#: ``gem_shuffle(mt, n, order)``
SHUFFLE_SIGNATURE = ((ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p), ctypes.c_int64)


class Cones(ctypes.Structure):
    """``gem_cones`` of :data:`PARTITION_SOURCE`."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in ("n", "words", "ngroups", "nsig")),
        *(
            (name, ctypes.c_void_p)
            for name in (
                "kind", "fanin0", "fanin1", "source", "root_start", "roots",
                "signature", "first", "rows",
            )
        ),
    ]


#: ``gem_cone_masks(cones)``
CONE_MASKS_SIGNATURE = ((ctypes.POINTER(Cones),), ctypes.c_int64)


def graph_struct(arrays) -> Graph:
    """The ``gem_hgraph`` view of a graph's
    :class:`~repro.partition.hypergraph.HypergraphArrays` (which the caller
    keeps alive while C reads it)."""
    return Graph(
        n=arrays.vertex_weight.size,
        m=arrays.net_weight.size,
        **{name: getattr(arrays, name).ctypes.data for name, _ in Graph._fields_[2:]},
    )


#: fewest vertices ``gem_shuffle`` draws for: below it, ``rng.shuffle``
#: costs less than the ~70 µs ``getstate`` / ``setstate`` round trip (the
#: two cross at ~150 vertices on a 2-vCPU x86 host)
SHUFFLE_IN_C_FROM = 150


def shuffled_order(lib, rng: random.Random, n: int):
    """``list(range(n))`` as ``rng.shuffle`` leaves it, and ``rng`` where
    that leaves it: an ``int64`` array where ``lib`` (the compile library)
    loaded — drawn by ``gem_shuffle`` from :data:`SHUFFLE_IN_C_FROM`
    vertices on — else the list itself."""
    if lib is None or n < SHUFFLE_IN_C_FROM:
        order = list(range(n))
        rng.shuffle(order)
        return order if lib is None else np.array(order, dtype=np.int64)
    version, internal, gauss_next = rng.getstate()
    mt = array.array("I", internal)  # uint32; half numpy's cost for 625 ints
    order = np.empty(n, dtype=np.int64)
    if lib.shuffle(mt.buffer_info()[0], n, order.ctypes.data):
        raise ValueError(f"cannot shuffle {n} vertices")
    rng.setstate((version, tuple(mt), gauss_next))
    return order
