"""Depth-oriented E-AIG optimization (paper §III-B, second synthesis stage).

The paper's fake ASIC library (AND/OR = 1 ps, INV = 0 ps) makes commercial
timing-driven synthesis behave as a depth minimizer.  Our lowering in
:mod:`repro.core.synthesis` already builds log-depth operators, so this pass
plays the cleanup role the ASIC tool plays after elaboration:

* **dead-node elimination** — only logic reachable from flip-flop inputs,
  RAM ports and primary outputs survives (RAM adapters and speculative
  builder logic leave garbage behind);
* **re-strashing** — structural hashing across the whole graph after all
  construction, merging duplicates the incremental hash missed (e.g. nodes
  equal only after constant propagation);
* **tree balancing** — maximal single-fanout AND conjunctions are collected
  and rebuilt shallowest-first (ABC's ``balance`` with level-aware Huffman
  merging), reducing depth of chained conjunctions.

``optimize`` rebuilds a :class:`~repro.core.synthesis.SynthesisResult`
in place of the old one, preserving the word-level I/O binding, FF order,
and RAM blocks, so everything downstream (partitioning, placement,
simulation) is oblivious to whether optimization ran.

The rebuild's cone loop runs in C (:data:`REBUILD_SOURCE`'s
``gem_rebuild``, part of the compile flow's one library,
:data:`repro.core.placement_kernel.COMPILE_SOURCE`) where that library
loads (:func:`repro.core.placement_kernel.library`), and in
:func:`_build_python` otherwise.  C follows the Python
loop step for step — its stack, the leaf order of each conjunction, the
heap's ``(level, age)`` order, ``add_and``'s folding and strash — so both
make the same nodes in the same order.  Python still makes the sources
before the call and wires the FFs, RAM ports and outputs after it.
"""

from __future__ import annotations

import ctypes
from dataclasses import replace
from itertools import chain, islice

import numpy as np

from repro.core.eaig import EAIG, FALSE, NodeKind
from repro.core.synthesis import SynthesisResult, reduce_tree
from repro.errors import GemError

REBUILD_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RB_AND 2                      /* NodeKind.AND */

typedef struct {
    int64_t nroots, balance;
    int64_t base;                     /* new nodes before the first AND */
    int64_t cap;                      /* room for new ANDs */
    int64_t nand, bad;                /* out */
    const int8_t *kind;               /* the old graph's arrays() */
    const int64_t *fanin0, *fanin1;
    const int64_t *fanout;            /* NULL without balance */
    const int64_t *roots;             /* literals, state_roots() order */
    int64_t *node_map;                /* in/out: new literal, -1 unmapped */
    int64_t *and0, *and1, *level;     /* out: new ANDs, creation order */
} gem_rebuild_job;

typedef struct {
    int64_t *data;
    int64_t len, cap;
} rb_stack;

static int rb_push(rb_stack *s, int64_t x)
{
    if (s->len == s->cap) {
        const int64_t cap = s->cap ? 2 * s->cap : 256;
        int64_t *data = realloc(s->data, (size_t)cap * sizeof *data);
        if (!data)
            return 0;
        s->data = data;
        s->cap = cap;
    }
    s->data[s->len++] = x;
    return 1;
}

typedef struct {
    gem_rebuild_job *j;
    int32_t *table;                   /* strash: index of a new AND, -1 */
    uint64_t mask;
    rb_stack work;                    /* build's stack: node << 1 | expanded */
    rb_stack dfs, leaves;             /* conjunction_leaves */
    rb_stack heap;                    /* reduce_tree: (key, literal) pairs */
} rb_state;

static int64_t rb_level(const gem_rebuild_job *j, int64_t literal)
{
    const int64_t node = literal >> 1;
    return node < j->base ? 0 : j->level[node - j->base];
}

/* EAIG.add_and: normalise, fold constants, strash; -1 when out of room */
static int64_t rb_and(rb_state *s, int64_t a, int64_t b)
{
    gem_rebuild_job *j = s->j;
    if (a > b) {
        const int64_t t = a;
        a = b;
        b = t;
    }
    if (a == 0)
        return 0;
    if (a == 1)
        return b;
    if (a == b)
        return a;
    if (a == (b ^ 1))
        return 0;
    uint64_t h = (uint64_t)a * 0x9E3779B97F4A7C15ull ^ (uint64_t)b * 0xC2B2AE3D27D4EB4Full;
    for (h = (h ^ h >> 32) & s->mask; s->table[h] >= 0; h = (h + 1) & s->mask) {
        const int64_t e = s->table[h];
        if (j->and0[e] == a && j->and1[e] == b)
            return 2 * (j->base + e);
    }
    if (j->nand == j->cap)
        return -1;
    const int64_t e = j->nand++, la = rb_level(j, a), lb = rb_level(j, b);
    j->and0[e] = a;
    j->and1[e] = b;
    j->level[e] = 1 + (la > lb ? la : lb);
    s->table[h] = (int32_t)e;
    return 2 * (j->base + e);
}

/* conjunction_leaves(root) into s->leaves: fanin0 pushed before fanin1 */
static int rb_leaves(rb_state *s, int64_t root)
{
    const gem_rebuild_job *j = s->j;
    s->leaves.len = 0;
    s->dfs.len = 0;
    if (!rb_push(&s->dfs, 2 * root))
        return 0;
    while (s->dfs.len) {
        const int64_t literal = s->dfs.data[--s->dfs.len], node = literal >> 1;
        if (!(literal & 1) && j->kind[node] == RB_AND
            && (node == root || j->fanout[node] == 1)) {
            if (!rb_push(&s->dfs, j->fanin0[node]) || !rb_push(&s->dfs, j->fanin1[node]))
                return 0;
        } else if (!rb_push(&s->leaves, literal))
            return 0;
    }
    return 1;
}

/* a min-heap of (level << 32 | counter, literal) pairs */
static int rb_heap_push(rb_stack *h, int64_t key, int64_t literal)
{
    if (!rb_push(h, key) || !rb_push(h, literal))
        return 0;
    int64_t *d = h->data, i = h->len / 2 - 1;
    while (i > 0) {
        const int64_t parent = (i - 1) / 2;
        if (d[2 * parent] <= key)
            break;
        d[2 * i] = d[2 * parent];
        d[2 * i + 1] = d[2 * parent + 1];
        i = parent;
    }
    d[2 * i] = key;
    d[2 * i + 1] = literal;
    return 1;
}

static int64_t rb_heap_pop(rb_stack *h)
{
    int64_t *d = h->data;
    const int64_t top = d[1], n = h->len / 2 - 1;
    const int64_t key = d[2 * n], literal = d[2 * n + 1];
    h->len -= 2;
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && d[2 * c + 2] < d[2 * c])
            ++c;
        if (key <= d[2 * c])
            break;
        d[2 * i] = d[2 * c];
        d[2 * i + 1] = d[2 * c + 1];
        i = c;
    }
    if (n > 0) {
        d[2 * i] = key;
        d[2 * i + 1] = literal;
    }
    return top;
}

/* _tree_and_signed over s->leaves translated: reduce_tree merges the two
   shallowest first, ties by age; -1 when out of memory or room */
static int64_t rb_reduce(rb_state *s)
{
    gem_rebuild_job *j = s->j;
    rb_stack *h = &s->heap;
    if (!s->leaves.len)
        return 1;
    h->len = 0;
    int64_t counter = 0;
    for (; counter < s->leaves.len; ++counter) {
        const int64_t l = s->leaves.data[counter], t = j->node_map[l >> 1] ^ (l & 1);
        if (!rb_heap_push(h, rb_level(j, t) << 32 | counter, t))
            return -1;
    }
    while (h->len > 2) {
        const int64_t a = rb_heap_pop(h), b = rb_heap_pop(h), m = rb_and(s, a, b);
        if (m < 0 || !rb_heap_push(h, rb_level(j, m) << 32 | counter++, m))
            return -1;
    }
    return h->data[1];
}

/* depth_opt's build over every root, step for step: the same new ANDs in
   the same order, the same node_map.  Returns 0, -1 for an unmapped node
   that is not an AND (bad says which), -2 when out of memory or room. */
int64_t gem_rebuild(gem_rebuild_job *j)
{
    rb_state s;
    memset(&s, 0, sizeof s);
    s.j = j;
    int64_t size = 1024; /* a power of two, at least twice the room */
    while (size < 2 * j->cap)
        size *= 2;
    s.mask = (uint64_t)size - 1;
    s.table = j->cap < INT32_MAX ? malloc((size_t)size * sizeof *s.table) : NULL;
    int64_t rc = -2;
    if (!s.table)
        goto done;
    memset(s.table, 0xff, (size_t)size * sizeof *s.table);
    j->nand = 0;
    for (int64_t r = 0; r < j->nroots; ++r) {
        s.work.len = 0;
        if (!rb_push(&s.work, j->roots[r] >> 1 << 1))
            goto done;
        while (s.work.len) {
            const int64_t entry = s.work.data[--s.work.len], node = entry >> 1;
            if (j->node_map[node] >= 0)
                continue;
            if (j->kind[node] != RB_AND) {
                j->bad = node;
                rc = -1;
                goto done;
            }
            int64_t value;
            if (j->balance) {
                if (!rb_leaves(&s, node))
                    goto done;
                if (!(entry & 1)) {
                    if (!rb_push(&s.work, entry | 1))
                        goto done;
                    for (int64_t i = 0; i < s.leaves.len; ++i)
                        if (!rb_push(&s.work, s.leaves.data[i] >> 1 << 1))
                            goto done;
                    continue;
                }
                value = rb_reduce(&s);
            } else {
                const int64_t f0 = j->fanin0[node], f1 = j->fanin1[node];
                if (!(entry & 1)) {
                    if (!rb_push(&s.work, entry | 1) || !rb_push(&s.work, f0 >> 1 << 1)
                        || !rb_push(&s.work, f1 >> 1 << 1))
                        goto done;
                    continue;
                }
                value = rb_and(&s, j->node_map[f0 >> 1] ^ (f0 & 1),
                               j->node_map[f1 >> 1] ^ (f1 & 1));
            }
            if (value < 0)
                goto done;
            j->node_map[node] = value;
        }
    }
    rc = 0;
done:
    free(s.table);
    free(s.work.data);
    free(s.dfs.data);
    free(s.leaves.data);
    free(s.heap.data);
    return rc;
}
"""


class RebuildJob(ctypes.Structure):
    """``gem_rebuild_job`` of :data:`REBUILD_SOURCE` (arrays as addresses)."""

    _fields_ = [
        *(
            (name, ctypes.c_int64)
            for name in ("nroots", "balance", "base", "cap", "nand", "bad")
        ),
        *(
            (name, ctypes.c_void_p)
            for name in (
                "kind", "fanin0", "fanin1", "fanout", "roots", "node_map",
                "and0", "and1", "level",
            )
        ),
    ]


#: ``gem_rebuild(job)``
REBUILD_SIGNATURE = ((ctypes.POINTER(RebuildJob),), ctypes.c_int64)


def optimize(result: SynthesisResult, balance: bool = True) -> SynthesisResult:
    """DCE + re-strash (+ balance) a synthesized design."""
    new, node_map = rebuild(result.eaig, balance=balance)
    return replace(
        result,
        eaig=new,
        input_bits=_translate_bits(result.input_bits, node_map),
        output_bits=_translate_bits(result.output_bits, node_map),
    )


def _translate_bits(bits: dict[str, list[int]], node_map: np.ndarray) -> dict[str, list[int]]:
    """Every word's literals through ``node_map`` in one gather (each is a
    PI or an output literal, so its node is mapped)."""
    old = np.fromiter(chain.from_iterable(bits.values()), dtype=np.int64)
    flat = iter((node_map[old >> 1] ^ (old & 1)).tolist())
    return {name: list(islice(flat, len(literals))) for name, literals in bits.items()}


def compact(eaig: EAIG) -> EAIG:
    """DCE + re-strash only (no restructuring)."""
    return rebuild(eaig, balance=False)[0]


def rebuild(old: EAIG, balance: bool) -> tuple[EAIG, np.ndarray]:
    """Rebuild ``old`` bottom-up from its roots.

    Returns the new graph and the node map: an int64 array, old node ->
    new literal (possibly complemented), ``-1`` for a node no root
    reaches; every state node and every live AND is mapped.  The cones
    are built by ``gem_rebuild`` where the compile library loads and by
    :func:`_build_python` otherwise: the same nodes in the same order
    either way.
    """
    old.check()
    new = EAIG(old.name)
    node_map = np.full(len(old), -1, dtype=np.int64)
    node_map[0] = 0
    new_sources = [new.add_pi(old.names.get(pi, f"pi{idx}")) for idx, pi in enumerate(old.pis)]
    new_sources += [new.add_ff(init=old.aux[ff], name=old.names.get(ff)) for ff in old.ffs]
    for ram in old.rams:
        new_ram = new.add_ram(ram.name, ram.addr_bits, ram.data_bits, init=ram.init)
        new_sources += [2 * node for node in new_ram.data_nodes]
    node_map[[*old.pis, *old.ffs, *(n for ram in old.rams for n in ram.data_nodes)]] = new_sources

    from repro.core import placement_kernel

    roots = old.state_roots()
    lib = placement_kernel.library()
    if lib is None:
        _build_python(old, new, node_map, roots, balance)
    else:
        _build_native(lib, old, new, node_map, roots, balance)

    # the roots in state_roots() order: FF inputs, RAM ports, outputs
    literals = np.array(roots, dtype=np.int64)
    wired = iter((node_map[literals >> 1] ^ (literals & 1)).tolist())
    for ff in new.ffs:
        new.set_ff_input(2 * ff, next(wired))
    for ram, new_ram in zip(old.rams, new.rams):
        new_ram.raddr = list(islice(wired, len(ram.raddr)))
        new_ram.ren = next(wired)
        new_ram.waddr = list(islice(wired, len(ram.waddr)))
        new_ram.wdata = list(islice(wired, len(ram.wdata)))
        new_ram.wen = next(wired)
    for name, _ in old.outputs:
        new.add_output(name, next(wired))
    new.check()
    return new, node_map


def _build_python(
    old: EAIG, new: EAIG, node_map: np.ndarray, roots: list[int], balance: bool
) -> None:
    """Map every AND of ``old`` that a root reaches into ``new``: the
    reference ``gem_rebuild`` follows, and the path without a compiler.
    The loop keeps its map as a dict and writes it back at the end."""
    fanout = old.fanout_counts().tolist() if balance else []
    old.drop_arrays()  # the loop reads the lists
    mapped = np.flatnonzero(node_map >= 0)
    built: dict[int, int] = dict(zip(mapped.tolist(), node_map[mapped].tolist()))

    def translate(literal: int) -> int:
        return built[literal >> 1] ^ (literal & 1)

    def conjunction_leaves(root: int) -> list[int]:
        """Maximal AND cone of ``root``: expand non-complemented,
        single-fanout AND fanins (ABC balance's collection rule)."""
        leaves: list[int] = []
        stack = [2 * root]
        while stack:
            literal = stack.pop()
            node = literal >> 1
            if (
                literal & 1 == 0
                and old.kind[node] is NodeKind.AND
                and (node == root or fanout[node] == 1)
            ):
                stack.append(old.fanin0[node])
                stack.append(old.fanin1[node])
            else:
                leaves.append(literal)
        return leaves

    def build(root_literal: int) -> None:
        """Iterative post-order construction of one cone."""
        stack: list[tuple[int, bool]] = [(root_literal >> 1, False)]
        while stack:
            node, expanded = stack.pop()
            if node in built:
                continue
            kind = old.kind[node]
            if kind is not NodeKind.AND:
                raise GemError(f"unmapped non-AND node {node} ({kind})")
            if balance:
                leaves = conjunction_leaves(node)
                if expanded:
                    new_leaves = [translate(l) for l in leaves]
                    built[node] = _tree_and_signed(new, new_leaves)
                else:
                    stack.append((node, True))
                    stack.extend((l >> 1, False) for l in leaves)
            else:
                if expanded:
                    built[node] = new.add_and(
                        translate(old.fanin0[node]), translate(old.fanin1[node])
                    )
                else:
                    stack.append((node, True))
                    stack.append((old.fanin0[node] >> 1, False))
                    stack.append((old.fanin1[node] >> 1, False))

    for root in roots:
        build(root)
    node_map[list(built)] = list(built.values())


def _build_native(
    lib, old: EAIG, new: EAIG, node_map: np.ndarray, roots: list[int], balance: bool
) -> None:
    """:func:`_build_python` in one ``gem_rebuild`` call.

    C walks ``old.arrays()``, fills ``node_map`` in place and returns the
    new ANDs' fan-ins and levels in creation order, so ``new`` grows
    exactly as the Python loop grows it.  Its scratch (strash table,
    stacks, heap) lives and dies in the call.
    """
    arrays = old.arrays()
    # an old AND makes at most one new AND: a cone of k leaves holds k - 1
    # old ANDs, each in no other cone, and reduces in k - 1 add_and calls
    cap = int(np.count_nonzero(arrays.kind == NodeKind.AND))
    fanout = old.fanout_counts() if balance else None
    root_array = np.array(roots, dtype=np.int64)
    out = np.empty((3, cap), dtype=np.int64)  # and0, and1, level
    job = RebuildJob(
        nroots=root_array.size,
        balance=int(balance),
        base=len(new),
        cap=cap,
        kind=arrays.kind.ctypes.data,
        fanin0=arrays.fanin0.ctypes.data,
        fanin1=arrays.fanin1.ctypes.data,
        fanout=None if fanout is None else fanout.ctypes.data,
        roots=root_array.ctypes.data,
        node_map=node_map.ctypes.data,
        **{name: row.ctypes.data for name, row in zip(("and0", "and1", "level"), out)},
    )
    rc = lib.rebuild(ctypes.byref(job))
    # release the view and the inputs before the new nodes' ints exist: a
    # held pre-optimisation design does not carry the view either
    del arrays, fanout, root_array
    old.drop_arrays()
    if rc == -1:
        raise GemError(f"unmapped non-AND node {job.bad} ({old.kind[job.bad]})")
    if rc < 0:
        raise MemoryError("depth_opt: rebuild scratch")
    new.extend_ands(*(row[: job.nand] for row in out))


def _tree_and_signed(eaig: EAIG, leaves: list[int]) -> int:
    """Level-aware AND reduction; returns the conjunction's literal.

    The literal may be complemented: ``add_and`` folds ``AND(TRUE, ~x)``
    to ``~x``, and a conjunction that folds to TRUE is literal 1.  So
    ``node_map`` holds signed literals, and ``translate`` XORs an edge's
    own complement into them.
    """
    if not leaves:
        return 1  # the empty conjunction is TRUE
    return reduce_tree(eaig, leaves, eaig.add_and, empty=FALSE)


def depth_report(eaig: EAIG) -> dict:
    """Depth/size snapshot used by benchmarks and EXPERIMENTS.md."""
    hist = eaig.level_histogram()
    depth = max(hist) if hist else 0
    gates = sum(hist.values())
    # Long-tail metric (paper Observation 4): fraction of gates in the
    # shallowest quarter of levels.
    frontier = sum(count for lvl, count in hist.items() if lvl <= max(1, depth // 4))
    return {
        "gates": gates,
        "depth": depth,
        "frontier_fraction": frontier / gates if gates else 0.0,
        "histogram": hist,
    }
