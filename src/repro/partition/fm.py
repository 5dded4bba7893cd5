"""Fiduccia–Mattheyses bipartition refinement.

Classic FM with gain buckets, a locked-vertex pass structure and rollback to
the best prefix of moves.  The implementation refines a 2-way partition of a
:class:`~repro.partition.hypergraph.Hypergraph` under a weight-balance
constraint, minimizing *cut weight* (equal to km1 for two parts).

This is the refinement engine of the multilevel partitioner
(:mod:`repro.partition.multilevel`), which is in turn the substrate RepCut
uses — the reproduction's equivalent of hMETIS in the original RepCut paper.
"""

from __future__ import annotations

import ctypes
import random
from collections import Counter
from typing import Sequence

import numpy as np

from repro.partition import kernel
from repro.partition.hypergraph import Hypergraph

#: FM passes per refinement, at most (it stops at the first that does not
#: improve the cut)
_MAX_PASSES = 8


def refine_bipartition(
    graph: Hypergraph,
    parts: list[int] | np.ndarray,
    max_part_weight: Sequence[int],
    rng: random.Random | None = None,
    stats: Counter | None = None,
) -> int:
    """Improve ``parts`` (a list or an array) in place; returns the final
    cut weight.

    ``max_part_weight[p]`` bounds the total vertex weight of part ``p``.
    A move is admissible only if the destination stays within its bound
    (the standard FM balance rule; an initially infeasible side may always
    shed weight).  Each pass runs in C (:mod:`repro.partition.kernel`) on
    ``uint8`` labels where the compile flow's library loads, else in
    Python (:func:`_one_pass`) on a list; ``rng`` shuffles the vertex
    order before each pass on both paths.
    ``stats["fm_passes"]`` counts the passes run.
    """
    side = np.asarray(parts)
    if side.shape != (graph.num_vertices,) or not ((side == 0) | (side == 1)).all():
        raise ValueError("parts must give every vertex a side, 0 or 1")
    from repro.core import placement_kernel

    rng = rng or random.Random(0)
    lib = placement_kernel.library()
    work = side.tolist() if lib is None else side.astype(np.uint8)
    for passes in range(1, _MAX_PASSES + 1):
        order = kernel.shuffled_order(lib, rng, graph.num_vertices)
        if lib is None:
            improved, cut = _one_pass(graph, work, max_part_weight, order)
        else:
            improved, cut = _one_pass_native(lib, graph, work, max_part_weight, order)
        if not improved:
            break
    parts[:] = work.tolist() if isinstance(parts, list) and lib is not None else work
    if stats is not None:
        stats["fm_passes"] += passes
    return cut


def _one_pass_native(
    lib,
    graph: Hypergraph,
    side: np.ndarray,
    max_part_weight: Sequence[int],
    order: Sequence[int],
) -> tuple[bool, int]:
    """:func:`_one_pass` as one ``gem_fm_pass`` call, on ``uint8`` labels
    ``side``."""
    arrays = graph.arrays()
    max_w = np.array(max_part_weight, dtype=np.int64)
    vertex_order = np.asarray(order, dtype=np.int64)
    cut = ctypes.c_int64()
    rc = lib.fm_pass(
        ctypes.byref(kernel.graph_struct(arrays)),
        side.ctypes.data,
        max_w.ctypes.data,
        vertex_order.ctypes.data,
        ctypes.byref(cut),
    )
    if rc == -3:  # gains too wide for the bucket array: the same pass in Python
        parts = side.tolist()
        result = _one_pass(graph, parts, max_part_weight, vertex_order.tolist())
        side[:] = parts
        return result
    if rc < 0:
        raise MemoryError("FM pass scratch")
    return rc == 1, cut.value


def _one_pass(
    graph: Hypergraph,
    parts: list[int],
    max_part_weight: Sequence[int],
    order: list[int],
) -> tuple[bool, int]:
    """One FM pass: tentatively move every vertex once, keep best prefix.

    ``order`` is the order the gain buckets are filled in.  Returns
    whether the cut improved, and the cut.  The reference ``gem_fm_pass``
    is held against, and the path where that library does not load.
    """
    n = graph.num_vertices
    incidence = graph.incidence()
    part_weight = graph.part_weights(parts, 2)
    # pins_in[e][p]: number of net e's pins currently in part p.
    pins_in = [[0, 0] for _ in range(graph.num_nets)]
    for e, net in enumerate(graph.nets):
        for v in net:
            pins_in[e][parts[v]] += 1

    def gain(v: int) -> int:
        """Cut-weight delta if v moves to the other side (positive = better)."""
        g = 0
        p = parts[v]
        for e in incidence[v]:
            w = graph.net_weight[e]
            if pins_in[e][p] == 1:
                g += w  # net becomes uncut
            if pins_in[e][1 - p] == 0:
                g -= w  # net becomes cut
        return g

    # Gain bucket structure: dict gain -> list of vertices (lazy deletion).
    gains = [gain(v) for v in range(n)]
    buckets: dict[int, list[int]] = {}
    for v in order:
        buckets.setdefault(gains[v], []).append(v)
    locked = [False] * n
    stale = [0] * n  # bucket entries invalidated by gain updates

    moves: list[tuple[int, int]] = []  # (vertex, gain at move time)
    cumulative = 0
    best_prefix = 0
    best_sum = 0

    def pop_best() -> int | None:
        while buckets:
            top = max(buckets)
            bucket = buckets[top]
            while bucket:
                v = bucket.pop()
                if stale[v] > 0:
                    stale[v] -= 1
                    continue
                if locked[v]:
                    continue
                dest = 1 - parts[v]
                if part_weight[dest] + graph.vertex_weight[v] > max_part_weight[dest]:
                    # Inadmissible now; re-queue as stale-free but locked-out
                    # for this pass to avoid livelock.
                    locked[v] = True
                    continue
                return v
            del buckets[top]
        return None

    def requeue(v: int, new_gain: int) -> None:
        if locked[v]:
            return
        if gains[v] != new_gain:
            stale[v] += 1
            gains[v] = new_gain
            buckets.setdefault(new_gain, []).append(v)

    moved_any = False
    while True:
        v = pop_best()
        if v is None:
            break
        src = parts[v]
        dst = 1 - src
        locked[v] = True
        cumulative += gains[v]
        moves.append((v, gains[v]))
        parts[v] = dst
        part_weight[src] -= graph.vertex_weight[v]
        part_weight[dst] += graph.vertex_weight[v]
        moved_any = True
        # Incremental gain updates for neighbours.
        for e in incidence[v]:
            w = graph.net_weight[e]
            before_src = pins_in[e][src]
            before_dst = pins_in[e][dst]
            pins_in[e][src] -= 1
            pins_in[e][dst] += 1
            net = graph.nets[e]
            # Standard FM delta rules (Fiduccia & Mattheyses 1982).
            if before_dst == 0:
                for u in net:
                    if not locked[u]:
                        requeue(u, gains[u] + w)
            elif before_dst == 1:
                for u in net:
                    if not locked[u] and parts[u] == dst:
                        requeue(u, gains[u] - w)
            if before_src == 1:
                for u in net:
                    if not locked[u]:
                        requeue(u, gains[u] - w)
            elif before_src == 2:
                for u in net:
                    if not locked[u] and parts[u] == src:
                        requeue(u, gains[u] + w)
        if cumulative > best_sum:
            best_sum = cumulative
            best_prefix = len(moves)

    # Roll back moves after the best prefix.
    for v, _ in reversed(moves[best_prefix:]):
        dst = parts[v]
        src = 1 - dst
        parts[v] = src
        part_weight[dst] -= graph.vertex_weight[v]
        part_weight[src] += graph.vertex_weight[v]

    return moved_any and best_sum > 0, graph.cut_weight(parts)
