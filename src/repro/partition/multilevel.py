"""Multilevel k-way hypergraph partitioning via recursive bisection.

The standard three-phase scheme (the shape of hMETIS/KaHyPar, sized for the
tens-of-thousands-of-vertices graphs RepCut produces):

1. **Coarsening** — heavy-edge matching: vertices are visited in random
   order and matched with the neighbour of highest connectivity score
   (``sum w(e)/(|e|-1)`` over shared nets), halving the graph until it is
   small enough for direct partitioning.
2. **Initial partitioning** — greedy BFS region growing from a random seed,
   filling one side up to half the total weight; best of several seeds.
3. **Uncoarsening** — projection of the partition back through the matching
   hierarchy with Fiduccia–Mattheyses refinement at every level.

``partition_kway`` recursively bisects to reach any ``k`` (weights split
proportionally for non-power-of-two ``k``).  Coarsening, sub-graphs, FM
passes and their shuffles run in C (:mod:`repro.partition.kernel`) where
that library loads; both paths draw the same numbers from the k-way
partition's one ``random.Random``, so both give the same partition.
"""

from __future__ import annotations

import ctypes
import random
from bisect import bisect_left
from collections import Counter, deque

import numpy as np

from repro.partition import kernel
from repro.partition.fm import refine_bipartition
from repro.partition.hypergraph import Hypergraph

_COARSEST_SIZE = 96
_INITIAL_TRIES = 4


def coarsen(graph: Hypergraph, rng: random.Random) -> tuple[Hypergraph, np.ndarray]:
    """One heavy-edge matching round; returns (coarser graph, vertex map).

    ``rng`` shuffles the matching order; the round runs in C where the
    compile flow's library loads, else in Python (:func:`_coarsen_python`).
    """
    from repro.core import placement_kernel

    lib = placement_kernel.library()
    order = kernel.shuffled_order(lib, rng, graph.num_vertices)
    if lib is None:
        return _coarsen_python(graph, order)
    return _contract_native(lib, graph, order=order)


def _contract_native(
    lib,
    graph: Hypergraph,
    order: np.ndarray | None = None,
    coarse_of: np.ndarray | None = None,
    nc: int = 0,
) -> tuple[Hypergraph, np.ndarray]:
    """One ``gem_coarsen`` call with matching order ``order``, or else one
    ``gem_contract`` call onto the ``nc`` coarse vertices of ``coarse_of``:
    the coarse graph, and the coarse vertex of each vertex."""
    arrays = graph.arrays()
    n, m = graph.num_vertices, graph.num_nets
    out = {
        "coarse_of": np.empty(n, dtype=np.int64) if coarse_of is None else coarse_of,
        "vertex_weight": np.empty(n, dtype=np.int64),
        "net_start": np.empty(m + 1, dtype=np.int64),
        "pins": np.empty(arrays.pins.size, dtype=np.int64),
        "net_weight": np.empty(m, dtype=np.int64),
    }
    result = kernel.Coarse(nc=nc, **{name: arr.ctypes.data for name, arr in out.items()})
    fine = ctypes.byref(kernel.graph_struct(arrays))
    if order is None:
        rc = lib.contract(fine, ctypes.byref(result))
    else:
        rc = lib.coarsen(fine, order.ctypes.data, ctypes.byref(result))
    if rc:
        raise MemoryError("contraction scratch")
    net_start = out["net_start"][: result.mc + 1].copy()
    coarse = Hypergraph.from_arrays(
        out["vertex_weight"][: result.nc].copy(),
        net_start,
        out["pins"][: net_start[-1]].copy(),
        out["net_weight"][: result.mc].copy(),
    )
    return coarse, out["coarse_of"]


def _coarsen_python(graph: Hypergraph, order: list[int]) -> tuple[Hypergraph, np.ndarray]:
    """One round with matching order ``order``: the reference
    ``gem_coarsen`` is held against, and the path where that library does
    not load."""
    n = graph.num_vertices
    incidence = graph.incidence()
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        best_u = -1
        best_score = 0.0
        scores: dict[int, float] = {}
        for e in incidence[v]:
            net = graph.nets[e]
            if len(net) > 16:
                continue  # skip huge nets: weak signal, quadratic cost
            contribution = graph.net_weight[e] / (len(net) - 1)
            for u in net:
                if u != v and match[u] == -1:
                    scores[u] = scores.get(u, 0.0) + contribution
        for u, score in scores.items():
            if score > best_score:
                best_score = score
                best_u = u
        if best_u != -1:
            match[v] = best_u
            match[best_u] = v
        else:
            match[v] = v
    # Assign coarse indices.
    coarse_of = [-1] * n
    next_idx = 0
    for v in range(n):
        if coarse_of[v] != -1:
            continue
        coarse_of[v] = next_idx
        if match[v] != v:
            coarse_of[match[v]] = next_idx
        next_idx += 1
    return _contract(graph, coarse_of, next_idx), np.array(coarse_of, dtype=np.int64)


def _contract(graph: Hypergraph, coarse_of: list[int], nc: int) -> Hypergraph:
    """The graph contracted onto ``nc`` coarse vertices, ``coarse_of[v]``
    that of vertex ``v`` or -1 to drop it: the reference ``gem_contract``
    is held against, and the path where that library does not load.  Each
    net's coarse pins sorted, nets of fewer than 2 dropped, equal nets
    merged into the first."""
    weights = [0] * nc
    for v, c in enumerate(coarse_of):
        if c >= 0:
            weights[c] += graph.vertex_weight[v]
    coarse = Hypergraph(vertex_weight=weights)
    seen: dict[tuple[int, ...], int] = {}
    for net, w in zip(graph.nets, graph.net_weight):
        kept = {coarse_of[v] for v in net}
        kept.discard(-1)
        if len(kept) < 2:
            continue
        pins = tuple(sorted(kept))
        idx = seen.get(pins)
        if idx is None:
            seen[pins] = len(coarse.nets)
            coarse.nets.append(pins)
            coarse.net_weight.append(w)
        else:
            coarse.net_weight[idx] += w
    return coarse


def _initial_bipartition(graph: Hypergraph, target0: int, rng: random.Random) -> np.ndarray:
    """Greedy BFS growth of part 0 up to ``target0`` total weight; the
    first best cut of :data:`_INITIAL_TRIES` seeds, as ``uint8`` labels."""
    n = graph.num_vertices
    arrays = graph.arrays()
    inc_start, inc = arrays.inc_start.tolist(), arrays.inc.tolist()
    net_start, pins = arrays.net_start.tolist(), arrays.pins.tolist()
    vertex_weight = graph.vertex_weight
    tries = []
    for _ in range(_INITIAL_TRIES):
        part0: list[int] = []
        weight0 = 0
        seed = rng.randrange(n)
        frontier = deque([seed])
        visited = bytearray(n)
        visited[seed] = 1
        # the unvisited vertices, ascending, as a jump draws from them;
        # ``grown`` says the growth visited some since the pool was exact
        unvisited = list(range(n))
        del unvisited[seed]
        grown = False
        # a net's pins are all visited once one of them is grown from
        expanded = bytearray(graph.num_nets)
        while frontier and weight0 < target0:
            v = frontier.pop()
            if weight0 + vertex_weight[v] > target0 and weight0 > 0:
                continue
            part0.append(v)
            weight0 += vertex_weight[v]
            for e in inc[inc_start[v] : inc_start[v + 1]]:
                if expanded[e]:
                    continue
                expanded[e] = 1
                for u in pins[net_start[e] : net_start[e + 1]]:
                    if not visited[u]:
                        visited[u] = 1
                        grown = True
                        frontier.appendleft(u)
            if not frontier:
                # Disconnected remainder: jump to an unvisited vertex.
                if grown:
                    unvisited = [u for u in unvisited if not visited[u]]
                    grown = False
                if unvisited:
                    nxt = rng.choice(unvisited)
                    visited[nxt] = 1
                    del unvisited[bisect_left(unvisited, nxt)]
                    frontier.append(nxt)
        parts = np.ones(n, dtype=np.uint8)
        parts[part0] = 0
        tries.append((graph.cut_weight(parts), parts))
    return min(tries, key=lambda t: t[0])[1]


def bisect(
    graph: Hypergraph,
    weight_fraction0: float = 0.5,
    epsilon: float = 0.05,
    rng: random.Random | None = None,
    stats: Counter | None = None,
) -> np.ndarray:
    """Multilevel bisection; returns a 0/1 part label per vertex
    (``uint8``).

    ``weight_fraction0`` is part 0's share of total vertex weight and
    ``epsilon`` the allowed relative imbalance.  ``stats`` counts the FM
    passes (:func:`~repro.partition.fm.refine_bipartition`).
    """
    rng = rng or random.Random(0)
    levels: list[tuple[Hypergraph, np.ndarray]] = []  # (finer graph, its coarse map)
    current = graph
    while current.num_vertices > _COARSEST_SIZE:
        coarse, vmap = coarsen(current, rng)
        if coarse.num_vertices >= current.num_vertices * 0.95:
            break  # matching stalled (e.g. no nets); stop coarsening
        levels.append((current, vmap))
        current = coarse

    total = current.total_weight
    target0 = int(round(total * weight_fraction0))
    max_w = [
        int(total * weight_fraction0 * (1 + epsilon)) + 1,
        int(total * (1 - weight_fraction0) * (1 + epsilon)) + 1,
    ]
    parts = _initial_bipartition(current, target0, rng)
    refine_bipartition(current, parts, max_w, rng=rng, stats=stats)

    # Uncoarsen: project and refine at each finer level.
    for fine, vmap in reversed(levels):
        parts = parts[vmap]
        refine_bipartition(fine, parts, max_w, rng=rng, stats=stats)
    return parts


def partition_kway(
    graph: Hypergraph,
    k: int,
    epsilon: float = 0.05,
    seed: int = 0,
    stats: Counter | None = None,
) -> list[int]:
    """Recursive-bisection k-way partition; returns part id per vertex.

    ``stats``, when given, counts ``bisections`` and ``fm_passes``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    parts = np.zeros(graph.num_vertices, dtype=np.int64)
    if k == 1 or graph.num_vertices == 0:
        return parts.tolist()
    rng = random.Random(seed)

    def recurse(vertices: np.ndarray, k_here: int, base: int) -> None:
        if k_here == 1 or vertices.size <= 1:
            parts[vertices] = base
            return
        k_left = k_here // 2
        frac_left = k_left / k_here
        labels = bisect(
            _subgraph(graph, vertices), frac_left, epsilon=epsilon, rng=rng, stats=stats
        )
        if stats is not None:
            stats["bisections"] += 1
        recurse(vertices[labels == 0], k_left, base)
        recurse(vertices[labels == 1], k_here - k_left, base + k_left)

    recurse(np.arange(graph.num_vertices), k, 0)
    return parts.tolist()


def _subgraph(graph: Hypergraph, vertices: np.ndarray) -> Hypergraph:
    """Induced sub-hypergraph on ascending ``vertices`` (vertex ``i`` is
    ``vertices[i]``; nets restricted, >=2 pins): the contraction that
    numbers ``vertices`` in order and drops the rest."""
    from repro.core import placement_kernel

    coarse_of = np.full(graph.num_vertices, -1, dtype=np.int64)
    coarse_of[vertices] = np.arange(vertices.size)
    lib = placement_kernel.library()
    if lib is None:
        return _contract(graph, coarse_of.tolist(), vertices.size)
    return _contract_native(lib, graph, coarse_of=coarse_of, nc=vertices.size)[0]
