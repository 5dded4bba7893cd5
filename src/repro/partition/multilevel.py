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
proportionally for non-power-of-two ``k``).  Coarsening rounds and FM
passes run in C (:mod:`repro.partition.kernel`) where that library loads;
every random draw stays here, on the one ``random.Random`` of the k-way
partition, so both paths give the same partition.
"""

from __future__ import annotations

import ctypes
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import GemError
from repro.partition import kernel
from repro.partition.fm import refine_bipartition
from repro.partition.hypergraph import Hypergraph

_COARSEST_SIZE = 96
_INITIAL_TRIES = 4


@dataclass
class _Level:
    graph: Hypergraph
    #: coarse vertex index per fine vertex of the previous (finer) level
    map_to_coarse: list[int]


def coarsen(graph: Hypergraph, rng: random.Random) -> tuple[Hypergraph, list[int]]:
    """One heavy-edge matching round; returns (coarser graph, vertex map).

    ``rng`` shuffles the matching order; the round runs in C where the
    compile flow's library loads, else in Python (:func:`_coarsen_python`).
    """
    from repro.core import placement_kernel

    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    lib = placement_kernel.library()
    if lib is None:
        return _coarsen_python(graph, order)
    return _coarsen_native(lib, graph, order)


def _coarsen_native(lib, graph: Hypergraph, order: list[int]) -> tuple[Hypergraph, list[int]]:
    """:func:`_coarsen_python` as one ``gem_coarsen`` call."""
    arrays = graph.arrays()
    n, m = graph.num_vertices, graph.num_nets
    out = {
        "coarse_of": np.empty(n, dtype=np.int64),
        "vertex_weight": np.empty(n, dtype=np.int64),
        "net_start": np.empty(m + 1, dtype=np.int64),
        "pins": np.empty(arrays.pins.size, dtype=np.int64),
        "net_weight": np.empty(m, dtype=np.int64),
    }
    result = kernel.Coarse(**{name: arr.ctypes.data for name, arr in out.items()})
    vertex_order = np.array(order, dtype=np.int64)
    if lib.coarsen(
        ctypes.byref(kernel.graph_struct(arrays)), vertex_order.ctypes.data, ctypes.byref(result)
    ):
        raise MemoryError("coarsening scratch")
    net_start = out["net_start"][: result.mc + 1].copy()
    coarse = Hypergraph.from_arrays(
        out["vertex_weight"][: result.nc].copy(),
        net_start,
        out["pins"][: net_start[-1]].copy(),
        out["net_weight"][: result.mc].copy(),
    )
    return coarse, out["coarse_of"].tolist()


def _coarsen_python(graph: Hypergraph, order: list[int]) -> tuple[Hypergraph, list[int]]:
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
    weights = [0] * next_idx
    for v in range(n):
        weights[coarse_of[v]] += graph.vertex_weight[v]
    coarse = Hypergraph(vertex_weight=weights)
    seen: dict[tuple[int, ...], int] = {}
    for net, w in zip(graph.nets, graph.net_weight):
        pins = tuple(sorted({coarse_of[v] for v in net}))
        if len(pins) < 2:
            continue
        idx = seen.get(pins)
        if idx is None:
            seen[pins] = len(coarse.nets)
            coarse.nets.append(pins)
            coarse.net_weight.append(w)
        else:
            coarse.net_weight[idx] += w
    return coarse, coarse_of


def _initial_bipartition(graph: Hypergraph, target0: int, rng: random.Random) -> list[int]:
    """Greedy BFS growth of part 0 up to ``target0`` total weight."""
    n = graph.num_vertices
    incidence = graph.incidence()
    best_parts: list[int] | None = None
    best_cut = None
    for _ in range(_INITIAL_TRIES):
        parts = [1] * n
        weight0 = 0
        seed = rng.randrange(n)
        frontier = [seed]
        visited = {seed}
        while frontier and weight0 < target0:
            v = frontier.pop()
            if weight0 + graph.vertex_weight[v] > target0 and weight0 > 0:
                continue
            parts[v] = 0
            weight0 += graph.vertex_weight[v]
            for e in incidence[v]:
                for u in graph.nets[e]:
                    if u not in visited:
                        visited.add(u)
                        frontier.insert(0, u)
            if not frontier:
                # Disconnected remainder: jump to an unvisited vertex.
                rest = [u for u in range(n) if u not in visited]
                if rest:
                    nxt = rng.choice(rest)
                    visited.add(nxt)
                    frontier.append(nxt)
        cut = graph.cut_weight(parts)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_parts = parts
    if best_parts is None:
        raise GemError("initial bipartition: no candidate was tried")
    return best_parts


def bisect(
    graph: Hypergraph,
    weight_fraction0: float = 0.5,
    epsilon: float = 0.05,
    rng: random.Random | None = None,
    stats: Counter | None = None,
) -> list[int]:
    """Multilevel bisection; returns a 0/1 part label per vertex.

    ``weight_fraction0`` is part 0's share of total vertex weight and
    ``epsilon`` the allowed relative imbalance.  ``stats`` counts the FM
    passes (:func:`~repro.partition.fm.refine_bipartition`).
    """
    rng = rng or random.Random(0)
    levels: list[_Level] = []
    current = graph
    while current.num_vertices > _COARSEST_SIZE:
        coarse, vmap = coarsen(current, rng)
        if coarse.num_vertices >= current.num_vertices * 0.95:
            break  # matching stalled (e.g. no nets); stop coarsening
        levels.append(_Level(graph=current, map_to_coarse=vmap))
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
    for level in reversed(levels):
        fine_parts = [parts[level.map_to_coarse[v]] for v in range(level.graph.num_vertices)]
        parts = fine_parts
        refine_bipartition(level.graph, parts, max_w, rng=rng, stats=stats)
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
    parts = [0] * graph.num_vertices
    if k == 1 or graph.num_vertices == 0:
        return parts
    rng = random.Random(seed)

    def recurse(vertices: list[int], k_here: int, base: int) -> None:
        if k_here == 1 or len(vertices) <= 1:
            for v in vertices:
                parts[v] = base
            return
        k_left = k_here // 2
        frac_left = k_left / k_here
        labels = bisect(
            _subgraph(graph, vertices), frac_left, epsilon=epsilon, rng=rng, stats=stats
        )
        if stats is not None:
            stats["bisections"] += 1
        left = [vertices[i] for i, p in enumerate(labels) if p == 0]
        right = [vertices[i] for i, p in enumerate(labels) if p == 1]
        recurse(left, k_left, base)
        recurse(right, k_here - k_left, base + k_left)

    recurse(list(range(graph.num_vertices)), k, 0)
    return parts


def _subgraph(graph: Hypergraph, vertices: list[int]) -> Hypergraph:
    """Induced sub-hypergraph on ``vertices`` (vertex ``i`` is
    ``vertices[i]``; nets restricted, >=2 pins)."""
    index = {v: i for i, v in enumerate(vertices)}
    sub = Hypergraph(vertex_weight=[graph.vertex_weight[v] for v in vertices])
    seen: dict[tuple[int, ...], int] = {}
    for net, w in zip(graph.nets, graph.net_weight):
        pins = tuple(sorted(index[v] for v in net if v in index))
        if len(pins) < 2:
            continue
        idx = seen.get(pins)
        if idx is None:
            seen[pins] = len(sub.nets)
            sub.nets.append(pins)
            sub.net_weight.append(w)
        else:
            sub.net_weight[idx] += w
    return sub
