"""Replication-aided partitioning of E-AIGs (RepCut, adapted per §III-C).

RepCut's idea: partition the *endpoints* (flip-flop inputs, RAM ports,
primary outputs) rather than the gates, and let each partition own a full
copy of every gate in its endpoints' combinational fan-in cones.  Logic
shared between partitions is **replicated**, removing all inter-partition
combinational dependencies — partitions only exchange state once per cycle,
which is exactly what GPU thread blocks need (no efficient inter-block
communication).

The price is the *replication cost*: ``(sum of partition sizes - live
gates) / live gates``.  GEM's contribution (multi-stage cutting, in
:mod:`repro.core.partition`) is about keeping that cost low at GPU-scale
partition counts; this module implements the single-stage core:

1. compute, for every AND node, the set of endpoint groups whose cones
   contain it (a reverse-topological bitmask sweep);
2. build a hypergraph — vertices are endpoint groups weighted by cone size,
   nets are bundles of nodes with identical sharing signatures, weighted by
   bundle size, so the km1 objective *is* the number of extra gate copies;
3. k-way partition (:func:`repro.partition.multilevel.partition_kway`);
4. materialize per-partition node sets and the replication accounting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.eaig import EAIG, NodeKind
from repro.partition.hypergraph import Hypergraph
from repro.partition.multilevel import partition_kway


@dataclass
class RepCutResult:
    """Outcome of replication-aided partitioning."""

    #: part id per endpoint group
    assignment: list[int]
    #: AND node indices owned by each part (with replication)
    part_nodes: list[list[int]]
    #: endpoint group indices per part
    part_groups: list[list[int]]
    #: number of live AND nodes (union of all cones)
    total_nodes: int
    #: km1 cut of the sharing hypergraph (= extra copies from cut nets)
    cut_weight: int
    #: multilevel bisections and FM passes the k-way partition ran
    bisections: int = 0
    fm_passes: int = 0

    @property
    def replicated_nodes(self) -> int:
        return sum(len(nodes) for nodes in self.part_nodes) - self.total_nodes

    @property
    def replication_cost(self) -> float:
        """Fraction of duplicated logic (the paper's headline metric)."""
        if self.total_nodes == 0:
            return 0.0
        return self.replicated_nodes / self.total_nodes


def cone_masks(
    eaig: EAIG, groups: list[list[int]], source_flags: list[bool] | None = None
) -> list[int]:
    """Per-node bitmask of endpoint groups whose fan-in cone contains it.

    Masks propagate from each group's root literals backwards through AND
    nodes only (state sources are globally readable and never replicated).
    ``source_flags[node]`` marks additional nodes to treat as sources —
    multi-stage partitioning uses it to truncate cones at values published
    by earlier stages.  Node indices are topologically ordered by
    construction, so one reverse sweep suffices.
    """

    def is_cone_node(node: int) -> bool:
        if eaig.kind[node] is not NodeKind.AND:
            return False
        return source_flags is None or not source_flags[node]

    masks = [0] * len(eaig.kind)
    for gi, literals in enumerate(groups):
        bit = 1 << gi
        for literal in literals:
            node = literal >> 1
            if is_cone_node(node):
                masks[node] |= bit
    kind = eaig.kind
    fanin0 = eaig.fanin0
    fanin1 = eaig.fanin1
    for node in range(len(kind) - 1, 0, -1):
        m = masks[node]
        if m and is_cone_node(node):
            a = fanin0[node] >> 1
            b = fanin1[node] >> 1
            if is_cone_node(a):
                masks[a] |= m
            if is_cone_node(b):
                masks[b] |= m
    return masks


def build_sharing_hypergraph(
    num_groups: int, masks: list[int], max_net_pins: int = 128
) -> tuple[Hypergraph, dict[int, int]]:
    """Hypergraph over endpoint groups from node sharing signatures.

    Returns the graph and the signature histogram (mask -> node count).
    Nets wider than ``max_net_pins`` are dropped from the objective: logic
    shared by that many endpoints is effectively global and will be
    replicated almost regardless of the partition, so it only slows FM down.
    """
    histogram: dict[int, int] = {}
    for m in masks:
        if m:
            histogram[m] = histogram.get(m, 0) + 1
    weights = [1] * num_groups  # base weight so empty-cone groups balance
    graph = Hypergraph(vertex_weight=weights)
    for mask, count in histogram.items():
        pins = _mask_bits(mask)
        for g in pins:
            weights[g] += count  # vertex weight accumulates full cone size
        if 2 <= len(pins) <= max_net_pins:
            graph.add_net(pins, weight=count)
    return graph, histogram


def _mask_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def repcut_partition(
    eaig: EAIG,
    groups: list[list[int]],
    k: int,
    epsilon: float = 0.1,
    seed: int = 0,
    max_net_pins: int = 128,
    source_flags: list[bool] | None = None,
    masks: list[int] | None = None,
) -> RepCutResult:
    """Partition endpoint ``groups`` into ``k`` parts with replication.

    ``masks`` may carry a precomputed :func:`cone_masks` result (callers
    that already needed it for sizing avoid a second sweep).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if masks is None:
        masks = cone_masks(eaig, groups, source_flags)
    graph, histogram = build_sharing_hypergraph(len(groups), masks, max_net_pins)
    stats: Counter = Counter()
    assignment = partition_kway(graph, k, epsilon=epsilon, seed=seed, stats=stats)

    part_nodes: list[list[int]] = [[] for _ in range(k)]
    mask_parts: dict[int, list[int]] = {}
    for mask in histogram:
        mask_parts[mask] = sorted({assignment[g] for g in _mask_bits(mask)})
    total = 0
    for node, m in enumerate(masks):
        if not m:
            continue
        total += 1
        for p in mask_parts[m]:
            part_nodes[p].append(node)

    part_groups: list[list[int]] = [[] for _ in range(k)]
    for g, p in enumerate(assignment):
        part_groups[p].append(g)

    return RepCutResult(
        assignment=assignment,
        part_nodes=part_nodes,
        part_groups=part_groups,
        total_nodes=total,
        cut_weight=graph.connectivity_minus_one(assignment),
        bisections=stats["bisections"],
        fm_passes=stats["fm_passes"],
    )
