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

Step 1 runs in C (``gem_cone_masks`` of :mod:`repro.partition.kernel`:
uint64 mask rows, signatures numbered in first-occurrence order) wherever
the compile flow's library loads, and step 2 in numpy.  :func:`cone_masks`
— Python big-int masks — is the reference C is tested against and the path
on a host without a C compiler; its masks become the same
:class:`ConeSignatures`, so everything after step 1 is one path.
"""

from __future__ import annotations

import ctypes
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.eaig import EAIG, NodeKind
from repro.partition import kernel
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


def _mask_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class ConeSignatures(NamedTuple):
    """One stage's cone signatures as arrays: what :func:`cone_masks` holds,
    with each distinct mask stored once."""

    #: AND nodes inside some group's cone, ascending
    nodes: np.ndarray
    #: per entry of ``nodes``, its signature (numbered by first occurrence)
    signature: np.ndarray
    #: nodes per signature
    count: np.ndarray
    #: signature ``s`` is the groups ``pins[pin_start[s]:pin_start[s + 1]]``, ascending
    pin_start: np.ndarray
    pins: np.ndarray

    def pin_signature(self) -> np.ndarray:
        """The signature of each entry of ``pins``."""
        return np.repeat(np.arange(self.count.size), np.diff(self.pin_start))


def cone_signatures(
    eaig: EAIG, groups: Sequence[Sequence[int]], source_flags: Sequence[bool] | None = None
) -> ConeSignatures:
    """:func:`cone_masks` as :class:`ConeSignatures` (``source_flags`` a
    bool per node).  Where the compile flow's library loads this is two
    ``gem_cone_masks`` calls: one numbers the signatures, the next writes
    each signature's mask words; the masks are swept a few words at a time,
    so no ``nodes x groups`` matrix is ever held.  Elsewhere the Python
    sweep's masks are numbered the same way.  Both refuse a root literal
    out of range and ``source_flags`` of the wrong length."""
    from repro.core import placement_kernel

    arrays = eaig.arrays()
    n, ngroups = arrays.kind.size, len(groups)
    root_start = np.zeros(ngroups + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, groups), dtype=np.int64, count=ngroups), out=root_start[1:])
    roots = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=int(root_start[-1]))
    if roots.size and not 0 <= roots.min() <= roots.max() < 2 * n:
        raise ValueError("root literal out of range")
    source = None
    if source_flags is not None:
        source = np.ascontiguousarray(source_flags, dtype=np.uint8)
        if source.size != n:
            raise ValueError(f"source_flags holds {source.size} entries for {n} nodes")
    lib = placement_kernel.library()
    if lib is None:
        flags = None if source is None else source.tolist()
        return _mask_signatures(cone_masks(eaig, groups, flags))
    words = max(1, -(-ngroups // 64))
    signature = np.empty(n, dtype=np.int64)
    first = np.empty(n, dtype=np.int64)
    cones = kernel.Cones(
        n=n,
        words=words,
        ngroups=ngroups,
        kind=arrays.kind.ctypes.data,
        fanin0=arrays.fanin0.ctypes.data,
        fanin1=arrays.fanin1.ctypes.data,
        source=None if source is None else source.ctypes.data,
        root_start=root_start.ctypes.data,
        roots=roots.ctypes.data,
        signature=signature.ctypes.data,
        first=first.ctypes.data,
    )
    if lib.cone_masks(ctypes.byref(cones)) < 0:
        raise MemoryError("cone signature scratch")
    rows = np.zeros((cones.nsig, words), dtype=np.uint64)
    if cones.nsig:
        cones.rows = rows.ctypes.data
        if lib.cone_masks(ctypes.byref(cones)) < 0:
            raise MemoryError("cone signature scratch")
    nodes = np.flatnonzero(signature >= 0)
    signature = signature[nodes]
    # pins: the set bits of each signature's nonzero words, ascending
    row, word = np.nonzero(rows)
    bits = np.unpackbits(
        rows[row, word].astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    at, bit = np.nonzero(bits)
    pin_start = np.zeros(cones.nsig + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[at], minlength=cones.nsig), out=pin_start[1:])
    return ConeSignatures(
        nodes=nodes,
        signature=signature,
        count=np.bincount(signature, minlength=cones.nsig),
        pin_start=pin_start,
        pins=word[at] * 64 + bit,
    )


def _mask_signatures(masks: list[int]) -> ConeSignatures:
    """:func:`cone_masks`'s masks as :class:`ConeSignatures`, numbered as
    ``gem_cone_masks`` numbers them: by first holder."""
    number: dict[int, int] = {}
    nodes = [node for node, m in enumerate(masks) if m]
    signature = np.array(
        [number.setdefault(masks[node], len(number)) for node in nodes], dtype=np.int64
    )
    pins = [_mask_bits(m) for m in number]
    pin_start = np.zeros(len(pins) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, pins), dtype=np.int64, count=len(pins)), out=pin_start[1:])
    return ConeSignatures(
        nodes=np.array(nodes, dtype=np.int64),
        signature=signature,
        count=np.bincount(signature, minlength=len(pins)),
        pin_start=pin_start,
        pins=np.fromiter(chain.from_iterable(pins), dtype=np.int64, count=int(pin_start[-1])),
    )


def signature_hypergraph(
    num_groups: int, sigs: ConeSignatures, max_net_pins: int = 128
) -> Hypergraph:
    """Hypergraph over endpoint groups from their cone signatures.

    Vertices are the groups, weighted 1 (so empty-cone groups balance) plus
    their cone size; each signature shared by 2 to ``max_net_pins`` groups
    is a net weighted by its node count.  Wider nets are dropped from the
    objective: logic shared by that many endpoints is effectively global
    and will be replicated almost regardless of the partition, so it only
    slows FM down.
    """
    sizes = np.diff(sigs.pin_start)
    pin_sig = sigs.pin_signature()
    vertex_weight = 1 + np.bincount(
        sigs.pins, weights=sigs.count[pin_sig], minlength=num_groups
    ).astype(np.int64)
    is_net = (sizes >= 2) & (sizes <= max_net_pins)
    net_start = np.zeros(int(is_net.sum()) + 1, dtype=np.int64)
    np.cumsum(sizes[is_net], out=net_start[1:])
    return Hypergraph.from_arrays(
        vertex_weight, net_start, sigs.pins[is_net[pin_sig]], sigs.count[is_net]
    )


def repcut_partition(
    eaig: EAIG,
    groups: list[list[int]],
    k: int,
    epsilon: float = 0.1,
    seed: int = 0,
    max_net_pins: int = 128,
    source_flags: Sequence[bool] | None = None,
    cones: ConeSignatures | None = None,
) -> RepCutResult:
    """Partition endpoint ``groups`` into ``k`` parts with replication.

    ``cones`` may carry a precomputed :func:`cone_signatures` result
    (callers that already needed it for sizing avoid a second sweep).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if cones is None:
        cones = cone_signatures(eaig, groups, source_flags)
    graph = signature_hypergraph(len(groups), cones, max_net_pins)
    stats: Counter = Counter()
    assignment = partition_kway(graph, k, epsilon=epsilon, seed=seed, stats=stats)

    # one part bitmask per signature, read per node through its signature
    in_part = np.zeros((cones.count.size, k), dtype=bool)
    in_part[cones.pin_signature(), np.asarray(assignment)[cones.pins]] = True
    # the parts share one int object per node
    live = cones.nodes.tolist()
    part_nodes = [
        list(map(live.__getitem__, np.flatnonzero(in_part[cones.signature, p]).tolist()))
        for p in range(k)
    ]

    part_groups: list[list[int]] = [[] for _ in range(k)]
    for g, p in enumerate(assignment):
        part_groups[p].append(g)

    return RepCutResult(
        assignment=assignment,
        part_nodes=part_nodes,
        part_groups=part_groups,
        total_nodes=int(cones.nodes.size),
        cut_weight=graph.connectivity_minus_one(assignment),
        bisections=stats["bisections"],
        fm_passes=stats["fm_passes"],
    )
