"""Iterative timing-driven bit placement (paper §III-D, Algorithm 2, Fig. 6).

Each partition's AIG is mapped onto a sequence of boomerang layers:

* Nodes are placed at the tree level matching their *local* logic level
  (depth over the not-yet-computed subgraph; values already in block state
  count as level 0).
* Placing a node at position ``(l, i)`` recursively claims its fan-in: an
  available value (source, constant, or a node computed by an earlier
  layer) is **routed** up from a leaf through a chain of bypass positions
  (``OR.B = 1`` — Fig. 6's dashed lines); a not-yet-computed node is
  recursively placed at the child position, **duplicating** it if another
  copy already sits elsewhere in this layer (tree positions feed only their
  parent).
* Levels are filled from the root level down, and within a level the most
  timing-critical nodes (largest reverse depth over the remaining subgraph,
  Algorithm 2 lines 7–8) are placed first.  Deep cones claim their subtrees
  before shallow nodes take the leaves, so a shallow node is placed inside
  its consumer's cone instead of again beside it; no backfill pass is
  needed, because a node can never be placed below its local level.
* After a layer is full, every newly computed value still needed (by a
  later layer or as an endpoint root) is written back to a fresh state
  slot; the layer repeats on the remaining subgraph.

A partition is **mappable** iff its state demand — constant slot + sources
+ written-back values — fits the core's state (8192 bits).  This predicate
is exactly what Algorithm 1 (:mod:`repro.core.merging`) probes.

Data structures
---------------
Algorithm 1 runs this module once per mappability probe, so its cost is
multiplied, not paid once; the bookkeeping is kept flat:

* The fold tree is a binary **heap**: position ``(level, i)`` is heap number
  ``k = (width >> level) + i`` — root 1, leaves ``width + i``, parent
  ``k >> 1``, children ``2k`` / ``2k + 1``, bypass chain ``k, 2k, 4k, …``.
  Occupancy is one ``bytearray``, ``free[k]`` (unoccupied positions in
  ``k``'s subtree) one list, contents one ``dict`` from heap number to a
  small int (leaf: state slot; AND: its two invert bits; bypass positions
  need no entry — they are the fold constants' default).
* ``free`` is **cone-local** while a placement attempt runs (see
  :class:`_LayerBuilder`): exact between attempts, which is the only time
  anything outside the attempt's cone is read.
* A finished layer is kept **packed** (:class:`PackedLayer`: leaf
  permutation, one fold constant per interior position, the writebacks as
  one ``(nwb, 3)`` array); a placement's state layout is one slot -> node
  array (:attr:`PlacedPartition.slot_node`).  The assembler encodes from
  those arrays; :attr:`PlacedPartition.layers` and
  :attr:`PlacedPartition.slot_of` build the :class:`~repro.core.boomerang.Layer`
  arrays and the node -> slot dict on demand, which for a probe that
  Algorithm 1 supersedes is never.

Which orders are part of the bitstream: the iteration order of the
``remaining`` *set* (it is the tie order within a level, so the set must be
built and shrunk exactly as it is — ``set(nodes)``, then ``mapped``
discarded from it per layer), the insertion order of ``mapped`` (it numbers the writeback
slots), the root-down level order, the stable sorts on criticality, the
cursor advance, and the limits ``max_attempts=8`` /
``max_consecutive_failures=20``.  The golden sha256 pins in
``tests/test_placement.py`` hold all of them in place.

Where it runs: each layer is one call into the C layer loop of
:mod:`repro.core.placement_kernel` wherever the compile flow's library
builds or is cached, and :func:`_place_python` — this module's builder, the reference
the C loop is tested against — otherwise.  The ``remaining`` set, the slot
table and the errors stay here either way; the design-length tables the C
loop's lookups need are made once per :func:`~repro.core.merging.merge_partitions`
call (:class:`ProbeScratch`), not once per probe.
"""

from __future__ import annotations

import ctypes
import functools
import random
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core import placement_kernel
from repro.core.boomerang import BoomerangConfig, Layer
from repro.core.config import RefineConfig
from repro.core.eaig import EAIG, lit_neg, lit_node
from repro.core.partition import PartitionSpec
from repro.errors import GemError, PlacementStallError, UnmappableError

__all__ = [
    "PackedLayer",
    "PlacedPartition",
    "ProbeScratch",
    "RefineConfig",
    "UnmappableError",
    "place_partition",
    "placement_cost",
    "refine_placement",
]


def placement_cost(placed: PlacedPartition) -> tuple[int, int, int]:
    """(layers, writebacks, slots) — lexicographic placement quality.

    Layer count dominates (each layer is a device-wide sync per cycle,
    paper §III-D); writeback traffic breaks ties (each writeback is a
    state-store the fused executor must scatter); slot footprint last.
    Read off the packed form, so costing a refinement candidate builds no
    arrays.
    """
    return (placed.num_layers, placed.num_writebacks, placed.num_slots)


#: :func:`refine_placement`'s restart: the magnitude of the uniform
#: criticality jitter, and the share of the partition's nodes one restart
#: jitters.
JITTER = 1.5
MOVE_FRAC = 0.125

#: Interior tree positions hold a 3-bit fold constant ``xor_a | xor_b << 1 |
#: or_b << 2``: AND positions carry their two invert bits (0..3), a bypass
#: position — and every unoccupied one — is the pass-through ``_ROUTE``.
_ROUTE = 4
#: a fan-in that is neither a local node, the constant nor a source
_NOWHERE = np.iinfo(np.int64).min


@dataclass
class PackedLayer:
    """One finished layer at three arrays instead of a :class:`Layer`'s 3 per
    fold step: the leaf permutation, one fold constant per interior heap
    position, and the writebacks."""

    #: state slot per leaf; -1 means "load constant 0"
    perm: np.ndarray
    #: fold constant by heap number (entry 0 is unused)
    fold: np.ndarray
    #: ``(nwb, 3)`` ``int64``: (level, position, state slot) per writeback,
    #: in slot-allocation order
    writebacks: np.ndarray

    def unpack(self, config: BoomerangConfig) -> Layer:
        layer = Layer(config=config, perm=self.perm.copy())
        for level in range(1, config.width_log2 + 1):
            row = self.fold[config.width >> level : config.width >> (level - 1)]
            layer.xor_a.append((row & 1).astype(bool))
            layer.xor_b.append((row & 2).astype(bool))
            layer.or_b.append(row >= _ROUTE)
            layer.writebacks.append([])
        for level, pos, slot in self.writebacks.tolist():
            layer.writebacks[level - 1].append((pos, slot))
        return layer

    def effective_width_log2(self, config: BoomerangConfig) -> int:
        """Trimmed tree width: the placement cursor packs leaves leftwards, so
        folding only the occupied power-of-two prefix is equivalent and much
        cheaper to execute (the interpreter honours this per-layer width)."""
        eff = 1
        occupied = np.flatnonzero(self.perm >= 0)
        if occupied.size:
            eff = max(eff, int(occupied[-1]).bit_length())
        if len(self.writebacks):
            # a position's bit length is its binary exponent (0 for 0)
            level, pos = self.writebacks[:, 0], self.writebacks[:, 1]
            eff = max(eff, int((level + np.frexp(pos)[1]).max()))
        return min(eff, config.width_log2)


@dataclass
class PlacedPartition:
    """A partition mapped onto boomerang layers plus its state layout.

    Placement hands over the layers packed and the state layout as one
    slot -> node array, and that is how they are kept: :attr:`layers` and
    :attr:`slot_of` are built from them on demand (bitstream assembly reads
    neither), so an Algorithm 1 probe that gets superseded never pays for
    them and a cached design does not hold them.
    """

    spec: PartitionSpec
    config: BoomerangConfig
    #: ``int64``, one entry per state slot: the node it holds — 0 (the
    #: constant) at slot 0, the sources at 1.., then the written-back nodes
    slot_node: np.ndarray = field(repr=False)
    packed: list[PackedLayer] = field(repr=False)

    def __getstate__(self) -> dict:
        # the dict view is rebuilt on demand, never stored
        state = self.__dict__.copy()
        state.pop("slot_of", None)
        return state

    @property
    def layers(self) -> list[Layer]:
        return [p.unpack(self.config) for p in self.packed]

    @functools.cached_property
    def slot_of(self) -> dict[int, int]:
        """node -> state slot (sources, then written-back values, by slot)."""
        return dict(zip(self.slot_node[1:].tolist(), range(1, self.num_slots)))

    @property
    def num_slots(self) -> int:
        return self.slot_node.size

    @property
    def num_layers(self) -> int:
        return len(self.packed)

    @property
    def num_writebacks(self) -> int:
        return sum(len(p.writebacks) for p in self.packed)

    def effective_widths_log2(self) -> list[int]:
        """Per layer, the trimmed tree width the bitstream folds."""
        return [p.effective_width_log2(self.config) for p in self.packed]

    def slot_and_invert(self, literal: int) -> tuple[int, bool]:
        """Locate a literal's value in block state."""
        node = lit_node(literal)
        slot = 0 if node == 0 else self.slot_of[node]
        return slot, lit_neg(literal)

    def fold_use(self) -> dict:
        """How the layers fill the fold tree: ``and_by_fold_level`` (placed
        AND positions at fold levels 1..``width_log2``), ``placements_per_and``
        (placed AND positions ÷ the partition's nodes; above 1 counts the
        duplicates) and ``leaf_use`` (leaves holding a state slot ÷ leaves)."""
        width = self.config.width
        # fold level of each interior heap number (entry 0 is unused)
        level = self.config.width_log2 + 1 - np.frexp(np.arange(width))[1]
        level[0] = 0
        by_level = np.zeros(self.config.width_log2 + 1, dtype=np.int64)
        leaves = 0
        for p in self.packed:
            by_level += np.bincount(level[p.fold < _ROUTE], minlength=by_level.size)
            leaves += int(np.count_nonzero(p.perm >= 0))
        placed = int(by_level.sum())
        return {
            "and_by_fold_level": by_level[1:].tolist(),
            "placements_per_and": placed / len(self.spec.nodes) if self.spec.nodes else 0.0,
            "leaf_use": leaves / (width * self.num_layers) if self.packed else 0.0,
        }

    def stats(self) -> dict:
        return {
            "layers": self.num_layers,
            "slots": self.num_slots,
            "nodes": len(self.spec.nodes),
            "leaf_bits_used": sum(int((p.perm >= 0).sum()) for p in self.packed),
        }


def _full_tree_free(config: BoomerangConfig) -> list[int]:
    """``free`` of an empty tree: position ``k`` at level ``l`` roots a
    subtree of ``2^(l+1) - 1`` positions (index 0 is unused)."""
    free = [0]
    for level in range(config.width_log2, -1, -1):
        free += [(1 << (level + 1)) - 1] * (config.width >> level)
    return free


class _LayerBuilder:
    """Occupancy-tracked construction of one boomerang layer.

    The fold tree is a flat binary heap: position ``(level, i)`` has heap
    number ``k = (width >> level) + i`` (root 1, leaves ``width + i``), its
    parent is ``k >> 1`` and its children ``2k`` / ``2k + 1``, so the bypass
    chain under ``k`` is ``k, 2k, 4k, …``.  ``free[k]`` counts the
    unoccupied positions in ``k``'s subtree.

    One :meth:`try_map_node` attempt only ever touches the cone under its
    root position, and it reads ``free`` of a child *before* claiming
    anything below that child.  So while an attempt runs, counts are kept
    cone-local: each claimed subtree settles its own ``free`` entries on
    the way out of the recursion, the attempt's total is charged once to
    the root's ancestors when it succeeds, and a failed attempt recounts
    just the positions it journalled.  Between attempts every ``free[k]``
    is exact, so every accept/reject matches eager root-ward bookkeeping.
    """

    def __init__(
        self,
        config: BoomerangConfig,
        free: list[int],
        fan: dict[int, tuple[int, int, int]],
        slot_of: dict[int, int],
        need: dict[int, int],
    ) -> None:
        self.width = config.width
        self.top = config.width_log2 + 1  # level of k = top - k.bit_length()
        self.free = free
        self.occ = bytearray(2 * config.width)
        self.free_at_level: list[int] = [config.width >> l for l in range(self.top)]
        self.cursor: list[int] = [0] * self.top
        #: heap number -> state slot (leaves) / AND invert bits (interior)
        self.content: dict[int, int] = {}
        #: node -> heap number of its first copy; insertion order numbers
        #: the writeback slots
        self.mapped: dict[int, int] = {}
        self.fan = fan
        self.slot_of = slot_of
        #: cone-size lower bound of every node this layer may still place
        self.need = need
        self.journal: list[int] = []
        self.mapped_added: list[int] = []

    def _rollback(self) -> None:
        occ, free, content, top = self.occ, self.free, self.content, self.top
        free_at_level = self.free_at_level
        width = self.width
        # Journal order is parent-before-child; recount bottom-up.
        for k in reversed(self.journal):
            occ[k] = 0
            content.pop(k, None)
            free_at_level[top - k.bit_length()] += 1
            free[k] = 1 if k >= width else 1 + free[2 * k] + free[2 * k + 1]
        for node in self.mapped_added:
            del self.mapped[node]

    def _route(self, slot: int, k: int, level: int) -> bool:
        """Bypass chain carrying a state slot from a leaf up to ``k``."""
        occ = self.occ
        j = k
        for _ in range(level + 1):
            if occ[j]:
                return False
            j <<= 1
        free, free_at_level, journal = self.free, self.free_at_level, self.journal
        below = level + 1  # chain positions in the subtree of the current one
        for m in range(level, 0, -1):
            occ[k] = 1
            free[k] -= below
            free_at_level[m] -= 1
            journal.append(k)
            below -= 1
            k <<= 1
        occ[k] = 1
        free[k] = 0
        free_at_level[0] -= 1
        journal.append(k)
        self.content[k] = slot
        return True

    def _map_rec(self, n: int, k: int, level: int) -> int:
        """Claim ``k`` for node ``n`` and, below it, ``n``'s fan-in cone.
        Returns the number of positions claimed; 0 means it did not fit."""
        occ = self.occ
        if occ[k]:
            return 0
        f0, f1, inverts = self.fan[n]
        occ[k] = 1
        self.content[k] = inverts
        self.free_at_level[level] -= 1
        self.journal.append(k)
        if n not in self.mapped:
            self.mapped[n] = k
            self.mapped_added.append(n)
        free, slot_of, need = self.free, self.slot_of, self.need
        claimed = 1
        child = 2 * k
        for f in (f0, f1):
            slot = slot_of.get(f, -1) if f else 0
            if slot >= 0:
                # Route needs one position per level down to the leaf.
                if free[child] < level or not self._route(slot, child, level - 1):
                    return 0
                claimed += level
            elif f in need:  # still to be computed: place it right here
                # Fail fast when the child subtree lacks capacity for the
                # (duplicate-counting) cone of f.
                if free[child] < need[f]:
                    return 0
                sub = self._map_rec(f, child, level - 1)
                if not sub:
                    return 0
                claimed += sub
            else:
                raise GemError(f"node {n}: fanin {f} neither available nor local")
            child += 1
        free[k] -= claimed
        return claimed

    def try_map_node(self, n: int, level: int, max_attempts: int = 8) -> bool:
        """Place ``n`` at tree level ``level``; first-fit with capacity filter."""
        size = self.width >> level  # also the heap number of (level, 0)
        min_need = self.need[n]
        occ, free = self.occ, self.free
        start = size + self.cursor[level] % size
        attempts = 0
        for k in chain(range(start, 2 * size), range(size, start)):
            if free[k] >= min_need and not occ[k]:
                self.journal = []
                self.mapped_added = []
                claimed = self._map_rec(n, k, level)
                if claimed:
                    self.cursor[level] = k - size + 1
                    k >>= 1
                    while k:
                        free[k] -= claimed
                        k >>= 1
                    return True
                self._rollback()
                attempts += 1
                if attempts >= max_attempts:
                    break
        return False

    def pack(self, writebacks: list[tuple[int, int, int]]) -> PackedLayer:
        width, count = self.width, len(self.content)
        keys = np.fromiter(self.content.keys(), dtype=np.int32, count=count)
        codes = np.fromiter(self.content.values(), dtype=np.int32, count=count)
        leaf = keys >= width
        perm = np.full(width, -1, dtype=np.int32)
        perm[keys[leaf] - width] = codes[leaf]
        fold = np.full(width, _ROUTE, dtype=np.uint8)
        fold[keys[~leaf]] = codes[~leaf]
        rows = np.array(writebacks, dtype=np.int64).reshape(-1, 3)
        return PackedLayer(perm=perm, fold=fold, writebacks=rows)


class ProbeScratch:
    """What every Algorithm 2 run on one design shares: the E-AIG's arrays
    and one design-length lookup, ``_NOWHERE`` everywhere but the constant
    between runs.  :func:`~repro.core.merging.merge_partitions` makes one
    and hands it to each probe, so a probe's tables are slices and scatters
    of it instead of design-length allocations."""

    def __init__(self, eaig: EAIG) -> None:
        self.arrays = eaig.arrays()
        #: node id -> local index, -1 - slot for the constant and the
        #: sources, _NOWHERE for anything else
        self.lut = np.full(len(self.arrays.kind), _NOWHERE, dtype=np.int64)
        self.lut[0] = -1


def _place_once(
    eaig: EAIG,
    spec: PartitionSpec,
    config: BoomerangConfig,
    timing_driven: bool,
    bias: dict[int, float] | None = None,
    scratch: ProbeScratch | None = None,
) -> PlacedPartition:
    """One full Algorithm 2 pass, optionally under a criticality jitter.

    ``bias`` jitters the criticality sort key per node; empty or None, the
    pass is byte-identical to the unperturbed placement.

    Each layer is placed by one call into :mod:`repro.core.placement_kernel`
    where that library loads, else by the Python loop
    (:func:`_place_python`); the two make the same decisions.
    """
    lib = placement_kernel.library()
    if lib is None:
        return _place_python(eaig, spec, config, timing_driven, bias)
    return _place_native(lib, eaig, spec, config, timing_driven, bias, scratch)


def _check_sources(spec: PartitionSpec, config: BoomerangConfig, where: str) -> None:
    """Slots 1.. hold the sources (slot 0 is the constant-0 slot)."""
    if len(spec.sources) + 1 > config.state_size:
        raise UnmappableError(
            f"{where}: {len(spec.sources)} sources exceed state size {config.state_size}"
        )


def _place_native(
    lib: placement_kernel.Library,
    eaig: EAIG,
    spec: PartitionSpec,
    config: BoomerangConfig,
    timing_driven: bool,
    bias: dict[int, float] | None,
    scratch: ProbeScratch | None = None,
) -> PlacedPartition:
    """:func:`_place_python`'s decisions, a layer per ``gem_place_layer``
    call.  Python keeps the ``remaining`` set (its iteration order is the
    tie order within a level), the slot table and the errors; the layers
    and the slot table stay the arrays the C loop fills."""
    where = f"partition s{spec.stage}p{spec.index}"
    _check_sources(spec, config, where)
    scratch = scratch or ProbeScratch(eaig)
    remaining = set(spec.nodes)
    # ascending = topological
    nodes = np.fromiter(spec.nodes, dtype=np.int64, count=len(spec.nodes))
    sources = np.fromiter(spec.sources, dtype=np.int64, count=len(spec.sources))
    n = nodes.size
    lut = scratch.lut
    lut[sources] = -1 - np.arange(1, sources.size + 1)
    lut[nodes] = np.arange(n)
    try:
        lit0, lit1 = scratch.arrays.fanin0[nodes], scratch.arrays.fanin1[nodes]
        fan0, fan1 = lut[lit0 >> 1], lut[lit1 >> 1]
        for i in np.nonzero((fan0 == _NOWHERE) | (fan1 == _NOWHERE))[0][:1].tolist():
            f = (lit0[i] if fan0[i] == _NOWHERE else lit1[i]) >> 1
            raise GemError(f"node {spec.nodes[i]}: fanin {f} neither available nor local")
        # consumers as CSR over producers
        producer = np.concatenate([fan0[fan0 >= 0], fan1[fan1 >= 0]])
        consumer = np.concatenate([np.nonzero(fan0 >= 0)[0], np.nonzero(fan1 >= 0)[0]])
        cons_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(producer, minlength=n), out=cons_start[1:])
        # a stable sort of 16-bit keys is a radix sort, ~9x one of int64 keys
        keys = producer.astype(np.uint16) if n <= 1 << 16 else producer
        roots = lut[np.array(spec.root_literals(), dtype=np.int64) >> 1]
        root = np.zeros(n, dtype=np.uint8)
        root[roots[roots >= 0]] = 1
        mapped = np.empty(n, dtype=np.int64)
        wb = np.empty(4 * n, dtype=np.int64)
        tables = {
            "fan0": fan0,
            "fan1": fan1,
            "inverts": (lit0 & 1) | ((lit1 & 1) << 1),
            "cons_start": cons_start,
            "cons": consumer[np.argsort(keys, kind="stable")],
            "root": root,
            "slot": np.full(n, -1, dtype=np.int64),
            "alive": np.ones(n, dtype=np.uint8),
            "mapped": mapped,
            "wb": wb,
        }
        if bias:  # else NULL: unperturbed
            tables["bias"] = np.zeros(n, dtype=np.float64)
            for node, value in bias.items():
                if 0 <= node < lut.size and lut[node] >= 0:
                    tables["bias"][lut[node]] = value
        place = placement_kernel.Place(
            n=n,
            width_log2=config.width_log2,
            state_size=config.state_size,
            timing_driven=bool(timing_driven),
            next_slot=sources.size + 1,
            **{name: arr.ctypes.data for name, arr in tables.items()},
        )
        ref = ctypes.byref(place)
        width = config.width
        packed: list[PackedLayer] = []
        slot_node = [np.zeros(1, dtype=np.int64), sources]
        while remaining:
            order = lut[np.fromiter(remaining, dtype=np.int64, count=len(remaining))]
            perm = np.full(width, -1, dtype=np.int32)
            fold = np.full(width, _ROUTE, dtype=np.uint8)
            place.perm, place.fold = perm.ctypes.data, fold.ctypes.data
            count = lib.place_layer(ref, order.ctypes.data, order.size)
            if count == 0:
                raise PlacementStallError(
                    f"{where}: placement made no progress", stage=spec.stage, index=spec.index
                )
            if count == -1:
                raise UnmappableError(f"{where}: state overflow at {place.next_slot} slots")
            if count == -2:
                raise MemoryError(f"{where}: placement scratch")
            if count < 0:  # pragma: no cover - guarded by the fan-in check above
                raise GemError(f"{where}: a fan-in is neither available nor local")
            # (level, pos, slot, local node) per writeback, at consecutive slots
            rows = wb[: 4 * place.nwb].reshape(-1, 4)
            slot_node.append(nodes[rows[:, 3]])
            packed.append(PackedLayer(perm=perm, fold=fold, writebacks=rows[:, :3].copy()))
            remaining.difference_update(nodes[mapped[:count]].tolist())
    finally:
        lut[sources] = _NOWHERE
        lut[nodes] = _NOWHERE
    return PlacedPartition(
        spec=spec, config=config, slot_node=np.concatenate(slot_node), packed=packed
    )


def _place_python(
    eaig: EAIG,
    spec: PartitionSpec,
    config: BoomerangConfig,
    timing_driven: bool,
    bias: dict[int, float] | None = None,
) -> PlacedPartition:
    """:func:`_place_once` in Python: the reference the native layer loop
    is held against, and the path on a host without a C compiler."""
    where = f"partition s{spec.stage}p{spec.index}"
    _check_sources(spec, config, where)
    # node -> state slot, by slot: the sources, then the writebacks
    slot_of = {s: slot for slot, s in enumerate(spec.sources, start=1)}
    next_slot = len(spec.sources) + 1
    state_size = config.state_size

    remaining = set(spec.nodes)
    # node -> (fan-in node 0, fan-in node 1, invert bits as a fold constant)
    fan = {
        n: (a >> 1, b >> 1, (a & 1) | ((b & 1) << 1))
        for n, a, b in ((n, eaig.fanin0[n], eaig.fanin1[n]) for n in spec.nodes)
    }
    consumers: dict[int, list[int]] = {n: [] for n in spec.nodes}
    for n, (f0, f1, _) in fan.items():
        if f0 in consumers:
            consumers[f0].append(n)
        if f1 in consumers:
            consumers[f1].append(n)
    root_nodes = {
        lit_node(r) for r in spec.root_literals() if lit_node(r) in remaining
    }

    depth = config.width_log2
    empty_free = _full_tree_free(config)
    packed: list[PackedLayer] = []
    order = sorted(spec.nodes)  # ascending node index = topological
    while remaining:
        # ``order`` holds exactly the remaining nodes, so in the passes below
        # a fan-in / consumer is "remaining" iff it already has an entry.
        # Local logic level over the remaining subgraph, and the duplicate-
        # counting cone size: a lower bound on the tree positions mapping a
        # node takes (duplicates counted, routes as leaves), used to prune
        # placement attempts that cannot possibly fit.
        local: dict[int, int] = {}
        need: dict[int, int] = {}
        for n in order:
            f0, f1, _ = fan[n]
            l0 = local.get(f0, 0)
            l1 = local.get(f1, 0)
            local[n] = (l0 if l0 > l1 else l1) + 1
            need[n] = 1 + need.get(f0, 1) + need.get(f1, 1)
        # Timing criticality: reverse depth over the remaining subgraph.
        crit: dict[int, float] = {}
        if timing_driven:
            for n in reversed(order):
                c = 0
                for m in consumers[n]:
                    cm = crit.get(m, -1) + 1
                    if cm > c:
                        c = cm
                crit[n] = c
        else:
            crit = dict.fromkeys(order, 0)  # FIFO ablation: no priority

        if bias:
            for n, b in bias.items():
                if n in crit:
                    crit[n] = crit[n] + b
        most_critical_first = {n: -c for n, c in crit.items()}.__getitem__

        builder = _LayerBuilder(config, empty_free.copy(), fan, slot_of, need)
        mapped = builder.mapped
        free_at_level = builder.free_at_level
        by_level: dict[int, list[int]] = {}
        # Set iteration order fixes the tie order within a level — part of
        # the bitstream contract, like the ``difference_update`` below.
        for n in remaining:
            by_level.setdefault(local[n], []).append(n)
        max_consecutive_failures = 20
        # Root level down: deep cones claim their subtrees first, and the
        # shallow nodes they did not absorb take what is left below.
        for level in range(depth, 0, -1):
            failures = 0
            for n in sorted(by_level.get(level, ()), key=most_critical_first):
                if free_at_level[level] == 0 or failures >= max_consecutive_failures:
                    break
                if n in mapped:
                    continue
                if builder.try_map_node(n, level):
                    failures = 0
                else:
                    failures += 1

        if not mapped:
            raise PlacementStallError(
                f"{where}: placement made no progress", stage=spec.stage, index=spec.index
            )
        # Write back values needed by later layers or endpoint roots.
        writebacks: list[tuple[int, int, int]] = []
        for n, k in mapped.items():
            needed = n in root_nodes or any(
                c in remaining and c not in mapped for c in consumers[n]
            )
            if needed:
                if next_slot >= state_size:
                    raise UnmappableError(f"{where}: state overflow at {next_slot} slots")
                slot_of[n] = next_slot
                level = builder.top - k.bit_length()
                writebacks.append((level, k - (config.width >> level), next_slot))
                next_slot += 1
        packed.append(builder.pack(writebacks))
        remaining.difference_update(mapped)
        order = [n for n in order if n in remaining]

    slot_node = np.fromiter(chain((0,), slot_of), dtype=np.int64, count=next_slot)
    return PlacedPartition(spec=spec, config=config, slot_node=slot_node, packed=packed)


def _refine_rng(refine: RefineConfig, spec: PartitionSpec) -> random.Random:
    # Integer seed mixed from partition coordinates: int hashing is
    # PYTHONHASHSEED-independent, so this reproduces across processes.
    mix = (
        refine.seed * 1_000_003
        + spec.stage * 8_191
        + spec.index * 131
        + len(spec.nodes)
    )
    return random.Random(mix)


def _jitter(nodes: list[int], rng: random.Random) -> dict[int, float]:
    """A criticality jitter on ``MOVE_FRAC`` of the nodes."""
    bias: dict[int, float] = {}
    for _ in range(max(1, int(len(nodes) * MOVE_FRAC))):
        bias[nodes[rng.randrange(len(nodes))]] = rng.uniform(-JITTER, JITTER)
    return bias


def place_partition(
    eaig: EAIG,
    spec: PartitionSpec,
    config: BoomerangConfig | None = None,
    timing_driven: bool = True,
    scratch: ProbeScratch | None = None,
) -> PlacedPartition:
    """Algorithm 2: iterative multi-boomerang-layer mapping of one partition.

    ``timing_driven=False`` disables the criticality ordering (nodes are
    picked in index order instead) — the A1 ablation of DESIGN.md, which
    quantifies how much Algorithm 2's lines 7–8 reduce the layer count.
    ``scratch`` shares one design's lookup tables between runs
    (:class:`ProbeScratch`); without it each run makes its own.
    """
    return _place_once(eaig, spec, config or BoomerangConfig(), timing_driven, scratch=scratch)


def refine_placement(
    eaig: EAIG,
    placed: PlacedPartition,
    refine: RefineConfig,
    scratch: ProbeScratch | None = None,
) -> PlacedPartition:
    """The cheapest under :func:`placement_cost` of ``placed`` and
    ``refine.iterations`` seeded re-placements of its partition.

    Each re-placement is a timing-driven Algorithm 2 pass under a fresh
    criticality jitter (:func:`_jitter`); an unmappable one is skipped, and
    a tie keeps the earlier placement, so the result is never worse than
    ``placed`` and is ``placed`` itself when nothing beats it.
    """
    spec, config = placed.spec, placed.config
    best, best_cost = placed, placement_cost(placed)
    if refine.iterations <= 0 or not spec.nodes:
        return best
    rng = _refine_rng(refine, spec)
    nodes = sorted(spec.nodes)
    for _ in range(refine.iterations):
        try:
            bias = _jitter(nodes, rng)
            cand = _place_once(eaig, spec, config, timing_driven=True, bias=bias, scratch=scratch)
        except UnmappableError:
            continue
        cost = placement_cost(cand)
        if cost < best_cost:
            best, best_cost = cand, cost
    return best


def naive_levelized_layers(eaig: EAIG, spec: PartitionSpec, config: BoomerangConfig | None = None) -> dict:
    """Baseline for the Fig. 3 ablation: one permutation + sync per logic
    level (classic levelized GPU simulation) instead of boomerang layers.

    Returns the same work metrics as :func:`repro.core.boomerang.count_layer_work`
    so the ablation can compare permutation/synchronization counts directly.
    """
    config = config or BoomerangConfig()
    remaining = set(spec.nodes)
    local: dict[int, int] = {}
    for n in sorted(spec.nodes):
        best = 0
        for fanin in (eaig.fanin0[n], eaig.fanin1[n]):
            f = lit_node(fanin)
            if f in remaining:
                lf = local[f]
                if lf > best:
                    best = lf
        local[n] = best + 1
    if not local:
        return {"layers": 0, "permutations": 0, "fold_steps": 0, "writebacks": 0}
    depth = max(local.values())
    # Levelized execution: each level gathers its inputs (one permutation),
    # evaluates one batch of independent gates, and synchronizes.  Levels
    # wider than the datapath need multiple passes.
    passes = 0
    hist: dict[int, int] = {}
    for n, lvl in local.items():
        hist[lvl] = hist.get(lvl, 0) + 1
    for lvl in range(1, depth + 1):
        count = hist.get(lvl, 0)
        passes += max(1, -(-count // (config.width // 2)))
    return {
        "layers": depth,
        "permutations": passes,
        "fold_steps": passes,
        "writebacks": len(spec.nodes),
    }
