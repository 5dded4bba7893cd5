"""Multi-stage replication-aided partitioning (paper §III-C, Fig. 5).

GEM needs hundreds of partitions to fill a GPU, but RepCut's replication
cost explodes with partition count (1.3% at 8 parts → ~11% at 48 → >200% at
216, per the paper).  The fix is **staging**: cut the circuit at one or more
logic levels, treat the values crossing a cut as endpoints of the earlier
stage and as inputs of the later stage, and run RepCut independently per
stage.  The cost is one extra device-wide synchronization per boundary per
simulated cycle; the benefit is that each stage's cones are shallow, so far
less logic is shared between endpoints.

This module:

* builds the endpoint groups (one per flip-flop, one per RAM block — all
  ports of a RAM must stay together — and one per output word);
* selects cut levels by scanning for the boundary with the fewest crossing
  values (a difference-array sweep over the level histogram);
* assigns groups to stages, adds the crossing values as publish groups,
  and runs :func:`repro.partition.repcut.repcut_partition` per stage;
* materializes :class:`PartitionSpec` objects — the unit everything
  downstream (merging, placement, bitstream) consumes — and validates the
  whole plan.

Every per-node pass here is a numpy pass over the finished E-AIG's
:meth:`~repro.core.eaig.EAIG.arrays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.config import PartitionConfig
from repro.core.eaig import EAIG, EAIGArrays, NodeKind
from repro.errors import GemError
from repro.partition.repcut import RepCutResult, cone_signatures, repcut_partition


@dataclass
class EndpointGroup:
    """One indivisible endpoint: all its roots live in the same partition."""

    kind: str  # "ff" | "ram" | "po" | "cut"
    roots: list[int]  # literals this group's partition must compute
    ff_node: int = -1
    ram_index: int = -1
    po_name: str = ""
    cut_node: int = -1


@dataclass
class PartitionSpec:
    """One virtual Boolean processor core's share of the design."""

    stage: int
    index: int
    #: AND nodes evaluated by this partition, ascending (= topological)
    nodes: list[int]
    groups: list[EndpointGroup]
    #: nodes read from global state: PIs, FFs, RAM read bits, constants are
    #: implicit; this lists them plus earlier-stage published AND nodes
    sources: list[int] = field(default_factory=list)

    @property
    def ff_nodes(self) -> list[int]:
        return [g.ff_node for g in self.groups if g.kind == "ff"]

    @property
    def ram_indices(self) -> list[int]:
        return [g.ram_index for g in self.groups if g.kind == "ram"]

    @property
    def cut_nodes(self) -> list[int]:
        return [g.cut_node for g in self.groups if g.kind == "cut"]

    def root_literals(self) -> list[int]:
        out: list[int] = []
        for g in self.groups:
            out.extend(g.roots)
        return out


@dataclass
class PartitionPlan:
    """Full multi-stage partitioning of one E-AIG."""

    eaig: EAIG
    config: PartitionConfig
    cut_levels: list[int]
    stages: list[list[PartitionSpec]]
    stage_results: list[RepCutResult]
    #: live-gate count per stage (union of cones)
    stage_live: list[int]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_partitions(self) -> int:
        return sum(len(s) for s in self.stages)

    @property
    def partitions(self) -> list[PartitionSpec]:
        return [p for stage in self.stages for p in stage]

    def replication_cost(self) -> float:
        total = sum(len(p.nodes) for p in self.partitions)
        live = sum(self.stage_live)
        return (total - live) / live if live else 0.0

    def stats(self) -> dict:
        return {
            "stages": self.num_stages,
            "partitions": self.num_partitions,
            "cut_levels": self.cut_levels,
            "replication_cost": self.replication_cost(),
            "stage_live": self.stage_live,
            "stage_partitions": [len(s) for s in self.stages],
        }

    def validate(self) -> None:
        """Structural invariants every plan must satisfy; a violation is a
        :class:`~repro.errors.GemError` (a partitioner bug must not reach
        a bitstream)."""
        eaig = self.eaig
        arrays = eaig.arrays()
        owned_ffs: set[int] = set()
        owned_rams: set[int] = set()
        owned_pos: set[str] = set()
        published = np.zeros(len(eaig), dtype=bool)
        for spec in self.partitions:
            where = f"partition s{spec.stage}p{spec.index}"
            for g in spec.groups:
                if g.kind == "ff":
                    if g.ff_node in owned_ffs:
                        raise GemError(f"FF {g.ff_node} owned twice")
                    owned_ffs.add(g.ff_node)
                elif g.kind == "ram":
                    if g.ram_index in owned_rams:
                        raise GemError(f"RAM {g.ram_index} owned twice")
                    owned_rams.add(g.ram_index)
                elif g.kind == "po":
                    if g.po_name in owned_pos:
                        raise GemError(f"output {g.po_name} owned twice")
                    owned_pos.add(g.po_name)
                elif g.kind == "cut":
                    published[g.cut_node] = True
            nodes = np.asarray(spec.nodes, dtype=np.int64)
            sources = np.asarray(spec.sources, dtype=np.int64)
            known = np.zeros(len(eaig), dtype=bool)
            known[0] = known[nodes] = known[sources] = True
            bad0 = ~known[arrays.fanin0[nodes] >> 1]
            bad1 = ~known[arrays.fanin1[nodes] >> 1]
            # the first offending node, and its first offending fan-in
            for at in np.flatnonzero(bad0 | bad1)[:1].tolist():
                fanin = arrays.fanin0 if bad0[at] else arrays.fanin1
                raise GemError(
                    f"{where}: node {spec.nodes[at]} "
                    f"reads {fanin[spec.nodes[at]] >> 1} which is neither local nor a source"
                )
            roots = np.asarray(spec.root_literals(), dtype=np.int64)
            for literal in roots[~known[roots >> 1]][:1].tolist():
                raise GemError(f"{where}: root {literal} unresolved")
            # Earlier-stage AND sources must be published by earlier stages.
            unpublished = (arrays.kind[sources] == NodeKind.AND) & ~published[sources]
            for f in np.unique(sources[unpublished])[:1].tolist():
                raise GemError(
                    f"{where}: source {f} is an AND node never published by an earlier stage"
                )
        if owned_ffs != set(eaig.ffs):
            missing = set(eaig.ffs) - owned_ffs
            raise GemError(f"{len(missing)} FFs unowned (e.g. {sorted(missing)[:5]})")
        if owned_rams != set(range(len(eaig.rams))):
            raise GemError("some RAM blocks unowned")
        expected_pos = {name.rsplit("[", 1)[0] for name, _ in eaig.outputs}
        if owned_pos != expected_pos:
            raise GemError(f"outputs unowned: {sorted(expected_pos - owned_pos)[:5]}")


def build_endpoint_groups(eaig: EAIG) -> list[EndpointGroup]:
    """Endpoints of the whole design: FFs, RAMs (indivisible), output words."""
    groups: list[EndpointGroup] = []
    for ff in eaig.ffs:
        groups.append(EndpointGroup(kind="ff", roots=[eaig.fanin0[ff]], ff_node=ff))
    for ram in eaig.rams:
        groups.append(EndpointGroup(kind="ram", roots=list(ram.port_literals()), ram_index=ram.index))
    by_word: dict[str, list[int]] = {}
    for name, literal in eaig.outputs:
        word = name.rsplit("[", 1)[0]
        by_word.setdefault(word, []).append(literal)
    for word, literals in by_word.items():
        groups.append(EndpointGroup(kind="po", roots=literals, po_name=word))
    return groups


def _group_levels(arrays: EAIGArrays, groups: list[EndpointGroup]) -> tuple[np.ndarray, ...]:
    """Every group's root nodes (flat), the group of each, and each group's
    deepest root level (0 for a group without roots)."""
    sizes = np.fromiter((len(g.roots) for g in groups), dtype=np.int64, count=len(groups))
    roots = np.fromiter(
        chain.from_iterable(g.roots for g in groups), dtype=np.int64, count=int(sizes.sum())
    ) >> 1
    owner = np.repeat(np.arange(len(groups)), sizes)
    glevel = np.zeros(len(groups), dtype=np.int64)
    np.maximum.at(glevel, owner, arrays.level[roots])
    return roots, owner, glevel


def _max_need_level(
    eaig: EAIG, groups: list[EndpointGroup], live: np.ndarray | None = None
) -> np.ndarray:
    """Highest logic level at which each AND node's value is consumed.

    AND consumers count at their own level; endpoint-root consumers count at
    the *group's* maximum root level (roots of one group stay together).
    ``live`` (a bool per node) restricts consumers to nodes inside endpoint
    cones — dead logic must not force values to be published across stage
    boundaries.
    """
    arrays = eaig.arrays()
    consumer = arrays.kind == NodeKind.AND
    if live is not None:
        consumer &= live
    level = arrays.level[consumer]
    need = np.zeros(len(eaig), dtype=np.int64)
    np.maximum.at(need, arrays.fanin0[consumer] >> 1, level)
    np.maximum.at(need, arrays.fanin1[consumer] >> 1, level)
    roots, owner, glevel = _group_levels(arrays, groups)
    np.maximum.at(need, roots, glevel[owner])
    return need


def _live(arrays: EAIGArrays, roots: np.ndarray) -> np.ndarray:
    """:meth:`EAIG.cone` of ``roots`` (nodes) as a bool per node: one pass
    per logic level, deepest first — an AND's fan-ins sit on lower levels."""
    is_and = arrays.kind == NodeKind.AND
    live = np.zeros(is_and.size, dtype=bool)
    live[roots] = True
    live &= is_and
    ands = np.flatnonzero(is_and)
    ands = ands[np.argsort(arrays.level[ands], kind="stable")]
    bounds = np.searchsorted(arrays.level[ands], np.arange(int(arrays.level.max()) + 2))
    for lvl in range(bounds.size - 2, 0, -1):
        at = ands[bounds[lvl] : bounds[lvl + 1]]
        at = at[live[at]]
        for fanin in (arrays.fanin0[at] >> 1, arrays.fanin1[at] >> 1):
            live[fanin[is_and[fanin]]] = True
    return live


def choose_cut_levels(eaig: EAIG, groups: list[EndpointGroup], num_stages: int) -> list[int]:
    """Pick ``num_stages - 1`` boundaries minimizing crossing values.

    A node at level ``l`` with a consumer above boundary ``L`` (``l <= L <
    need``) must be written to global memory — the staging overhead.  A
    difference-array sweep counts crossings for every candidate boundary;
    we greedily pick the cheapest boundary inside each of the
    ``num_stages`` equal depth bands.
    """
    if num_stages <= 1:
        return []
    depth = eaig.depth()
    if depth < num_stages:
        return []
    arrays = eaig.arrays()
    is_and = arrays.kind == NodeKind.AND
    lo = arrays.level[is_and]
    hi = _max_need_level(eaig, groups)[is_and]
    cross = hi > lo
    crossing = np.cumsum(
        np.bincount(lo[cross], minlength=depth + 1) - np.bincount(hi[cross], minlength=depth + 1)
    )
    # Gate mass per level: the long tail (Observation 4) makes equal-depth
    # splits lopsided, so windows are centred on gate-count quantiles.
    cum = np.cumsum(np.bincount(lo, minlength=depth + 1))
    total = int(cum[-1])

    cuts: list[int] = []
    prev = 0
    for s in range(1, num_stages):
        # the first level whose cumulative mass reaches the quantile
        centre = min(depth, int(np.searchsorted(cum, total * s / num_stages)))
        half = max(1, depth // (2 * num_stages))
        band_lo = max(prev + 1, centre - half)
        band_hi = min(depth - 1, centre + half)
        if band_lo > band_hi:
            continue
        best = band_lo + int(np.argmin(crossing[band_lo : band_hi + 1]))
        cuts.append(best)
        prev = best
    return cuts


def _auto_stages(total_gates: int, config: PartitionConfig) -> int:
    """Paper heuristic: more partitions need more stages (Fig. 5)."""
    k = max(1, math.ceil(total_gates / config.gates_per_partition))
    if k <= 8:
        return 1
    if k <= 512:
        return 2
    return 3


def partition_design(eaig: EAIG, config: PartitionConfig | None = None) -> PartitionPlan:
    """Run the full multi-stage RepCut flow on a synthesized design."""
    config = config or PartitionConfig()
    eaig.check()
    groups = build_endpoint_groups(eaig)
    arrays = eaig.arrays()
    is_and = arrays.kind == NodeKind.AND
    num_stages = config.num_stages or _auto_stages(eaig.num_gates(), config)
    cut_levels = choose_cut_levels(eaig, groups, num_stages)
    boundaries = np.array(cut_levels + [eaig.depth()], dtype=np.int64)
    num_stages = boundaries.size  # cuts may collapse on shallow designs

    def band_of(level: np.ndarray) -> np.ndarray:
        """The stage of each level: the first boundary at or above it."""
        return np.minimum(np.searchsorted(boundaries, level), num_stages - 1)

    # Assign real endpoint groups to stages by their deepest root.
    roots, _, glevel = _group_levels(arrays, groups)
    stage_groups: list[list[EndpointGroup]] = [[] for _ in range(num_stages)]
    for g, s in zip(groups, band_of(glevel).tolist()):
        stage_groups[s].append(g)

    # Publish groups: values crossing a boundary become endpoints of their
    # own band's stage.  Only live logic (inside some endpoint cone) is
    # published — dead gates never need a global slot.
    if num_stages > 1:
        live = _live(arrays, roots)
        band = band_of(arrays.level)
        cut = np.flatnonzero(
            live
            & (band < num_stages - 1)
            & (band_of(_max_need_level(eaig, groups, live)) > band)
        )
        for node, s in zip(cut.tolist(), band[cut].tolist()):
            stage_groups[s].append(EndpointGroup(kind="cut", roots=[2 * node], cut_node=node))

    stages: list[list[PartitionSpec]] = []
    stage_results: list[RepCutResult] = []
    stage_live: list[int] = []
    for s in range(num_stages):
        source_flags = None
        if s > 0:
            source_flags = is_and & (arrays.level <= boundaries[s - 1])
        sgroups = stage_groups[s]
        if not sgroups:
            stages.append([])
            stage_results.append(
                RepCutResult(assignment=[], part_nodes=[], part_groups=[], total_nodes=0, cut_weight=0)
            )
            stage_live.append(0)
            continue
        group_roots = [g.roots for g in sgroups]
        cones = cone_signatures(eaig, group_roots, source_flags)
        live = int(cones.nodes.size)
        k = max(1, math.ceil(live / config.gates_per_partition * config.overpartition))
        k = min(k, len(sgroups))
        result = repcut_partition(
            eaig,
            group_roots,
            k,
            epsilon=config.epsilon,
            seed=config.seed + s,
            max_net_pins=config.max_net_pins,
            cones=cones,
        )
        del cones
        specs: list[PartitionSpec] = []
        for p in range(k):
            if not result.part_groups[p] and not result.part_nodes[p]:
                continue
            spec = PartitionSpec(
                stage=s,
                index=len(specs),
                nodes=result.part_nodes[p],  # ascending
                groups=[sgroups[g] for g in result.part_groups[p]],
            )
            compute_sources(eaig, spec)
            specs.append(spec)
        stages.append(specs)
        stage_results.append(result)
        stage_live.append(live)

    plan = PartitionPlan(
        eaig=eaig,
        config=config,
        cut_levels=cut_levels,
        stages=stages,
        stage_results=stage_results,
        stage_live=stage_live,
    )
    plan.validate()
    return plan


def compute_sources(
    eaig: EAIG,
    spec: PartitionSpec,
    nodes: np.ndarray | None = None,
    read: np.ndarray | None = None,
) -> None:
    """Fill ``spec.sources``: every non-local, non-constant value it reads,
    ascending.  ``nodes`` is ``spec.nodes`` as an array where the caller
    holds one; ``read`` a design-length all-False mask to reuse (it is left
    all False)."""
    arrays = eaig.arrays()
    if nodes is None:
        nodes = np.asarray(spec.nodes, dtype=np.int64)
    if read is None:
        read = np.zeros(len(eaig), dtype=bool)
    read[arrays.fanin0[nodes] >> 1] = True
    read[arrays.fanin1[nodes] >> 1] = True
    read[np.asarray(spec.root_literals(), dtype=np.int64) >> 1] = True
    read[0] = read[nodes] = False
    sources = np.flatnonzero(read)
    read[sources] = False
    spec.sources = sources.tolist()
