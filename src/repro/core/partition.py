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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import PartitionConfig
from repro.core.eaig import EAIG, NodeKind, lit_node
from repro.errors import GemError
from repro.partition.repcut import RepCutResult, cone_masks, repcut_partition


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

    @property
    def po_groups(self) -> list[EndpointGroup]:
        return [g for g in self.groups if g.kind == "po"]

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
        owned_ffs: set[int] = set()
        owned_rams: set[int] = set()
        owned_pos: set[str] = set()
        published: set[int] = set()
        for spec in self.partitions:
            nodes = set(spec.nodes)
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
                    published.add(g.cut_node)
            sources = set(spec.sources)
            for node in spec.nodes:
                for fanin in (eaig.fanin0[node], eaig.fanin1[node]):
                    f = lit_node(fanin)
                    if f == 0:
                        continue
                    if f not in nodes and f not in sources:
                        raise GemError(
                            f"partition s{spec.stage}p{spec.index}: node {node} "
                            f"reads {f} which is neither local nor a source"
                        )
            for literal in spec.root_literals():
                f = lit_node(literal)
                if f != 0 and f not in nodes and f not in sources:
                    raise GemError(
                        f"partition s{spec.stage}p{spec.index}: root {literal} unresolved"
                    )
            # Earlier-stage AND sources must be published by earlier stages.
            for f in sources:
                if eaig.kind[f] is NodeKind.AND and f not in published:
                    raise GemError(
                        f"partition s{spec.stage}p{spec.index}: source {f} is an "
                        "AND node never published by an earlier stage"
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


def _max_need_level(
    eaig: EAIG,
    groups: list[EndpointGroup],
    levels: list[int],
    live: set[int] | None = None,
) -> list[int]:
    """Highest logic level at which each AND node's value is consumed.

    AND consumers count at their own level; endpoint-root consumers count at
    the *group's* maximum root level (roots of one group stay together).
    ``live`` restricts consumers to nodes inside endpoint cones — dead logic
    must not force values to be published across stage boundaries.
    """
    need = [0] * len(eaig.kind)
    for node in range(len(eaig.kind)):
        if eaig.kind[node] is NodeKind.AND and (live is None or node in live):
            lvl = levels[node]
            for fanin in (eaig.fanin0[node], eaig.fanin1[node]):
                f = lit_node(fanin)
                if lvl > need[f]:
                    need[f] = lvl
    for g in groups:
        glevel = max((levels[lit_node(r)] for r in g.roots), default=0)
        for r in g.roots:
            f = lit_node(r)
            if glevel > need[f]:
                need[f] = glevel
    return need


def choose_cut_levels(
    eaig: EAIG,
    groups: list[EndpointGroup],
    num_stages: int,
    levels: list[int] | None = None,
) -> list[int]:
    """Pick ``num_stages - 1`` boundaries minimizing crossing values.

    A node at level ``l`` with a consumer above boundary ``L`` (``l <= L <
    need``) must be written to global memory — the staging overhead.  A
    difference-array sweep counts crossings for every candidate boundary;
    we greedily pick the cheapest boundary inside each of the
    ``num_stages`` equal depth bands.
    """
    if num_stages <= 1:
        return []
    levels = levels or eaig.levels()
    depth = max(levels) if levels else 0
    if depth < num_stages:
        return []
    need = _max_need_level(eaig, groups, levels)
    crossing = [0] * (depth + 1)
    for node in range(len(eaig.kind)):
        if eaig.kind[node] is not NodeKind.AND:
            continue
        lo = levels[node]
        hi = need[node]
        if hi > lo:
            crossing[lo] += 1
            if hi <= depth:
                crossing[hi] -= 1
    for i in range(1, depth + 1):
        crossing[i] += crossing[i - 1]
    # Gate mass per level: the long tail (Observation 4) makes equal-depth
    # splits lopsided, so windows are centred on gate-count quantiles.
    mass = [0] * (depth + 1)
    for node in range(len(eaig.kind)):
        if eaig.kind[node] is NodeKind.AND:
            mass[levels[node]] += 1
    cum = [0] * (depth + 2)
    for i in range(depth + 1):
        cum[i + 1] = cum[i] + mass[i]
    total = cum[depth + 1]

    def quantile_level(fraction: float) -> int:
        target = total * fraction
        for i in range(depth + 1):
            if cum[i + 1] >= target:
                return i
        return depth

    cuts: list[int] = []
    prev = 0
    for s in range(1, num_stages):
        centre = quantile_level(s / num_stages)
        half = max(1, depth // (2 * num_stages))
        band_lo = max(prev + 1, centre - half)
        band_hi = min(depth - 1, centre + half)
        if band_lo > band_hi:
            continue
        best = min(range(band_lo, band_hi + 1), key=lambda L: crossing[L])
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
    levels = eaig.levels()
    total_gates = eaig.num_gates()
    num_stages = config.num_stages or _auto_stages(total_gates, config)
    cut_levels = choose_cut_levels(eaig, groups, num_stages, levels)
    boundaries = cut_levels + [max(levels) if levels else 0]
    num_stages = len(boundaries)  # cuts may collapse on shallow designs

    def band_of(level: int) -> int:
        for s, boundary in enumerate(boundaries):
            if level <= boundary:
                return s
        return num_stages - 1

    # Assign real endpoint groups to stages by their deepest root.
    stage_groups: list[list[EndpointGroup]] = [[] for _ in range(num_stages)]
    for g in groups:
        glevel = max((levels[lit_node(r)] for r in g.roots), default=0)
        stage_groups[band_of(glevel)].append(g)

    # Publish groups: values crossing a boundary become endpoints of their
    # own band's stage.  Only live logic (inside some endpoint cone) is
    # published — dead gates never need a global slot.
    if num_stages > 1:
        live = eaig.cone([r for g in groups for r in g.roots])
        need = _max_need_level(eaig, groups, levels, live)
        for node in range(len(eaig.kind)):
            if eaig.kind[node] is not NodeKind.AND or node not in live:
                continue
            band = band_of(levels[node])
            if band < num_stages - 1 and band_of(need[node]) > band:
                stage_groups[band].append(
                    EndpointGroup(kind="cut", roots=[2 * node], cut_node=node)
                )

    stages: list[list[PartitionSpec]] = []
    stage_results: list[RepCutResult] = []
    stage_live: list[int] = []
    for s in range(num_stages):
        source_flags = None
        if s > 0:
            boundary = boundaries[s - 1]
            source_flags = [
                eaig.kind[n] is NodeKind.AND and levels[n] <= boundary
                for n in range(len(eaig.kind))
            ]
        sgroups = stage_groups[s]
        if not sgroups:
            stages.append([])
            stage_results.append(
                RepCutResult(assignment=[], part_nodes=[], part_groups=[], total_nodes=0, cut_weight=0)
            )
            stage_live.append(0)
            continue
        masks = cone_masks(eaig, [g.roots for g in sgroups], source_flags)
        live = sum(1 for m in masks if m)
        k = max(1, math.ceil(live / config.gates_per_partition * config.overpartition))
        k = min(k, len(sgroups))
        result = repcut_partition(
            eaig,
            [g.roots for g in sgroups],
            k,
            epsilon=config.epsilon,
            seed=config.seed + s,
            max_net_pins=config.max_net_pins,
            masks=masks,
        )
        specs: list[PartitionSpec] = []
        for p in range(k):
            if not result.part_groups[p] and not result.part_nodes[p]:
                continue
            spec = PartitionSpec(
                stage=s,
                index=len(specs),
                nodes=sorted(result.part_nodes[p]),
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


def compute_sources(eaig: EAIG, spec: PartitionSpec) -> None:
    """Fill ``spec.sources``: every non-local, non-constant value it reads."""
    local = set(spec.nodes)
    sources: set[int] = set()

    def visit(literal: int) -> None:
        node = lit_node(literal)
        if node != 0 and node not in local:
            sources.add(node)

    for node in spec.nodes:
        visit(eaig.fanin0[node])
        visit(eaig.fanin1[node])
    for literal in spec.root_literals():
        visit(literal)
    spec.sources = sorted(sources)
