"""Partition merging — Algorithm 1 of the paper (§III-C).

The hypergraph partitioner balances partition *sizes*, but the virtual
Boolean processor constrains partition *width* (state bits).  Rather than
teaching the partitioner a non-additive width objective, the paper
over-partitions and then greedily merges:

    1  Partition the design excessively so that each partition is mappable;
    2  for each partition p:
    3      sort other unvisited partitions by overlap size with p;
    4      for partition q with large-to-small overlap:
    5          try merging q with p; if the result is mappable, commit.

Merging partitions with large *node overlap* deduplicates replicated logic
(the shared nodes are stored once), so the merge both shrinks the partition
count and recovers replication cost.  The mappability probe is a real
placement run (:func:`repro.core.placement.place_partition`), so a commit
always comes with the finished placement for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.boomerang import BoomerangConfig
from repro.core.eaig import EAIG
from repro.core.partition import PartitionPlan, PartitionSpec, compute_sources
from repro.core.placement import (
    PlacedPartition,
    RefineConfig,
    UnmappableError,
    place_partition,
)


@dataclass
class MergeResult:
    """Merged plan plus the placements produced by the mappability probes."""

    plan: PartitionPlan
    placements: list[PlacedPartition]
    partitions_before: int
    partitions_after: int
    #: Algorithm 2 runs Algorithm 1 made: a base placement per partition
    #: it visited plus one per merge it tried
    probes: int = 0
    #: merges tried whose placement was unmappable
    rejected: int = 0

    def stats(self) -> dict:
        return {
            "partitions_before": self.partitions_before,
            "partitions_after": self.partitions_after,
            "replication_cost": self.plan.replication_cost(),
            "mean_utilization": self.mean_utilization(),
        }

    def mean_utilization(self) -> float:
        """Mean effective bit utilization (paper: ≥50% after Algorithm 1).

        Utilization of a core = fraction of its state bits that hold live
        values (sources + written-back nodes).
        """
        if not self.placements:
            return 0.0
        total = sum(p.num_slots / p.config.state_size for p in self.placements)
        return total / len(self.placements)


def _merge_specs(eaig: EAIG, p: PartitionSpec, q: PartitionSpec) -> PartitionSpec:
    merged = PartitionSpec(
        stage=p.stage,
        index=p.index,
        nodes=sorted(set(p.nodes) | set(q.nodes)),
        groups=p.groups + q.groups,
    )
    compute_sources(eaig, merged)
    return merged


def merge_partitions(
    eaig: EAIG,
    plan: PartitionPlan,
    config: BoomerangConfig | None = None,
    refine: RefineConfig | None = None,
    merge_limit: int | None = None,
) -> MergeResult:
    """Run Algorithm 1 on every stage of ``plan``.

    ``merge_limit`` caps how many merge candidates each base partition may
    probe (Algorithm 1 line 4) — the merge-aggressiveness knob: ``0``
    disables merging, ``None`` probes every overlap candidate as before.

    ``refine`` (iterations > 0) runs the simulated-annealing placement
    refinement *after* merging settles, re-placing only the final surviving
    partitions — the probe placements stay cheap and the SA budget is spent
    exactly once per shipped partition.  A refined placement is only adopted
    when it strictly improves :func:`repro.core.placement.placement_cost`.
    """
    config = config or BoomerangConfig()
    before = plan.num_partitions
    new_stages: list[list[PartitionSpec]] = []
    placements: list[PlacedPartition] = []
    probes = {"probes": 0, "rejected": 0}

    for stage_specs in plan.stages:
        merged_stage, stage_placements = _merge_stage(
            eaig, stage_specs, config, merge_limit, probes
        )
        for index, spec in enumerate(merged_stage):
            spec.index = index
        new_stages.append(merged_stage)
        placements.extend(stage_placements)

    if refine is not None and refine.iterations > 0:
        # SA starts from the greedy placement the probes already produced
        # and only ever replaces it with a strictly cheaper one.
        placements = [
            place_partition(eaig, p.spec, config, refine=refine, start=p) for p in placements
        ]

    merged_plan = PartitionPlan(
        eaig=eaig,
        config=plan.config,
        cut_levels=plan.cut_levels,
        stages=new_stages,
        stage_results=plan.stage_results,
        stage_live=plan.stage_live,
    )
    merged_plan.validate()
    return MergeResult(
        plan=merged_plan,
        placements=placements,
        partitions_before=before,
        partitions_after=merged_plan.num_partitions,
        **probes,
    )


def _merge_stage(
    eaig: EAIG,
    specs: list[PartitionSpec],
    config: BoomerangConfig,
    merge_limit: int | None,
    probes: dict[str, int],
) -> tuple[list[PartitionSpec], list[PlacedPartition]]:
    """Algorithm 1 within one stage; counts its placements into ``probes``."""
    alive: dict[int, PartitionSpec] = dict(enumerate(specs))
    placed: dict[int, PlacedPartition] = {}
    node_sets: dict[int, set[int]] = {i: set(s.nodes) for i, s in alive.items()}
    visited: set[int] = set()

    for i in sorted(alive):
        if i not in alive:
            continue
        visited.add(i)
        base = alive[i]
        if i not in placed:
            probes["probes"] += 1
            placed[i] = place_partition(eaig, base, config)
        # Line 3: other unvisited partitions by overlap, large to small.
        candidates = sorted(
            (j for j in alive if j not in visited),
            key=lambda j: -len(node_sets[i] & node_sets[j]),
        )
        if merge_limit is not None:
            candidates = candidates[:merge_limit]
        for j in candidates:
            if j not in alive:
                continue
            trial = _merge_specs(eaig, base, alive[j])
            # Cheap pre-filter: a merged partition needs at least one slot
            # per source plus the constant slot.
            if len(trial.sources) + 1 > config.state_size:
                continue
            probes["probes"] += 1
            try:
                trial_placed = place_partition(eaig, trial, config)
            except UnmappableError:
                probes["rejected"] += 1
                continue
            # Line 5: commit.
            base = trial
            alive[i] = trial
            placed[i] = trial_placed
            node_sets[i] = set(trial.nodes)
            del alive[j]
            node_sets.pop(j)
            placed.pop(j, None)

    order = sorted(alive)
    return [alive[i] for i in order], [placed[i] for i in order]
