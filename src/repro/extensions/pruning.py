"""Event-based pruning for GEM — the paper's §IV future-work item.

GEM is an oblivious full-cycle simulator: every block executes every
cycle, which is exactly why the low-activity OpenPiton8 workload flatters
event-driven baselines (paper §IV: "In the future, we plan to explore
event-based pruning in GEM").  This module implements that exploration.

Rule: a block may be skipped for a cycle when *none of its global source
bits changed* since it last executed — its layers are a pure function of
those sources, so every store it would perform would rewrite the values
already sitting in global memory.  Blocks owning RAMs need one extra
unchanged cycle before skipping: the cycle after a change, a write from
the pre-change cycle may still alter the read data even under identical
inputs (read-first ports lag the array by one cycle).

On a GPU this is a cheap block-prologue: load the source words, compare
against the previous-cycle copy kept in global memory, and exit early on
equality — the comparison is fully coalesced and costs a small fraction
of the layer pipeline.  Here the same logic runs over the per-partition
reference interpreter (the fused executor has no per-block granularity;
pruning is a model-only extension, never a production path), and the
measured skip fraction feeds :func:`gem_pruned_speed`, the pruned
performance model used by ``benchmarks/test_pruning_extension.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.interpreter import _DecodedPartition
from repro.core.perfmodel import A100, GemMetrics, GpuProfile, gem_cycle_time
from repro.simref.isa_interp import ReferenceInterpreter


class PruningGemInterpreter(ReferenceInterpreter):
    """Reference interpreter with block-level event pruning.

    Functionally identical to :class:`~repro.core.interpreter.GemInterpreter`
    (the test suite runs them in lockstep); additionally counts skipped
    blocks so the benefit is measurable.
    """

    def __init__(self, program, batch: int = 1) -> None:
        super().__init__(program, batch=batch)
        partitions = self.loaded.partitions
        self._source_cache: list[np.ndarray | None] = [None] * len(partitions)
        self._stable_cycles: list[int] = [0] * len(partitions)
        self._index_of = {id(p): i for i, p in enumerate(partitions)}
        self.blocks_executed = 0
        self.blocks_skipped = 0

    def _run_partition(self, part: _DecodedPartition, local: np.ndarray):
        index = self._index_of[id(part)]
        sources = self.global_state[part.read_gidx] & self.engine.lane_mask
        cached = self._source_cache[index]
        if cached is not None and sources.shape == cached.shape and (sources == cached).all():
            self._stable_cycles[index] += 1
            # RAM-owning blocks need two stable cycles (read-first lag).
            need = 2 if part.ramops else 1
            if self._stable_cycles[index] >= need:
                self.blocks_skipped += 1
                return []
        else:
            self._stable_cycles[index] = 0
        self._source_cache[index] = sources.copy()
        self.blocks_executed += 1
        return super()._run_partition(part, local)

    @property
    def skip_fraction(self) -> float:
        total = self.blocks_executed + self.blocks_skipped
        return self.blocks_skipped / total if total else 0.0


def gem_pruned_speed(
    metrics: GemMetrics,
    skip_fraction: float,
    gpu: GpuProfile = A100,
    scale: float = 1.0,
    check_cost_fraction: float = 0.08,
) -> float:
    """Simulated Hz of GEM with event pruning.

    A skipped block still pays the source-compare prologue
    (``check_cost_fraction`` of its normal work) but neither fetches its
    instruction stream nor runs its layers.  Device synchronizations are
    unchanged — the cycle barrier remains.  ``scale`` carries the
    calibration constant of the unpruned model.
    """
    if not 0.0 <= skip_fraction <= 1.0:
        raise ValueError("skip_fraction must be within [0, 1]")
    active = 1.0 - skip_fraction * (1.0 - check_cost_fraction)
    scaled = GemMetrics(
        stage_partitions=list(metrics.stage_partitions),
        inst_words=int(metrics.inst_words * active),
        stage_work_bits=[int(w * active) for w in metrics.stage_work_bits],
        stage_max_block_bits=list(metrics.stage_max_block_bits),
        global_traffic=metrics.global_traffic,
    )
    return scale / gem_cycle_time(scaled, gpu)
