"""Extension experiment — event-based pruning in GEM (§IV future work).

The paper identifies GEM's weakness: as an oblivious full-cycle simulator
it pays for idle logic, so the low-activity OpenPiton8 workload is its
worst case, and names event-based pruning as the planned fix.  This
benchmark implements and evaluates that fix:

1. run real workloads under :class:`PruningGemInterpreter` (bit-exact, see
   tests/test_pruning.py) and measure the fraction of block executions
   pruned;
2. feed the measured skip fraction into the pruned performance model and
   regenerate the Table II rows where it matters.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.perfmodel import A100
from repro.extensions.pruning import PruningGemInterpreter, gem_pruned_speed
from repro.harness.runner import compile_design, design_workloads, measure_activity
from repro.harness.tables import (
    _scale_activity,
    calibrated_models,
    format_table,
    paper_scale_ratio,
    projected_metrics,
)

CASES = [("openpiton8", "asi_notused_priv"), ("openpiton1", "asi_notused_priv"), ("nvdla", "pdpmax_int8_0")]


def _measure():
    models = calibrated_models()
    rows = []
    for design_name, wl_name in CASES:
        design = compile_design(design_name)
        wl = design_workloads(design_name)[wl_name]
        gem = PruningGemInterpreter(design.program)
        for vec in wl.stimuli[:250]:
            gem.step(vec)
        skip = gem.skip_fraction
        metrics = projected_metrics(design_name)
        baseline = models.gem(metrics, A100)
        scale = models.scales.get("gem_a100", 1.0)
        pruned = gem_pruned_speed(metrics, skip, A100, scale=scale)
        activity = _scale_activity(
            measure_activity(design_name, wl), paper_scale_ratio(design_name)
        )
        commercial = models.commercial(activity.events_per_cycle)
        rows.append(
            {
                "design": design_name,
                "workload": wl_name,
                "skip_fraction": round(skip, 3),
                "gem_hz": round(baseline),
                "gem_pruned_hz": round(pruned),
                "pruning_gain": round(pruned / baseline, 2),
                "vs_commercial": round(baseline / commercial, 2),
                "pruned_vs_commercial": round(pruned / commercial, 2),
            }
        )
    return rows


def test_event_pruning_helps_low_activity_designs(benchmark, record_experiment):
    rows = run_once(benchmark, _measure)
    print("\nEvent-based pruning in GEM (the paper's proposed fix):")
    print(format_table(rows))
    record_experiment("EXT_pruning", {"rows": rows})
    by = {row["design"]: row for row in rows}

    # Every workload leaves some blocks idle; pruning monetizes them and
    # never hurts.
    for row in rows:
        assert 0.1 <= row["skip_fraction"] <= 0.9, row
        assert row["pruning_gain"] >= 1.2, row
        # The margin over the event-driven baseline widens everywhere.
        assert row["pruned_vs_commercial"] > row["vs_commercial"], row
    # The §IV problem case specifically improves: pruned GEM pulls further
    # ahead of the commercial tool on OpenPiton8.
    assert by["openpiton8"]["pruned_vs_commercial"] > 1.4 * by["openpiton8"]["vs_commercial"] * 0.9

    # Finding worth recording (EXPERIMENTS.md): the multicore's skip
    # fraction is capped well below its idle-core share because RepCut
    # partitions interleave logic from several cores — one busy core
    # dirties most blocks.  Locality-aware partitioning would be the next
    # step.  The multi-engine NVDLA, whose engines land in disjoint
    # partitions, prunes more than the multicore despite a busier workload.
    assert by["nvdla"]["skip_fraction"] > by["openpiton8"]["skip_fraction"]
