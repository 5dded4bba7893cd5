"""Experiment A1 — ablation of Algorithm 2's timing-driven ordering.

DESIGN.md's per-experiment index calls out the design choice in §III-D:
nodes are placed most-critical-first (reverse logic depth over the
remaining subgraph, constantly updated).  We re-place every partition of
two designs with criticality disabled (FIFO order) and compare layer
counts — the metric the ordering exists to minimize.

A partition FIFO cannot map at all (its writebacks overflow the state) is
a FIFO loss: it is listed in its row as ``fifo_unmappable`` and left out of
both sums, which run over the partitions both orders map.
"""

from benchmarks.conftest import run_once
from repro.core.placement import place_partition
from repro.errors import UnmappableError
from repro.harness.runner import compile_design
from repro.harness.tables import format_table

DESIGNS_TO_TEST = ["rocketchip", "nvdla"]


def _layers(eaig, placed, timing_driven):
    """Layers of one re-placement of ``placed``'s partition, or None if it
    does not fit the core."""
    try:
        return len(
            place_partition(eaig, placed.spec, placed.config, timing_driven=timing_driven).layers
        )
    except UnmappableError:
        return None


def _measure():
    rows = []
    for name in DESIGNS_TO_TEST:
        design = compile_design(name)
        eaig = design.synth.eaig
        timing = fifo = 0
        unmappable = {True: [], False: []}
        for placed in design.merge.placements:
            counts = {order: _layers(eaig, placed, order) for order in (True, False)}
            for order, count in counts.items():
                if count is None:
                    unmappable[order].append(f"s{placed.spec.stage}p{placed.spec.index}")
            if None not in counts.values():
                timing += counts[True]
                fifo += counts[False]
        rows.append(
            {
                "design": name,
                "layers_timing_driven": timing,
                "layers_fifo": fifo,
                "saving": round((fifo - timing) / max(1, fifo), 3),
                "timing_driven_unmappable": unmappable[True],
                "fifo_unmappable": unmappable[False],
            }
        )
    return rows


def test_timing_driven_placement_saves_layers(benchmark, record_experiment):
    rows = run_once(benchmark, _measure)
    print("\nA1: timing-driven vs FIFO bit placement (total layers):")
    print(format_table(rows))
    record_experiment("A1_placement_ablation", {"rows": rows})
    total_timing = sum(row["layers_timing_driven"] for row in rows)
    total_fifo = sum(row["layers_fifo"] for row in rows)
    # Criticality ordering must always map, never lose, and should win overall.
    assert not any(row["timing_driven_unmappable"] for row in rows), rows
    assert total_timing <= total_fifo
    for row in rows:
        assert row["layers_timing_driven"] <= row["layers_fifo"] * 1.05, row
