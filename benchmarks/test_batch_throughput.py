"""Experiment B1 — lane-batched packed-word throughput tracking.

The tentpole acceptance of the lane-batched execution engine: packing
B stimulus lanes into every ``uint64`` state word (B ≤ 64) or into
K-word lane planes (B = K×64, up to 4096) must multiply
cycles×lanes/sec throughput, because every fold/gather/writeback word op
serves all lanes at once while the per-cycle interpreter overhead stays
constant.  Running batch=1 sixty-four times sequentially delivers exactly
the batch=1 ``lane_cycles_per_s``, so the batched-vs-sequential speedup
is the ratio of that metric across batch sizes.

Writes ``BENCH_batch.json`` at the repo root (cycles×lanes/sec for
batch ∈ {1, 16, 64, 256, 1024} on the rocketchip riscish-core workload,
one row per available execution backend at the lane-plane batches) so
the perf trajectory is tracked from this PR onward; the CI smoke job
runs exactly this file.  The batch series is pinned to the numpy
backend (the series BENCH_batch.json has always tracked); the native
stage kernel, where it resolves, adds its own lane-plane rows.
Acceptance: numpy batch=64 ≥ 10× the sequential lane throughput.
"""

import json
import os

from benchmarks.conftest import run_once, write_run_reports
from repro.core.backend import available_backends
from repro.harness.runner import measure_batch_throughput

BENCH_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_batch.json")
)
DESIGN = "rocketchip"
BATCHES = (1, 16, 64, 256, 1024)
#: lane-plane batches where compiled backends earn their keep — the
#: per-backend rows the regression gate tracks
PLANE_BATCHES = (256, 1024)
CYCLES = 60


def test_batch_throughput(benchmark, record_experiment):
    # Warm the compile cache and interpreter code paths so the batch=1
    # row is not penalized by first-touch costs.
    measure_batch_throughput(DESIGN, batch=1, max_cycles=5)
    extra_backends = tuple(b for b in available_backends() if b != "numpy")

    def measure():
        rows = [
            measure_batch_throughput(DESIGN, batch=batch, max_cycles=CYCLES, backend="numpy")
            for batch in BATCHES
        ]
        rows += [
            measure_batch_throughput(
                DESIGN, batch=batch, max_cycles=CYCLES, backend=backend
            )
            for backend in extra_backends
            for batch in PLANE_BATCHES
        ]
        return rows

    rows = run_once(benchmark, measure)
    numpy_rows = {row["batch"]: row for row in rows if row["backend"] == "numpy"}
    sequential = numpy_rows[1]["lane_cycles_per_s"]
    payload = {
        "design": DESIGN,
        "workload": rows[0]["workload"],
        "cycles": CYCLES,
        "backends": ["numpy", *extra_backends],
        "rows": rows,
        "speedups_vs_sequential": {
            str(batch): numpy_rows[batch]["lane_cycles_per_s"] / sequential
            for batch in BATCHES
        },
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    record_experiment("batch_throughput", payload)
    write_run_reports("batch_throughput", rows)

    print(f"\nlane throughput on {DESIGN}/{payload['workload']} ({CYCLES} cycles):")
    for row in rows:
        speedup = row["lane_cycles_per_s"] / sequential
        print(
            f"  batch {row['batch']:4d} [{row['backend']:>5s}]: "
            f"{row['lane_cycles_per_s']:12.0f} lane-cycles/s "
            f"({speedup:7.2f}x sequential)"
        )
    speedup64 = payload["speedups_vs_sequential"]["64"]
    assert speedup64 >= 10.0, (
        f"batch=64 delivers only {speedup64:.2f}x the sequential lane "
        f"throughput (acceptance floor: 10x)"
    )
    for batch in PLANE_BATCHES:
        plane_speedup = payload["speedups_vs_sequential"][str(batch)]
        assert plane_speedup >= 0.9 * speedup64, (
            f"batch={batch} lane planes deliver {plane_speedup:.2f}x but "
            f"batch=64 already delivers {speedup64:.2f}x — planes must not "
            f"lose per-lane ground (>=0.9x the single-word speedup)"
        )
