"""Extension experiment — multi-GPU scaling (§V future work).

Plans the largest design's blocks across 1–8 A100s at paper scale and
reports the scaling curve of the timing model: near-linear while each
device still runs multiple fetch-bound waves, saturating once per-device
work shrinks to the interconnect all-gather floor — and no benefit at all
for a design that already fits one device's residency.
"""

import pytest

from benchmarks.conftest import run_once
from repro.extensions.multigpu import plan_multi_gpu
from repro.harness.runner import compile_design
from repro.harness.tables import format_table, paper_scale_ratio

GPUS = [1, 2, 4, 8]


def _measure():
    rows = []
    for name in ("openpiton8", "openpiton1"):
        design = compile_design(name)
        ratio = paper_scale_ratio(name)
        base = None
        for g in GPUS:
            plan = plan_multi_gpu(design, g, scale_ratio=ratio)
            hz = plan.speed()
            if base is None:
                base = hz
            rows.append(
                {
                    "design": name,
                    "gpus": g,
                    "relative_hz": round(hz / base, 3),
                    "efficiency": round(hz / base / g, 3),
                }
            )
    return rows


def test_multigpu_scaling(benchmark, record_experiment):
    rows = run_once(benchmark, _measure)
    print("\nMulti-GPU scaling at paper scale (relative to 1 GPU):")
    print(format_table(rows))
    record_experiment("EXT_multigpu", {"rows": rows})
    big = {r["gpus"]: r for r in rows if r["design"] == "openpiton8"}
    small = {r["gpus"]: r for r in rows if r["design"] == "openpiton1"}
    # The 5.5M-gate design gains from a second device…
    assert big[2]["relative_hz"] > 1.25
    # …with monotone throughput and falling efficiency (communication).
    assert big[8]["relative_hz"] >= big[4]["relative_hz"] >= big[2]["relative_hz"]
    assert big[8]["efficiency"] < big[2]["efficiency"]
    # The small design is latency/residency-bound: extra devices are wasted.
    assert small[8]["relative_hz"] < 1.6
    assert small[2]["relative_hz"] < big[2]["relative_hz"]