"""Regeneration of the paper's tables, plus the paper's published numbers.

``PAPER_TABLE1`` / ``PAPER_TABLE2`` transcribe the paper so benchmarks can
print paper-vs-measured side by side (EXPERIMENTS.md records the outcome).

``table1_rows()`` runs the real flow on the five reproduction designs.
``table2_rows()`` combines flow outputs, measured activity and the
calibrated performance models into the full 18-row speed comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.perfmodel import A100, RTX3090, GemMetrics, gem_metrics
from repro.harness.calibrate import CalibratedModels, calibrate
from repro.harness.runner import (
    DESIGNS,
    compile_design,
    design_workloads,
    measure_activity,
)

#: Table I as published (design -> columns).
PAPER_TABLE1 = {
    "nvdla": {"gates": 668_746, "levels": 62, "stages": 1, "layers": 9, "parts": 52, "bitstream_mb": 11.2},
    "rocketchip": {"gates": 346_687, "levels": 82, "stages": 1, "layers": 13, "parts": 39, "bitstream_mb": 9.2},
    "gemmini": {"gates": 1_831_381, "levels": 148, "stages": 1, "layers": 19, "parts": 143, "bitstream_mb": 44.4},
    "openpiton1": {"gates": 682_646, "levels": 66, "stages": 2, "layers": 10, "parts": 119, "bitstream_mb": 18.4},
    "openpiton8": {"gates": 5_479_795, "levels": 66, "stages": 2, "layers": 13, "parts": 947, "bitstream_mb": 162.4},
}

#: Table II as published: design -> test -> column -> Hz (None = N/A).
PAPER_TABLE2 = {
    "nvdla": {
        "dc6x3x76x270_int8_0": {"commercial": 2956, "verilator_8t": None, "verilator_1t": 1010, "gl0am": 2175, "gem_a100": 65385, "gem_3090": 55716},
        "dc6x3x76x16_int8_0": {"commercial": 4712, "verilator_8t": None, "verilator_1t": 1060, "gl0am": 3534, "gem_a100": 65385, "gem_3090": 55716},
        "img_51x96x4int8_0": {"commercial": 7848, "verilator_8t": None, "verilator_1t": 1169, "gl0am": 8213, "gem_a100": 65385, "gem_3090": 55716},
        "cdp_8x8x32_lrn3_int8_2": {"commercial": 1683, "verilator_8t": None, "verilator_1t": 1512, "gl0am": 7443, "gem_a100": 65385, "gem_3090": 55716},
        "pdpmax_int8_0": {"commercial": 3391, "verilator_8t": None, "verilator_1t": 1555, "gl0am": 8353, "gem_a100": 65385, "gem_3090": 55716},
    },
    "rocketchip": {
        "dhrystone": {"commercial": 7262, "verilator_8t": 9517, "verilator_1t": 4639, "gl0am": 7275, "gem_a100": 52403, "gem_3090": 51695},
        "mt-memcpy": {"commercial": 11672, "verilator_8t": 8845, "verilator_1t": 4790, "gl0am": 6584, "gem_a100": 52403, "gem_3090": 51695},
        "pmp": {"commercial": 4955, "verilator_8t": 8220, "verilator_1t": 4529, "gl0am": 6034, "gem_a100": 52403, "gem_3090": 51695},
        "qsort": {"commercial": 6764, "verilator_8t": 8342, "verilator_1t": 4657, "gl0am": 7142, "gem_a100": 52403, "gem_3090": 51695},
        "spmv": {"commercial": 11305, "verilator_8t": 7534, "verilator_1t": 4719, "gl0am": 7420, "gem_a100": 52403, "gem_3090": 51695},
    },
    "gemmini": {
        "tiled_matmul_ws_full_C": {"commercial": 5188, "verilator_8t": 9638, "verilator_1t": 2460, "gl0am": 11618, "gem_a100": 25608, "gem_3090": 17889},
        "tiled_matmul_ws_perf": {"commercial": 13205, "verilator_8t": 10554, "verilator_1t": 2537, "gl0am": 13227, "gem_a100": 25608, "gem_3090": 17889},
    },
    "openpiton1": {
        "ldst_quad2": {"commercial": 13871, "verilator_8t": 5355, "verilator_1t": 3415, "gl0am": 8400, "gem_a100": 36583, "gem_3090": 31339},
        "fp_mt_combo0": {"commercial": 10569, "verilator_8t": 5402, "verilator_1t": 3358, "gl0am": 7303, "gem_a100": 36583, "gem_3090": 31339},
        "asi_notused_priv": {"commercial": 5167, "verilator_8t": 5025, "verilator_1t": 3157, "gl0am": 4624, "gem_a100": 36583, "gem_3090": 31339},
    },
    "openpiton8": {
        "ldst_quad2": {"commercial": 4820, "verilator_8t": 1078, "verilator_1t": 315, "gl0am": 5172, "gem_a100": 7285, "gem_3090": 4694},
        "fp_mt_combo0": {"commercial": 7666, "verilator_8t": 1080, "verilator_1t": 316, "gl0am": 7203, "gem_a100": 7285, "gem_3090": 4694},
        "asi_notused_priv": {"commercial": 1441, "verilator_8t": 1004, "verilator_1t": 306, "gl0am": 1920, "gem_a100": 7285, "gem_3090": 4694},
    },
}

#: Paper §IV: signal events per cycle reported by the commercial tool.
PAPER_EVENTS = {"openpiton1": 8612, "openpiton8": 28789}

#: Paper Table II average speed-ups (bottom row).
PAPER_AVERAGE_SPEEDUPS = {
    "commercial": 9.15,
    "verilator_8t": 5.98,
    "verilator_1t": 24.87,
    "gl0am": 7.72,
}


def table1_rows(designs: list[str] | None = None) -> list[dict]:
    """Run the flow on every design; one dict per Table I row."""
    rows = []
    for name in designs or list(DESIGNS):
        report = compile_design(name).report
        rows.append(
            {
                "design": name,
                "gates": report.gates,
                "levels": report.levels,
                "stages": report.stages,
                "layers": report.layers,
                "parts": report.partitions,
                "bitstream_mb": report.bitstream_bytes / (1024 * 1024),
                "replication": report.replication_cost,
                "utilization": report.mean_utilization,
            }
        )
    return rows


@dataclass
class Table2Row:
    design: str
    test: str
    commercial: float
    verilator_8t: float
    verilator_1t: float
    gl0am: float
    gem_a100: float
    gem_3090: float

    def speedups(self) -> dict[str, float]:
        """The paper's ratio columns (vs GEM-A100)."""
        return {
            "commercial": self.gem_a100 / self.commercial,
            "verilator_8t": self.gem_a100 / self.verilator_8t,
            "verilator_1t": self.gem_a100 / self.verilator_1t,
            "gl0am": self.gem_a100 / self.gl0am,
        }

    def as_dict(self) -> dict:
        return {
            "design": self.design,
            "test": self.test,
            "commercial": self.commercial,
            "verilator_8t": self.verilator_8t,
            "verilator_1t": self.verilator_1t,
            "gl0am": self.gl0am,
            "gem_a100": self.gem_a100,
            "gem_3090": self.gem_3090,
            **{f"speedup_{k}": v for k, v in self.speedups().items()},
        }


def paper_scale_ratio(design: str) -> float:
    """Paper gate count over our scaled design's gate count."""
    return PAPER_TABLE1[design]["gates"] / compile_design(design).report.gates


def projected_metrics(design: str) -> GemMetrics:
    """GEM work metrics projected to the paper's design size.

    Our designs are structurally faithful but scaled down so the pure-Python
    reference simulators stay tractable (DESIGN.md §5).  Size-driven effects
    — bitstream-fetch-bound designs, block waves once partitions exceed the
    GPU's residency, the OpenPiton8 crossover — only appear at paper scale,
    so the Table II experiment projects every engine's *work quantities* by
    the per-design gate ratio.  The projection respects the machine model:
    partitions multiply (block size is fixed at 8192 state bits), per-block
    work does not.
    """
    import math

    m = gem_metrics(compile_design(design))
    r = paper_scale_ratio(design)
    m = type(m)(
        stage_partitions=[max(1, math.ceil(p * r)) for p in m.stage_partitions],
        inst_words=int(m.inst_words * r),
        stage_work_bits=[int(w * r) for w in m.stage_work_bits],
        stage_max_block_bits=list(m.stage_max_block_bits),
        global_traffic=int(m.global_traffic * r),
    )
    return m


def calibrated_models(project_to_paper_scale: bool = True) -> CalibratedModels:
    """Calibrate against the NVDLA anchor (see harness.calibrate)."""
    anchor_wl = design_workloads("nvdla")["dc6x3x76x270_int8_0"]
    activity = measure_activity("nvdla", anchor_wl)
    if project_to_paper_scale:
        r = paper_scale_ratio("nvdla")
        activity = _scale_activity(activity, r)
        return calibrate(projected_metrics("nvdla"), activity)
    return calibrate(compile_design("nvdla"), activity)


def _scale_activity(activity, ratio: float):
    from dataclasses import replace

    return replace(
        activity,
        events_per_cycle=activity.events_per_cycle * ratio,
        toggles_per_cycle=activity.toggles_per_cycle * ratio,
        compiled_ops_per_cycle=activity.compiled_ops_per_cycle * ratio,
    )


def table2_rows(
    designs: list[str] | None = None,
    models: CalibratedModels | None = None,
    max_cycles: int | None = 400,
    project_to_paper_scale: bool = True,
) -> list[Table2Row]:
    """Regenerate Table II for the given designs.

    ``project_to_paper_scale`` (default) evaluates every engine's model on
    work quantities projected to the paper's design sizes — see
    :func:`projected_metrics`; set it False for raw reproduction-scale
    numbers (same winners, compressed gaps).
    """
    models = models or calibrated_models(project_to_paper_scale)
    rows: list[Table2Row] = []
    for name in designs or list(DESIGNS):
        if project_to_paper_scale:
            metrics = projected_metrics(name)
            ratio = paper_scale_ratio(name)
        else:
            metrics = gem_metrics(compile_design(name))
            ratio = 1.0
        gem_a100 = models.gem(metrics, A100)
        gem_3090 = models.gem(metrics, RTX3090)
        for wl_name, wl in design_workloads(name).items():
            activity = measure_activity(name, wl, max_cycles=max_cycles)
            if ratio != 1.0:
                activity = _scale_activity(activity, ratio)
            rows.append(
                Table2Row(
                    design=name,
                    test=wl_name,
                    commercial=models.commercial(activity.events_per_cycle),
                    verilator_8t=models.verilator(activity.compiled_ops_per_cycle, 8),
                    verilator_1t=models.verilator(activity.compiled_ops_per_cycle, 1),
                    gl0am=models.gl0am(
                        activity.toggles_per_cycle, activity.gate_launches_per_cycle
                    ),
                    gem_a100=gem_a100,
                    gem_3090=gem_3090,
                )
            )
    return rows


def average_speedups(rows: list[Table2Row]) -> dict[str, float]:
    """Arithmetic mean of the per-row speed-up columns (paper's bottom row)."""
    keys = ["commercial", "verilator_8t", "verilator_1t", "gl0am"]
    out = {}
    for key in keys:
        values = [row.speedups()[key] for row in rows]
        out[key] = sum(values) / len(values)
    return out


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(rows: list[dict], columns: list[str] | None = None, floatfmt: str = ".2f") -> str:
    """Plain-text aligned table."""
    if not rows:
        return "(empty)\n"
    columns = columns or list(rows[0])
    header = [str(c) for c in columns]
    body = []
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append(format(v, floatfmt))
            else:
                cells.append(str(v))
        body.append(cells)
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(columns))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"
