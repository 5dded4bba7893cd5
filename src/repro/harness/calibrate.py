"""One-anchor-per-engine calibration of the performance models.

Methodology (documented in EXPERIMENTS.md): every engine's analytical model
produces a raw Hz from measured work quantities; a single multiplicative
constant per engine is then fixed so that the **NVDLA anchor point**
matches the paper (GEM-A100 = 65,385 Hz; commercial = 2,956 Hz on
dc6x3x76x270_int8_0; Verilator-1T = 1,010 Hz; GL0AM = 2,175 Hz; GEM-3090 =
55,716 Hz).  Every *other* number in the regenerated Table II — 17 of the
18 design/test rows, every ratio between designs and workloads — then falls
out of the models and the measured activity, which is exactly the content
the reproduction can check: who wins, by roughly what factor, and where the
crossovers fall.

This is standard simulator practice (calibrate once against one hardware
measurement, predict the rest); without a GPU there is no honest
alternative, and *not* calibrating would just hide the same free constant
inside arbitrarily chosen rate parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compiler import CompiledDesign
from repro.core.perfmodel import (
    A100,
    RTX3090,
    GemMetrics,
    compiled_sim_speed,
    event_sim_speed,
    gate_sim_speed,
    gem_metrics,
    gem_speed,
)
from repro.harness.runner import ActivityMeasurement

#: Paper Table II, NVDLA / dc6x3x76x270_int8_0 row (the anchor point).
PAPER_ANCHOR = {
    "gem_a100": 65385.0,
    "gem_3090": 55716.0,
    "commercial": 2956.0,
    "verilator_1t": 1010.0,
    "gl0am": 2175.0,
}


@dataclass
class CalibratedModels:
    """Per-engine scale factors applied on top of the analytical models."""

    scales: dict[str, float] = field(default_factory=dict)

    def gem(self, design_or_metrics: CompiledDesign | GemMetrics, gpu=A100) -> float:
        key = "gem_" + gpu.name.lower().replace("rtx", "")
        return gem_speed(design_or_metrics, gpu) * self.scales.get(key, 1.0)

    def commercial(self, events_per_cycle: float) -> float:
        return event_sim_speed(events_per_cycle) * self.scales.get("commercial", 1.0)

    def verilator(self, ops_per_cycle: float, threads: int = 1) -> float:
        return compiled_sim_speed(ops_per_cycle, threads) * self.scales.get(
            "verilator_1t", 1.0
        )

    def gl0am(self, toggles_per_cycle: float, launches_per_cycle: float, gpu=A100) -> float:
        return gate_sim_speed(toggles_per_cycle, launches_per_cycle, gpu) * self.scales.get(
            "gl0am", 1.0
        )


def calibrate(
    nvdla_design: CompiledDesign | GemMetrics,
    nvdla_activity: ActivityMeasurement,
    anchors: dict[str, float] | None = None,
) -> CalibratedModels:
    """Fit the per-engine scales against the NVDLA anchor row.

    Accepts either a compiled design or pre-extracted (possibly
    paper-scale-projected) :class:`GemMetrics`.
    """
    anchors = anchors or PAPER_ANCHOR
    metrics = (
        nvdla_design
        if isinstance(nvdla_design, GemMetrics)
        else gem_metrics(nvdla_design)
    )
    raw = {
        "gem_a100": gem_speed(metrics, A100),
        "gem_3090": gem_speed(metrics, RTX3090),
        "commercial": event_sim_speed(nvdla_activity.events_per_cycle),
        "verilator_1t": compiled_sim_speed(nvdla_activity.compiled_ops_per_cycle, 1),
        "gl0am": gate_sim_speed(
            nvdla_activity.toggles_per_cycle, nvdla_activity.gate_launches_per_cycle
        ),
    }
    scales = {key: anchors[key] / raw[key] for key in raw}
    return CalibratedModels(scales=scales)
