"""Correctness gate: simulator outputs against two independent references.

Runs outside every timed region.  A CPU lane's ``out``/``out_valid``
stream must equal ``reference_execute`` of that lane's program, and the
sample lanes must match the word-level golden model ``WordSim`` on every
primary output every cycle.  Neither reference shares code with the
compile flow or the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtl.ir import Circuit
from repro.rtl.netlist import Netlist, WordSim

from benchmarks.e2e.workloads import Inputs


@dataclass
class GateResult:
    #: lane-cycles compared against a reference
    checked_lane_cycles: int = 0
    #: lane-cycles that disagreed with it
    failed_lane_cycles: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed_lane_cycles / max(1, self.checked_lane_cycles)

    def fail(self, lane_cycles: int, message: str) -> None:
        self.failed_lane_cycles += lane_cycles
        if len(self.messages) < 20:
            self.messages.append(message)


def lane_outputs(outputs: list, lane: int, driver: str) -> list[dict[str, int]]:
    """One lane's per-cycle output dicts out of a pass's retained outputs."""
    if driver == "step":
        return outputs
    return [cycle_outs[lane] for cycle_outs in outputs]


def check_pass(circuit: Circuit, inputs: Inputs, outputs: list, driver: str) -> GateResult:
    result = GateResult()
    cycles = inputs.cycles
    if len(outputs) != cycles:
        result.checked_lane_cycles = cycles * len(inputs.lane_stimuli)
        result.fail(result.checked_lane_cycles, f"{len(outputs)} output cycles for {cycles} stimuli")
        return result

    for lane, expected in enumerate(inputs.expected_out):
        if expected is None:
            continue
        outs = lane_outputs(outputs, lane, driver)
        stream = [o[inputs.out_port] for o in outs if o[inputs.valid_port]]
        result.checked_lane_cycles += cycles
        if stream != expected:
            result.fail(cycles, f"lane {lane}: out stream {stream} != reference {expected}")

    netlist = Netlist(circuit)
    for lane in inputs.sample_lanes:
        golden = WordSim(netlist).run(inputs.lane_stimuli[lane])
        outs = lane_outputs(outputs, lane, driver)
        result.checked_lane_cycles += cycles
        for c, (got, want) in enumerate(zip(outs, golden)):
            if got != want:
                diff = sorted(k for k in want if got.get(k) != want[k])
                result.fail(1, f"lane {lane} cycle {c}: outputs {diff} differ from WordSim")
    return result
