"""Reference simulators: the paper's comparison targets (Table II) and
the ISA-literal interpreter the production executor is checked against.

* :mod:`repro.simref.event_sim` — gate-level event-driven simulation with
  an activity-sensitive queue; stand-in for the commercial event-based
  simulator (whose defining property the paper leans on: cost scales with
  signal events per cycle, §IV).
* :mod:`repro.simref.cycle_sim` — compiled, levelized full-cycle word-level
  simulation; stand-in for Verilator (compile-to-code, evaluate everything
  each cycle).
* :mod:`repro.simref.gate_sim` — LUT-query gate-level batch evaluation;
  stand-in for GL0AM-style GPU gate-level simulation.
* :mod:`repro.simref.threads` — the multi-core scaling model that
  reproduces Verilator's 8→16-thread performance *degradation* (§IV).

* :mod:`repro.simref.isa_interp` — the per-partition, instruction-by-
  instruction evaluation of a GEM bitstream: the executable spec of
  docs/ISA.md and the reference side of every executor differential.

All of them are validated cycle-for-cycle against the golden
:class:`repro.rtl.netlist.WordSim`, so Table II's comparisons are between
functionally identical engines.
"""

from repro.simref.cycle_sim import CompiledCycleSim
from repro.simref.event_sim import EventDrivenSim
from repro.simref.gate_sim import GateLevelSim
from repro.simref.isa_interp import ReferenceInterpreter
from repro.simref.threads import ThreadScalingModel

__all__ = [
    "CompiledCycleSim",
    "EventDrivenSim",
    "GateLevelSim",
    "ReferenceInterpreter",
    "ThreadScalingModel",
]
