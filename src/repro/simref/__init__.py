"""Reference simulators: the paper's comparison targets (Table II) and
the ISA-literal interpreter the production executor is checked against.

* :mod:`repro.simref.gate_sim` — levelized gate-level batch evaluation of
  the E-AIG, the one bit-level cycle simulator.  Stand-in for GL0AM-style
  GPU gate-level simulation, and the source of the activity counts the
  Table II models read: toggles/cycle and levels (GL0AM), and signal
  events/cycle (AND toggles plus source-bit changes), the commercial
  event-driven simulator's cost driver (§IV).  The Verilator stand-in is
  analytical: a static compiled-work count
  (:func:`repro.core.perfmodel.compiled_work_units`) fed to
  :func:`repro.core.perfmodel.compiled_sim_speed`.
* :mod:`repro.simref.threads` — the multi-core scaling model that
  reproduces Verilator's 8→16-thread performance *degradation* (§IV).

* :mod:`repro.simref.isa_interp` — the per-partition, instruction-by-
  instruction evaluation of a GEM bitstream: the executable spec of
  docs/ISA.md and the reference side of every executor differential.

:class:`~repro.simref.gate_sim.GateLevelSim` is validated cycle-for-cycle
against the golden :class:`repro.rtl.netlist.WordSim`, so the activity the
models read is that of a functionally identical engine.
"""

from repro.simref.gate_sim import GateLevelSim
from repro.simref.isa_interp import ReferenceInterpreter
from repro.simref.threads import ThreadScalingModel

__all__ = [
    "GateLevelSim",
    "ReferenceInterpreter",
    "ThreadScalingModel",
]
