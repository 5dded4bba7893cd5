"""4-state (0/1/X/Z) simulation — the paper's first listed future work.

The paper closes §V with "many improvements are possible as future works,
including native arithmetic operations, multi-GPU support, CUDA software
pipelining, 4-state simulation".  This package implements 4-state
simulation the way production 2-state engines do:

* :mod:`repro.fourstate.semantics` — the value algebra: IEEE-1364-style
  pessimistic X-propagation over (data, unknown) dual-rail words;
* :mod:`repro.fourstate.sim` — :class:`FourStateSim`, a golden 4-state
  interpreter of the word-level netlist (registers and memories can power
  up as X, so reset coverage is checkable);
* :mod:`repro.fourstate.dualrail` — a circuit-to-circuit transform that
  compiles a design into a 2-state circuit computing its own dual-rail
  encoding.  The transformed circuit runs on *any* 2-state engine in this
  repository — including the GEM interpreter, which therefore gains
  4-state simulation with zero kernel changes;
* :mod:`repro.fourstate.fastpath` — ``values=4`` on the fast engines:
  :func:`compile_fourstate` runs the dual-rail transform through the
  full GEM compile so the packed-lane / stage-fused / backend-compiled
  paths execute both rails natively (``gem run --values 4``).
"""

from repro.fourstate.dualrail import DualRailCircuit, to_dual_rail
from repro.fourstate.fastpath import SUPPORTED_VALUES, compile_fourstate, validate_values
from repro.fourstate.semantics import X, FourState
from repro.fourstate.sim import FourStateSim

__all__ = [
    "DualRailCircuit",
    "FourState",
    "FourStateSim",
    "SUPPORTED_VALUES",
    "X",
    "compile_fourstate",
    "to_dual_rail",
    "validate_values",
]
