"""4-state execution on the fast engines: the dual-rail fast path.

The seed's 4-state support ran only on the slow word-level reference
(:class:`~repro.fourstate.sim.FourStateSim`).  This module brings X/Z
semantics to the packed-lane and stage-fused engines by compiling the
dual-rail transform (:func:`~repro.fourstate.dualrail.to_dual_rail`)
through the regular GEM flow: every state element of the original design
becomes a *pair* of state elements — a value rail and a known rail — and
the unmodified virtual Boolean machine executes both at full speed, lane
planes, stage fusion, compiled backends, quarantine and checkpoints
included.

Why the transform rather than gate-wise engine changes: the 4-state
reference is *word-level* (word-pessimistic arithmetic, per-bit mux
agree-merge), and the synthesized AND-DAG is structurally different from
the word netlist — gate-wise pessimistic x-prop over the fused waves
would not match the reference.  The dual-rail circuit matches it by
construction (pinned bit-for-bit, X-for-X in tests/test_fourstate.py),
so fused const-folding (XOR-by-const polarity flips, OR-const-1
annihilation) stays a sound 2-state rewrite of an already-correct
4-state network.

Entry points::

    design = compile_fourstate(circuit)        # CompiledDesign, values=4
    sim = design.simulator(batch=64)           # FourStateSimulator
    sim.step({"en": 1})                        # raw rails (name + name__x)
    sim.step4({"en": FourState(0, 1, 1)})      # 4-state words in and out
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.engine import SUPPORTED_VALUES, validate_values  # noqa: F401
from repro.core.interpreter import GemInterpreter
from repro.fourstate.dualrail import DualRailCircuit, to_dual_rail
from repro.fourstate.semantics import FourState

if TYPE_CHECKING:
    from repro.core.compiler import CompiledDesign, GemConfig
    from repro.rtl.ir import Circuit


def compile_fourstate(
    circuit: "Circuit",
    config: "GemConfig | None" = None,
    *,
    x_reset: bool = True,
    x_memory: bool = True,
) -> "CompiledDesign":
    """Compile ``circuit`` for 4-state execution on the fast engines.

    Applies the dual-rail transform, runs the full GEM compile on the
    resulting 2-state circuit, and returns a :class:`CompiledDesign`
    whose :meth:`~repro.core.compiler.CompiledDesign.simulator` builds
    :class:`FourStateSimulator` instances.  ``x_reset=False`` powers
    registers up at their declared init values — the mode in which a
    fully-known-input run is bit-identical to the 2-state engine.
    """
    from repro.core.compiler import GemCompiler

    dual = to_dual_rail(circuit, x_reset=x_reset, x_memory=x_memory)
    design = GemCompiler(config).compile(dual.circuit)
    design.fourstate = dual
    return design


def _encode_stimulus(
    dual: DualRailCircuit, vec: Mapping[str, "int | FourState"]
) -> dict[str, int]:
    """One stimulus dict -> dual-rail input dict.

    Accepts original input names carrying ints or :class:`FourState`
    words, *and* pre-encoded rail names (``name__x`` unknown masks ride
    through untouched, taking precedence over the implicit 0 mask of a
    plain-int value) — the representation ``.gemrepro`` stimuli use.
    """
    data: dict[str, int] = {}
    masks: dict[str, int] = {}
    for name, value in vec.items():
        rails = dual.input_rails.get(name)
        if rails is None:
            # An explicit rail name (an __x mask, or an input the
            # transform does not know): pass through verbatim.
            masks[name] = value
            continue
        d_name, x_name = rails
        if isinstance(value, FourState):
            data[d_name] = value.data
            masks[x_name] = value.unknown
        else:
            data[d_name] = value  # the pack layer holds it to the integer rule
            masks.setdefault(x_name, 0)
    data.update(masks)  # explicit masks win over implicit known-0
    return data


class FourStateSimulator(GemInterpreter):
    """The executor over a dual-rail program, with 4-state encode/decode.

    Constructed via ``CompiledDesign.simulator()`` on a design compiled
    with :func:`compile_fourstate`.  ``step`` / ``step_lanes`` /
    checkpoints / probes / quarantine behave exactly like the 2-state
    engine over the dual-rail program, except stimuli are encoded first,
    so plain-int vectors, ``FourState`` words, and pre-encoded ``name__x``
    masks all work.  The ``*4`` variants decode outputs back to
    :class:`FourState` words.  Mixed in ahead of another interpreter (the
    fuzz oracle does so with the reference one) it grafts the same
    encoding onto that engine.
    """

    values = 4

    def __init__(self, program, dual: DualRailCircuit, **kwargs) -> None:
        self.dual = dual
        super().__init__(program, **kwargs)

    def _encode(self, vec) -> dict[str, int]:
        """The dict adapter's hook: step / step_lanes / advance_lanes /
        run / run_lanes all accept 4-state stimuli; step_arrays takes
        raw rail columns as they are."""
        return _encode_stimulus(self.dual, vec or {})

    # -- 4-state API ------------------------------------------------------

    def step4(self, inputs=None) -> dict[str, FourState]:
        return self.dual.decode_outputs(self.step(inputs))

    def step_lanes4(
        self, lane_inputs: Sequence[Mapping[str, object]]
    ) -> list[dict[str, FourState]]:
        self.advance_lanes(lane_inputs)
        return self.outputs_lanes4()

    def outputs4(self) -> dict[str, FourState]:
        return self.dual.decode_outputs(self.outputs())

    def outputs_lanes4(self) -> list[dict[str, FourState]]:
        """Every lane's outputs as 4-state words, decoded per PO
        column from :meth:`outputs_arrays` (no per-lane rail dicts)."""
        rails = self.outputs_arrays()
        columns = {
            name: [
                FourState(data, unknown, self.dual.output_widths[name])
                for data, unknown in zip(rails[d_name].tolist(), rails[x_name].tolist())
            ]
            for name, (d_name, x_name) in self.dual.output_rails.items()
        }
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    def unknown_output_bits(self, lane: int = 0) -> int:
        """Total X bits visible on lane ``lane``'s outputs."""
        rails = self.outputs_arrays()
        return sum(
            int(rails[x_name][lane]).bit_count()
            for _, x_name in self.dual.output_rails.values()
        )
