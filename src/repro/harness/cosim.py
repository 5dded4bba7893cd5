"""Co-simulation: run two engines in lockstep and localize divergence.

The workflow every simulator project needs around itself: drive a
reference engine and a device-under-test engine (any two objects with
``step(inputs) -> outputs``) with the same stimuli — from a list or from a
VCD file — and either certify agreement or report the *first* diverging
cycle with the mismatching signals, recent input history, and an optional
response waveform dump for offline debugging.

Used by ``gem cosim`` (CLI) and the examples; the GEM-vs-golden
equivalence tests are the same loop with asserts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np


class Steppable(Protocol):
    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]: ...


class LaneSteppable(Protocol):
    """A batched engine advancing many stimulus lanes per step, read back
    as one ``(batch,)`` column per output
    (:meth:`repro.core.interpreter.GemInterpreter.advance_lanes` /
    :meth:`~repro.core.interpreter.GemInterpreter.outputs_arrays`)."""

    def advance_lanes(
        self, inputs: Mapping[str, int] | Sequence[Mapping[str, int]] | None = None
    ) -> None: ...

    def outputs_arrays(self) -> dict[str, np.ndarray]: ...


def output_mismatches(
    ref_out: Mapping[str, int],
    dut_out: Mapping[str, int],
    signals: Sequence[str] | None = None,
) -> dict[str, tuple[int, int]]:
    """Signals on which two engines' outputs disagree this cycle.

    The comparison kernel of the cosim loop, exposed on its own so other
    lockstep consumers (the resilience supervisor's scrubber) apply the
    identical rule: compare ``signals`` if given, else every output both
    engines produce.
    """
    watch = signals if signals is not None else sorted(set(ref_out) & set(dut_out))
    return {
        name: (ref_out.get(name), dut_out.get(name))
        for name in watch
        if ref_out.get(name) != dut_out.get(name)
    }


def divergent_lanes(
    ref_cols: Mapping[str, Sequence[int]],
    dut_cols: Mapping[str, np.ndarray],
    signals: Sequence[str] | None = None,
) -> list[int]:
    """Lanes on which two engines' per-output columns disagree, ascending.

    The lane-batched form of :func:`output_mismatches`, same rule: one
    ``!=`` per output over all lanes at once, so lockstep consumers build
    per-lane dicts (:func:`lane_outputs`) for a divergent lane only.
    """
    watch = signals if signals is not None else ref_cols.keys() & dut_cols.keys()
    differ: np.ndarray | bool = False
    for name in watch:
        ref, dut = ref_cols.get(name), dut_cols.get(name)
        if ref is None or dut is None:
            if ref is dut:
                continue
            # a watched signal only one engine produces: every lane differs
            return list(range(len(dut if ref is None else ref)))
        differ = differ | (np.asarray(ref, dtype=dut.dtype) != dut)
    return np.flatnonzero(differ).tolist()


def lane_outputs(columns: Mapping[str, Sequence[int]], lane: int) -> dict[str, int]:
    """One lane's output dict out of per-output columns."""
    return {name: int(column[lane]) for name, column in columns.items()}


@dataclass
class Divergence:
    """First point where the two engines disagree."""

    cycle: int
    signals: dict[str, tuple[int, int]]  # name -> (reference, dut)
    inputs: dict[str, int]
    recent_inputs: list[dict[str, int]]
    #: stimulus lane that diverged (``None`` for single-instance cosim)
    lane: int | None = None

    def describe(self) -> str:
        where = f" (lane {self.lane})" if self.lane is not None else ""
        lines = [f"first divergence at cycle {self.cycle}{where}:"]
        for name, (ref, dut) in sorted(self.signals.items()):
            lines.append(f"  {name}: reference={ref:#x} dut={dut:#x}")
        lines.append(f"  inputs that cycle: {self.inputs}")
        if self.recent_inputs:
            lines.append(f"  previous {len(self.recent_inputs)} input vectors:")
            for i, vec in enumerate(self.recent_inputs):
                lines.append(f"    t-{len(self.recent_inputs) - i}: {vec}")
        return "\n".join(lines)


@dataclass
class CosimResult:
    """Outcome of a co-simulation run."""

    cycles: int
    divergence: Divergence | None = None
    #: per-cycle reference outputs (kept only when recording is on)
    trace: list[dict[str, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.divergence is None

    def report(self) -> str:
        if self.passed:
            return f"PASS: {self.cycles} cycles, outputs identical"
        return f"FAIL after {self.divergence.cycle + 1} cycles\n" + self.divergence.describe()


def cosim(
    reference: Steppable,
    dut: Steppable,
    stimuli: Iterable[Mapping[str, int]],
    signals: Sequence[str] | None = None,
    stop_on_divergence: bool = True,
    history: int = 4,
    record_trace: bool = False,
) -> CosimResult:
    """Run ``reference`` and ``dut`` in lockstep.

    ``signals`` restricts the comparison (default: every output both
    engines produce).  ``history`` controls how many preceding input
    vectors the divergence report retains.
    """
    recent: list[dict[str, int]] = []
    result = CosimResult(cycles=0)
    for cycle, vec in enumerate(stimuli):
        vec = dict(vec)
        ref_out = reference.step(vec)
        dut_out = dut.step(vec)
        mismatches = output_mismatches(ref_out, dut_out, signals)
        if record_trace:
            result.trace.append(ref_out)
        result.cycles = cycle + 1
        if mismatches and result.divergence is None:
            result.divergence = Divergence(
                cycle=cycle,
                signals=mismatches,
                inputs=vec,
                recent_inputs=list(recent),
            )
            if stop_on_divergence:
                return result
        recent.append(vec)
        if len(recent) > history:
            recent.pop(0)
    return result


def cosim_lanes(
    reference_factory: "Callable[[], Steppable]",
    dut: LaneSteppable,
    lane_stimuli: Sequence[Sequence[Mapping[str, int]]],
    signals: Sequence[str] | None = None,
    stop_on_divergence: bool = True,
    history: int = 4,
) -> CosimResult:
    """Lane-batched cosim: B independent stimulus streams, one DUT.

    The DUT advances every lane with a single ``advance_lanes`` call per
    cycle while ``reference_factory()`` builds one fresh single-instance
    reference per lane, stepped with that lane's own stimuli — so each
    packed lane of the batched engine is certified against an
    independently-driven golden run.  Lanes are compared column-wise
    (:func:`divergent_lanes`); the divergence report carries the
    offending lane.
    """
    lanes = len(lane_stimuli)
    result = CosimResult(cycles=0)
    if lanes == 0:
        return result
    length = len(lane_stimuli[0])
    if any(len(stream) != length for stream in lane_stimuli):
        raise ValueError("all lane stimulus streams must have the same length")
    refs = [reference_factory() for _ in range(lanes)]
    recent: deque[list[dict[str, int]]] = deque(maxlen=history)
    for cycle in range(length):
        vecs = [dict(stream[cycle]) for stream in lane_stimuli]
        dut.advance_lanes(vecs)
        dut_cols = dut.outputs_arrays()
        ref_outs = [ref.step(vec) for ref, vec in zip(refs, vecs)]
        result.cycles = cycle + 1
        if result.divergence is None:
            ref_cols = {name: [out[name] for out in ref_outs] for name in ref_outs[0]}
            diverged = divergent_lanes(ref_cols, dut_cols, signals)
            if diverged:
                lane = diverged[0]
                result.divergence = Divergence(
                    cycle=cycle,
                    signals=output_mismatches(
                        ref_outs[lane], lane_outputs(dut_cols, lane), signals
                    ),
                    inputs=vecs[lane],
                    recent_inputs=[past[lane] for past in recent],
                    lane=lane,
                )
                if stop_on_divergence:
                    return result
        recent.append(vecs)
    return result


def cosim_vcd(
    reference: Steppable,
    dut: Steppable,
    vcd_path: str,
    **kwargs,
) -> CosimResult:
    """Co-simulate with stimuli replayed from a VCD file."""
    from repro.waveform.vcd import read_vcd_stimuli

    return cosim(reference, dut, read_vcd_stimuli(vcd_path), **kwargs)


def dump_response_vcd(
    engine: Steppable,
    stimuli: Sequence[Mapping[str, int]],
    path: str,
    widths: Mapping[str, int],
    module: str = "dut",
) -> int:
    """Run ``engine`` over ``stimuli`` and dump its outputs as a VCD."""
    from repro.waveform.vcd import VcdWriter

    count = 0
    with open(path, "w", encoding="ascii") as f:
        writer = None
        for vec in stimuli:
            outs = engine.step(vec)
            if writer is None:
                known = {k: widths[k] for k in widths if k in outs}
                writer = VcdWriter(f, known, module=module)
            writer.sample(outs)
            count += 1
        if writer is not None:
            writer.close()
    return count
