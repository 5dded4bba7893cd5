"""Co-simulation: the one lockstep loop, and the reports built on it.

:func:`lockstep` is the only place where two or more engines are driven
over one stimulus stream: a reference and any number of devices under
test, a block of cycles at a time, each through its own ``run`` /
``run_lanes``.  Whole blocks are compared with ``==``; only a block that
differs is searched for the *first* divergence, by one rule
(:func:`first_site`).  Everything that checks engines against each other
is a caller: :func:`cosim` (``gem cosim``, the examples) reports the site
with its input history, the fuzz oracle's phases
(:func:`repro.fuzz.oracle.run_oracle`) turn it into a
:class:`~repro.fuzz.oracle.FuzzDivergence`, the test helper asserts on
it.  The resilience supervisor is not a caller: it compares state
digests, not outputs, and owes its fault hook a call per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

#: cycles per block when no participant declares a ``block_cycles`` of its own
BLOCK_CYCLES = 256

#: preceding input vectors a :class:`Divergence` report retains
HISTORY = 4


def output_mismatches(
    ref_out: Mapping[str, int],
    dut_out: Mapping[str, int],
    signals: Sequence[str] | None = None,
) -> dict[str, tuple[int, int]]:
    """Signals on which two engines' outputs disagree this cycle: of
    ``signals`` if given, else of every output both engines produce."""
    watch = signals if signals is not None else sorted(set(ref_out) & set(dut_out))
    return {
        name: (ref_out.get(name), dut_out.get(name))
        for name in watch
        if ref_out.get(name) != dut_out.get(name)
    }


def lane_outputs(columns: Mapping[str, Sequence[int]], lane: int) -> dict[str, int]:
    """One lane's output dict out of per-output columns."""
    return {name: int(column[lane]) for name, column in columns.items()}


@dataclass
class Site:
    """Where a device under test first disagrees with the reference."""

    cycle: int
    #: the diverging participant's name in ``duts``
    dut: str
    #: stimulus lane (``None`` when every lane shares one stream)
    lane: int | None
    #: name -> (reference, dut), in the comparison domain
    signals: dict[str, tuple]


def _shared(row) -> bool:
    """Is this cycle one mapping every lane shares (``None``: all zero)?"""
    return row is None or isinstance(row, Mapping)


def _lane_row(row, lane: int):
    return row if _shared(row) else row[lane]


def first_site(
    ref_rows: Sequence,
    dut_rows: Mapping[str, Sequence],
    *,
    start: int = 0,
    signals: Sequence[str] | None = None,
    decode: Callable[[Mapping], Mapping] | None = None,
) -> Site | None:
    """The first divergence between recorded outputs, by the one rule:
    lowest cycle, then DUT in the order given, then lowest lane, then
    :func:`output_mismatches` — over ``decode(outputs)`` when the
    comparison domain is not the raw one, so outputs that differ raw and
    agree decoded are no divergence.  A row is one cycle: an output dict,
    or a list of per-lane dicts; row ``i`` is cycle ``start + i``.
    Recordings that compare ``==`` whole are not searched at all."""
    if all(rows == ref_rows for rows in dut_rows.values()):
        return None
    for index, ref_row in enumerate(ref_rows):
        for name, rows in dut_rows.items():
            if rows[index] == ref_row:
                continue
            lanes = not isinstance(ref_row, Mapping)
            pairs = zip(ref_row, rows[index]) if lanes else [(ref_row, rows[index])]
            for lane, (ref_out, dut_out) in enumerate(pairs):
                if ref_out == dut_out:
                    continue
                if decode is not None:
                    ref_out, dut_out = decode(ref_out), decode(dut_out)
                mismatches = output_mismatches(ref_out, dut_out, signals)
                if mismatches:
                    return Site(start + index, name, lane if lanes else None, mismatches)
    return None


def _engines(participant) -> Sequence:
    return participant if isinstance(participant, Sequence) else (participant,)


def _run(participant, block: Sequence, lanes: bool) -> list:
    """One block through one participant: a row of outputs per cycle."""
    if isinstance(participant, Sequence):  # one single-instance engine per lane
        per_lane = (
            engine.run([_lane_row(row, lane) for row in block])
            for lane, engine in enumerate(participant)
        )
        return [list(outs) for outs in zip(*per_lane)]
    return participant.run_lanes(block) if lanes else participant.run(block)


def lockstep(
    reference,
    duts: Mapping[str, object],
    stimuli: Iterable,
    *,
    start: int = 0,
    signals: Sequence[str] | None = None,
    decode: Callable[[Mapping], Mapping] | None = None,
) -> tuple[Site | None, list]:
    """Drive ``reference`` and every DUT over ``stimuli``, a block at a time.

    A participant is one engine, or a sequence of single-instance
    engines, one per lane, each fed its lane's stream.  A cycle of
    stimulus is one mapping every lane shares or a sequence of per-lane
    mappings (what ``GemInterpreter.run_lanes`` accepts); with a per-lane
    reference or any per-lane cycle, outputs are compared lane by lane
    (single engines through ``run_lanes``), otherwise as one dict per
    cycle (``run``).  The stream is cut into blocks of the smallest
    ``block_cycles`` any participant declares (:data:`BLOCK_CYCLES` when
    none does) and every participant runs a block in one call.

    Returns ``(site, trace)``: the first divergence (:func:`first_site`;
    cycles count from ``start``, so a caller that cuts a stream keeps
    them absolute) or ``None``, and the reference's outputs, a row per
    cycle.  The run stops at the end of the block that diverged — every
    participant stands on that boundary, and ``trace`` ends there.
    """
    stimuli = list(stimuli)
    lanes = isinstance(reference, Sequence) or not all(map(_shared, stimuli))
    declared = (
        getattr(engine, "block_cycles", None)
        for participant in (reference, *duts.values())
        for engine in _engines(participant)
    )
    size = min(filter(None, declared), default=BLOCK_CYCLES)
    trace: list = []
    for lo in range(0, len(stimuli), size):
        block = stimuli[lo : lo + size]
        ref_rows = _run(reference, block, lanes)
        dut_rows = {name: _run(dut, block, lanes) for name, dut in duts.items()}
        trace += ref_rows
        site = first_site(ref_rows, dut_rows, start=start + lo, signals=signals, decode=decode)
        if site is not None:
            return site, trace
    return None, trace


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

    divergence: Divergence | None = None
    #: the reference's outputs, a row per simulated cycle
    trace: list = field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Cycles simulated: all of them, or up to the end of the diverging block."""
        return len(self.trace)

    @property
    def passed(self) -> bool:
        return self.divergence is None

    def report(self) -> str:
        if self.passed:
            return f"PASS: {self.cycles} cycles, outputs identical"
        return f"FAIL after {self.divergence.cycle + 1} cycles\n" + self.divergence.describe()


def cosim(
    reference,
    dut,
    stimuli: Iterable,
    signals: Sequence[str] | None = None,
) -> CosimResult:
    """Run ``reference`` and ``dut`` in lockstep and report the first
    divergence with the inputs that led to it.

    With one reference engine, ``stimuli`` is a stream of input mappings.
    With a sequence of references — one single-instance engine per lane
    of a batched ``dut`` — it is one such stream per lane, all of one
    length: every packed lane is certified against an independently
    driven golden run, and the report names the offending lane.
    ``signals`` restricts the comparison (default: every output both
    engines produce).
    """
    if isinstance(reference, Sequence):
        streams = [list(stream) for stream in stimuli]
        if len(streams) != len(reference):
            raise ValueError(f"{len(reference)} reference lanes need as many stimulus streams")
        if len({len(stream) for stream in streams}) > 1:
            raise ValueError("all lane stimulus streams must have the same length")
        stimuli = [list(vecs) for vecs in zip(*streams)]
    else:
        stimuli = list(stimuli)
    site, trace = lockstep(reference, {"dut": dut}, stimuli, signals=signals)
    result = CosimResult(trace=trace)
    if site is not None:
        history = stimuli[max(0, site.cycle - HISTORY) : site.cycle + 1]
        *recent, inputs = (dict(_lane_row(row, site.lane) or {}) for row in history)
        result.divergence = Divergence(
            cycle=site.cycle,
            signals=site.signals,
            inputs=inputs,
            recent_inputs=recent,
            lane=site.lane,
        )
    return result


def cosim_vcd(reference, dut, vcd_path: str, signals: Sequence[str] | None = None) -> CosimResult:
    """Co-simulate with stimuli replayed from a VCD file."""
    from repro.waveform.vcd import read_vcd_stimuli

    return cosim(reference, dut, read_vcd_stimuli(vcd_path), signals)


def dump_response_vcd(
    engine,
    stimuli: Sequence[Mapping[str, int]],
    path: str,
    widths: Mapping[str, int],
    module: str = "dut",
) -> int:
    """Run ``engine`` over ``stimuli`` and dump its outputs as a VCD."""
    from repro.waveform.vcd import VcdWriter

    outputs = engine.run(stimuli)
    with open(path, "w", encoding="ascii") as f:
        if outputs:
            known = {k: widths[k] for k in widths if k in outputs[0]}
            writer = VcdWriter(f, known, module=module)
            for outs in outputs:
                writer.sample(outs)
            writer.close()
    return len(outputs)
