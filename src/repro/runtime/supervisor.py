"""Self-healing supervised execution: the recovery ladder as a table.

:class:`Supervisor` steps a primary interpreter and a redundant shadow in
lockstep, compares their state digests every ``scrub_every`` cycles,
captures a recovery point every ``checkpoint_every`` cycles, and hands
every :class:`~repro.errors.GemError` — a scrub mismatch, an expired
:class:`~repro.runtime.watchdog.Deadline`, an engine error — to
:func:`decide`, which is the whole policy (docs/RESILIENCE.md §1 states
it row by row).  What the table does not say:

* Every transition goes through :meth:`_Run.emit`, which derives from
  :data:`KINDS` its line in :attr:`SupervisedRun.events`, its
  ``gem_supervisor_*_total`` counter and its ``supervisor.*`` instant.
* In memory a run rolls back to copies of :class:`SimState`;
  :class:`~repro.runtime.checkpoint.Checkpoint` is for what crosses a
  process boundary (``checkpoint_dir``, ``resume_from``).
* The lanes a run has given up on are recorded in
  :attr:`SimState.quarantined` and nowhere else, and ``SimState.assign``
  keeps them zero across a rollback.  Lanes are architecturally
  independent (own bit plane, own RAM rows): zeroing one cannot perturb
  another.
* Backoff sleeps apart, the supervisor is deterministic: a recovered
  run's outputs are bit-identical to an undisturbed run's, a run that
  quarantined lane L is so *on the healthy lanes*, and a degraded run
  returns the gate-level reference's outputs.
"""

from __future__ import annotations

import collections
import functools
import logging
import time
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.compiler import CompiledDesign
from repro.core.interpreter import GemInterpreter, SimState
from repro.errors import (
    CheckpointError,
    GemError,
    GemTimeoutError,
    LaneDivergenceError,
    StateCorruptionError,
)
from repro.harness import cosim
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.runtime.checkpoint import Checkpoint, CheckpointManager, restore
from repro.runtime.watchdog import Deadline

logger = logging.getLogger(__name__)


def state_digest(interp: GemInterpreter) -> int:
    """CRC32 over everything a run can change (:meth:`SimState.digest`)."""
    return interp.state.digest()


def state_digest_lanes(interp: GemInterpreter) -> list[int]:
    """One digest per lane, the localization primitive
    (:meth:`SimState.digest_lanes`): paid only once a whole-state digest
    mismatched."""
    return interp.state.digest_lanes(interp.engine)


# -- the policy ----------------------------------------------------------------


@dataclass(kw_only=True)
class Policy:
    """The ladder's constants (:func:`decide`'s third input; a
    :class:`Supervisor` is its own)."""

    #: consecutive recovery attempts without forward progress before degrading
    max_retries: int = 3
    #: consecutive attempts the *same* lane diverges in before it is
    #: quarantined (2 keeps one-shot transients on the cheap retry path)
    quarantine_after: int = 2
    #: stimulus lanes per state word (docs/ENGINE.md): the same stimuli drive
    #: every lane of both engines, and the result carries every lane's stream
    batch: int = 1
    #: ``"redundant"``: a lockstep second interpreter whose full state digest
    #: is compared at every scrub — what detects a fault and pins it to
    #: lanes; ``None``: no detection
    shadow: str | None = "redundant"
    #: seconds before the first retry (0 keeps tests and campaigns fast),
    #: doubled per consecutive attempt up to the cap
    backoff_base: float = 0.0
    backoff_cap: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before recovery attempt ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))

    def lanes_of(self, fault: GemError) -> tuple[int, ...]:
        """The lanes ``fault`` is pinned to, where the run can act on that."""
        if isinstance(fault, LaneDivergenceError) and self.shadow and self.batch > 1:
            return fault.lanes
        return ()


@dataclass(frozen=True)
class Ledger:
    """What a run remembers when a fault arrives (:func:`decide`'s second
    input), the fault itself already charged to it."""

    #: recovery attempts since the run last got further than ever before
    consecutive: int = 0
    #: lane -> attempts in a row it diverged in
    streaks: Mapping[int, int] = field(default_factory=dict)
    #: lanes already given up on
    quarantined: frozenset[int] = frozenset()
    #: the deadline would grant another, tighter retry
    can_extend: bool = False


@dataclass(frozen=True)
class Action:
    """What to do about a fault: ``retry`` after ``delay`` seconds,
    ``tighten`` the deadline and retry, ``quarantine`` ``lanes`` and retry,
    or ``degrade`` for ``reason`` (a key of :data:`DEGRADE_REASONS`; with
    ``lanes`` when the last healthy lanes are what diverged)."""

    kind: str
    delay: float = 0.0
    lanes: tuple[int, ...] = ()
    reason: str = ""


#: why a run gives up on the GEM engine, and how its event line says so
DEGRADE_REASONS = {
    "retries-exhausted": "no forward progress after {max_retries} retries",
    "grace-exhausted": "deadline grace exhausted",
    "every-lane-quarantined": "every lane quarantined",
}


def decide(fault: GemError, ledger: Ledger, policy: Policy) -> Action:
    """The recovery ladder: pure, total, one row per ``return``."""
    if isinstance(fault, GemTimeoutError):
        if ledger.can_extend:
            return Action("tighten")
        return Action("degrade", reason="grace-exhausted")
    persistent = tuple(
        lane
        for lane in sorted(policy.lanes_of(fault))
        if ledger.streaks.get(lane, 0) >= policy.quarantine_after
        and lane not in ledger.quarantined
    )
    if persistent:
        if len(ledger.quarantined.union(persistent)) >= policy.batch:
            return Action("degrade", lanes=persistent, reason="every-lane-quarantined")
        # containment is forward progress: the attempt count starts over
        return Action("quarantine", delay=policy.backoff(1), lanes=persistent)
    if ledger.consecutive > policy.max_retries:
        return Action("degrade", reason="retries-exhausted")
    return Action("retry", delay=policy.backoff(ledger.consecutive))


# -- the record ----------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """What one kind of transition writes; :meth:`_Run.emit` derives all of it."""

    #: its line in :attr:`SupervisedRun.events` (``str.format`` over the cycle
    #: and the detail).  A kind with a line is kept in the run's record; one
    #: without is periodic or implied by its neighbours: counted, not kept.
    event: str | None
    #: the counter it bumps, and that counter's help text
    counter: str | None = None
    help: str = ""
    #: the detail keys its ``supervisor.<kind>`` trace instant carries beside
    #: the cycle (``None``: no instant)
    instant: tuple[str, ...] | None = None
    #: the line is also logged at WARNING
    warn: bool = False


KINDS = {
    "resume": Kind("resumed from checkpoint at cycle {cycle}"),
    "deadline": Kind("deadline armed: {budget}"),
    "scrub": Kind(
        None, "gem_supervisor_scrubs_total", "integrity scrubs performed by the supervisor", ()
    ),
    "recovery_point": Kind(
        None, "gem_supervisor_recovery_points_total", "in-memory rollback targets captured", ()
    ),
    "save_failed": Kind(
        "checkpoint save failed at cycle {cycle}: {error}",
        "gem_checkpoint_save_failures_total", "on-disk checkpoint writes that failed", warn=True,
    ),
    "fault": Kind(
        "cycle {cycle}: {error}: {message}",
        "gem_supervisor_faults_detected_total", "faults caught by scrubbing or engine errors",
        ("error",), warn=True,
    ),
    "timeout": Kind(
        None, "gem_supervisor_timeouts_total", "watchdog deadline expiries hit by supervised runs"
    ),
    "retry": Kind(None, "gem_supervisor_retries_total", "recovery attempts (rollback + replay)"),
    "quarantine": Kind(
        "quarantined lane(s) {lanes} after {after} consecutive divergences",
        "gem_supervisor_quarantined_lanes_total",
        "stimulus lanes quarantined for persistent divergence", ("lanes",),
    ),
    "rollback": Kind(
        "rolled back to checkpoint at cycle {cycle} {how}",
        "gem_supervisor_rollbacks_total", "rollbacks to the last good recovery point", (),
    ),
    "degrade": Kind(
        "{why}; degrading to simref gate-level engine",
        "gem_supervisor_degraded_total", "runs degraded to the gate-level fallback",
        ("retries", "faults"),
    ),
    "probe_detached": Kind("probe tap detached: degraded to gate-level fallback"),
}


@dataclass(frozen=True)
class Transition:
    """One step of the ladder: a key of :data:`KINDS`, the cycle it happened
    at, and the rest.  A ``fault`` carries the error class, its lanes, the
    furthest cycle the run had completed (``high_water``) and the
    :class:`Action` decided on it."""

    kind: str
    cycle: int
    detail: dict

    @property
    def text(self) -> str:
        """The transition's line in :attr:`SupervisedRun.events`."""
        shown = {
            key: ", ".join(map(str, value)) if isinstance(value, list) else value
            for key, value in self.detail.items()
        }
        return KINDS[self.kind].event.format(cycle=self.cycle, **shown)


#: per-lane outcome classes, in increasing order of damage
LANE_OUTCOMES = ("ok", "recovered", "quarantined", "degraded")


@dataclass
class SupervisedRun:
    """Outcome of a supervised execution."""

    outputs: list[dict[str, int]]
    cycles: int
    engine: str  # "gem" or "simref"
    degraded: bool
    retries: int
    faults_detected: int
    checkpoints_written: int
    #: what the ladder did, in order
    transitions: list[Transition] = field(default_factory=list)
    #: primary engine's inject/gather/fold/commit wall seconds, aggregated
    #: across every attempt (rollbacks included) — zeros unless profiled
    phase_times: dict[str, float] = field(default_factory=dict)
    #: stimulus lanes executed per cycle (1 = single-instance run)
    lanes: int = 1
    #: per cycle, one ``(lanes,)`` column per output — of a lane-batched run
    #: that ended on the GEM engine (``outputs`` is lane 0's stream always)
    lane_columns: list[dict[str, np.ndarray]] | None = None
    #: deadline expiries recovered from or degraded on
    timeouts: int = 0
    #: lanes masked out of the batch by the quarantine policy
    quarantined_lanes: list[int] = field(default_factory=list)
    #: lane -> one of :data:`LANE_OUTCOMES`
    lane_outcomes: dict[int, str] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        return not self.degraded

    @property
    def events(self) -> list[str]:
        return [transition.text for transition in self.transitions]

    def lane_stream(self, lane: int) -> list[dict[str, int]]:
        """One lane's output stream.  Lanes all see the same broadcast
        stimuli, so the single-instance stream of a degraded (or batch 1)
        run stands in for every lane."""
        if self.lane_columns is None:
            return self.outputs
        return [cosim.lane_outputs(columns, lane) for columns in self.lane_columns]

    @property
    def lane_outputs(self) -> list[list[dict[str, int]]] | None:
        """Per cycle, per lane output dicts (``None`` at batch 1): the edge
        adapter over :meth:`lane_stream`, built on demand."""
        if self.lanes == 1:
            return None
        return [list(row) for row in zip(*map(self.lane_stream, range(self.lanes)))]

    def report(self) -> str:
        status = "DEGRADED (simref fallback)" if self.degraded else "OK"
        lines = [
            f"supervised run: {self.cycles} cycles on {self.engine} [{status}]",
            f"  faults detected: {self.faults_detected}  retries: {self.retries}  "
            f"timeouts: {self.timeouts}  checkpoints: {self.checkpoints_written}",
        ]
        if self.quarantined_lanes:
            lanes = ", ".join(str(lane) for lane in self.quarantined_lanes)
            lines.append(f"  quarantined lanes: {lanes} (of {self.lanes})")
        lines.extend(f"  {event}" for event in self.events)
        return "\n".join(lines)


# -- the run -------------------------------------------------------------------


@dataclass
class _RecoveryPoint:
    """In-memory rollback target: both engines' states, how many outputs
    the run had produced, and the probe tap's state (rolled back with the
    engines, so the tap stream stays bit-identical to an undisturbed run's)."""

    primary: SimState
    shadow: SimState | None
    cursor: int
    probe: object | None


class _Run:
    """One supervised execution: the engines, the outputs so far, the
    recovery point, the ledger and the transition record."""

    def __init__(
        self, sup: Supervisor, stimuli: Iterable[Mapping[str, int]], resume: Checkpoint | None
    ) -> None:
        self.sup = sup
        self.stimuli = [dict(vec) for vec in stimuli]
        self.transitions: list[Transition] = []
        self.tally: collections.Counter[str] = collections.Counter()
        build = functools.partial(sup.design.simulator, batch=sup.batch, backend=sup.backend)
        self.primary = build(profile=sup.profile)
        # shares the primary's decode- and fusion-cache entries
        self.shadow = build() if sup.shadow else None
        self.start = 0
        if resume is not None:
            self.start = resume.cycle
            if self.start > len(self.stimuli):
                raise CheckpointError(
                    f"checkpoint cycle {self.start} is beyond the "
                    f"{len(self.stimuli)}-cycle stimulus"
                )
            for engine in self.engines:
                restore(engine, resume)
            self.emit("resume", self.start)
        if sup.probe is not None:
            # after the resume restore, so the tap's cycle counter picks up
            # the engine's (probe continuity across --resume)
            sup.probe.attach(self.primary)
        self.outputs: list[dict[str, int]] = []
        #: per cycle, every lane's outputs as columns (lane-batched runs)
        self.columns: list[dict[str, np.ndarray]] = []
        #: the gate-level replay's outputs, once the run has degraded
        self.fallback_outputs: list[dict[str, int]] | None = None
        # the ledger (Ledger is the view of it that decide reads)
        self.consecutive = 0
        self.streaks: dict[int, int] = {}
        self.high_water = self.start
        #: lanes that ever diverged: "recovered", unless quarantined later
        self.diverged: set[int] = set()
        self.mark()
        if sup.deadline is not None:
            sup.deadline.start()
            self.emit("deadline", self.start, budget=sup.deadline.describe())

    @property
    def engines(self) -> list[GemInterpreter]:
        return [self.primary] if self.shadow is None else [self.primary, self.shadow]

    @property
    def cycle(self) -> int:
        """Stimulus vectors consumed — the primary's own cycle count."""
        return self.primary.cycle

    @property
    def running(self) -> bool:
        return self.fallback_outputs is None and self.cycle < len(self.stimuli)

    def emit(self, kind: str, cycle: int, count: int = 1, **detail) -> None:
        """Record one transition and write what :data:`KINDS` says it writes."""
        spec = KINDS[kind]
        self.tally[kind] += 1
        if spec.event is not None:
            self.transitions.append(Transition(kind, cycle, detail))
            if spec.warn:
                logger.warning("supervised run: %s", self.transitions[-1].text)
        if spec.counter is not None:
            REGISTRY.counter(spec.counter, help=spec.help).inc(count)
        if spec.instant is not None and TRACER.enabled:
            args = {"cycle": cycle, **{key: detail[key] for key in spec.instant}}
            TRACER.instant(f"supervisor.{kind}", cat="supervisor", args=args)

    # -- forward ---------------------------------------------------------------

    def step(self) -> None:
        """One cycle: step, fault hook, deadline, scrub?, recovery point?"""
        sup = self.sup
        self.outputs.append(self._step(self.stimuli[self.cycle]))
        cycle = self.cycle
        if sup.deadline is not None:
            sup.deadline.note_cycles()
        if sup.fault_hook is not None:
            sup.fault_hook(self.primary, cycle)
        if sup.deadline is not None:
            sup.deadline.check()
        if sup.scrub_every and cycle % sup.scrub_every == 0:
            self.emit("scrub", cycle)
            self.scrub(cycle)
        if cycle > self.high_water:
            self.high_water = cycle
            self.consecutive = 0
            self.streaks.clear()
        if sup.checkpoint_every and cycle % sup.checkpoint_every == 0:
            self.mark()
            if sup.manager is not None:
                try:
                    sup.manager.save(self.primary)
                except OSError as exc:
                    # Losing one on-disk snapshot must not kill the run: the
                    # in-memory recovery point still stands and the journal
                    # still names the previous file.
                    self.emit("save_failed", cycle, error=str(exc))
            self.emit("recovery_point", cycle)

    def _step(self, vec: dict[str, int]) -> dict[str, int]:
        """Advance both engines one cycle; lane 0's outputs."""
        if self.sup.batch == 1:
            out = self.primary.step(vec)
        else:
            self.primary.advance_lanes(vec)
            self.columns.append(self.primary.outputs_arrays())
            out = cosim.lane_outputs(self.columns[-1], 0)
        if self.shadow is not None:
            self.shadow.advance_lanes(vec)
        return out

    def scrub(self, cycle: int) -> None:
        """Compare primary and shadow; a difference on a lane not yet given
        up on raises, naming the lanes where it can."""
        if self.shadow is None:
            return
        a, b = state_digest(self.primary), state_digest(self.shadow)
        if a == b:
            return
        written_off = self.primary.state.quarantined
        if self.sup.batch > 1:
            ours, theirs = state_digest_lanes(self.primary), state_digest_lanes(self.shadow)
            bad = [
                lane
                for lane in range(self.sup.batch)
                if lane not in written_off and ours[lane] != theirs[lane]
            ]
            if bad:
                raise LaneDivergenceError(
                    f"lane state diverged at cycle {cycle}: lane(s) {', '.join(map(str, bad))}",
                    lanes=bad,
                )
            if written_off:
                return  # the whole-word digest keeps tripping on a written-off lane
        raise StateCorruptionError(
            f"state digest mismatch at cycle {cycle}: {a:#010x} != shadow {b:#010x}"
        )

    def mark(self) -> None:
        """Make the current state the recovery point."""
        probe = self.sup.probe
        self.point = _RecoveryPoint(
            primary=self.primary.state.copy(),
            shadow=None if self.shadow is None else self.shadow.state.copy(),
            cursor=len(self.outputs),
            probe=None if probe is None else probe.snapshot(),
        )

    # -- backward --------------------------------------------------------------

    def charge(self, fault: GemError) -> Ledger:
        """Charge ``fault`` to the ledger; returns what :func:`decide` reads."""
        sup = self.sup
        if not isinstance(fault, GemTimeoutError):
            self.consecutive += 1
            for lane in sup.lanes_of(fault):
                self.streaks[lane] = self.streaks.get(lane, 0) + 1
                self.diverged.add(lane)
        return Ledger(
            consecutive=self.consecutive,
            streaks=self.streaks,
            quarantined=self.primary.state.quarantined,
            can_extend=sup.deadline is not None and sup.deadline.can_extend(),
        )

    def apply(self, fault: GemError, action: Action) -> None:
        """Carry out what :func:`decide` decided about ``fault``."""
        sup, cycle = self.sup, self.cycle
        self.emit(
            "fault",
            cycle,
            error=type(fault).__name__,
            message=str(fault),
            lanes=list(getattr(fault, "lanes", ())),
            high_water=self.high_water,
            action=action,
        )
        if isinstance(fault, GemTimeoutError):
            self.emit("timeout", cycle)
        if action.reason != "grace-exhausted":
            # an attempt counts even when it ends in degrade; a refused extension is none
            self.emit("retry", cycle)
        if action.lanes:
            self.consecutive = 0
            for engine in self.engines:
                engine.quarantine_lanes(action.lanes)
            lanes, after = list(action.lanes), sup.quarantine_after
            self.emit("quarantine", cycle, count=len(lanes), lanes=lanes, after=after)
        if action.kind == "degrade":
            self.degrade(cycle, action.reason)
        elif action.kind == "tighten":
            sup.deadline.extend()
            extension = f"{sup.deadline.extensions}/{sup.deadline.max_extensions}"
            self.rollback(f"under tightened deadline (extension {extension})")
        else:
            if action.delay > 0:
                sup.sleep_fn(action.delay)
            attempt = f"{self.consecutive}/{sup.max_retries}"
            self.rollback(f"(attempt {attempt}, backoff {action.delay:.2f}s)")

    def rollback(self, how: str) -> None:
        """Engines, outputs and probe tap back to the recovery point
        (quarantined lanes stay zero: :meth:`SimState.assign`)."""
        point = self.point
        for engine, state in zip(self.engines, (point.primary, point.shadow)):
            engine.state.assign(state, engine.engine)
        del self.outputs[point.cursor :]
        del self.columns[point.cursor :]
        if self.sup.probe is not None:
            self.sup.probe.restore(point.probe)
        self.emit("rollback", self.cycle, how=how)

    def degrade(self, cycle: int, reason: str) -> None:
        """Replay on the gate-level reference so results keep flowing."""
        from repro.simref.gate_sim import GateLevelSim

        why = DEGRADE_REASONS[reason].format(max_retries=self.sup.max_retries)
        retries, faults = self.tally["retry"], self.tally["fault"]
        self.emit("degrade", cycle, reason=reason, why=why, retries=retries, faults=faults)
        if self.sup.probe is not None:
            # The fallback replays outputs only; the tap stays on the (now
            # abandoned) primary, so flag it rather than silently truncate.
            self.sup.probe.detached_reason = "degraded to gate-level fallback"
            self.emit("probe_detached", cycle)
        # The gate-level engine cannot adopt interpreter state; it replays
        # from reset and the already-consumed prefix is discarded.
        fallback = GateLevelSim(self.sup.design.synth)
        self.fallback_outputs = [fallback.step(vec) for vec in self.stimuli][self.start :]

    def result(self) -> SupervisedRun:
        degraded = self.fallback_outputs is not None
        outputs = self.fallback_outputs if degraded else self.outputs
        lanes = self.sup.batch
        # a rollback rewinds state but not the wall-clock timers: these
        # aggregate every attempt
        phase_times = dict(self.primary.phase_times)
        if any(phase_times.values()):
            REGISTRY.publish_phase_times(phase_times)
        outcomes = dict.fromkeys(range(lanes), "degraded" if degraded else "ok")
        if not degraded:
            outcomes.update(dict.fromkeys(self.diverged, "recovered"))
        outcomes.update(dict.fromkeys(self.primary.quarantined_lanes, "quarantined"))
        return SupervisedRun(
            outputs=outputs,
            cycles=len(outputs),
            engine="simref" if degraded else "gem",
            degraded=degraded,
            retries=self.tally["retry"],
            faults_detected=self.tally["fault"],
            checkpoints_written=self.tally["recovery_point"],
            transitions=self.transitions,
            phase_times=phase_times,
            lanes=lanes,
            lane_columns=None if degraded or lanes == 1 else self.columns,
            timeouts=self.tally["timeout"],
            quarantined_lanes=self.primary.quarantined_lanes,
            lane_outcomes=outcomes,
        )


@dataclass(eq=False, repr=False)
class Supervisor(Policy):
    """Fault-tolerant driver around :class:`GemInterpreter` (every field but
    the design is keyword-only; docs/RESILIENCE.md §1)."""

    design: CompiledDesign
    _: KW_ONLY
    #: recovery-point period in cycles (``None``: only the start of the run)
    checkpoint_every: int | None = None
    #: also persist every recovery point here (enables cross-process ``--resume``)
    checkpoint_dir: str | None = None
    #: scrub period in cycles (``None``: only errors the engines raise are faults)
    scrub_every: int | None = 1
    backend: str | None = None
    #: run the primary's per-phase timers (:attr:`SupervisedRun.phase_times`)
    profile: bool = False
    #: how backoff waits: injectable, so tests pin the schedule without sleeping
    sleep_fn: Callable[[float], None] = time.sleep
    #: wall-second / executed-cycle budget, checked at every cycle boundary;
    #: single-use, so supply a fresh one per run
    deadline: Deadline | None = None
    #: instrumentation, called as ``hook(interp, cycle)`` after every committed
    #: cycle — fault injectors flip bits here
    fault_hook: Callable[[GemInterpreter, int], None] | None = None
    #: a :class:`repro.obs.probe.ProbeTap` on the primary for the whole run;
    #: marked detached on degrade (the fallback replays outputs only)
    probe: object | None = None

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.shadow not in ("redundant", None):
            raise ValueError(f"shadow must be 'redundant' or None, not {self.shadow!r}")
        # the supervisor keeps the period itself and calls save(), never maybe_save()
        self.manager = CheckpointManager(self.checkpoint_dir) if self.checkpoint_dir else None

    def run(
        self, stimuli: Iterable[Mapping[str, int]], resume_from: Checkpoint | None = None
    ) -> SupervisedRun:
        """Execute ``stimuli`` with scrubbing, checkpointing, and recovery.

        ``resume_from`` continues a previous run: the first
        ``resume_from.cycle`` stimulus vectors are treated as already
        consumed and outputs are produced for the remainder only.
        """
        run = _Run(self, stimuli, resume_from)
        while run.running:
            try:
                run.step()
            except GemError as exc:
                run.apply(exc, decide(exc, run.charge(exc), self))
        return run.result()
