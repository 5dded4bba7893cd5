"""Self-healing supervised execution (the resilience tentpole).

Long GPU campaigns fail in ways a bare ``run()`` loop cannot survive: a
soft error flips a bit of resident state, a run hangs and burns its
reservation, a checkpoint file is torn by a crash, the bitstream image
itself rots.  :class:`Supervisor` wraps the interpreter with the full
degradation ladder:

1. **detect** — periodic *scrubbing* compares the interpreter against a
   shadow engine stepped in lockstep.  Two shadow modes:

   * ``"redundant"`` (default): a second interpreter instance; the scrub
     compares full state digests (global state + RAM images), catching
     silent corruption even before it reaches an output;
   * any reference ``Steppable`` factory (word-level golden, gate-level
     simref): the scrub compares primary outputs against the reference
     with the exact comparison rule of the cosim loop
     (:func:`repro.harness.cosim.output_mismatches`).

   A cooperative :class:`~repro.runtime.watchdog.Deadline` (wall clock
   and/or executed-cycle budget) is checked at every cycle boundary, so
   a hang surfaces as :class:`~repro.errors.GemTimeoutError` — a fault
   class like any other.

2. **localize & quarantine** — in redundant-shadow lane-batched runs a
   divergence is narrowed to the specific lanes whose per-lane digests
   disagree (:func:`state_digest_lanes`).  A lane that keeps diverging
   across consecutive recovery attempts (``quarantine_after``) is
   *quarantined*: its bits are zeroed identically in primary and shadow
   (see :meth:`GemInterpreter.quarantine_lanes`) and excluded from all
   further scrubs, so the healthy lanes continue at full speed and stay
   bit-identical to an undisturbed run — lanes are architecturally
   independent (each has its own bit plane and RAM rows), so zeroing one
   cannot perturb another.

3. **retry** — on a detected fault the supervisor restores the last good
   checkpoint (periodic, CRC-verified, journaled, rotating — see
   :mod:`repro.runtime.checkpoint`), rewinds the shadow, re-applies any
   standing quarantine, truncates the output log and replays, with
   exponential backoff between attempts (injectable ``sleep_fn``).  A
   timeout retries under a *tightened* budget
   (:meth:`Deadline.extend`).

4. **degrade** — when faults persist past ``max_retries`` consecutive
   failed attempts (no forward progress), the deadline grace is
   exhausted, or quarantine has consumed every lane, the run falls back
   to the ``simref`` gate-level reference engine and replays the stimuli
   there, so results keep flowing; the result is flagged ``degraded``.

The supervisor is deterministic apart from backoff sleeps: a recovered
run produces bit-identical outputs to an undisturbed one, and a run
that quarantined lane L produces bit-identical outputs *on the healthy
lanes*.  Per-lane outcomes land on :attr:`SupervisedRun.lane_outcomes`
(``ok`` / ``recovered`` / ``quarantined`` / ``degraded``).
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.compiler import CompiledDesign
from repro.core.interpreter import GemInterpreter
from repro.errors import (
    CheckpointError,
    GemError,
    GemTimeoutError,
    LaneDivergenceError,
    StateCorruptionError,
)
from repro.harness.cosim import Steppable, output_mismatches
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.runtime.checkpoint import Checkpoint, CheckpointManager, restore, snapshot
from repro.runtime.watchdog import Deadline

logger = logging.getLogger(__name__)


def state_digest(interp: GemInterpreter) -> int:
    """CRC32 over everything a run can change (:meth:`SimState.digest`)."""
    return interp.state.digest()


def state_digest_lanes(interp: GemInterpreter) -> list[int]:
    """One digest per lane, the localization primitive (:meth:`SimState.digest_lanes`):
    paid only once a whole-state digest mismatched, or while lanes are
    quarantined (the whole-word digest is then unusable)."""
    return interp.state.digest_lanes(interp.engine)


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
    events: list[str] = field(default_factory=list)
    #: primary engine's inject/gather/fold/commit wall seconds, aggregated
    #: across every attempt (rollbacks included) — zeros unless profiled
    phase_times: dict[str, float] = field(default_factory=dict)
    #: stimulus lanes executed per cycle (1 = single-instance run)
    lanes: int = 1
    #: per-cycle, per-lane outputs when the run is lane-batched
    #: (``outputs`` then carries lane 0's stream for compatibility)
    lane_outputs: list[list[dict[str, int]]] | None = None
    #: deadline expiries recovered from or degraded on
    timeouts: int = 0
    #: lanes masked out of the batch by the quarantine policy
    quarantined_lanes: list[int] = field(default_factory=list)
    #: lane -> one of :data:`LANE_OUTCOMES` (empty for pre-lane callers)
    lane_outcomes: dict[int, str] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        return not self.degraded

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


@dataclass
class _RecoveryPoint:
    """In-memory rollback target: interpreter snapshot + shadow clone."""

    ckpt: Checkpoint
    shadow_state: object | None  # Checkpoint (redundant) or deepcopy (reference)
    outputs_len: int
    #: probe-tap state captured with the engine snapshot (None when no
    #: probe is attached) — restored together on rollback so the tap
    #: stream stays bit-identical to an undisturbed run
    probe_state: object | None = None


class Supervisor:
    """Fault-tolerant driver around :class:`GemInterpreter`.

    Parameters
    ----------
    design:
        The compiled design to execute.
    checkpoint_every:
        Snapshot period in cycles (``None`` disables periodic snapshots;
        recovery then rewinds to the start of the run).
    checkpoint_dir:
        When set, snapshots are also persisted to disk via
        :class:`CheckpointManager` (enables cross-process ``--resume``).
    scrub_every:
        Integrity-check period in cycles (``None`` disables scrubbing —
        only hard errors raised by the engines trigger recovery).
    shadow:
        ``"redundant"`` for a lockstep second interpreter with full state
        digest comparison, or a zero-argument factory returning a
        reference ``Steppable`` for output comparison, or ``None``.
    max_retries:
        Consecutive recovery attempts without forward progress before
        degrading to the gate-level fallback.
    backoff_base / backoff_cap:
        Exponential backoff between retries, in seconds
        (``backoff_base * 2**(attempt-1)``, clamped to ``backoff_cap``).
        The default base of 0 keeps tests and campaigns fast.
    sleep_fn:
        How backoff waits are performed (default :func:`time.sleep`);
        injectable so tests pin the backoff schedule without sleeping.
    quarantine_after:
        Consecutive recovery attempts in which the *same* lane diverges
        before that lane is quarantined (redundant shadow, ``batch > 1``
        only).  The default of 2 keeps one-shot transient faults on the
        cheap rollback/retry path and reserves quarantine for persistent
        lane-local faults.  Streaks reset on forward progress.
    deadline:
        A :class:`~repro.runtime.watchdog.Deadline` bounding the run in
        wall seconds and/or executed cycles, checked cooperatively at
        every cycle boundary.  Expiry is recovered like any other fault
        (rollback + retry under exponentially tightened grace), then
        degrades.  Deadlines are single-use: supply a fresh one per run.
    batch:
        Stimulus lanes packed per state word (docs/ENGINE.md).  With
        ``batch > 1`` the same stimuli drive every lane, the redundant
        shadow runs lane-batched in lockstep, and the result carries
        ``lane_outputs`` (per cycle, per lane) alongside the lane-0
        ``outputs`` stream.  Reference (non-redundant) shadows model a
        single instance and scrub lane 0's outputs only; the state-digest
        scrub of the redundant shadow covers every lane.
    profile:
        Enable the primary engine's per-phase timers; the aggregated
        inject/gather/fold/commit seconds (across every retry attempt)
        land on :attr:`SupervisedRun.phase_times` and in the metrics
        registry.
    fault_hook:
        Test/campaign instrumentation: called as ``hook(interp, cycle)``
        after every committed cycle — fault injectors flip bits here.
    fallback_factory:
        Factory for the degraded-mode engine; defaults to the simref
        gate-level simulator over the design's synthesis result.
    signals:
        Restrict output comparisons to these names (default: all shared).
    probe:
        Optional :class:`repro.obs.probe.ProbeTap`, attached to the
        primary engine for the whole run.  The tap's state rides along
        with every recovery point and is restored on rollback, so a
        recovered run's waveform/activity capture is bit-identical to an
        undisturbed run's; on degrade the tap is marked detached (the
        gate-level fallback replays outputs only).
    """

    def __init__(
        self,
        design: CompiledDesign,
        *,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_keep: int = 3,
        scrub_every: int | None = 1,
        shadow: str | Callable[[], Steppable] | None = "redundant",
        batch: int = 1,
        backend: str | None = None,
        profile: bool = False,
        max_retries: int = 3,
        backoff_base: float = 0.0,
        backoff_cap: float = 2.0,
        sleep_fn: Callable[[float], None] = time.sleep,
        quarantine_after: int = 2,
        deadline: Deadline | None = None,
        fault_hook: Callable[[GemInterpreter, int], None] | None = None,
        fallback_factory: Callable[[], Steppable] | None = None,
        signals: Sequence[str] | None = None,
        probe=None,
    ) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.design = design
        self.checkpoint_every = checkpoint_every
        self.scrub_every = scrub_every
        self.shadow_mode = shadow
        self.batch = batch
        self.backend = backend
        self.profile = profile
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.sleep_fn = sleep_fn
        self.quarantine_after = quarantine_after
        self.deadline = deadline
        self.fault_hook = fault_hook
        self.fallback_factory = fallback_factory
        self.signals = signals
        #: optional :class:`repro.obs.probe.ProbeTap` attached to the
        #: primary engine for the whole run; its state is snapshotted and
        #: restored with the recovery points (probe continuity).
        self.probe = probe
        self.manager: CheckpointManager | None = None
        if checkpoint_dir is not None:
            self.manager = CheckpointManager(
                checkpoint_dir, every=checkpoint_every or 1000, keep=checkpoint_keep
            )

    @property
    def values(self) -> int:
        """Value system of the supervised design: 2, or 4 for dual-rail
        builds — where the scrub/checkpoint/quarantine machinery covers
        the known rail for free, because it is ordinary program state."""
        return getattr(self.design, "values", 2)

    # -- engine construction --------------------------------------------------

    def _make_shadow(self) -> Steppable | None:
        if self.shadow_mode is None:
            return None
        if self.shadow_mode == "redundant":
            # shares the primary's decode- and fusion-cache entries
            return self.design.simulator(batch=self.batch, backend=self.backend)
        return self.shadow_mode()

    def _make_fallback(self) -> Steppable:
        if self.fallback_factory is not None:
            return self.fallback_factory()
        from repro.simref.gate_sim import GateLevelSim

        return GateLevelSim(self.design.synth)

    def _shadow_state(self, shadow: Steppable | None) -> object | None:
        if shadow is None:
            return None
        if self.shadow_mode == "redundant":
            return snapshot(shadow)  # type: ignore[arg-type]
        return copy.deepcopy(shadow)

    def _restore_shadow(self, shadow: Steppable | None, state: object | None) -> Steppable | None:
        if shadow is None or state is None:
            return shadow
        if self.shadow_mode == "redundant":
            restore(shadow, state)  # type: ignore[arg-type]
            return shadow
        return copy.deepcopy(state)

    # -- integrity ------------------------------------------------------------

    def _scrub(
        self,
        primary: GemInterpreter,
        shadow: Steppable | None,
        out: dict[str, int],
        shadow_out: dict[str, int] | None,
        cycle: int,
    ) -> None:
        if shadow is None:
            return
        if self.shadow_mode == "redundant":
            quarantined = primary.quarantined_lanes
            if quarantined:
                # The whole-word digest would keep tripping on a lane we
                # have already written off; scrub the active lanes only.
                self._scrub_lanes(primary, shadow, cycle, exclude=set(quarantined))
            else:
                a, b = state_digest(primary), state_digest(shadow)  # type: ignore[arg-type]
                if a != b:
                    if self.batch > 1:
                        self._scrub_lanes(primary, shadow, cycle, exclude=set())
                    raise StateCorruptionError(
                        f"state digest mismatch at cycle {cycle}: "
                        f"{a:#010x} != shadow {b:#010x}"
                    )
        if shadow_out is not None:
            mismatches = output_mismatches(shadow_out, out, self.signals)
            if mismatches:
                raise StateCorruptionError(
                    f"outputs diverged from shadow at cycle {cycle}: "
                    + ", ".join(
                        f"{name} {dut:#x}!={ref:#x}"
                        for name, (ref, dut) in sorted(mismatches.items())
                    )
                )

    def _scrub_lanes(
        self,
        primary: GemInterpreter,
        shadow: Steppable,
        cycle: int,
        exclude: set[int],
    ) -> None:
        """Per-lane digest comparison; raises :class:`LaneDivergenceError`
        naming the diverged lanes (``exclude`` lanes are written off)."""
        pl = state_digest_lanes(primary)
        sl = state_digest_lanes(shadow)  # type: ignore[arg-type]
        bad = [
            lane
            for lane in range(self.batch)
            if lane not in exclude and pl[lane] != sl[lane]
        ]
        if bad:
            raise LaneDivergenceError(
                f"lane state diverged at cycle {cycle}: "
                f"lane(s) {', '.join(map(str, bad))}",
                lanes=bad,
            )

    # -- main loop ------------------------------------------------------------

    def run(
        self,
        stimuli: Iterable[Mapping[str, int]],
        resume_from: Checkpoint | None = None,
    ) -> SupervisedRun:
        """Execute ``stimuli`` with scrubbing, checkpointing, and recovery.

        ``resume_from`` continues a previous run: the first
        ``resume_from.cycle`` stimulus vectors are treated as already
        consumed and outputs are produced for the remainder only.
        """
        stimuli = [dict(vec) for vec in stimuli]
        events: list[str] = []
        primary = self.design.simulator(
            batch=self.batch, backend=self.backend, profile=self.profile
        )
        shadow = self._make_shadow()
        start = 0
        if resume_from is not None:
            restore(primary, resume_from)
            start = resume_from.cycle
            if start > len(stimuli):
                raise CheckpointError(
                    f"checkpoint cycle {start} is beyond the {len(stimuli)}-cycle stimulus"
                )
            if self.shadow_mode == "redundant" and shadow is not None:
                restore(shadow, resume_from)  # type: ignore[arg-type]
            elif shadow is not None:
                # A reference shadow cannot adopt interpreter state; it
                # re-derives it by replaying the consumed prefix.
                for vec in stimuli[:start]:
                    shadow.step(vec)
            events.append(f"resumed from checkpoint at cycle {start}")
        if self.probe is not None:
            # Attach after any resume restore so the tap's cycle counter
            # picks up the engine's (probe continuity across --resume).
            self.probe.attach(primary)

        outputs: list[dict[str, int]] = []
        lane_outputs: list[list[dict[str, int]]] | None = (
            [] if self.batch > 1 else None
        )
        redundant = self.shadow_mode == "redundant"
        recovery = _RecoveryPoint(
            ckpt=snapshot(primary),
            shadow_state=self._shadow_state(shadow),
            outputs_len=0,
            probe_state=None if self.probe is None else self.probe.snapshot(),
        )
        i = start
        retries = 0
        consecutive = 0
        faults = 0
        timeouts = 0
        checkpoints_written = 0
        high_water = start
        #: lane -> consecutive recovery attempts it diverged in
        lane_streaks: dict[int, int] = {}
        quarantined: set[int] = set()
        recovered_lanes: set[int] = set()

        def rollback(reason: str) -> None:
            nonlocal shadow, i
            restore(primary, recovery.ckpt)
            shadow = self._restore_shadow(shadow, recovery.shadow_state)
            if quarantined:
                # The snapshot predates (some of) the quarantine; re-zero
                # the masked lanes in both engines so they stay lockstep.
                primary.quarantine_lanes(sorted(quarantined))
                if redundant and shadow is not None:
                    shadow.quarantine_lanes(sorted(quarantined))  # type: ignore[attr-defined]
            del outputs[recovery.outputs_len :]
            if lane_outputs is not None:
                del lane_outputs[recovery.outputs_len :]
            if self.probe is not None and recovery.probe_state is not None:
                self.probe.restore(recovery.probe_state)
            i = recovery.ckpt.cycle
            events.append(reason)
            REGISTRY.counter(
                "gem_supervisor_rollbacks_total",
                help="rollbacks to the last good recovery point",
            ).inc()
            if TRACER.enabled:
                TRACER.instant(
                    "supervisor.rollback", cat="supervisor", args={"cycle": i}
                )

        def degrade() -> SupervisedRun:
            return self._degrade(
                stimuli,
                start,
                events,
                retries,
                faults,
                checkpoints_written,
                phase_times=self._collect_phase_times(primary),
                timeouts=timeouts,
                quarantined=quarantined,
            )

        if self.deadline is not None:
            self.deadline.start()
            events.append(f"deadline armed: {self.deadline.describe()}")

        while i < len(stimuli):
            try:
                vec = stimuli[i]
                if self.batch > 1:
                    lane_outs = primary.step_lanes(vec)
                    out = lane_outs[0]
                    lane_outputs.append(lane_outs)
                    if shadow is not None and redundant:
                        # advance every lane, read back lane 0 only
                        shadow.advance_lanes(vec)
                        shadow_out = shadow.outputs()
                    elif shadow is not None:
                        shadow_out = shadow.step(vec)
                    else:
                        shadow_out = None
                else:
                    out = primary.step(vec)
                    shadow_out = shadow.step(vec) if shadow is not None else None
                outputs.append(out)
                i += 1
                if self.deadline is not None:
                    self.deadline.note_cycles()
                if self.fault_hook is not None:
                    self.fault_hook(primary, i)
                if self.deadline is not None:
                    self.deadline.check()
                if self.scrub_every and i % self.scrub_every == 0:
                    REGISTRY.counter(
                        "gem_supervisor_scrubs_total",
                        help="integrity scrubs performed by the supervisor",
                    ).inc()
                    if TRACER.enabled:
                        TRACER.instant(
                            "supervisor.scrub", cat="supervisor", args={"cycle": i}
                        )
                    self._scrub(primary, shadow, out, shadow_out, i)
                if i > high_water:
                    high_water = i
                    consecutive = 0
                    lane_streaks.clear()
                if self.checkpoint_every and i % self.checkpoint_every == 0:
                    recovery = _RecoveryPoint(
                        ckpt=snapshot(primary),
                        shadow_state=self._shadow_state(shadow),
                        outputs_len=len(outputs),
                        probe_state=(
                            None if self.probe is None else self.probe.snapshot()
                        ),
                    )
                    if self.manager is not None:
                        try:
                            self.manager.save(primary)
                        except OSError as exc:
                            # Losing one on-disk snapshot must not kill the
                            # run: the in-memory recovery point still stands
                            # and the journal still names the previous file.
                            events.append(
                                f"checkpoint save failed at cycle {i}: {exc}"
                            )
                            logger.warning(
                                "checkpoint save failed at cycle %d: %s", i, exc
                            )
                            REGISTRY.counter(
                                "gem_checkpoint_save_failures_total",
                                help="on-disk checkpoint writes that failed",
                            ).inc()
                    checkpoints_written += 1
                    REGISTRY.counter(
                        "gem_supervisor_recovery_points_total",
                        help="in-memory rollback targets captured",
                    ).inc()
                    if TRACER.enabled:
                        TRACER.instant(
                            "supervisor.recovery_point",
                            cat="supervisor",
                            args={"cycle": i},
                        )
            except GemError as exc:
                faults += 1
                events.append(f"cycle {i}: {type(exc).__name__}: {exc}")
                logger.warning("supervised run fault at cycle %d: %s", i, exc)
                REGISTRY.counter(
                    "gem_supervisor_faults_detected_total",
                    help="faults caught by scrubbing or engine errors",
                ).inc()
                if TRACER.enabled:
                    TRACER.instant(
                        "supervisor.fault",
                        cat="supervisor",
                        args={"cycle": i, "error": type(exc).__name__},
                    )

                if isinstance(exc, GemTimeoutError):
                    timeouts += 1
                    REGISTRY.counter(
                        "gem_supervisor_timeouts_total",
                        help="watchdog deadline expiries hit by supervised runs",
                    ).inc()
                    if self.deadline is None or not self.deadline.extend():
                        events.append(
                            "deadline grace exhausted; "
                            "degrading to simref gate-level engine"
                        )
                        return degrade()
                    retries += 1
                    REGISTRY.counter(
                        "gem_supervisor_retries_total",
                        help="recovery attempts (rollback + replay)",
                    ).inc()
                    rollback(
                        f"rolled back to checkpoint at cycle {recovery.ckpt.cycle} "
                        f"under tightened deadline (extension "
                        f"{self.deadline.extensions}/{self.deadline.max_extensions})"
                    )
                    continue

                retries += 1
                consecutive += 1
                REGISTRY.counter(
                    "gem_supervisor_retries_total",
                    help="recovery attempts (rollback + replay)",
                ).inc()

                newly_quarantined: list[int] = []
                if (
                    isinstance(exc, LaneDivergenceError)
                    and exc.lanes
                    and redundant
                    and self.batch > 1
                ):
                    for lane in exc.lanes:
                        lane_streaks[lane] = lane_streaks.get(lane, 0) + 1
                        recovered_lanes.add(lane)
                    newly_quarantined = sorted(
                        lane
                        for lane in exc.lanes
                        if lane_streaks[lane] >= self.quarantine_after
                        and lane not in quarantined
                    )
                if newly_quarantined:
                    quarantined.update(newly_quarantined)
                    recovered_lanes.difference_update(newly_quarantined)
                    consecutive = 0  # containment is forward progress
                    REGISTRY.counter(
                        "gem_supervisor_quarantined_lanes_total",
                        help="stimulus lanes quarantined for persistent divergence",
                    ).inc(len(newly_quarantined))
                    events.append(
                        "quarantined lane(s) "
                        + ", ".join(map(str, newly_quarantined))
                        + f" after {self.quarantine_after} consecutive divergences"
                    )
                    if TRACER.enabled:
                        TRACER.instant(
                            "supervisor.quarantine",
                            cat="supervisor",
                            args={"lanes": newly_quarantined, "cycle": i},
                        )
                    if len(quarantined) >= self.batch:
                        events.append(
                            "every lane quarantined; "
                            "degrading to simref gate-level engine"
                        )
                        return degrade()
                elif consecutive > self.max_retries:
                    events.append(
                        f"no forward progress after {self.max_retries} retries; "
                        "degrading to simref gate-level engine"
                    )
                    return degrade()

                delay = min(
                    self.backoff_cap, self.backoff_base * (2 ** (max(consecutive, 1) - 1))
                )
                if delay > 0:
                    self.sleep_fn(delay)
                rollback(
                    f"rolled back to checkpoint at cycle {recovery.ckpt.cycle} "
                    f"(attempt {consecutive}/{self.max_retries}, backoff {delay:.2f}s)"
                )

        return SupervisedRun(
            outputs=outputs,
            cycles=len(outputs),
            engine="gem",
            degraded=False,
            retries=retries,
            faults_detected=faults,
            checkpoints_written=checkpoints_written,
            events=events,
            phase_times=self._collect_phase_times(primary),
            lanes=self.batch,
            lane_outputs=lane_outputs,
            timeouts=timeouts,
            quarantined_lanes=sorted(quarantined),
            lane_outcomes=self._lane_outcomes(
                degraded=False, quarantined=quarantined, recovered=recovered_lanes
            ),
        )

    def _lane_outcomes(
        self, degraded: bool, quarantined: set[int], recovered: set[int] = frozenset()
    ) -> dict[int, str]:
        outcomes: dict[int, str] = {}
        for lane in range(self.batch):
            if lane in quarantined:
                outcomes[lane] = "quarantined"
            elif degraded:
                outcomes[lane] = "degraded"
            elif lane in recovered:
                outcomes[lane] = "recovered"
            else:
                outcomes[lane] = "ok"
        return outcomes

    def _collect_phase_times(self, primary: GemInterpreter) -> dict[str, float]:
        """Primary engine's phase timers, aggregated across every attempt
        (``restore`` rewinds state but not the wall-clock timers), mirrored
        into the metrics registry."""
        phase_times = dict(primary.phase_times)
        if any(phase_times.values()):
            REGISTRY.publish_phase_times(phase_times)
        return phase_times

    def _degrade(
        self,
        stimuli: list[dict[str, int]],
        start: int,
        events: list[str],
        retries: int,
        faults: int,
        checkpoints_written: int,
        phase_times: dict[str, float] | None = None,
        timeouts: int = 0,
        quarantined: set[int] | None = None,
    ) -> SupervisedRun:
        """Replay on the gate-level reference so results keep flowing."""
        quarantined = quarantined or set()
        if self.probe is not None:
            # The fallback replays outputs only; the tap stays on the (now
            # abandoned) primary, so flag it rather than silently truncate.
            self.probe.detached_reason = "degraded to gate-level fallback"
            events.append("probe tap detached: degraded to gate-level fallback")
        REGISTRY.counter(
            "gem_supervisor_degraded_total",
            help="runs degraded to the gate-level fallback",
        ).inc()
        if TRACER.enabled:
            TRACER.instant(
                "supervisor.degrade",
                cat="supervisor",
                args={"retries": retries, "faults": faults},
            )
        fallback = self._make_fallback()
        outputs: list[dict[str, int]] = []
        # The gate-level engine cannot adopt interpreter checkpoints; it
        # replays from reset and discards the already-consumed prefix.
        for cycle, vec in enumerate(stimuli):
            out = fallback.step(vec)
            if cycle >= start:
                outputs.append(out)
        # Lanes all saw the same broadcast stimuli, so the single-instance
        # fallback stream stands in for every lane.
        lane_outputs = (
            [[out] * self.batch for out in outputs] if self.batch > 1 else None
        )
        return SupervisedRun(
            outputs=outputs,
            cycles=len(outputs),
            engine="simref",
            degraded=True,
            retries=retries,
            faults_detected=faults,
            checkpoints_written=checkpoints_written,
            events=events,
            phase_times=dict(phase_times or {}),
            lanes=self.batch,
            lane_outputs=lane_outputs,
            timeouts=timeouts,
            quarantined_lanes=sorted(quarantined),
            lane_outcomes=self._lane_outcomes(degraded=True, quarantined=quarantined),
        )
