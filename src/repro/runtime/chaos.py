"""Seeded chaos harness: inject the failures, assert the recovery.

The resilience stack (journaled checkpoints, scrubbing, lane quarantine,
watchdog deadlines, degradation) is only trustworthy if the *recovery
paths themselves* are exercised — a fault handler that never fires in CI
is broken the day it fires in production.  This module drives small
generated designs (:mod:`repro.fuzz.designgen` — seconds to compile)
through the supervisor while deliberately breaking things, and asserts
the recovery invariants end to end:

* **bit identity** — a run that recovered (rollback/replay, quarantine,
  checkpoint-save failure) produces output streams bit-identical to an
  undisturbed run on every healthy lane;
* **resume equals uninterrupted** — recovering past a torn checkpoint
  file and resuming reproduces exactly the tail the uninterrupted run
  produced;
* **containment** — a persistently faulty lane is quarantined and the
  remaining lanes keep running at full speed;
* **bounded hangs** — a simulated hang trips the cooperative deadline,
  retries under tightened grace, and degrades cleanly instead of
  spinning forever.

I/O scenarios (each deterministic per seed):

``torn-checkpoint``
    Truncate the newest checkpoint file and drop a stale ``*.tmp``;
    recovery must walk the journal back to the intact predecessor.
``corrupt-cache``
    Scribble over a compile-cache pickle; the cache must discard and
    rebuild instead of crashing or serving garbage.
``corrupt-plan``
    Scribble over a persisted fused plan, then put another bitstream's
    plan in its place; both must be discarded and re-fused, and the
    supervised run must stay bit-identical.
``save-oserror``
    Make every on-disk checkpoint write raise :class:`OSError`; the run
    must complete healthily on in-memory recovery points alone.

The supervisor's own ladder is *enumerated*: :data:`LADDER` has one row
per path through :func:`repro.runtime.supervisor.decide` — the fault to
inject, the exact transition sequence the run must record, and how it
must end (``midcycle-fault``, ``watchdog-hang``, ``lane-quarantine``,
``retries-exhausted``, ``every-lane-quarantined``, ``transient-hang``).

Every scenario outcome is counted in
``gem_chaos_scenarios_total{scenario,outcome}``
(:mod:`repro.obs.metrics`).  The ``gem chaos`` CLI runs the full matrix
over a handful of seeds; so does tier-1 (``tests/test_chaos.py``).
"""

from __future__ import annotations

import functools
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Callable
from unittest import mock

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.runtime.checkpoint import CheckpointManager, resolve_resume
from repro.runtime.supervisor import SupervisedRun, Supervisor
from repro.runtime.watchdog import Deadline

logger = logging.getLogger(__name__)

#: default seeds for the CI smoke job — fixed so failures reproduce
SMOKE_SEEDS = (11, 23, 47)


class FakeClock:
    """Deterministic monotonic clock for hang simulation (no real sleep)."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclass
class ChaosOutcome:
    """One scenario × seed result."""

    scenario: str
    seed: int
    ok: bool
    detail: str
    #: supervisor events, kept for failure triage
    events: list[str] = field(default_factory=list)

    def render(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.scenario:22s} seed={self.seed:<4d} {self.detail}"


@dataclass
class ChaosReport:
    """Aggregate of a chaos campaign."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def summary(self) -> str:
        lines = [
            f"chaos campaign: {len(self.outcomes)} scenario runs, "
            f"{sum(not o.ok for o in self.outcomes)} failure(s) "
            f"[{'PASS' if self.passed else 'FAIL'}]"
        ]
        lines.extend(f"  {o.render()}" for o in self.outcomes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared scaffolding
# ---------------------------------------------------------------------------


def _compile_small(seed: int):
    """A small seeded design + stimuli (fast enough for CI smoke)."""
    from repro.core.compiler import GemCompiler
    from repro.fuzz.designgen import generate_design, random_stimuli
    from repro.fuzz.oracle import compile_profile

    gen = generate_design(seed, profile="mixed")
    design = GemCompiler(compile_profile("small")).compile(gen.spec.build())
    stimuli = random_stimuli(gen.spec, seed, cycles=30)
    return design, stimuli


def _healthy_identical(result: SupervisedRun, golden: SupervisedRun) -> str | None:
    """Shared invariant: recovered run is healthy and bit-identical."""
    if result.degraded:
        return "run degraded instead of recovering"
    if result.outputs != golden.outputs:
        return "recovered outputs differ from undisturbed run"
    return None


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenario_torn_checkpoint(seed: int, work_dir: str) -> ChaosOutcome:
    """Crash tears the newest checkpoint; resume walks back to its
    predecessor and reproduces the uninterrupted tail bit-exactly."""
    design, stimuli = _compile_small(seed)
    ckpt_dir = os.path.join(work_dir, f"torn-{seed}")
    golden = Supervisor(design, checkpoint_every=8, checkpoint_dir=ckpt_dir).run(stimuli)

    paths = CheckpointManager(ckpt_dir).paths()
    if len(paths) < 2:
        return ChaosOutcome(
            "torn-checkpoint", seed, False,
            f"expected >=2 checkpoints, found {len(paths)}",
        )
    newest = paths[-1]
    with open(newest, "rb") as f:
        data = f.read()
    # Torn write: the file stops mid-image.  Also leave the crash's tmp.
    with open(newest, "wb") as f:
        f.write(data[: len(data) // 2])
    with open(newest + ".tmp", "wb") as f:
        f.write(b"\x00" * 16)

    recovered = resolve_resume("latest", ckpt_dir)
    if not recovered.skipped:
        return ChaosOutcome(
            "torn-checkpoint", seed, False, "torn file was not detected/skipped"
        )
    if os.path.exists(newest + ".tmp"):
        return ChaosOutcome(
            "torn-checkpoint", seed, False, "stale .tmp not swept on recovery"
        )
    resumed = Supervisor(design).run(
        stimuli, resume_from=recovered.checkpoint
    )
    cut = recovered.checkpoint.cycle
    if resumed.outputs != golden.outputs[cut:]:
        return ChaosOutcome(
            "torn-checkpoint", seed, False,
            f"resume from cycle {cut} diverged from the uninterrupted run",
            events=resumed.events,
        )
    return ChaosOutcome(
        "torn-checkpoint", seed, True,
        f"recovered at cycle {cut}, skipped {len(recovered.skipped)} torn file(s)",
    )


def scenario_corrupt_cache(seed: int, work_dir: str) -> ChaosOutcome:
    """A corrupted compile-cache envelope is discarded and rebuilt, never
    unpickled into the run."""
    from repro.harness import runner

    cache_dir = os.path.join(work_dir, f"cache-{seed}")
    key = f"chaos:{seed}:v1"
    value = {"seed": seed, "payload": list(range(8))}
    with mock.patch.dict(os.environ, {"GEM_CACHE_DIR": cache_dir}):
        built = runner._cached(key, lambda: dict(value))
        if built != value:
            return ChaosOutcome("corrupt-cache", seed, False, "initial build wrong")
        path = runner._cache_path(key)
        # Crash-corrupted pickle: truncated stream of garbage bytes.
        with open(path, "wb") as f:
            f.write(b"\x80\x04garbage" + bytes([seed % 256]) * 7)
        runner._memory_cache.pop(key, None)
        rebuilt = runner._cached(key, lambda: dict(value))
        if rebuilt != value:
            return ChaosOutcome(
                "corrupt-cache", seed, False, "corrupt envelope served stale value"
            )
        # Stale-envelope flavor: right pickle, wrong key binding.
        with open(path, "wb") as f:
            pickle.dump({"format": runner.CACHE_FORMAT, "key": "other", "value": 1}, f)
        runner._memory_cache.pop(key, None)
        rebuilt = runner._cached(key, lambda: dict(value))
        runner._memory_cache.pop(key, None)
    if rebuilt != value:
        return ChaosOutcome(
            "corrupt-cache", seed, False, "key-mismatched envelope served stale value"
        )
    return ChaosOutcome(
        "corrupt-cache", seed, True, "corrupt + mismatched envelopes both rebuilt"
    )


def scenario_corrupt_plan(seed: int, work_dir: str) -> ChaosOutcome:
    """A corrupted or misfiled plan file is discarded and re-fused, never
    handed to the executor: the supervised run stays bit-identical."""
    import glob
    import random
    import shutil

    from repro.core import fused
    from repro.core.bitstream import mutate_fold_constant
    from repro.core.interpreter import load_program

    design, stimuli = _compile_small(seed)
    store = os.path.join(work_dir, f"plan-{seed}")

    def discards() -> float:
        return REGISTRY.snapshot().get('gem_cache_discards_total{cache="plan"}', 0.0)

    before = discards()

    def fresh_run() -> SupervisedRun:
        fused.clear_fusion_cache()  # what a new process would see
        return Supervisor(design).run(stimuli)

    # the chaos designs are far below the persistence threshold: lower it
    # for the scenario so that they are stored at all
    with mock.patch.object(fused, "PERSIST_MIN_NODES", 0), mock.patch.dict(
        os.environ, {"GEM_CACHE_DIR": store}
    ):
        golden = fresh_run()
        paths = glob.glob(os.path.join(store, "plan-*.bin"))
        if len(paths) != 1:
            return ChaosOutcome("corrupt-plan", seed, False, f"expected 1 plan file, found {paths}")
        (path,) = paths
        with open(path, "rb") as f:
            good = f.read()
        # Crash- or disk-corrupted file: seeded garbage over the middle.
        rng = random.Random(seed)
        cut = rng.randrange(len(good))
        with open(path, "wb") as f:
            f.write(good[:cut] + rng.randbytes(64))
        scribbled = fresh_run()
        # Misfiled flavour: a whole, valid plan — of another bitstream.
        load_program(mutate_fold_constant(design.program, 0, 0), 1)
        (other,) = set(glob.glob(os.path.join(store, "plan-*.bin"))) - {path}
        shutil.copyfile(other, path)
        misfiled = fresh_run()
        with open(path, "rb") as f:
            healed = f.read() == good
    fused.clear_fusion_cache()
    for result, what in ((scribbled, "scribbled"), (misfiled, "misfiled")):
        problem = _healthy_identical(result, golden)
        if problem:
            return ChaosOutcome(
                "corrupt-plan", seed, False, f"{what} plan: {problem}", events=result.events
            )
    if discards() - before != 2:
        return ChaosOutcome(
            "corrupt-plan", seed, False,
            f"expected 2 plan discards, counted {discards() - before:g}",
        )
    if not healed:
        return ChaosOutcome("corrupt-plan", seed, False, "the rebuilt plan file differs")
    return ChaosOutcome(
        "corrupt-plan", seed, True, "scribbled + misfiled plans both discarded and re-fused"
    )


def scenario_save_oserror(seed: int, work_dir: str) -> ChaosOutcome:
    """Every on-disk checkpoint write fails; the run completes healthily
    on in-memory recovery points alone."""
    import repro.runtime.checkpoint as ckpt_mod

    design, stimuli = _compile_small(seed)
    golden = Supervisor(design).run(stimuli)
    ckpt_dir = os.path.join(work_dir, f"oserror-{seed}")
    real_write = ckpt_mod._write_atomic

    def failing_write(path: str, data: bytes) -> None:
        if path.endswith(".gemk"):
            raise OSError(28, "No space left on device (chaos)")
        real_write(path, data)

    with mock.patch.object(ckpt_mod, "_write_atomic", failing_write):
        result = Supervisor(
            design, checkpoint_every=8, checkpoint_dir=ckpt_dir,
        ).run(stimuli)
    problem = _healthy_identical(result, golden)
    if problem:
        return ChaosOutcome("save-oserror", seed, False, problem, events=result.events)
    failures = [e for e in result.events if "checkpoint save failed" in e]
    if not failures:
        return ChaosOutcome(
            "save-oserror", seed, False, "no save failure was recorded"
        )
    return ChaosOutcome(
        "save-oserror", seed, True,
        f"{len(failures)} failed save(s) tolerated, outputs bit-identical",
    )


@dataclass(frozen=True)
class LadderRow:
    """One path through the supervisor's recovery ladder: what to inject
    from the middle of the run on, and what the run must then record."""

    batch: int
    #: seed -> the lanes whose bit of one state word is flipped; ``None``: the
    #: fake clock jumps 100 s instead (a hang)
    lanes: Callable[[int], list[int]] | None
    #: every cycle from the middle on — or that one cycle, the first time only
    persistent: bool
    #: the recorded transition kinds, in order (a fault with what
    #: :func:`~repro.runtime.supervisor.decide` made of it, a degrade with why)
    expect: tuple[str, ...]
    #: ends on the gate-level fallback with the undisturbed outputs — or on
    #: GEM, every lane not quarantined bit-identical to the undisturbed run
    degraded: bool = False
    #: :class:`Deadline` arguments (the fake clock is added)
    deadline: dict | None = None


_RETRY, _TIGHTEN = ("fault:retry", "rollback"), ("fault:tighten", "rollback")
LADDER = {
    "midcycle-fault": LadderRow(batch=1, lanes=lambda seed: [0], persistent=False, expect=_RETRY),
    "watchdog-hang": LadderRow(
        batch=1, lanes=None, persistent=True, degraded=True,
        deadline={"wall_s": 5.0, "max_extensions": 2},
        expect=("deadline", *_TIGHTEN * 2, "fault:degrade", "degrade:grace-exhausted"),
    ),
    "lane-quarantine": LadderRow(
        batch=8, lanes=lambda seed: [seed % 8], persistent=True,
        expect=(*_RETRY, "fault:quarantine", "quarantine", "rollback"),
    ),
    "retries-exhausted": LadderRow(
        batch=1, lanes=lambda seed: [0], persistent=True, degraded=True,
        expect=(*_RETRY * 3, "fault:degrade", "degrade:retries-exhausted"),
    ),
    "every-lane-quarantined": LadderRow(
        batch=4, lanes=lambda seed: [0, 1, 2, 3], persistent=True, degraded=True,
        expect=(*_RETRY, "fault:degrade", "quarantine", "degrade:every-lane-quarantined"),
    ),
    "transient-hang": LadderRow(
        batch=1, lanes=None, persistent=False, deadline={"wall_s": 5.0},
        expect=("deadline", *_TIGHTEN),
    ),
}


def _label(transition) -> str:
    """A transition's kind — a fault's with what ``decide`` made of it, a
    degrade's with why."""
    detail = transition.detail
    qualifier = detail["action"].kind if transition.kind == "fault" else detail.get("reason")
    return f"{transition.kind}:{qualifier}" if qualifier else transition.kind


def scenario_ladder(name: str, seed: int, work_dir: str) -> ChaosOutcome:
    """Run :data:`LADDER` row ``name``: the recorded transitions are the
    row's, and the run ends the way the row says."""
    row = LADDER[name]
    design, stimuli = _compile_small(seed)
    golden = Supervisor(design, batch=row.batch).run(stimuli)
    clock, middle, struck = FakeClock(), len(stimuli) // 2, []
    lanes = row.lanes(seed) if row.lanes else None

    def hook(interp, cycle: int) -> None:
        strike = cycle >= middle if row.persistent else cycle == middle and not struck
        if strike:
            struck.append(cycle)
        if lanes is None:
            # healthy cycles take 10 ms of fake time
            clock.advance(100.0 if strike else 0.01)
        elif strike:
            word = seed % interp.global_state.size
            interp.global_state[word] ^= np.uint64(sum(1 << lane for lane in lanes))

    result = Supervisor(
        design,
        batch=row.batch,
        checkpoint_every=6,
        fault_hook=hook,
        deadline=Deadline(clock=clock, **row.deadline) if row.deadline else None,
    ).run(stimuli)
    seen = tuple(map(_label, result.transitions))
    written_off = lanes if "quarantine" in row.expect else []
    if seen != row.expect:
        problem = f"recorded {' '.join(seen)}; expected {' '.join(row.expect)}"
    elif result.quarantined_lanes != written_off:
        problem = f"expected lanes {written_off} quarantined, got {result.quarantined_lanes}"
    elif row.degraded and result.outputs != golden.outputs:
        problem = "degraded outputs differ from the undisturbed run"
    elif not row.degraded and any(
        result.lane_stream(lane) != golden.lane_stream(lane)
        for lane in range(row.batch)
        if lane not in written_off
    ):
        problem = "a healthy lane's outputs differ from the undisturbed run"
    else:
        return ChaosOutcome(name, seed, True, " ".join(seen))
    return ChaosOutcome(name, seed, False, problem, events=result.events)


SCENARIOS: dict[str, Callable[[int, str], ChaosOutcome]] = {
    "torn-checkpoint": scenario_torn_checkpoint,
    "corrupt-cache": scenario_corrupt_cache,
    "corrupt-plan": scenario_corrupt_plan,
    "save-oserror": scenario_save_oserror,
    **{name: functools.partial(scenario_ladder, name) for name in LADDER},
}


def run_chaos(
    seeds: tuple[int, ...] = SMOKE_SEEDS,
    scenarios: tuple[str, ...] | None = None,
    work_dir: str | None = None,
) -> ChaosReport:
    """Run the scenario × seed matrix; every outcome lands in the report
    and in ``gem_chaos_scenarios_total{scenario,outcome}``."""
    names = tuple(scenarios) if scenarios else tuple(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(f"unknown chaos scenario {name!r}; have {sorted(SCENARIOS)}")
    report = ChaosReport()
    own_tmp = None
    if work_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="gem-chaos-")
        work_dir = own_tmp.name
    os.makedirs(work_dir, exist_ok=True)
    try:
        for name in names:
            fn = SCENARIOS[name]
            for seed in seeds:
                try:
                    # a directory of its own: scenarios count the files they find
                    outcome = fn(seed, tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_dir))
                except Exception as exc:  # invariant harness must not crash
                    logger.exception("chaos scenario %s seed %d crashed", name, seed)
                    outcome = ChaosOutcome(
                        name, seed, False, f"scenario crashed: {type(exc).__name__}: {exc}"
                    )
                report.outcomes.append(outcome)
                REGISTRY.counter(
                    "gem_chaos_scenarios_total",
                    help="chaos scenarios executed, by outcome",
                    labels={
                        "scenario": name,
                        "outcome": "pass" if outcome.ok else "fail",
                    },
                ).inc()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    return report
