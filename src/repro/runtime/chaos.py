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

Scenarios (each deterministic per seed):

``torn-checkpoint``
    Truncate the newest checkpoint file and drop a stale ``*.tmp``;
    recovery must walk the journal back to the intact predecessor.
``corrupt-cache``
    Scribble over a compile-cache pickle; the cache must discard and
    rebuild instead of crashing or serving garbage.
``corrupt-plan``
    Scribble over a persisted fused plan, then put another batch's plan
    in its place; both must be discarded and re-fused, and the
    supervised run must stay bit-identical.
``save-oserror``
    Make every on-disk checkpoint write raise :class:`OSError`; the run
    must complete healthily on in-memory recovery points alone.
``midcycle-fault``
    Flip a state bit mid-run (transient SEU); scrub must catch it and
    rollback/replay must restore bit identity.
``watchdog-hang``
    Freeze progress against a fake clock; the deadline must trip,
    retry with tightened grace, then degrade with outputs intact.
``lane-quarantine``
    Persistently corrupt one lane of a batched run; that lane must be
    quarantined while every other lane stays bit-identical.

Every scenario outcome is counted in
``gem_chaos_scenarios_total{scenario,outcome}``
(:mod:`repro.obs.metrics`).  The ``gem-chaos`` CLI (and the CI
``chaos-smoke`` job) runs the full matrix over a handful of seeds.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Callable
from unittest import mock

from repro.errors import StateCorruptionError
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
        return f"{status} {self.scenario:18s} seed={self.seed:<4d} {self.detail}"


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
    with mock.patch.object(runner, "CACHE_DIR", cache_dir):
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

    design, stimuli = _compile_small(seed)
    store = os.path.join(work_dir, f"plan-{seed}")

    def discards() -> float:
        return REGISTRY.snapshot().get('gem_cache_discards_total{cache="plan"}', 0.0)

    before = discards()

    def fresh_run(batch: int = 1) -> SupervisedRun:
        fused.clear_fusion_cache()  # what a new process would see
        return Supervisor(design, batch=batch).run(stimuli)

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
        # Misfiled flavour: a whole, valid plan — of another batch.
        fresh_run(batch=2)
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


def scenario_midcycle_fault(seed: int, work_dir: str) -> ChaosOutcome:
    """A transient mid-run SEU (state bit flip) is scrubbed out by
    rollback/replay; outputs stay bit-identical."""
    import numpy as np

    design, stimuli = _compile_small(seed)
    golden = Supervisor(design).run(stimuli)
    target = len(stimuli) // 2
    fired = []

    def flip_once(interp, cycle: int) -> None:
        if cycle == target and not fired:
            fired.append(cycle)
            idx = seed % interp.global_state.size
            interp.global_state[idx] ^= np.uint64(1)

    result = Supervisor(
        design, checkpoint_every=6, fault_hook=flip_once
    ).run(stimuli)
    problem = _healthy_identical(result, golden)
    if problem:
        return ChaosOutcome(
            "midcycle-fault", seed, False, problem, events=result.events
        )
    if result.faults_detected < 1:
        return ChaosOutcome(
            "midcycle-fault", seed, False, "injected flip was never detected"
        )
    return ChaosOutcome(
        "midcycle-fault", seed, True,
        f"flip at cycle {target} detected and replayed away",
    )


def scenario_watchdog_hang(seed: int, work_dir: str) -> ChaosOutcome:
    """A simulated hang trips the wall-clock deadline; grace shrinks,
    exhausts, and the run degrades with outputs intact."""
    design, stimuli = _compile_small(seed)
    golden = Supervisor(design).run(stimuli)
    clock = FakeClock()
    hang_at = len(stimuli) // 2

    def hang(interp, cycle: int) -> None:
        # Healthy cycles take 10ms of fake time; from hang_at on, every
        # cycle stalls for 100 fake seconds — progress effectively stops.
        clock.advance(100.0 if cycle >= hang_at else 0.01)

    timeouts_before = REGISTRY.counter(
        "gem_supervisor_timeouts_total",
        help="watchdog deadline expiries hit by supervised runs",
    ).value
    result = Supervisor(
        design,
        checkpoint_every=6,
        fault_hook=hang,
        deadline=Deadline(wall_s=5.0, clock=clock, max_extensions=2),
    ).run(stimuli)
    timeouts_after = REGISTRY.counter(
        "gem_supervisor_timeouts_total",
        help="watchdog deadline expiries hit by supervised runs",
    ).value
    if not result.degraded:
        return ChaosOutcome(
            "watchdog-hang", seed, False, "hung run did not degrade",
            events=result.events,
        )
    if result.timeouts < 1 or timeouts_after <= timeouts_before:
        return ChaosOutcome(
            "watchdog-hang", seed, False, "timeout was not counted in metrics"
        )
    if result.outputs != golden.outputs:
        return ChaosOutcome(
            "watchdog-hang", seed, False,
            "degraded outputs diverged from the healthy run",
            events=result.events,
        )
    return ChaosOutcome(
        "watchdog-hang", seed, True,
        f"{result.timeouts} expiries, degraded cleanly with outputs intact",
    )


def scenario_lane_quarantine(seed: int, work_dir: str) -> ChaosOutcome:
    """A persistently corrupt lane is quarantined; every healthy lane's
    output stream stays bit-identical to the undisturbed batched run."""
    import numpy as np

    batch = 8
    victim = seed % batch
    design, stimuli = _compile_small(seed)
    golden = Supervisor(design, batch=batch).run(stimuli)
    start = len(stimuli) // 2

    def corrupt_lane(interp, cycle: int) -> None:
        if cycle >= start:
            idx = (seed // batch) % interp.global_state.size
            interp.global_state[idx] ^= np.uint64(1) << np.uint64(victim)

    result = Supervisor(
        design,
        batch=batch,
        checkpoint_every=6,
        fault_hook=corrupt_lane,
    ).run(stimuli)
    if result.degraded:
        return ChaosOutcome(
            "lane-quarantine", seed, False,
            "run degraded instead of quarantining the faulty lane",
            events=result.events,
        )
    if result.quarantined_lanes != [victim]:
        return ChaosOutcome(
            "lane-quarantine", seed, False,
            f"expected lane {victim} quarantined, got {result.quarantined_lanes}",
            events=result.events,
        )
    if result.lane_outcomes.get(victim) != "quarantined":
        return ChaosOutcome(
            "lane-quarantine", seed, False,
            f"lane {victim} outcome is {result.lane_outcomes.get(victim)!r}",
        )
    healthy = [lane for lane in range(batch) if lane != victim]
    for cycle, (got, want) in enumerate(zip(result.lane_outputs, golden.lane_outputs)):
        for lane in healthy:
            if got[lane] != want[lane]:
                return ChaosOutcome(
                    "lane-quarantine", seed, False,
                    f"healthy lane {lane} diverged at cycle {cycle}",
                    events=result.events,
                )
    return ChaosOutcome(
        "lane-quarantine", seed, True,
        f"lane {victim} quarantined; {len(healthy)} healthy "
        "lanes bit-identical",
    )


SCENARIOS: dict[str, Callable[[int, str], ChaosOutcome]] = {
    "torn-checkpoint": scenario_torn_checkpoint,
    "corrupt-cache": scenario_corrupt_cache,
    "corrupt-plan": scenario_corrupt_plan,
    "save-oserror": scenario_save_oserror,
    "midcycle-fault": scenario_midcycle_fault,
    "watchdog-hang": scenario_watchdog_hang,
    "lane-quarantine": scenario_lane_quarantine,
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
    try:
        for name in names:
            fn = SCENARIOS[name]
            for seed in seeds:
                try:
                    outcome = fn(seed, work_dir)
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
