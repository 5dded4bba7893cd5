"""Measure one workload: end to end (tracing off) or layer by layer (traced).

Every layer is timed from outside, around calls into its public
functions; nothing under ``src/`` is instrumented.  All repeated
quantities are sampled in rounds that run until the ``--seconds`` time
box is used up (never fewer rounds than the workload's floor), and are
reported as medians with quartiles and sample counts in the detail file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import fmean, median, quantiles

import numpy as np

from repro.core.bitstream import verify_integrity
from repro.core.compiler import CompiledDesign, GemSimulator, compile_circuit
from repro.core.fused import clear_fusion_cache, fusion_cache_stats
from repro.core.interpreter import clear_decode_cache, decode_cache_stats
from repro.harness.runner import compile_design, design_circuit

from benchmarks.e2e import paths
from benchmarks.e2e.check import GateResult, check_pass
from benchmarks.e2e.compileflow import COMPILE_SPANS, program_sha256, traced_compile
from benchmarks.e2e.hostclock import HostClock
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Inputs,
    WorkloadSpec,
    build_cold_circuit,
    distinct_pi_frac,
    make_inputs,
    stimuli_sha256,
)

#: per-cycle work counts that must repeat exactly (CycleCounters.per_cycle keys)
COUNTERS = (
    "array_ops",
    "fused_array_ops",
    "fold_steps",
    "global_reads",
    "global_writes",
    "layer_syncs",
    "device_syncs",
)


@dataclass(frozen=True)
class Floors:
    """Repeat counts the time box may exceed but never undercut."""

    setup_children: int
    trace_setup_children: int
    trace_rounds: int
    startup_triples: int
    #: overrides each workload's ``min_rounds`` when set
    rounds: int | None = None


FULL = Floors(setup_children=7, trace_setup_children=3, trace_rounds=2, startup_triples=3)
#: smoke mode: one of everything, results not comparable
QUICK = Floors(
    setup_children=1, trace_setup_children=1, trace_rounds=1, startup_triples=1, rounds=1
)


class BenchmarkError(RuntimeError):
    """An exact quantity (digest, count, output) did not repeat."""


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    q1, q2, q3 = quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}


def outputs_sha256(outputs: list) -> str:
    payload = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stamp() -> dict:
    """Host fingerprint, source identity and library versions of a result."""
    git_sha = ""
    if os.path.exists(os.path.join(paths.ROOT, ".git")):  # never look above the checkout
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=paths.ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "git_sha": git_sha or "unknown",
        "source_digest": paths.source_digest(),
        "numpy": np.__version__,
    }


def spawn_setup_child(spec: WorkloadSpec, seed: int) -> dict:
    """Run one fresh interpreter to ready-to-step; returns its phase times."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(paths.HERE, "run.py"),
            "--setup-child",
            spec.name,
            "--seed",
            str(seed),
            "--spawned-at",
            repr(time.time()),
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"setup child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# start-up layers
# ---------------------------------------------------------------------------


def timed_simulator(
    clock: HostClock, design: CompiledDesign, batch: int, *, decode: bool, fuse: bool
) -> tuple[float, GemSimulator]:
    """``design.simulator(batch)`` with the decode / fusion cache dropped
    first when ``decode`` / ``fuse`` is set.  Returns (seconds, simulator)."""
    if decode:
        clear_decode_cache()
    if fuse:
        clear_fusion_cache()
    gc.collect()  # the previous simulator's arrays are not this call's cost
    return clock.timed(design.simulator, batch=batch)


def startup_layers(clock: HostClock, design: CompiledDesign, batch: int, triples: int) -> dict:
    """decode / fuse / alloc by construction: cold, fusion cleared, fully
    cached, and subtracting; ``verify_integrity`` timed on its own."""
    cold, refuse, cached, verify = [], [], [], []
    for _ in range(triples):
        cold.append(timed_simulator(clock, design, batch, decode=True, fuse=True)[0])
        refuse.append(timed_simulator(clock, design, batch, decode=False, fuse=True)[0])
        cached.append(timed_simulator(clock, design, batch, decode=False, fuse=False)[0])
        verify.append(clock.timed(verify_integrity, design.program.words)[0])
    # one triple from empty caches: decode 1 miss + 2 hits, fusion (its
    # stats restart when it is cleared) 1 miss + 1 hit
    decode_stats, fusion_stats = decode_cache_stats(), fusion_cache_stats()
    t_cold, t_refuse, t_cached, t_verify = map(median, (cold, refuse, cached, verify))
    return {
        "bitstream.verify_s": t_verify,
        "interpreter.decode_s": t_cold - t_refuse,
        "fused.fuse_s": t_refuse - t_cached,
        "interpreter.alloc_s": t_cached - t_verify,
        "cache.decode_hits": decode_stats["hits"],
        "cache.decode_misses": decode_stats["misses"],
        "cache.fusion_hits": fusion_stats["hits"],
        "cache.fusion_misses": fusion_stats["misses"],
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(
    clock: HostClock, sim: GemSimulator, spec: WorkloadSpec, inputs: Inputs
) -> tuple[float, list]:
    """One timed pass: dict stimuli in, every lane's output dicts out and kept."""
    sim.reset()
    gc.collect()  # every pass starts from the same collector state
    return clock.timed(sim.run_lanes if spec.driver == "lanes" else sim.run, inputs.stimuli)


def kernel_pass(clock: HostClock, sim: GemSimulator, inputs: Inputs) -> float:
    """The kernel-only series: lane 0's stimulus broadcast through
    ``step()``, lane 0 read back (what BENCH_batch.json has always timed)."""
    sim.reset()
    return clock.timed(sim.run, inputs.lane_stimuli[0])[0]


def traced_pass(
    clock: HostClock, sim: GemSimulator, spec: WorkloadSpec, inputs: Inputs, rec: SpanRecorder
) -> dict:
    """One pass on a ``profile=True`` simulator with a span per step and one
    extra timed readback per cycle (``phase_times`` does not cover readback).

    Every per-cycle figure of the pass is scaled by the same factor (the
    pass's host slow-down and probe share), so inject + gather + fold +
    commit + readback + other equals the step time exactly.
    """
    sim.reset()
    lanes = spec.driver == "lanes"
    step = sim.step_lanes if lanes else sim.step
    readback = sim.outputs_lanes if lanes else sim.outputs
    now = time.perf_counter
    steps: list[tuple[float, float]] = []
    step_s = readback_s = 0.0
    with rec.span("pass") as parent:
        for vec in inputs.stimuli:
            t0 = now()
            step(vec)
            t1 = now()
            readback()
            t2 = now()
            steps.append((t0, t1))
            step_s += t1 - t0
            readback_s += t2 - t1
            rec.add("interpreter.step", t0, t1, parent["id"])
            rec.add("engine.readback", t1, t2, parent["id"])
    wall = parent["end"] - parent["start"]
    slowdown, in_probes = clock.slowdown(parent["start"], parent["end"])
    per_cycle = (1.0 - in_probes / wall) / slowdown / len(steps)
    phases = {name: total * per_cycle for name, total in sim.phase_times.items()}
    step_mean = step_s * per_cycle
    readback_mean = readback_s * per_cycle
    return {
        "wall_s": (wall - in_probes) / slowdown,
        # single steps: the pass's slow-down, the step's own share of probes
        "step_s": [clock.reference_seconds(t0, t1, slowdown) for t0, t1 in steps],
        "step_mean_s": step_mean,
        "inject_s": phases["inject"],
        "gather_s": phases["gather"],
        "fold_s": phases["fold"],
        "commit_s": phases["commit"],
        "readback_s": readback_mean,
        "other_s": step_mean - sum(phases.values()) - readback_mean,
    }


class ExactLog:
    """Quantities that must be identical on every pass of a run."""

    def __init__(self) -> None:
        self.values: dict[str, object] = {}

    def record(self, key: str, value) -> None:
        if self.values.setdefault(key, value) != value:
            raise BenchmarkError(f"{key} changed between passes: {self.values[key]} -> {value}")

    def record_pass(self, sim: GemSimulator, outputs: list) -> None:
        per_cycle = sim.counters.per_cycle()
        self.record("outputs_sha256", outputs_sha256(outputs))
        self.record("counters_per_cycle", {name: per_cycle[name] for name in COUNTERS})


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    #: metric name -> value as measured (units live in BENCHMARK.json)
    metrics: dict[str, float]
    gate: GateResult
    detail: dict


def measure_end_to_end(spec: WorkloadSpec, seed: int, seconds: float, floors: Floors) -> Outcome:
    """The ``--trace 0`` run: what a user of the system waits for and holds."""
    t_begin = time.perf_counter()
    setups = [spawn_setup_child(spec, seed) for _ in range(floors.setup_children)]
    inputs = make_inputs(spec, seed)
    exact = ExactLog()
    exact.record("stimuli_sha256", stimuli_sha256(inputs))
    if spec.cold_compile:
        circuit = build_cold_circuit()
        design = None
        compile_s: list[float] = []
    else:
        circuit = design_circuit(spec.design)
        design = compile_design(spec.design)
        # what a user of a registered design waits for, per session, until
        # the compiled design is in hand: the import and the disk-cache hit
        compile_s = [s["import_s"] + s["compile_s"] for s in setups]
    load_s: list[float] = []
    pass_s: list[float] = []
    outputs: list = []
    rounds = 0
    floor = floors.rounds or spec.min_rounds
    with HostClock() as clock:
        while rounds < floor or time.perf_counter() - t_begin < seconds:
            if spec.cold_compile:
                took, design = clock.timed(compile_circuit, circuit)
                compile_s.append(took)
            exact.record("bitstream_sha256", program_sha256(design.program))
            # the first of two cold loads absorbs the allocator's warm-up
            # (fresh mappings are page-faulted in, reused ones are not);
            # what a fresh process pays for its first load is in setup_s
            timed_simulator(clock, design, spec.batch, decode=True, fuse=True)
            took, sim = timed_simulator(clock, design, spec.batch, decode=True, fuse=True)
            load_s.append(took)
            for _ in range(spec.passes_per_round):
                outputs = None  # hold one pass's outputs at a time
                took, outputs = run_pass(clock, sim, spec, inputs)
                pass_s.append(took)
                exact.record_pass(sim, outputs)
            rounds += 1
    measured_s = time.perf_counter() - t_begin
    gate = check_pass(circuit, inputs, outputs, spec.driver)
    lane_cycles = spec.batch * inputs.cycles
    samples = {
        "setup_s": [s["setup_s"] for s in setups],
        "compile_s": compile_s,
        "load_s": load_s,
        "pass_s": pass_s,
    }
    metrics = {
        "setup_s": median(samples["setup_s"]),
        "compile_s": median(compile_s),
        "load_s": median(load_s),
        "lane_cycles_per_s": lane_cycles / median(pass_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "workload": spec.name,
        "seed": seed,
        "trace": 0,
        "rounds": rounds,
        "measured_s": measured_s,
        "host_slowdown": clock.slowdown(t_begin, t_begin + measured_s)[0],
        "lane_cycles_per_pass": lane_cycles,
        "samples": {name: summary(values) for name, values in samples.items()},
        "setup_phases": {
            key: median([s[key] for s in setups])
            for key in ("import_s", "compile_s", "simulator_s", "stimuli_s")
        },
        "exact": exact.values,
        "backend": sim.backend.name,
        "engine_mode": sim.mode,
    }
    return Outcome(metrics, gate, detail)


def measure_layers(
    spec: WorkloadSpec, seed: int, seconds: float, floors: Floors, primed: dict[str, dict]
) -> Outcome:
    """The ``--trace 1`` run: where the time of the end-to-end run goes."""
    t_begin = time.perf_counter()
    setups = [spawn_setup_child(spec, seed) for _ in range(floors.trace_setup_children)]
    inputs = make_inputs(spec, seed)
    exact = ExactLog()
    exact.record("stimuli_sha256", stimuli_sha256(inputs))
    with HostClock() as clock:
        rec = SpanRecorder(spec.name, clock)
        layers: dict[str, float] = {}
        if spec.cold_compile:
            with rec.span("rtl.build"):
                circuit = build_cold_circuit()
            layers["rtl.build_s"] = rec.durations("rtl.build")[0]
            design = None
        else:
            circuit = design_circuit(spec.design)
            design = compile_design(spec.design)
            record = primed[spec.design]
            layers.update(record["layers"])
            exact.record("bitstream_sha256", record["bitstream_sha256"])
            exact.record("bitstream_sha256", program_sha256(design.program))

        plain = profiled = None
        untraced_compile_s: list[float] = []
        pass_s: list[float] = []
        kernel_s: list[float] = []
        traced: list[dict] = []
        outputs: list = []
        rounds = 0
        while rounds < floors.trace_rounds or time.perf_counter() - t_begin < seconds:
            if spec.cold_compile:
                took, design = clock.timed(compile_circuit, circuit)
                untraced_compile_s.append(took)
                with rec.span("compile"):
                    program, counts = traced_compile(circuit, rec)
                exact.record("bitstream_sha256", program_sha256(design.program))
                exact.record("bitstream_sha256", program_sha256(program))
                exact.record("compile_counts", counts)
                plain = None
            if plain is None:
                plain = design.simulator(batch=spec.batch)
                profiled = design.simulator(batch=spec.batch, profile=True)
            # interleaved pass by pass, so the three series see the same host
            for _ in range(spec.passes_per_round):
                outputs = None
                took, outputs = run_pass(clock, plain, spec, inputs)
                pass_s.append(took)
                exact.record_pass(plain, outputs)
                traced.append(traced_pass(clock, profiled, spec, inputs, rec))
                kernel_s.append(kernel_pass(clock, plain, inputs))
            rounds += 1

        compile_detail: dict = {}
        if spec.cold_compile:
            for span, metric in COMPILE_SPANS.items():
                layers[metric] = median(rec.durations(span))
            layers.update(exact.values["compile_counts"])
            compile_detail = {
                "compile_s_untraced": summary(untraced_compile_s),
                "compile_s_traced": summary(rec.durations("compile")),
                "phase_sum_s": sum(layers[metric] for metric in COMPILE_SPANS.values()),
            }
        layers.update(startup_layers(clock, design, spec.batch, floors.startup_triples))

    cycles = inputs.cycles
    ms = 1e3
    all_steps = sorted(s for t in traced for s in t["step_s"])
    untraced = median(pass_s)
    kernel = cycles / median(kernel_s)
    lane_rate = spec.batch * cycles / untraced
    layers.update(
        {
            "interpreter.step_ms.p50": ms * all_steps[len(all_steps) // 2],
            "interpreter.step_ms.p99": ms * all_steps[len(all_steps) * 99 // 100],
            # the parts of a step are averaged over the traced passes, not
            # medianed: means add up to the mean step time exactly
            "interpreter.inject_ms": ms * fmean([t["inject_s"] for t in traced]),
            "fused.gather_ms": ms * fmean([t["gather_s"] for t in traced]),
            "fused.fold_ms": ms * fmean([t["fold_s"] for t in traced]),
            "interpreter.commit_ms": ms * fmean([t["commit_s"] for t in traced]),
            "engine.readback_ms": ms * fmean([t["readback_s"] for t in traced]),
            "interpreter.other_ms": ms * fmean([t["other_s"] for t in traced]),
            "kernel.cycles_per_s": kernel,
            "lane_io_overhead_x": kernel * spec.batch / lane_rate,
            "trace.overhead_frac": 1.0 - untraced / median([t["wall_s"] for t in traced]),
        }
    )
    for name, value in exact.values["counters_per_cycle"].items():
        layers[f"counters.{name}"] = value
    meta = design.program.meta
    layers["stimulus.distinct_pi_frac"] = distinct_pi_frac(inputs, sorted(meta.pi_index))
    read_lanes = spec.batch if spec.driver == "lanes" else 1
    layers["readback.po_bits_per_cycle"] = read_lanes * sum(len(v) for v in meta.po_index.values())
    layers["runner.warm_compile_s"] = (
        0.0 if spec.cold_compile else median([s["compile_s"] for s in setups])
    )
    gate = check_pass(circuit, inputs, outputs, spec.driver)
    os.makedirs(paths.OUT, exist_ok=True)
    rec.write(os.path.join(paths.OUT, f"trace-{spec.name}.json"))
    detail = {
        "workload": spec.name,
        "seed": seed,
        "trace": 1,
        "rounds": rounds,
        "measured_s": time.perf_counter() - t_begin,
        "step_ms_mean": ms * fmean([t["step_mean_s"] for t in traced]),
        "lane_cycles_per_s_untraced": lane_rate,
        "compile": compile_detail,
        "exact": exact.values,
        "backend": plain.backend.name,
        "engine_mode": plain.mode,
    }
    return Outcome(layers, gate, detail)


# ---------------------------------------------------------------------------
# --selfcheck
# ---------------------------------------------------------------------------


def selfcheck(seed: int, attempts: int = 256) -> int:
    """Prove the gate fires: flip one fold constant of the rocketchip
    bitstream (a wrong program that still loads cleanly) and require a
    mismatch.  Most constants sit on tree positions no placed gate uses
    (about 19 flips in 20 change no output), so seeded sites are tried one
    flip at a time until one is observable; the clean bitstream must pass
    first."""
    import random

    from repro.core.bitstream import count_fold_instructions, mutate_fold_constant

    spec = WORKLOADS["single-lane-rocketchip-b1"]
    design = compile_design(spec.design)
    circuit = design_circuit(spec.design)
    inputs = make_inputs(spec, seed)
    clean = check_pass(circuit, inputs, design.simulator().run(inputs.stimuli), spec.driver)
    print(f"selfcheck: clean bitstream failed_frac={clean.failed_frac:.6f}")
    if clean.failed_lane_cycles:
        print("selfcheck: FAILED - the gate rejects the unmutated bitstream")
        return 1
    rng = random.Random(f"gem-e2e-selfcheck:{seed}")
    folds = count_fold_instructions(design.program)
    for attempt in range(1, attempts + 1):
        fold_index, bit = rng.randrange(folds), rng.randrange(1 << 20)
        mutated = mutate_fold_constant(design.program, fold_index, bit)
        gate = check_pass(
            circuit, inputs, GemSimulator(mutated).run(inputs.stimuli), spec.driver
        )
        if gate.failed_lane_cycles:
            print(
                f"selfcheck: flip {attempt}: fold {fold_index} bit {bit} -> failed "
                f"{gate.failed_lane_cycles} of {gate.checked_lane_cycles} lane-cycles"
            )
            print(f"selfcheck: first mismatch: {gate.messages[0]}")
            print("selfcheck: OK - the gate detects an injected fold-constant fault")
            return 0
    print(f"selfcheck: FAILED - {attempts} single-constant faults went undetected")
    return 1
