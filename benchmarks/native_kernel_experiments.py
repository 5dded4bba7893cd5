"""Two side experiments on the native stage kernel (EXPERIMENTS.md §N1).

Neither changes the simulator; both are decided by what they measure.

``python benchmarks/native_kernel_experiments.py blocking``
    Would blocking the wave loop over lane-plane groups keep
    ``stream-gemmini-b1024``'s working set in L2?  Builds a variant of
    the kernel whose plane path runs the read gather and every wave once
    per group of ``GROUP`` plane words, and runs the benchmark workload's
    own pass (distinct per-lane stimuli in, every lane read back) on the
    shipped and the blocked kernel in alternating pairs.

``python benchmarks/native_kernel_experiments.py threads``
    Would two workers over one stage's independent partitions (§III-C)
    pay?  ``ctypes`` calls drop the GIL, so the partitions of every stage
    are split into two balanced groups, each fused into its own plan with
    its own trace, and the stage kernels alone are timed: the shipped
    one-plan stage, the two group plans back to back, and the two group
    plans on two threads with a join per stage.

Times are raw wall seconds on this host, alternating so both sides see
the same drift; read the ratios, not the absolute figures.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from benchmarks.e2e import paths  # noqa: E402

paths.activate()  # the benchmark's own compile cache: nothing is recompiled

import numpy as np  # noqa: E402

from benchmarks.e2e.workloads import WORKLOADS, make_inputs  # noqa: E402
from repro.core.backend import KERNEL_SOURCE, NativeBackend, StageBuffers, load_kernel  # noqa: E402
from repro.core.fused import fuse  # noqa: E402
from repro.harness.runner import compile_design  # noqa: E402

PAIRS = 10
SEED = 11

#: the shipped wave loop ...
WAVES = KERNEL_SOURCE[
    KERNEL_SOURCE.index("    for (int64_t w = 0; w < s->nwaves; w++) {") : KERNEL_SOURCE.index(
        "    if (ticks) {\n        t1 = now();\n        ticks[1]"
    )
]
#: ... and the same loop run once per group of GROUP plane words
BLOCKED_WAVES = """
    for (int64_t k0 = 0; k0 < K; k0 += GROUP) {
        const int64_t k1 = k0 + GROUP < K ? k0 + GROUP : K;
        for (int64_t w = 0; w < s->nwaves; w++) {
            const int64_t n = s->wave_count[w];
            const int64_t *a = s->gather + s->wave_start[w], *b = a + n;
            const uint64_t *fa = s->flips + s->wave_start[w], *fb = fa + n;
            uint64_t *out = trace + s->wave_out[w] * K;
            for (int64_t p = 0; p < n; p++) {
                uint64_t *restrict d = out + p * K;
                const uint64_t *x = trace + a[p] * K, *y = trace + b[p] * K;
                for (int64_t k = k0; k < k1; k++)
                    d[k] = (x[k] ^ fa[p]) & (y[k] ^ fb[p]);
            }
        }
    }
"""


def blocked_backend(group: int) -> NativeBackend:
    source = f"#define GROUP {group}\n" + KERNEL_SOURCE.replace(WAVES, BLOCKED_WAVES)
    backend = NativeBackend()
    backend._kernel = load_kernel(source)
    return backend


def spread(samples: list[float]) -> str:
    q1, q2, q3 = quantiles(samples, n=4)
    return f"{q2 * 1e3:8.3f} ms [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"


def report(title: str, base: list[float], other: list[float]) -> None:
    wins = sum(o < b for b, o in zip(base, other))
    print(
        f"  {title:34s} {spread(other)}   {median(base) / median(other):.3f}x shipped, "
        f"faster in {wins}/{len(base)} pairs"
    )


# ---------------------------------------------------------------------------
# blocking
# ---------------------------------------------------------------------------


def blocking() -> None:
    spec = WORKLOADS["stream-gemmini-b1024"]
    design = compile_design(spec.design)
    inputs = make_inputs(spec, SEED)
    cycles = len(inputs.stimuli)
    shipped = design.simulator(batch=spec.batch)
    want = None
    print(f"{spec.name}: {cycles} cycles per pass, {PAIRS} alternating pairs, per-cycle times")
    for group in (8, 4, 2):
        blocked = design.simulator(batch=spec.batch, backend=blocked_backend(group))
        times: dict[str, list[float]] = {"shipped": [], "blocked": []}
        for pair in range(PAIRS):
            order = (("shipped", shipped), ("blocked", blocked))
            for label, sim in order if pair % 2 == 0 else order[::-1]:
                sim.reset()
                t0 = time.perf_counter()
                outputs = sim.run_lanes(inputs.stimuli)
                times[label].append((time.perf_counter() - t0) / cycles)
                if want is None:
                    want = outputs
                assert outputs == want, "the blocked kernel must not change a bit"
        print(f"  {'shipped (unblocked)':34s} {spread(times['shipped'])}")
        report(f"wave loop blocked, GROUP={group}", times["shipped"], times["blocked"])


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


def split_stage(parts: list[int], weight: dict[int, int]) -> list[list[int]]:
    """Two groups of a stage's partitions, balanced by fold work (LPT)."""
    groups: list[list[int]] = [[], []]
    load = [0, 0]
    for idx in sorted(parts, key=lambda i: -weight[i]):
        g = load[1] < load[0]
        groups[g].append(idx)
        load[g] += weight[idx]
    return [sorted(g) for g in groups if g]


def stage_runners(sim, stage_groups: list[list[int]]):
    """Fuse ``stage_groups`` (one plan each, own trace and deferred
    buffer, shared global state and arena) and compile every plan."""
    fused = fuse(sim.partitions, stage_groups, sim.engine)
    eng = sim.engine
    arena = eng.zeros(fused.arena_size)
    arena[fused.preset_slots] = eng.lane_mask
    runs = []
    for plan in fused.stages:
        buffers = StageBuffers(
            sim.global_state, eng.zeros(plan.trace_size), arena, eng.zeros(plan.def_gidx.size)
        )
        runs.append(sim.backend.compile_stage(plan, buffers))
    nodes = sum(int(plan.wave_count.sum()) for plan in fused.stages)
    return runs, nodes


def threads() -> None:
    pool = ThreadPoolExecutor(1)
    for name in ("single-lane-rocketchip-b1", "seed-sweep-rocketchip-b64", "stream-gemmini-b1024"):
        spec = WORKLOADS[name]
        sim = compile_design(spec.design).simulator(batch=spec.batch)
        assert sim.backend.name == "native"
        weight = {
            i: sum(1 << layer.eff_width_log2 for layer in part.layers)
            for i, part in enumerate(sim.partitions)
        }
        halves = [split_stage(parts, weight) for parts in sim.stage_indices]
        whole, nodes = stage_runners(sim, sim.stage_indices)
        split, split_nodes = stage_runners(sim, [g for stage in halves for g in stage])
        # the split plans, regrouped per stage
        per_stage, at = [], 0
        for stage in halves:
            per_stage.append(split[at : at + len(stage)])
            at += len(stage)

        def one_plan():
            for run in whole:
                run(None)

        def two_plans():
            for run in split:
                run(None)

        def two_threads():
            for runs in per_stage:
                waits = [pool.submit(run, None) for run in runs[1:]]
                runs[0](None)
                for wait in waits:
                    wait.result()

        reps = max(20, int(2e7 // max(nodes * sim.engine.words, 1)))
        variants = (("one", one_plan), ("split", two_plans), ("threads", two_threads))
        times: dict[str, list[float]] = {label: [] for label, _ in variants}
        for pair in range(PAIRS):
            for label, fn in variants if pair % 2 == 0 else variants[::-1]:
                fn()
                t0 = time.perf_counter()
                for _ in range(reps):
                    fn()
                times[label].append((time.perf_counter() - t0) / reps)
        sizes = [[len(g) for g in stage] for stage in halves]
        print(
            f"{name}: {len(sim.stage_indices)} stage(s), partitions per group {sizes}, "
            f"{nodes} AND nodes fused whole / {split_nodes} fused as groups, "
            f"K={sim.engine.words}, stage kernels only, per cycle"
        )
        print(f"  {'shipped: one plan per stage':34s} {spread(times['one'])}")
        report("two group plans, one thread", times["one"], times["split"])
        report("two group plans, two threads", times["one"], times["threads"])
    pool.shutdown()


if __name__ == "__main__":
    which = sys.argv[1:] or ["blocking", "threads"]
    print(f"host: {os.cpu_count()} cpus; numpy {np.__version__}")
    for name in which:
        {"blocking": blocking, "threads": threads}[name]()
