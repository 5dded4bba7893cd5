"""Command-line entry points.

Usage (installed scripts or ``python -m repro.harness.cli``)::

    gem-compile <design>            # run the flow, print the Table I row
    gem-run <design> <workload>     # compile + execute a workload on GEM
    gem-tables [table1|table2|all]  # regenerate the paper's tables
    gem-cosim <design> <workload>   # lockstep against the golden model
    gem-faultcampaign <design>      # seeded SEU injection campaign
    gem-perf show|diff|compare|validate-trace   # telemetry tooling
    gem-fuzz run|replay|corpus      # differential fuzzing (docs/FUZZING.md)
    gem-chaos [--seed N]            # chaos harness: injected crashes/hangs
    gem-tune <design>               # compile-time autotuner (docs/TUNING.md)
    gem-probe list|watch|dump|activity   # signal-level probes

``gem-run`` grows a resilience mode: ``--checkpoint-every N`` snapshots
interpreter state every N cycles into ``--checkpoint-dir`` (CRC-sealed,
journaled, rotating), ``--resume [latest|DIR|FILE.gemk]`` continues from
the newest *valid* checkpoint (walking the journal past torn files),
``--scrub-every`` controls integrity scrubbing against a lockstep
shadow, and ``--deadline`` / ``--cycle-budget`` arm a cooperative
watchdog (see docs/RESILIENCE.md).  Supervised exit codes are distinct:
0 ok, 1 output mismatch, 3 degraded after fault-retry exhaustion,
4 degraded on a watchdog timeout, 5 unresolvable ``--resume`` target.

Observability (docs/OBSERVABILITY.md): every command takes
``--log-level``; ``gem-run`` adds ``--trace-out`` (Chrome trace JSON for
Perfetto, ring-buffered via ``--trace-buffer``), ``--report-out``
(per-run :class:`~repro.obs.report.RunReport` JSON), and
``--metrics-out`` (Prometheus text).  ``gem-perf`` renders and diffs
reports and judges two sets of ``benchmarks/e2e`` records by the
benchmark's own bounds.

Signal-level probes (docs/OBSERVABILITY.md): ``gem-run --probe [NETS]``
compiles named nets into per-cycle engine taps; ``--vcd-out`` streams
one lane (``--lane``) of the bounded capture window (``--probe-window``)
as a VCD, ``--saif-out`` writes SAIF-style toggle counts, and the
RunReport gains a hot-net activity table.  ``gem-probe`` inspects nets
without the full run plumbing, and ``gem-cosim --dump-waves`` /
``gem-fuzz run --wave-dir`` auto-dump probed waveforms around the first
divergent cycle of a mismatch.

``<design>`` is one of: nvdla, rocketchip, gemmini, openpiton1, openpiton8.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

LOG_LEVELS = ("debug", "info", "warning", "error")

#: supervised ``gem-run`` exit codes (docs/RESILIENCE.md)
EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_TIMEOUT = 4
EXIT_CORRUPT_RESUME = 5


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="stderr logging threshold (default: warning); supervisor and "
        "checkpoint warnings are dropped below this",
    )


def _setup_logging(args: argparse.Namespace) -> None:
    level = getattr(logging, getattr(args, "log_level", "warning").upper())
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main_compile(argv: list[str] | None = None) -> int:
    from repro.harness.runner import DESIGNS, compile_design

    parser = argparse.ArgumentParser(prog="gem-compile", description="Run the GEM compile flow")
    parser.add_argument("design", choices=sorted(DESIGNS))
    parser.add_argument("--bitstream", help="write the assembled bitstream to this file")
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    t0 = time.time()
    design = compile_design(args.design)
    elapsed = time.time() - t0
    report = design.report
    print(f"compiled {args.design} in {elapsed:.1f}s (cached runs are instant)")
    for key, value in report.row().items():
        print(f"  {key:14s} {value}")
    print(f"  {'replication':14s} {report.replication_cost:.1%}")
    print(f"  {'utilization':14s} {report.mean_utilization:.1%}")
    if args.bitstream:
        design.program.words.tofile(args.bitstream)
        print(f"bitstream written to {args.bitstream} ({design.program.num_bytes} bytes)")
    return 0


def main_run(argv: list[str] | None = None) -> int:
    from repro.core.backend import BACKEND_NAMES
    from repro.harness.runner import DESIGNS, compile_design, design_workloads

    parser = argparse.ArgumentParser(prog="gem-run", description="Execute a workload on GEM")
    parser.add_argument("design", choices=sorted(DESIGNS))
    parser.add_argument("workload", nargs="?", help="workload name (default: first)")
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="pack N stimulus lanes into the state's lane planes (1..64, "
        "or a whole number of 64-lane words up to 4096); all lanes see "
        "the workload stimuli, outputs report lane 0 (docs/ENGINE.md)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="how the stage executor runs a stage: native (the C stage "
        "kernel; the default wherever a C compiler or a cached build "
        "exists) or numpy (the array loop). native asked for by name "
        "where it cannot be built warns once and falls back to numpy",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-clock split (inject/gather/fold/commit)",
    )
    parser.add_argument(
        "--values", type=int, choices=[2, 4], default=2,
        help="value system: 2 (default) or 4 — compile through the "
        "dual-rail transform so the fast engines execute X/Z natively; "
        "outputs then report value-rail words plus their __x unknown "
        "masks (docs/ENGINE.md)",
    )
    parser.add_argument(
        "--x-reset", dest="x_reset", action=argparse.BooleanOptionalAction,
        default=True,
        help="with --values 4: registers/memories power up unknown "
        "(default; the reset-coverage scenario). --no-x-reset powers up "
        "at declared init values, making fully-known runs bit-identical "
        "to the 2-state engine",
    )
    resilience = parser.add_argument_group("resilience (supervised execution)")
    resilience.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="snapshot interpreter state every N cycles",
    )
    resilience.add_argument(
        "--checkpoint-dir", default=None,
        help="persist rotating checkpoints here (default: .gem_checkpoints/<design>)",
    )
    resilience.add_argument(
        "--resume", nargs="?", const="latest", default=None, metavar="TARGET",
        help="continue from a checkpoint: 'latest' (default when the flag "
        "is given bare) picks the newest valid snapshot in --checkpoint-dir "
        "via its journal; a directory picks from there; a .gemk file loads "
        "exactly that snapshot.  Exits 5 if nothing valid resolves.",
    )
    resilience.add_argument(
        "--scrub-every", type=int, default=None, metavar="N",
        help="integrity-scrub against a lockstep shadow every N cycles",
    )
    resilience.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="cooperative wall-clock budget; expiry rolls back and retries "
        "under tightened grace, then degrades (exit 4)",
    )
    resilience.add_argument(
        "--cycle-budget", type=int, default=None, metavar="N",
        help="budget of executed cycles (replays included); same recovery "
        "ladder as --deadline",
    )
    resilience.add_argument(
        "--quarantine-after", type=int, default=2, metavar="K",
        help="quarantine a lane after it diverges in K consecutive recovery "
        "attempts (batched redundant runs; default 2)",
    )
    tune = parser.add_argument_group("autotuning (docs/TUNING.md)")
    tune.add_argument(
        "--tune", action="store_true",
        help="compile under the design's tuned GemConfig: runs (or recalls "
        "from the tuning cache) the compile-time autotuner before executing",
    )
    tune.add_argument(
        "--tune-cache", default=None, metavar="DIR",
        help="tuning-cache directory (default: $GEM_TUNE_DIR or .gem_tune)",
    )
    tune.add_argument(
        "--tune-budget", type=int, default=6, metavar="N",
        help="max knob candidates compiled by the sweep (default 6)",
    )
    tune.add_argument(
        "--tune-seed", type=int, default=0, help="autotuner seed (default 0)")
    tune.add_argument(
        "--tune-topk", type=int, default=3, metavar="K",
        help="analytical finalists that get a measured run (default 3)",
    )
    tune.add_argument(
        "--tune-cycles", type=int, default=24, metavar="N",
        help="measured cycles per finalist; 0 = model-only selection (default 24)",
    )
    obs = parser.add_argument_group("observability (docs/OBSERVABILITY.md)")
    obs.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the run (open in Perfetto)",
    )
    obs.add_argument(
        "--trace-buffer", type=int, default=None, metavar="EVENTS",
        help="trace ring-buffer capacity in events (default 1000000); when "
        "it overflows, oldest events are dropped and counted — the "
        "RunReport surfaces the count as trace_dropped_events",
    )
    obs.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="write a RunReport JSON (input to gem-perf)",
    )
    obs.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metric registry in Prometheus text format",
    )
    probes = parser.add_argument_group("signal probes (docs/OBSERVABILITY.md)")
    probes.add_argument(
        "--probe", nargs="?", const="*", default=None, metavar="NETS",
        help="tap named nets each cycle: comma-separated fnmatch globs "
        "over net names, or the group selectors inputs/registers/outputs "
        "(bare --probe taps everything); implied by --vcd-out/--saif-out",
    )
    probes.add_argument(
        "--vcd-out", default=None, metavar="FILE",
        help="dump the probed capture window as a VCD for one lane",
    )
    probes.add_argument(
        "--lane", type=int, default=0, metavar="N",
        help="which lane of a batched run --vcd-out dumps (default 0)",
    )
    probes.add_argument(
        "--saif-out", default=None, metavar="FILE",
        help="write SAIF-style T0/T1/TC toggle counts over all lanes",
    )
    probes.add_argument(
        "--probe-window", type=int, default=4096, metavar="CYCLES",
        help="waveform ring capacity in cycles; older cycles fall out and "
        "are counted as dropped_windows in the report (default 4096)",
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    workloads = design_workloads(args.design)
    if args.workload is None:
        args.workload = next(iter(workloads))
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; available: {', '.join(workloads)}")
        return 2
    wl = workloads[args.workload]
    args.tuned_config = None
    if args.tune:
        from repro.core.autotune import AutotuneConfig
        from repro.harness.runner import autotune_design

        tuned = autotune_design(
            args.design,
            wl.name,
            opts=AutotuneConfig(
                budget=args.tune_budget,
                top_k=args.tune_topk,
                measure_cycles=args.tune_cycles,
                seed=args.tune_seed,
                cache_dir=args.tune_cache,
            ),
        )
        args.tuned_config = tuned.winning_config()
        hit = "cache hit" if tuned.cache_hit else "sweep ran"
        gain = tuned.measured_gain
        gain_s = f", measured {gain:.2f}x default" if gain else ""
        print(
            f"autotune: {tuned.winner_label} config {tuned.winner_digest} "
            f"({hit}{gain_s}; cache {tuned.cache_path})"
        )
    tap = None
    if args.probe or args.vcd_out or args.saif_out:
        from repro.errors import ProbeError

        if not 0 <= args.lane < args.batch:
            print(f"--lane {args.lane} out of range for --batch {args.batch}")
            return EXIT_USAGE
        try:
            tap = _make_probe_tap(args)
        except ProbeError as exc:
            print(f"probe error: {exc}")
            return EXIT_USAGE
    supervised = (
        args.checkpoint_every is not None
        or args.resume is not None
        or args.scrub_every is not None
        or args.deadline is not None
        or args.cycle_budget is not None
    )
    if args.trace_out:
        from repro.obs.trace import TRACER

        TRACER.enable(capacity=args.trace_buffer)
    try:
        rc = _run_supervised(args, wl, tap) if supervised else _run_plain(args, wl, tap)
    finally:
        if args.trace_out:
            count = TRACER.write(args.trace_out)
            TRACER.disable()
            dropped = f", {TRACER.dropped} dropped" if TRACER.dropped else ""
            print(f"trace written to {args.trace_out} ({count} events{dropped})")
    if args.metrics_out:
        from repro.obs.metrics import REGISTRY

        with open(args.metrics_out, "w") as f:
            f.write(REGISTRY.to_prometheus())
        print(f"metrics written to {args.metrics_out}")
    return rc


def _make_probe_tap(args):
    """Build the ``gem-run`` probe tap: waveform ring (when dumping a VCD)
    plus an activity accumulator, over the resolved net plan."""
    from repro.harness.runner import compile_design
    from repro.obs.activity import ActivityAccumulator
    from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan

    design = compile_design(
        args.design,
        getattr(args, "tuned_config", None),
        values=getattr(args, "values", 2),
        x_reset=getattr(args, "x_reset", True),
        x_memory=getattr(args, "x_reset", True),
    )
    plan = build_probe_plan(design, args.probe)
    sinks = []
    if args.vcd_out:
        sinks.append(WaveRing(plan, capacity=args.probe_window))
    sinks.append(ActivityAccumulator(plan))
    return ProbeTap(plan, sinks)


def _probe_extras(args, tap) -> dict:
    """Post-run probe outputs: VCD/SAIF dumps, activity metrics, and the
    ``activity`` extras block RunReports carry (rendered by ``gem-perf
    show`` as the hot-net table)."""
    from repro.obs.activity import (
        ActivityAccumulator,
        hot_nets,
        publish_net_activity,
        write_saif,
    )
    from repro.obs.probe import WaveRing

    acc = tap.sink_of(ActivityAccumulator)
    activity = {
        "cycles": acc.cycles,
        "lanes": acc.batch,
        "nets": len(tap.plan.nets),
        "hot_nets": hot_nets(acc),
    }
    if tap.detached_reason:
        activity["detached"] = tap.detached_reason
    ring = tap.sink_of(WaveRing)
    if ring is not None and args.vcd_out:
        summary = ring.dump_vcd(args.vcd_out, lane=args.lane)
        print(
            f"waveform written to {args.vcd_out} (lane {summary['lane']}, "
            f"{summary['cycles']} cycles from cycle {summary['first_cycle']}, "
            f"{summary['dropped_windows']} dropped)"
        )
        activity["vcd_out"] = args.vcd_out
        activity["dropped_windows"] = summary["dropped_windows"]
    if args.saif_out:
        write_saif(args.saif_out, acc, design=args.design)
        print(
            f"SAIF activity written to {args.saif_out} ({acc.cycles} cycles "
            f"x {acc.batch} lane(s), {len(tap.plan.nets)} nets)"
        )
        activity["saif_out"] = args.saif_out
    publish_net_activity(acc)
    return {"activity": activity}


def _write_run_report(args, wl, **kwargs) -> None:
    """Assemble and write the ``--report-out`` RunReport for a run."""
    from repro.core.backend import resolve_backend
    from repro.core.compiler import GemSimulator
    from repro.core.engine import validate_batch
    from repro.obs.report import build_run_report, write_report

    kwargs.setdefault("backend", resolve_backend(getattr(args, "backend", None)).name)
    kwargs.setdefault("lane_words", validate_batch(args.batch))
    extras = kwargs.pop("extras", {})
    if args.trace_out:
        from repro.obs.trace import TRACER

        extras["trace_out"] = args.trace_out
        extras["trace_dropped_events"] = TRACER.dropped
    report = build_run_report(
        design=args.design,
        workload=wl.name,
        batch=args.batch,
        engine_mode=GemSimulator.mode,
        extras=extras,
        **kwargs,
    )
    write_report(report, args.report_out)
    print(f"run report written to {args.report_out}")


def _run_plain(args, wl, tap=None) -> int:
    """The unsupervised fast path of ``gem-run``."""
    from dataclasses import asdict

    from repro.harness.runner import compile_design
    from repro.obs.metrics import REGISTRY

    design = compile_design(
        args.design,
        getattr(args, "tuned_config", None),
        values=args.values,
        x_reset=args.x_reset,
        x_memory=args.x_reset,
    )
    sim = design.simulator(batch=args.batch, backend=args.backend, profile=args.profile)
    if tap is not None:
        tap.attach(sim)
    stimuli = wl.stimuli[: args.max_cycles] if args.max_cycles else wl.stimuli
    t0 = time.perf_counter()
    observed = []
    last = {}
    for vec in stimuli:
        last = sim.step(vec)
        if wl.valid_port in last and last.get(wl.valid_port):
            observed.append(last[wl.out_port])
    elapsed = time.perf_counter() - t0
    lanes = f" x {args.batch} lanes" if args.batch > 1 else ""
    vals = " 4-state" if args.values == 4 else ""
    print(f"{args.design}/{wl.name}: {len(stimuli)} cycles{lanes} in {elapsed:.3f}s "
          f"({len(stimuli) * args.batch / max(elapsed, 1e-9):.0f} lane-cycles/s on this host, "
          f"{sim.mode}{vals} engine, {sim.backend.name} backend)")
    if args.values == 4:
        # Reset-coverage readout: X bits still visible on lane 0's outputs
        # after the workload (0 = the reset sequence fully initialized
        # everything observable).
        print(f"unknown output bits after {len(stimuli)} cycles: "
              f"{sim.unknown_output_bits()}")
    if args.profile:
        total = sum(sim.phase_times.values()) or 1e-9
        print("per-phase time split:")
        for phase, spent in sim.phase_times.items():
            print(f"  {phase:8s} {spent:8.3f}s  {spent / total:6.1%}")
    REGISTRY.publish_cycle_counters(sim.counters)
    if any(sim.phase_times.values()):
        REGISTRY.publish_phase_times(sim.phase_times)
    probe_extras = _probe_extras(args, tap) if tap is not None else {}
    if args.report_out:
        _write_run_report(
            args, wl,
            cycles=len(stimuli),
            elapsed_s=elapsed,
            counters=asdict(sim.counters),
            phase_times=dict(sim.phase_times),
            extras={
                "config": "tuned" if getattr(args, "tuned_config", None) else "default",
                "config_digest": design.report.config_digest,
                # where the run ended up: two runs of one workload agree on it
                # whatever tier their fused plan came from
                "state_digest": f"{sim.state.digest():08x}",
                **probe_extras,
            },
        )
    if wl.expected_out is None:
        print(f"final outputs: {dict(list(last.items())[:6])}")
    return _output_verdict(args, wl, observed)


def _output_verdict(args, wl, observed: list[int]) -> int:
    """Show the workload's observable stream and judge it when it can be.

    Only a complete, known-value run from reset is held against
    ``wl.expected_out``: it prints ``[MATCH]`` or ``[MISMATCH]`` and a
    mismatch exits ``EXIT_MISMATCH``.  A truncated (``--max-cycles``),
    resumed or x-reset run shows the stream it saw with no verdict — the
    expected stream is the whole workload's, from known power-on state.
    """
    if wl.expected_out is None:
        return EXIT_OK
    whole_workload = not args.max_cycles or args.max_cycles >= len(wl.stimuli)
    known_run = not (args.values == 4 and args.x_reset)
    if not (whole_workload and known_run and args.resume is None):
        print(f"observable output stream: {observed}")
        return EXIT_OK
    matched = observed == wl.expected_out
    print(f"observable output stream: {observed} [{'MATCH' if matched else 'MISMATCH'}]")
    return EXIT_OK if matched else EXIT_MISMATCH


def _run_supervised(args, wl, tap=None) -> int:
    """The resilience path of ``gem-run`` (checkpointed + scrubbed)."""
    import os

    from repro.errors import CheckpointError
    from repro.harness.runner import run_resilient

    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and (args.checkpoint_every or args.resume is not None):
        checkpoint_dir = os.path.join(".gem_checkpoints", args.design)
    t0 = time.perf_counter()
    try:
        result = run_resilient(
            args.design,
            wl.name,
            max_cycles=args.max_cycles,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            scrub_every=args.scrub_every if args.scrub_every is not None else 1,
            resume=args.resume if args.resume is not None else False,
            batch=args.batch,
            backend=args.backend,
            profile=args.profile,
            deadline_s=args.deadline,
            cycle_budget=args.cycle_budget,
            quarantine_after=args.quarantine_after,
            config=getattr(args, "tuned_config", None),
            probe=tap,
            values=args.values,
            x_reset=args.x_reset,
        )
    except CheckpointError as exc:
        print(f"cannot resume: {exc}")
        return EXIT_CORRUPT_RESUME
    elapsed = time.perf_counter() - t0
    probe_extras = _probe_extras(args, tap) if tap is not None else {}
    print(f"{args.design}/{wl.name}: {result.report()}")
    print(f"  {result.cycles} cycles x {result.lanes} lanes in {elapsed:.3f}s "
          f"({result.cycles * result.lanes / max(elapsed, 1e-9):.0f} "
          f"supervised lane-cycles/s on this host)")
    if args.profile and any(result.phase_times.values()):
        total = sum(result.phase_times.values()) or 1e-9
        print("per-phase time split (all attempts):")
        for phase, spent in result.phase_times.items():
            print(f"  {phase:8s} {spent:8.3f}s  {spent / total:6.1%}")
    if args.report_out:
        _write_run_report(
            args, wl,
            cycles=result.cycles,
            elapsed_s=elapsed,
            phase_times=dict(result.phase_times),
            kind="gem-run/supervised",
            extras={
                "config": "tuned" if getattr(args, "tuned_config", None) else "default",
                "engine": result.engine,
                "degraded": result.degraded,
                "retries": result.retries,
                "faults_detected": result.faults_detected,
                "checkpoints_written": result.checkpoints_written,
                "timeouts": result.timeouts,
                **probe_extras,
                "quarantined_lanes": result.quarantined_lanes,
            },
        )
    observed = [
        out[wl.out_port]
        for out in result.outputs
        if wl.valid_port in out and out.get(wl.valid_port)
    ]
    if _output_verdict(args, wl, observed) == EXIT_MISMATCH:
        return EXIT_MISMATCH
    if result.degraded:
        return EXIT_TIMEOUT if result.timeouts else EXIT_DEGRADED
    return EXIT_OK


def main_faultcampaign(argv: list[str] | None = None) -> int:
    """Run a seeded SEU fault-injection campaign against one design."""
    from repro.harness.runner import DESIGNS, compile_design, design_workloads
    from repro.runtime.faults import run_campaign

    parser = argparse.ArgumentParser(
        prog="gem-faultcampaign", description=main_faultcampaign.__doc__
    )
    parser.add_argument("design", choices=sorted(DESIGNS))
    parser.add_argument("workload", nargs="?", help="workload name (default: first)")
    parser.add_argument("--trials", type=int, default=10,
                        help="faults injected per fault class (default 10)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-cycles", type=int, default=64)
    parser.add_argument("--checkpoint-every", type=int, default=8)
    parser.add_argument("--scrub-every", type=int, default=1)
    parser.add_argument("--max-retries", type=int, default=3)
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    workloads = design_workloads(args.design)
    wl = workloads[args.workload or next(iter(workloads))]
    design = compile_design(args.design)
    stimuli = wl.stimuli[: args.max_cycles] if args.max_cycles else wl.stimuli
    report = run_campaign(
        design,
        stimuli,
        name=f"{args.design}/{wl.name}",
        trials=args.trials,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        scrub_every=args.scrub_every,
        max_retries=args.max_retries,
    )
    print(report.summary())
    return 0 if report.passed else 1


def main_tune(argv: list[str] | None = None) -> int:
    """Compile-time autotuner: knob sweep + SA placement refinement (docs/TUNING.md)."""
    import json

    from repro.core.autotune import AutotuneConfig
    from repro.harness.runner import DESIGNS, autotune_design

    parser = argparse.ArgumentParser(prog="gem-tune", description=main_tune.__doc__)
    parser.add_argument("design", choices=sorted(DESIGNS))
    parser.add_argument("workload", nargs="?", help="workload for the measured phase")
    parser.add_argument("--budget", type=int, default=6, help="max candidates compiled (default 6)")
    parser.add_argument("--top-k", type=int, default=3, help="measured finalists (default 3)")
    parser.add_argument(
        "--cycles", type=int, default=24,
        help="measured cycles per finalist; 0 = model-only selection (default 24)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats per finalist")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-gain", type=float, default=0.05, metavar="FRAC",
        help="winner must beat the default by this fraction or the default is kept",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="tuning-cache directory (default: $GEM_TUNE_DIR or .gem_tune)",
    )
    parser.add_argument("--json", action="store_true", help="emit the full result as JSON")
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    result = autotune_design(
        args.design,
        args.workload,
        opts=AutotuneConfig(
            budget=args.budget,
            top_k=args.top_k,
            measure_cycles=args.cycles,
            repeats=args.repeats,
            seed=args.seed,
            min_gain=args.min_gain,
            cache_dir=args.cache,
        ),
    )
    if args.json:
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
        return 0
    hit = "tuning-cache hit" if result.cache_hit else "sweep ran"
    print(f"{args.design} (crc {result.crc}): {hit}, winner = {result.winner_label}")
    for cand in result.candidates:
        label = ", ".join(f"{k}={v}" for k, v in cand.knobs.items()) or "default"
        measured = (
            f"  measured {cand.measured_cycles_per_s:8.0f} c/s"
            if cand.measured_cycles_per_s
            else ""
        )
        model = f"model {cand.model_hz:9.0f} Hz" if cand.score else cand.status
        marker = " <== winner" if cand.digest == result.winner_digest else ""
        print(f"  [{cand.status:10s}] {model}{measured}  {label}{marker}")
    gain = result.measured_gain
    if gain is not None:
        print(f"measured winner/default: {gain:.2f}x")
    print(f"winning knobs: {result.winner_knobs or '(default config)'}")
    print(f"cache: {result.cache_path}")
    return 0


def main_tables(argv: list[str] | None = None) -> int:
    from repro.harness.tables import (
        PAPER_AVERAGE_SPEEDUPS,
        average_speedups,
        format_table,
        table1_rows,
        table2_rows,
    )

    parser = argparse.ArgumentParser(prog="gem-tables", description="Regenerate the paper's tables")
    parser.add_argument("which", nargs="?", default="all", choices=["table1", "table2", "all"])
    parser.add_argument("--designs", nargs="*", default=None)
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    if args.which in ("table1", "all"):
        print("Table I: design statistics and GEM mapping results")
        print(format_table(table1_rows(args.designs)))
    if args.which in ("table2", "all"):
        print("Table II: simulation speed (Hz) and speed-up vs GEM-A100")
        rows = table2_rows(args.designs)
        print(format_table([r.as_dict() for r in rows], floatfmt=".0f"))
        avg = average_speedups(rows)
        print("average speed-ups (ours vs paper):")
        for key, value in avg.items():
            print(f"  {key:14s} {value:6.2f}   (paper: {PAPER_AVERAGE_SPEEDUPS[key]:.2f})")
    return 0


def main_cosim(argv: list[str] | None = None) -> int:
    """Co-simulate GEM against the golden word-level model on a workload."""
    from repro.harness.cosim import cosim
    from repro.harness.runner import DESIGNS, compile_design, design_circuit, design_workloads
    from repro.rtl import Netlist, WordSim

    parser = argparse.ArgumentParser(prog="gem-cosim", description=main_cosim.__doc__)
    parser.add_argument("design", choices=sorted(DESIGNS))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument("--keep-going", action="store_true", help="do not stop at the first divergence")
    parser.add_argument(
        "--dump-waves", default=None, metavar="FILE",
        help="on divergence, re-run with probes on and dump the VCD window "
        "around the first divergent cycle (docs/OBSERVABILITY.md)",
    )
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    workloads = design_workloads(args.design)
    wl = workloads[args.workload or next(iter(workloads))]
    design = compile_design(args.design)
    stimuli = wl.stimuli[: args.max_cycles] if args.max_cycles else wl.stimuli
    result = cosim(
        WordSim(Netlist(design_circuit(args.design))),
        design.simulator(),
        stimuli,
        stop_on_divergence=not args.keep_going,
    )
    print(f"{args.design}/{wl.name}: {result.report()}")
    if not result.passed and args.dump_waves:
        from repro.obs.probe import dump_divergence_waves

        summary = dump_divergence_waves(
            design, stimuli, result.divergence.cycle, args.dump_waves
        )
        print(
            f"divergence waves written to {summary['path']} "
            f"({summary['cycles']} cycles from cycle {summary['first_cycle']}, "
            f"divergence at cycle {summary['divergence_cycle']})"
        )
    return 0 if result.passed else 1


def main_perf(argv: list[str] | None = None) -> int:
    """Render and diff run reports, compare benchmark records (docs/OBSERVABILITY.md)."""
    import json

    from repro.obs.report import (
        compare_e2e,
        diff_reports,
        format_report,
        load_e2e_records,
        load_report,
    )
    from repro.obs.trace import validate_trace

    parser = argparse.ArgumentParser(prog="gem-perf", description=main_perf.__doc__)
    _add_log_level(parser)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_show = sub.add_parser("show", help="render one RunReport")
    p_show.add_argument("report")

    p_diff = sub.add_parser("diff", help="field-by-field diff of two RunReports")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")

    p_cmp = sub.add_parser(
        "compare",
        help="judge two files or directories of benchmarks/e2e records by the "
        "benchmark's own bounds (exit 1 = something is WORSE, 2 = nothing compared)",
    )
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    p_cmp.add_argument(
        "benchmark", nargs="?", default="BENCHMARK.json",
        help="the benchmark declaration naming each metric's direction and bound",
    )

    p_val = sub.add_parser(
        "validate-trace", help="schema-check a Chrome trace-event JSON"
    )
    p_val.add_argument("trace")

    args = parser.parse_args(argv)
    _setup_logging(args)

    if args.cmd == "show":
        print(format_report(load_report(args.report)))
        return 0
    if args.cmd == "diff":
        a, b = load_report(args.report_a), load_report(args.report_b)
        print(f"a: {args.report_a}  ({a.design}/{a.workload})")
        print(f"b: {args.report_b}  ({b.design}/{b.workload})")
        for d in diff_reports(a, b):
            print(f"  {d.render()}")
        return 0
    if args.cmd == "validate-trace":
        problems = validate_trace(args.trace)
        if problems:
            print(f"{args.trace}: INVALID")
            for p in problems:
                print(f"  {p}")
            return 1
        print(f"{args.trace}: valid Chrome trace")
        return 0

    # compare
    try:
        with open(args.benchmark) as f:
            declaration = json.load(f)
        lines, worse = compare_e2e(
            load_e2e_records(args.parent), load_e2e_records(args.change), declaration
        )
    except (OSError, ValueError) as exc:
        print(f"gem-perf compare: {exc}")
        return EXIT_USAGE
    print("\n".join(lines))
    return 1 if worse else 0


def main_fuzz(argv: list[str] | None = None) -> int:
    """Differential fuzzing: generate/cross-check/shrink (docs/FUZZING.md)."""
    import json

    from repro.fuzz import PROFILES, replay_repro, run_fuzz
    from repro.fuzz.corpus import Corpus

    parser = argparse.ArgumentParser(prog="gem-fuzz", description=main_fuzz.__doc__)
    _add_log_level(parser)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="coverage-guided fuzz campaign")
    p_run.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    p_run.add_argument("--iters", type=int, default=20, help="iterations (default 20)")
    p_run.add_argument(
        "--profiles", default=None, metavar="P1,P2",
        help=f"shape profiles to draw from (default: all of {sorted(PROFILES)})",
    )
    p_run.add_argument("--cycles", type=int, default=24, help="stimulus cycles per design")
    p_run.add_argument(
        "--batches", default="1,16", metavar="B1,B2",
        help="lane batches to cross-check (default 1,16; add 64 for full "
        "width, 128+ for multi-word lane planes)",
    )
    p_run.add_argument(
        "--backends", default=None, metavar="B1,B2",
        help="execution backends held against each other: the fused "
        "engine runs the default one, the others enroll as extra "
        "fused-path oracle engines (default: every backend available "
        "here; unavailable ones are skipped with a backend-skip "
        "coverage marker)",
    )
    p_run.add_argument(
        "--failure-dir", default="fuzz-failures",
        help="where shrunk failing .gemrepro files land (default fuzz-failures/)",
    )
    p_run.add_argument(
        "--wave-dir", default=None, metavar="DIR",
        help="also dump a probed VCD window around each failure's first "
        "divergent cycle into this directory (docs/OBSERVABILITY.md)",
    )
    p_run.add_argument("--no-shrink", action="store_true", help="save failures unshrunk")
    p_run.add_argument(
        "--shrink-budget", type=int, default=120,
        help="max oracle runs the shrinker may spend per failure (default 120)",
    )
    p_run.add_argument("--corpus", default=None, help="corpus directory to pre-seed coverage from")
    p_run.add_argument(
        "--bank-novel", action="store_true",
        help="save passing novel-coverage designs into --corpus as regression cases",
    )
    p_run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="soft wall-time bound, checked between iterations (CI smoke budget)",
    )
    p_run.add_argument(
        "--inject-fold", default=None, metavar="INDEX:BIT",
        help="flip one fold-constant bit in every compiled bitstream "
        "(self-test: the oracle must catch the mutation)",
    )
    p_run.add_argument(
        "--inject-known-rail", default=None, metavar="CYCLE:BIT",
        help="flip one known-rail state bit at the given cycle in the fast "
        "4-state engines (self-test: the 4-value oracle must catch the "
        "phantom X; implies --values 4)",
    )
    p_run.add_argument(
        "--values", type=int, choices=(2, 4), default=None,
        help="force 2- or 4-state oracle checking for every profile "
        "(default: each profile's own values knob; xprop runs 4-state)",
    )
    p_run.add_argument("--json", action="store_true", help="emit the stats as JSON")

    p_rep = sub.add_parser("replay", help="re-run .gemrepro files against their expectation")
    p_rep.add_argument("repro", nargs="+", help="one or more .gemrepro files")
    p_rep.add_argument("--json", action="store_true", help="emit outcomes as JSON")

    p_cor = sub.add_parser("corpus", help="summarize a corpus directory")
    p_cor.add_argument("dir", nargs="?", default="tests/corpus", help="corpus directory")
    p_cor.add_argument("--json", action="store_true", help="emit the summary as JSON")

    args = parser.parse_args(argv)
    _setup_logging(args)

    if args.cmd == "replay":
        failures = 0
        outcomes = []
        for path in args.repro:
            outcome = replay_repro(path)
            outcomes.append({"repro": path, "ok": outcome.ok, "message": outcome.message})
            if not args.json:
                print(f"{'ok  ' if outcome.ok else 'FAIL'} {path}: {outcome.message}")
            failures += not outcome.ok
        if args.json:
            print(json.dumps(outcomes, indent=1))
        return 1 if failures else 0

    if args.cmd == "corpus":
        summary = Corpus(args.dir).summarize()
        if args.json:
            print(json.dumps(summary, indent=1))
        else:
            print(f"{summary['root']}: {summary['entries']} entries "
                  f"({summary['expect_pass']} pass, {summary['expect_divergence']} divergence)")
            for feat in summary["coverage_features"]:
                print(f"  {feat}")
        return 0

    # run
    inject = None
    values = args.values
    if args.inject_fold and args.inject_known_rail:
        parser.error("--inject-fold and --inject-known-rail are mutually exclusive")
    if args.inject_fold:
        idx, _, bit = args.inject_fold.partition(":")
        inject = {"kind": "fold", "index": int(idx), "bit": int(bit or 0)}
    if args.inject_known_rail:
        cyc, _, bit = args.inject_known_rail.partition(":")
        inject = {"kind": "known_rail", "cycle": int(cyc), "bit": int(bit or 0)}
        if values is None:
            values = 4
        elif values != 4:
            parser.error("--inject-known-rail requires --values 4")
    stats = run_fuzz(
        args.seed,
        args.iters,
        profiles=args.profiles.split(",") if args.profiles else None,
        cycles=args.cycles,
        batches=tuple(int(b) for b in args.batches.split(",")),
        backends=tuple(b.strip() for b in args.backends.split(",") if b.strip())
        if args.backends
        else None,
        inject=inject,
        shrink_failures=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        failure_dir=args.failure_dir,
        wave_dir=args.wave_dir,
        corpus=Corpus(args.corpus) if args.corpus else None,
        bank_novel=args.bank_novel,
        deadline_s=args.deadline,
        values=values,
    )
    if args.json:
        print(json.dumps({
            "seed": stats.seed,
            "iterations": stats.iterations,
            "divergences": stats.divergences,
            "failures": stats.failures,
            "coverage": sorted(stats.coverage),
            "novel_iterations": stats.novel_iterations,
            "per_profile": stats.per_profile,
            "banked": stats.banked,
            "elapsed_s": stats.elapsed_s,
        }, indent=1))
    else:
        print(stats.summary())
        for path in stats.failures:
            print(f"  failure: {path}")
        for path in stats.banked:
            print(f"  banked:  {path}")
    return 1 if stats.divergences else 0


def main_probe(argv: list[str] | None = None) -> int:
    """Signal-level probes: list nets, watch values, dump waves, profile activity."""
    import json

    from repro.core.backend import BACKEND_NAMES
    from repro.errors import ProbeError
    from repro.harness.runner import DESIGNS, compile_design, design_workloads

    parser = argparse.ArgumentParser(prog="gem-probe", description=main_probe.__doc__)
    _add_log_level(parser)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_net_args(p, workload: bool = True) -> None:
        p.add_argument("design", choices=sorted(DESIGNS))
        if workload:
            p.add_argument("workload", nargs="?", help="workload name (default: first)")
            p.add_argument("--max-cycles", type=int, default=None)
            p.add_argument("--batch", type=int, default=1, metavar="N",
                           help="stimulus lanes packed per state word (docs/ENGINE.md)")
            p.add_argument("--backend", choices=BACKEND_NAMES, default=None)
        p.add_argument(
            "--nets", default=None, metavar="GLOBS",
            help="comma-separated net-name globs or the group selectors "
            "inputs/registers/outputs (default: every probeable net)",
        )

    p_list = sub.add_parser("list", help="probeable nets of a design")
    add_net_args(p_list, workload=False)
    p_list.add_argument("--json", action="store_true")

    p_watch = sub.add_parser("watch", help="run a workload and print probed values per cycle")
    add_net_args(p_watch)
    p_watch.add_argument("--lane", type=int, default=0, help="lane to print (default 0)")
    p_watch.add_argument("--every", type=int, default=1, metavar="N",
                         help="print every Nth cycle (default 1)")

    p_dump = sub.add_parser("dump", help="run a workload and dump probed nets as a VCD")
    add_net_args(p_dump)
    p_dump.add_argument("out", help="VCD output path")
    p_dump.add_argument("--lane", type=int, default=0, help="lane to dump (default 0)")
    p_dump.add_argument("--window", type=int, default=4096, metavar="CYCLES",
                        help="capture-ring capacity; older cycles are dropped (default 4096)")

    p_act = sub.add_parser("activity", help="run a workload and report toggle activity")
    add_net_args(p_act)
    p_act.add_argument("--top", type=int, default=10, help="hot-net table size (default 10)")
    p_act.add_argument("--saif-out", default=None, metavar="FILE",
                       help="also write the counts as a SAIF file")
    p_act.add_argument("--json", action="store_true",
                       help="emit per-net T0/T1/TC counts as JSON")

    args = parser.parse_args(argv)
    _setup_logging(args)
    try:
        return _probe_command(args, json, compile_design, design_workloads)
    except ProbeError as exc:
        print(f"probe error: {exc}")
        return EXIT_USAGE


def _probe_command(args, json, compile_design, design_workloads) -> int:
    """Dispatch one parsed ``gem-probe`` subcommand."""
    from repro.obs.activity import (
        ActivityAccumulator,
        format_hot_nets,
        hot_nets,
        write_saif,
    )
    from repro.obs.probe import (
        ProbeTap,
        WaveRing,
        build_probe_plan,
        list_nets,
    )

    design = compile_design(args.design)
    if args.cmd == "list":
        rows = list_nets(design)
        if args.nets:
            keep = {net.name for net in build_probe_plan(design, args.nets).nets}
            rows = [row for row in rows if row["net"] in keep]
        if args.json:
            print(json.dumps(rows, indent=1))
        else:
            width = max((len(r["net"]) for r in rows), default=3)
            for row in rows:
                print(f"{row['net']:{width}s}  {row['kind']:8s}  {row['width']:3d} bit(s)")
            print(f"{len(rows)} probeable net(s)")
        return 0

    workloads = design_workloads(args.design)
    wl = workloads[args.workload or next(iter(workloads))]
    stimuli = wl.stimuli[: args.max_cycles] if args.max_cycles else wl.stimuli
    plan = build_probe_plan(design, args.nets)
    lane = getattr(args, "lane", 0)
    if not 0 <= lane < args.batch:
        print(f"--lane {lane} out of range for --batch {args.batch}")
        return EXIT_USAGE

    if args.cmd in ("watch", "dump"):
        capacity = len(stimuli) if args.cmd == "watch" else args.window
        ring = WaveRing(plan, capacity=max(capacity, 1))
        tap = ProbeTap(plan, [ring])
    else:  # activity
        acc = ActivityAccumulator(plan)
        tap = ProbeTap(plan, [acc])
    sim = design.simulator(batch=args.batch, backend=args.backend)
    tap.attach(sim)
    for vec in stimuli:
        sim.step(vec)

    if args.cmd == "watch":
        for cycle, values in ring.lane_samples(lane):
            if cycle % args.every:
                continue
            rendered = "  ".join(f"{net}={value}" for net, value in values.items())
            print(f"cycle {cycle:6d}: {rendered}")
        return 0
    if args.cmd == "dump":
        summary = ring.dump_vcd(args.out, lane=lane)
        print(
            f"{args.design}/{wl.name}: waveform written to {args.out} "
            f"(lane {summary['lane']}, {summary['cycles']} cycles from cycle "
            f"{summary['first_cycle']}, {summary['dropped_windows']} dropped)"
        )
        return 0

    # activity
    if args.saif_out:
        write_saif(args.saif_out, acc, design=args.design)
        print(f"SAIF activity written to {args.saif_out}")
    if args.json:
        print(json.dumps(
            {"cycles": acc.cycles, "lanes": acc.batch, "nets": acc.per_net()},
            indent=1,
        ))
        return 0
    print(
        f"{args.design}/{wl.name}: {acc.cycles} cycles x {acc.batch} lane(s), "
        f"{len(plan.nets)} probed net(s)"
    )
    print(f"hot nets (top {args.top} by toggles):")
    print(format_hot_nets(hot_nets(acc, top=args.top)))
    return 0


def main_chaos(argv: list[str] | None = None) -> int:
    """Chaos harness: inject crashes/corruption/hangs, assert recovery."""
    import json

    from repro.runtime.chaos import SCENARIOS, SMOKE_SEEDS, run_chaos

    parser = argparse.ArgumentParser(prog="gem-chaos", description=main_chaos.__doc__)
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2",
        help=f"comma-separated seeds (default {','.join(map(str, SMOKE_SEEDS))})",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="NAME,NAME",
        help=f"scenarios to run (default: all of {sorted(SCENARIOS)})",
    )
    parser.add_argument(
        "--work-dir", default=None,
        help="scratch directory for checkpoint/cache fixtures "
        "(default: a private temp dir; keep it to inspect failures)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metric registry (gem_chaos_scenarios_total et al.) "
        "in Prometheus text format",
    )
    parser.add_argument("--json", action="store_true", help="emit outcomes as JSON")
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args)
    seeds = (
        tuple(int(s) for s in args.seeds.split(",")) if args.seeds else SMOKE_SEEDS
    )
    scenarios = tuple(args.scenarios.split(",")) if args.scenarios else None
    try:
        report = run_chaos(seeds=seeds, scenarios=scenarios, work_dir=args.work_dir)
    except ValueError as exc:  # unknown scenario name
        print(f"error: {exc}")
        return EXIT_USAGE
    if args.json:
        outcomes = [
            {
                "scenario": o.scenario,
                "seed": o.seed,
                "ok": o.ok,
                "detail": o.detail,
                "events": o.events,
            }
            for o in report.outcomes
        ]
        print(json.dumps({"passed": report.passed, "outcomes": outcomes}, indent=1))
    else:
        print(report.summary())
    if args.metrics_out:
        from repro.obs.metrics import REGISTRY

        with open(args.metrics_out, "w") as f:
            f.write(REGISTRY.to_prometheus())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="python -m repro.harness.cli")
    parser.add_argument(
        "command",
        choices=[
            "compile", "run", "tables", "cosim", "faultcampaign", "perf",
            "fuzz", "chaos", "tune", "probe",
        ],
    )
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "compile":
        return main_compile(args.rest)
    if args.command == "run":
        return main_run(args.rest)
    if args.command == "tune":
        return main_tune(args.rest)
    if args.command == "cosim":
        return main_cosim(args.rest)
    if args.command == "faultcampaign":
        return main_faultcampaign(args.rest)
    if args.command == "perf":
        return main_perf(args.rest)
    if args.command == "fuzz":
        return main_fuzz(args.rest)
    if args.command == "chaos":
        return main_chaos(args.rest)
    if args.command == "probe":
        return main_probe(args.rest)
    return main_tables(args.rest)


if __name__ == "__main__":
    raise SystemExit(main())
