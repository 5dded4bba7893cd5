"""The ``gem`` command (also ``python -m repro.harness.cli``).

One parser tree, built from the :data:`COMMANDS` table::

    gem compile <design>                    # run the flow, print the Table I row
    gem run <design> [workload]             # compile + execute a workload on GEM
    gem tables [table1|table2|all]          # regenerate the paper's tables
    gem cosim <design> [workload]           # lockstep against the golden model
    gem faultcampaign <design> [workload]   # seeded SEU injection campaign
    gem perf show|diff|compare|validate-trace   # telemetry tooling
    gem fuzz run|replay|corpus              # differential fuzzing (docs/FUZZING.md)
    gem chaos [--seeds S1,S2]               # chaos harness: injected crashes/hangs
    gem tune <design>                       # compile-time autotuner (docs/TUNING.md)
    gem probe list|watch                    # probeable nets, per-cycle values

``--log-level`` belongs to the root (``gem --log-level info run ...``).
Two argument groups are declared once and shared: the *target* (``design``,
``workload``, ``--max-cycles``; :func:`_target` resolves it, and a mistyped
design or workload exits 2 listing the valid names) and the *engine*
(``--batch``, ``--backend``, ``--values``, ``--[no-]x-reset``;
:func:`_engine_design` / :func:`_engine_sim` turn it into a compiled
design and a simulator).  Building the parser imports only the standard
library: a subcommand imports what it needs when it runs, so ``gem perf
show`` never loads the compiler.

``gem run`` is plain by default; any of ``--checkpoint-every``, ``--resume``,
``--scrub-every``, ``--deadline``, ``--cycle-budget`` runs it under the
supervisor (docs/RESILIENCE.md), whose exit codes are distinct: 0 ok,
1 output mismatch, 3 degraded after fault-retry exhaustion, 4 degraded on
a watchdog timeout, 5 unresolvable ``--resume`` target.  Traces, reports,
metrics and signal probes (``--probe``, ``--vcd-out``, ``--saif-out``) are
docs/OBSERVABILITY.md's.  ``<design>`` is one of: nvdla, rocketchip,
gemmini, openpiton1, openpiton8.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys
import time
from typing import Callable, NamedTuple

from repro.errors import ProbeError

LOG_LEVELS = ("debug", "info", "warning", "error")

#: ``gem run`` exit codes (docs/RESILIENCE.md)
EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_TIMEOUT = 4
EXIT_CORRUPT_RESUME = 5


class UsageError(Exception):
    """A request the parser accepted but the registry cannot serve (unknown
    workload, lane outside the batch): :func:`main` prints it and exits 2."""


def _one_of(module: str, registry: str, what: str) -> Callable[[str], str]:
    """An argparse ``type`` that checks a name against ``module.registry``,
    importing the module only when such an argument is actually parsed."""

    def check(name: str) -> str:
        names = getattr(importlib.import_module(module), registry)
        if name not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r} (choose from {', '.join(sorted(names))})"
            )
        return name

    return check


def _group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _shared_groups() -> dict[str, argparse.ArgumentParser]:
    """The argument groups subcommands share, each declared here once."""
    design = _group()
    design.add_argument(
        "design", type=_one_of("repro.harness.runner", "DESIGNS", "design"),
        help="nvdla, rocketchip, gemmini, openpiton1 or openpiton8",
    )
    target = _group(design)
    target.add_argument("workload", nargs="?", help="workload name (default: the design's first)")
    target.add_argument("--max-cycles", type=int, metavar="N",
                        help="only the first N cycles of the workload")
    engine = _group()
    engine.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="pack N stimulus lanes into the state's lane planes (1..64, or a whole number "
        "of 64-lane words up to 4096); all lanes see the workload stimuli, outputs report "
        "lane 0 (docs/ENGINE.md)",
    )
    engine.add_argument(
        "--backend", type=_one_of("repro.core.backend", "BACKEND_NAMES", "backend"),
        help="how the stage executor runs a stage: native (the C stage kernel; the default "
        "wherever a C compiler or a cached build exists) or numpy (the array loop). native "
        "asked for by name where it cannot be built warns once and falls back to numpy",
    )
    engine.add_argument(
        "--values", type=int, choices=[2, 4], default=2,
        help="value system: 2 (default) or 4 — compile through the dual-rail transform so "
        "the fast engines execute X/Z natively; outputs then report value-rail words plus "
        "their __x unknown masks (docs/ENGINE.md)",
    )
    engine.add_argument(
        "--x-reset", action=argparse.BooleanOptionalAction, default=True,
        help="with --values 4: registers/memories power up unknown (default; the "
        "reset-coverage scenario). --no-x-reset powers up at declared init values, making "
        "fully-known runs bit-identical to the 2-state engine",
    )
    return {"design": design, "target": target, "engine": engine}


def _target(args: argparse.Namespace):
    """The target group resolved: ``(design name, Workload, stimuli)``."""
    from repro.errors import ConfigError
    from repro.harness.runner import design_workload

    try:
        wl = design_workload(args.design, args.workload)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None
    stimuli = wl.stimuli[: args.max_cycles] if args.max_cycles else wl.stimuli
    return args.design, wl, stimuli


def _engine_design(args: argparse.Namespace, config=None):
    """The engine group's compiled design (under ``config``, ``gem run
    --tune``'s, when there is one); memories power up as registers do."""
    from repro.harness.runner import compile_design

    return compile_design(
        args.design, config, values=args.values, x_reset=args.x_reset, x_memory=args.x_reset
    )


def _engine_sim(args: argparse.Namespace, design, profile: bool = False):
    return design.simulator(batch=args.batch, backend=args.backend, profile=profile)


def _check_lane(args: argparse.Namespace) -> None:
    if not 0 <= args.lane < args.batch:
        raise UsageError(f"--lane {args.lane} out of range for --batch {args.batch}")


def _compile_arguments(parser, groups) -> None:
    parser.add_argument("--bitstream", help="write the assembled bitstream to this file")


def _compile(args) -> int:
    """Run the GEM compile flow and print the design's Table I row."""
    from repro.harness.runner import compile_design

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


def _run_arguments(parser, groups) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-clock split (inject/gather/fold/commit)",
    )
    resilience = parser.add_argument_group("resilience (supervised execution)")
    resilience.add_argument("--checkpoint-every", type=int, metavar="N",
                            help="snapshot interpreter state every N cycles")
    resilience.add_argument(
        "--checkpoint-dir",
        help="persist rotating checkpoints here (default: .gem_checkpoints/<design>)",
    )
    resilience.add_argument(
        "--resume", nargs="?", const="latest", metavar="TARGET",
        help="continue from a checkpoint: 'latest' (default when the flag is given bare) "
        "picks the newest valid snapshot in --checkpoint-dir via its journal; a directory "
        "picks from there; a .gemk file loads exactly that snapshot.  Exits 5 if nothing "
        "valid resolves.",
    )
    resilience.add_argument("--scrub-every", type=int, metavar="N",
                            help="integrity-scrub against a lockstep shadow every N cycles")
    resilience.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="cooperative wall-clock budget; expiry rolls back and retries under "
        "tightened grace, then degrades (exit 4)",
    )
    resilience.add_argument(
        "--cycle-budget", type=int, metavar="N",
        help="budget of executed cycles (replays included); same recovery ladder as --deadline",
    )
    tune = parser.add_argument_group("autotuning (docs/TUNING.md)")
    tune.add_argument(
        "--tune", action="store_true",
        help="compile under the design's tuned GemConfig: recalls the newest winner "
        "`gem tune` cached for this design, whatever budget or seed that sweep used, "
        "and sweeps at the library defaults when there is none",
    )
    tune.add_argument("--tune-cache", metavar="DIR",
                      help="tuning-cache directory (default: $GEM_TUNE_DIR or .gem_tune)")
    obs = parser.add_argument_group("observability (docs/OBSERVABILITY.md)")
    obs.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace-event JSON of the run (open in Perfetto); past 1000000 "
        "events the oldest are dropped and counted (trace_dropped_events in the RunReport)",
    )
    obs.add_argument("--report-out", metavar="FILE",
                     help="write a RunReport JSON (input to gem perf)")
    obs.add_argument("--metrics-out", metavar="FILE",
                     help="write the metric registry in Prometheus text format")
    probes = parser.add_argument_group("signal probes (docs/OBSERVABILITY.md)")
    probes.add_argument(
        "--probe", nargs="?", const="*", metavar="NETS",
        help="tap named nets each cycle: comma-separated fnmatch globs over net names, or "
        "the group selectors inputs/registers/outputs (bare --probe taps everything); "
        "implied by --vcd-out/--saif-out",
    )
    probes.add_argument("--vcd-out", metavar="FILE",
                        help="dump the probed capture window as a VCD for one lane")
    probes.add_argument("--lane", type=int, default=0, metavar="N",
                        help="which lane of a batched run --vcd-out dumps (default 0)")
    probes.add_argument("--saif-out", metavar="FILE",
                        help="write SAIF-style T0/T1/TC toggle counts over all lanes")
    probes.add_argument(
        "--probe-window", type=int, default=4096, metavar="CYCLES",
        help="waveform ring capacity in cycles; older cycles fall out and are counted as "
        "dropped_windows in the report (default 4096)",
    )


def _run(args) -> int:
    """Execute a workload on GEM (plain, or supervised: docs/RESILIENCE.md)."""
    _, wl, stimuli = _target(args)
    args.tuned_config = None
    if args.tune:
        from repro.core.autotune import AutotuneConfig
        from repro.harness.runner import autotune_design

        tuned = autotune_design(
            args.design, opts=AutotuneConfig(cache_dir=args.tune_cache), recall=True
        )
        args.tuned_config = tuned.winning_config()
        hit = "cache hit" if tuned.cache_hit else "sweep ran"
        print(
            f"autotune: {tuned.winner_label} config {tuned.winner_digest} "
            f"({hit}; cache {tuned.cache_path})"
        )
    probing = args.probe or args.vcd_out or args.saif_out
    if probing:
        _check_lane(args)
    resilience = (
        args.checkpoint_every, args.resume, args.scrub_every, args.deadline, args.cycle_budget
    )
    run_path = _run_supervised if any(f is not None for f in resilience) else _run_plain
    if args.trace_out:
        from repro.obs.trace import TRACER

        TRACER.enable()
    try:
        # inside the trace: every trace has a compile span
        design = _engine_design(args, args.tuned_config)
        tap = _make_probe_tap(args, design) if probing else None
        rc = run_path(args, design, wl, stimuli, tap)
    finally:
        if args.trace_out:
            count = TRACER.write(args.trace_out)
            TRACER.disable()
            dropped = f", {TRACER.dropped} dropped" if TRACER.dropped else ""
            print(f"trace written to {args.trace_out} ({count} events{dropped})")
    if args.metrics_out:
        _write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return rc


def _write_metrics(path: str) -> None:
    from repro.obs.metrics import REGISTRY

    with open(path, "w") as f:
        f.write(REGISTRY.to_prometheus())


def _make_probe_tap(args, design):
    """Build the ``gem run`` probe tap: waveform ring (when dumping a VCD)
    plus an activity accumulator, over the resolved net plan."""
    from repro.obs.activity import ActivityAccumulator
    from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan

    plan = build_probe_plan(design, args.probe)
    sinks = []
    if args.vcd_out:
        sinks.append(WaveRing(plan, capacity=args.probe_window))
    sinks.append(ActivityAccumulator(plan))
    return ProbeTap(plan, sinks)


def _probe_extras(args, tap) -> dict:
    """Post-run probe outputs: VCD/SAIF dumps, activity metrics, and the
    ``activity`` extras block RunReports carry (rendered by ``gem perf
    show`` as the hot-net table)."""
    from repro.obs.activity import ActivityAccumulator, hot_nets, publish_net_activity, write_saif
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


def _write_run_report(args, wl, *, extras, **kwargs) -> None:
    """Assemble and write the ``--report-out`` RunReport for a run."""
    from repro.core.backend import resolve_backend
    from repro.core.compiler import GemSimulator
    from repro.core.engine import validate_batch
    from repro.obs.report import build_run_report, write_report

    extras = {"config": "tuned" if args.tuned_config else "default", **extras}
    if args.trace_out:
        from repro.obs.trace import TRACER

        extras["trace_out"] = args.trace_out
        extras["trace_dropped_events"] = TRACER.dropped
    report = build_run_report(
        design=args.design,
        workload=wl.name,
        batch=args.batch,
        engine_mode=GemSimulator.mode,
        backend=resolve_backend(args.backend).name,
        lane_words=validate_batch(args.batch),
        extras=extras,
        **kwargs,
    )
    write_report(report, args.report_out)
    print(f"run report written to {args.report_out}")


def _print_phase_split(title: str, phase_times: dict) -> None:
    total = sum(phase_times.values()) or 1e-9
    print(title)
    for phase, spent in phase_times.items():
        print(f"  {phase:8s} {spent:8.3f}s  {spent / total:6.1%}")


def _run_plain(args, design, wl, stimuli, tap) -> int:
    """The unsupervised fast path of ``gem run``."""
    from dataclasses import asdict

    from repro.obs.metrics import REGISTRY

    sim = _engine_sim(args, design, args.profile)
    if tap is not None:
        tap.attach(sim)
    t0 = time.perf_counter()
    outputs = sim.run(stimuli)
    elapsed = time.perf_counter() - t0
    observed = [out[wl.out_port] for out in outputs if out.get(wl.valid_port)]
    last = outputs[-1] if outputs else {}
    lanes = f" x {args.batch} lanes" if args.batch > 1 else ""
    vals = " 4-state" if args.values == 4 else ""
    print(f"{args.design}/{wl.name}: {len(stimuli)} cycles{lanes} in {elapsed:.3f}s "
          f"({len(stimuli) * args.batch / max(elapsed, 1e-9):.0f} lane-cycles/s on this host, "
          f"{sim.mode}{vals} engine, {sim.backend.name} backend)")
    if args.values == 4:
        # Reset-coverage readout: X bits still visible on lane 0's outputs
        # after the workload (0 = the reset sequence fully initialized
        # everything observable).
        print(f"unknown output bits after {len(stimuli)} cycles: {sim.unknown_output_bits()}")
    if args.profile:
        _print_phase_split("per-phase time split:", sim.phase_times)
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


def _run_supervised(args, design, wl, stimuli, tap) -> int:
    """The resilience path of ``gem run`` (checkpointed + scrubbed)."""
    import os

    from repro.errors import CheckpointError
    from repro.harness.runner import run_resilient

    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and (args.checkpoint_every or args.resume is not None):
        checkpoint_dir = os.path.join(".gem_checkpoints", args.design)
    t0 = time.perf_counter()
    try:
        result = run_resilient(
            design,
            stimuli,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            scrub_every=args.scrub_every if args.scrub_every is not None else 1,
            resume=args.resume if args.resume is not None else False,
            batch=args.batch,
            backend=args.backend,
            profile=args.profile,
            deadline_s=args.deadline,
            cycle_budget=args.cycle_budget,
            probe=tap,
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
        _print_phase_split("per-phase time split (all attempts):", result.phase_times)
    if args.report_out:
        _write_run_report(
            args, wl,
            cycles=result.cycles,
            elapsed_s=elapsed,
            phase_times=dict(result.phase_times),
            kind="gem-run/supervised",
            extras={
                "engine": result.engine,
                "degraded": result.degraded,
                "retries": result.retries,
                "faults_detected": result.faults_detected,
                "checkpoints_written": result.checkpoints_written,
                "timeouts": result.timeouts,
                "quarantined_lanes": result.quarantined_lanes,
                **probe_extras,
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


def _faultcampaign_arguments(parser, groups) -> None:
    parser.add_argument("--trials", type=int, default=10,
                        help="faults injected per fault class (default 10)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint-every", type=int, default=8)
    parser.add_argument("--scrub-every", type=int, default=1)


def _faultcampaign(args) -> int:
    """Run a seeded SEU fault-injection campaign against one design
    (the first 64 cycles of the workload unless --max-cycles says otherwise)."""
    from repro.harness.runner import compile_design
    from repro.runtime.faults import run_campaign

    if args.max_cycles is None:
        args.max_cycles = 64  # every trial replays the window
    name, wl, stimuli = _target(args)
    report = run_campaign(
        compile_design(name),
        stimuli,
        name=f"{name}/{wl.name}",
        trials=args.trials,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        scrub_every=args.scrub_every,
    )
    print(report.summary())
    return 0 if report.passed else 1


def _tune_arguments(parser, groups) -> None:
    # defaults are AutotuneConfig's own: an option left out is a field left alone
    parser.add_argument("--budget", type=int, help="max candidates compiled")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cache", metavar="DIR",
                        help="tuning-cache directory (default: $GEM_TUNE_DIR or .gem_tune)")
    parser.add_argument("--json", action="store_true", help="emit the full result as JSON")


def _tune(args) -> int:
    """Compile-time autotuner: knob sweep + placement refinement, ranked
    by the GPU cost model (docs/TUNING.md)."""
    import json

    from repro.core.autotune import AutotuneConfig
    from repro.harness.runner import autotune_design

    given = {"budget": args.budget, "seed": args.seed, "cache_dir": args.cache}
    opts = AutotuneConfig(**{k: v for k, v in given.items() if v is not None})
    result = autotune_design(args.design, opts=opts)
    if args.json:
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
        return 0
    print(result.summary())
    return 0


def _tables_arguments(parser, groups) -> None:
    parser.add_argument("which", nargs="?", default="all", choices=["table1", "table2", "all"])


def _tables(args) -> int:
    """Regenerate the paper's tables."""
    from repro.harness.tables import (
        PAPER_AVERAGE_SPEEDUPS,
        average_speedups,
        format_table,
        table1_rows,
        table2_rows,
    )

    if args.which in ("table1", "all"):
        print("Table I: design statistics and GEM mapping results")
        print(format_table(table1_rows()))
    if args.which in ("table2", "all"):
        print("Table II: simulation speed (Hz) and speed-up vs GEM-A100")
        rows = table2_rows()
        print(format_table([r.as_dict() for r in rows], floatfmt=".0f"))
        avg = average_speedups(rows)
        print("average speed-ups (ours vs paper):")
        for key, value in avg.items():
            print(f"  {key:14s} {value:6.2f}   (paper: {PAPER_AVERAGE_SPEEDUPS[key]:.2f})")
    return 0


def _cosim_arguments(parser, groups) -> None:
    parser.add_argument(
        "--dump-waves", default=None, metavar="FILE",
        help="on divergence, re-run with probes on and dump the VCD window "
        "around the first divergent cycle (docs/OBSERVABILITY.md)",
    )


def _cosim(args) -> int:
    """Co-simulate GEM against the golden word-level model on a workload."""
    from repro.harness.cosim import cosim
    from repro.harness.runner import compile_design, design_circuit
    from repro.rtl import Netlist, WordSim

    name, wl, stimuli = _target(args)
    design = compile_design(name)
    result = cosim(WordSim(Netlist(design_circuit(name))), design.simulator(), stimuli)
    print(f"{name}/{wl.name}: {result.report()}")
    if not result.passed and args.dump_waves:
        from repro.obs.probe import dump_divergence_waves

        summary = dump_divergence_waves(design, stimuli, result.divergence.cycle, args.dump_waves)
        print(
            f"divergence waves written to {summary['path']} "
            f"({summary['cycles']} cycles from cycle {summary['first_cycle']}, "
            f"divergence at cycle {summary['divergence_cycle']})"
        )
    return 0 if result.passed else 1


def _perf_arguments(parser, groups) -> None:
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

    p_val = sub.add_parser("validate-trace", help="schema-check a Chrome trace-event JSON")
    p_val.add_argument("trace")


def _perf(args) -> int:
    """Render and diff run reports, compare benchmark records (docs/OBSERVABILITY.md)."""
    import json

    from repro.obs import report as reports

    if args.cmd == "show":
        print(reports.format_report(reports.load_report(args.report)))
        return 0
    if args.cmd == "diff":
        a, b = reports.load_report(args.report_a), reports.load_report(args.report_b)
        print(f"a: {args.report_a}  ({a.design}/{a.workload})")
        print(f"b: {args.report_b}  ({b.design}/{b.workload})")
        for d in reports.diff_reports(a, b):
            print(f"  {d.render()}")
        return 0
    if args.cmd == "validate-trace":
        from repro.obs.trace import validate_trace

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
        parent, change = (reports.load_e2e_records(p) for p in (args.parent, args.change))
        lines, worse = reports.compare_e2e(parent, change, declaration)
    except (OSError, ValueError) as exc:
        print(f"gem perf compare: {exc}")
        return EXIT_USAGE
    print("\n".join(lines))
    return 1 if worse else 0


def _fuzz_arguments(parser, groups) -> None:
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="coverage-guided fuzz campaign")
    p_run.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    p_run.add_argument("--iters", type=int, default=20, help="iterations (default 20)")
    p_run.add_argument(
        "--profiles", metavar="P1,P2",
        help="shape profiles to draw from (default: all; docs/FUZZING.md lists them)",
    )
    p_run.add_argument("--cycles", type=int, default=24, help="stimulus cycles per design")
    p_run.add_argument(
        "--batches", default="1,16", metavar="B1,B2",
        help="lane batches to cross-check (default 1,16; add 64 for full width, 128+ for "
        "multi-word lane planes)",
    )
    p_run.add_argument(
        "--backends", metavar="B1,B2",
        help="execution backends held against each other: the fused engine runs the default "
        "one, the others enroll as extra fused-path oracle engines (default: every backend "
        "available here; unavailable ones are skipped with a backend-skip coverage marker)",
    )
    p_run.add_argument(
        "--failure-dir", default="fuzz-failures",
        help="where shrunk failing .gemrepro files land (default fuzz-failures/)",
    )
    p_run.add_argument(
        "--wave-dir", metavar="DIR",
        help="also dump a probed VCD window around each failure's first divergent cycle "
        "into this directory (docs/OBSERVABILITY.md)",
    )
    p_run.add_argument("--corpus", help="corpus directory to pre-seed coverage from")
    p_run.add_argument(
        "--bank-novel", action="store_true",
        help="save passing novel-coverage designs into --corpus as regression cases",
    )
    p_run.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="soft wall-time bound, checked between iterations (CI smoke budget)",
    )
    p_run.add_argument(
        "--inject-fold", metavar="INDEX:BIT",
        help="flip one fold-constant bit in every compiled bitstream (self-test: the "
        "oracle must catch the mutation)",
    )
    p_run.add_argument(
        "--inject-known-rail", metavar="CYCLE:BIT",
        help="flip one known-rail state bit at the given cycle in the fast 4-state engines "
        "(self-test: the 4-value oracle must catch the phantom X; implies --values 4)",
    )
    p_run.add_argument(
        "--values", type=int, choices=(2, 4),
        help="force 2- or 4-state oracle checking for every profile (default: each "
        "profile's own values knob; xprop runs 4-state)",
    )
    p_run.add_argument("--json", action="store_true", help="emit the stats as JSON")

    p_rep = sub.add_parser("replay", help="re-run .gemrepro files against their expectation")
    p_rep.add_argument("repro", nargs="+", help="one or more .gemrepro files")
    p_rep.add_argument("--json", action="store_true", help="emit outcomes as JSON")

    p_cor = sub.add_parser("corpus", help="summarize a corpus directory")
    p_cor.add_argument("dir", nargs="?", default="tests/corpus", help="corpus directory")
    p_cor.add_argument("--json", action="store_true", help="emit the summary as JSON")


def _fuzz(args) -> int:
    """Differential fuzzing: generate/cross-check/shrink (docs/FUZZING.md)."""
    import json
    from dataclasses import asdict

    from repro.fuzz import replay_repro, run_fuzz
    from repro.fuzz.corpus import Corpus

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
        raise UsageError("--inject-fold and --inject-known-rail are mutually exclusive")
    if args.inject_fold:
        idx, _, bit = args.inject_fold.partition(":")
        inject = {"kind": "fold", "index": int(idx), "bit": int(bit or 0)}
    if args.inject_known_rail:
        cyc, _, bit = args.inject_known_rail.partition(":")
        inject = {"kind": "known_rail", "cycle": int(cyc), "bit": int(bit or 0)}
        if values is None:
            values = 4
        elif values != 4:
            raise UsageError("--inject-known-rail requires --values 4")
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
        failure_dir=args.failure_dir,
        wave_dir=args.wave_dir,
        corpus=Corpus(args.corpus) if args.corpus else None,
        bank_novel=args.bank_novel,
        deadline_s=args.deadline,
        values=values,
    )
    if args.json:
        print(json.dumps({**asdict(stats), "coverage": sorted(stats.coverage)}, indent=1))
    else:
        print(stats.summary())
        for path in stats.failures:
            print(f"  failure: {path}")
        for path in stats.banked:
            print(f"  banked:  {path}")
    return 1 if stats.divergences else 0


def _probe_arguments(parser, groups) -> None:
    sub = parser.add_subparsers(dest="cmd", required=True)
    nets_help = (
        "comma-separated net-name globs or the group selectors "
        "inputs/registers/outputs (default: every probeable net)"
    )

    p_list = sub.add_parser("list", parents=[groups["design"]], help="probeable nets of a design")
    p_list.add_argument("--nets", default=None, metavar="GLOBS", help=nets_help)
    p_list.add_argument("--json", action="store_true")

    p_watch = sub.add_parser(
        "watch", parents=[groups["target"], groups["engine"]],
        help="run a workload and print probed values per cycle",
    )
    p_watch.add_argument("--nets", default=None, metavar="GLOBS", help=nets_help)
    p_watch.add_argument("--lane", type=int, default=0, help="lane to print (default 0)")


def _probe(args) -> int:
    """Signal-level probes: list a design's nets, watch their values per cycle
    (waveforms and activity: gem run --probe NETS --vcd-out/--saif-out)."""
    from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan, list_nets

    if args.cmd == "list":
        import json

        from repro.harness.runner import compile_design

        design = compile_design(args.design)
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

    # watch
    _, _, stimuli = _target(args)
    _check_lane(args)
    design = _engine_design(args)
    plan = build_probe_plan(design, args.nets)
    ring = WaveRing(plan, capacity=max(len(stimuli), 1))
    sim = _engine_sim(args, design)
    ProbeTap(plan, [ring]).attach(sim)
    sim.run(stimuli)
    for cycle, values in ring.lane_samples(args.lane):
        rendered = "  ".join(f"{net}={value}" for net, value in values.items())
        print(f"cycle {cycle:6d}: {rendered}")
    return 0


def _chaos_arguments(parser, groups) -> None:
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2",
        help="comma-separated seeds (default: the three tier-1 runs, 11,23,47)",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="NAME,NAME",
        help="scenarios to run (default: all; docs/RESILIENCE.md §7 lists them)",
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


def _chaos(args) -> int:
    """Chaos harness: inject crashes/corruption/hangs, assert recovery."""
    import json
    from dataclasses import asdict

    from repro.runtime.chaos import SMOKE_SEEDS, run_chaos

    seeds = tuple(int(s) for s in args.seeds.split(",")) if args.seeds else SMOKE_SEEDS
    scenarios = tuple(args.scenarios.split(",")) if args.scenarios else None
    try:
        report = run_chaos(seeds=seeds, scenarios=scenarios, work_dir=args.work_dir)
    except ValueError as exc:  # unknown scenario name
        raise UsageError(f"error: {exc}") from None
    if args.json:
        outcomes = [asdict(o) for o in report.outcomes]
        print(json.dumps({"passed": report.passed, "outcomes": outcomes}, indent=1))
    else:
        print(report.summary())
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0 if report.passed else 1


# -- the tree ------------------------------------------------------------------


class Command(NamedTuple):
    add_arguments: Callable[[argparse.ArgumentParser, dict], None]
    run: Callable[[argparse.Namespace], int]
    #: shared groups (see :func:`_shared_groups`) this command's own parser takes
    groups: tuple[str, ...] = ()


COMMANDS: dict[str, Command] = {
    "compile": Command(_compile_arguments, _compile, ("design",)),
    "run": Command(_run_arguments, _run, ("target", "engine")),
    "tables": Command(_tables_arguments, _tables),
    "cosim": Command(_cosim_arguments, _cosim, ("target",)),
    "faultcampaign": Command(_faultcampaign_arguments, _faultcampaign, ("target",)),
    "perf": Command(_perf_arguments, _perf),
    "fuzz": Command(_fuzz_arguments, _fuzz),
    "chaos": Command(_chaos_arguments, _chaos),
    "tune": Command(_tune_arguments, _tune, ("design",)),
    "probe": Command(_probe_arguments, _probe),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole ``gem`` tree; imports nothing outside the standard library."""
    groups = _shared_groups()
    parser = argparse.ArgumentParser(
        prog="gem", description="GEM: compile a design to a bitstream, run the interpreter over it"
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="stderr logging threshold (default: warning); supervisor and "
        "checkpoint warnings are dropped below this",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        doc = command.run.__doc__
        p = sub.add_parser(
            name,
            parents=[groups[g] for g in command.groups],
            help=doc.splitlines()[0].rstrip("."),
            description=" ".join(doc.split()),
        )
        command.add_arguments(p, groups)
        p.set_defaults(run=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.run(args)
    except UsageError as exc:
        print(exc)
        return EXIT_USAGE
    except ProbeError as exc:
        print(f"probe error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
