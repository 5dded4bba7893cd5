"""End-to-end and per-layer benchmark of the GEM flow (see README.md here).

Two ways in, one measurement underneath:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  measures one workload in this process and prints one JSON object as the
  last line of standard output (the form ``BENCHMARK.json`` declares);
* ``python3 -m benchmarks.e2e --seed N`` runs every workload, each in a
  fresh child interpreter, prints every metric by name with its unit and
  writes ``benchmarks/e2e/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

if __package__ in (None, ""):  # run as a script: make ``benchmarks.e2e`` importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.e2e import paths

#: names the default and the held-out seed (``--seed`` falls back to the default)
SPEC_JSON = os.path.join(paths.HERE, "spec.json")
#: --quick time box per run; the floors of one round each decide its length
QUICK_SECONDS = 1.0


def load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="measure this one workload here and print the JSON line")
    p.add_argument("--seed", type=int, help="source of every per-lane program and operand")
    p.add_argument("--seconds", type=float, help="time box of one run's measuring")
    p.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics (default: both in turn)",
    )
    p.add_argument("--quick", action="store_true", help="smoke mode: one round of everything")
    p.add_argument("--repeat-check", action="store_true", help="two end-to-end sets must agree")
    p.add_argument("--selfcheck", action="store_true", help="prove the correctness gate fires")
    p.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace, bench: dict, cache: str) -> int:
    from benchmarks.e2e import measure
    from benchmarks.e2e.compileflow import prime_all
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    trace = args.trace or 0
    floors = measure.QUICK if args.quick else measure.FULL
    primed = prime_all(cache)
    if trace:
        outcome = measure.measure_layers(spec, args.seed, args.seconds, floors, primed)
    else:
        outcome = measure.measure_end_to_end(spec, args.seed, args.seconds, floors)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(outcome.metrics):
        raise SystemExit(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(outcome.metrics))}"
        )
    gate = outcome.gate
    for message in gate.messages:
        print(f"MISMATCH {message}", file=sys.stderr)
    result = {
        "correct": gate.failed_lane_cycles == 0,
        "attempted": gate.checked_lane_cycles,
        "failed": gate.failed_lane_cycles,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    os.makedirs(paths.OUT, exist_ok=True)
    with open(os.path.join(paths.OUT, f"detail-{spec.name}-trace{trace}.json"), "w") as f:
        json.dump(
            {
                **outcome.detail,
                "comparable": not args.quick,
                "stamp": measure.stamp(),
                "failed_frac": gate.failed_frac,
                "prime": primed.get(spec.design),
                "result": result,
            },
            f,
            indent=1,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, each in a fresh interpreter
# ---------------------------------------------------------------------------


def run_child(workload: str, trace: int, args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} (trace {trace}) printed no result, exit {proc.returncode}")
    detail = load_json(os.path.join(paths.OUT, f"detail-{workload}-trace{trace}.json"))
    return detail


def run_set(args: argparse.Namespace, bench: dict, traces: tuple[int, ...]) -> dict:
    """One pass over every workload; prints each metric as it arrives."""
    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        row = {}
        for trace in traces:
            detail = run_child(name, trace, args)
            row["trace" if trace else "end_to_end"] = detail
            result = detail["result"]
            print(
                f"{name}  [{'per-layer' if trace else 'end-to-end'}]  correct={result['correct']}  "
                f"checked_lane_cycles={result['attempted']}  failed_frac={detail['failed_frac']:.6f}"
            )
            for metric, reading in result["metrics"].items():
                print(f"  {metric:34s} {reading['value']:>16.6g} {reading['unit']}")
        workloads[name] = row
    return workloads


def compare_sets(first: dict, second: dict, bench: dict) -> list[dict]:
    """Every end-to-end metric of every workload, first set against second."""
    rows = []
    for name in first:
        a = first[name]["end_to_end"]["result"]["metrics"]
        b = second[name]["end_to_end"]["result"]["metrics"]
        for metric in bench["end_to_end"]:
            va, vb = a[metric["name"]]["value"], b[metric["name"]]["value"]
            spread = abs(va - vb) / min(va, vb)
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "first": va,
                    "second": vb,
                    "observed_spread": spread,
                    "bound": metric["bound"],
                    "within_bound": spread <= metric["bound"],
                }
            )
    return rows


def run_all(args: argparse.Namespace, bench: dict) -> int:
    from benchmarks.e2e import measure

    traces = (0, 1) if args.trace is None else (args.trace,)
    if args.repeat_check:
        traces = (0,)
    sets = [run_set(args, bench, traces) for _ in range(2 if args.repeat_check else 1)]
    results = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "comparable": not args.quick,
        "stamp": measure.stamp(),
        "sets": sets,
    }
    ok = all(
        detail["result"]["correct"] for s in sets for row in s.values() for detail in row.values()
    )
    if args.repeat_check:
        results["repeat_check"] = compare_sets(sets[0], sets[1], bench)
        for row in results["repeat_check"]:
            flag = "ok" if row["within_bound"] else "OUTSIDE BOUND"
            print(
                f"repeat-check {row['workload']:28s} {row['metric']:18s} "
                f"spread {row['observed_spread']:.4f} bound {row['bound']:.2f}  {flag}"
            )
        ok = ok and all(row["within_bound"] for row in results["repeat_check"])
    path = os.path.join(paths.OUT, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"wrote {os.path.relpath(path, paths.ROOT)}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cache = paths.activate()
    if args.setup_child:
        from benchmarks.e2e import setup_child

        setup_child.main(args.setup_child, args.seed, args.spawned_at)
        return 0
    bench = load_json(paths.BENCHMARK_JSON)
    if args.seed is None:
        args.seed = load_json(SPEC_JSON)["default_seed"]
    if args.quick:
        args.seconds = QUICK_SECONDS
    elif args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.selfcheck:
        from benchmarks.e2e import measure
        from benchmarks.e2e.compileflow import prime_all

        prime_all(cache)
        return measure.selfcheck(args.seed)
    if args.workload:
        return run_workload(args, bench, cache)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
