"""The repro.obs telemetry subsystem: tracer, metrics, reports, gem perf.

Covers the tracer's ring buffer and Chrome trace-event output, the
metrics registry and its exporters, RunReport build/write/load/diff,
the parent-vs-change judgement of e2e records, interpreter reset
semantics, and the CLI
surface end to end (``gem run --trace-out/--report-out/--metrics-out``,
``gem perf show|diff|compare|validate-trace``, ``--log-level``).
"""

import json

import pytest

from repro.harness import cli
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.report import (
    build_run_report,
    diff_reports,
    format_report,
    load_report,
    write_report,
)
from repro.obs.trace import CYCLE_PHASES, TRACER, Tracer, validate_trace
from tests.helpers import random_circuit, random_vectors
from tests.test_fused_engine import _compile_small


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with the global tracer/registry quiet."""
    TRACER.disable()
    TRACER.clear()
    REGISTRY.clear()
    yield
    TRACER.disable()
    TRACER.clear()
    REGISTRY.clear()


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_span_records_complete_event(self):
        t = Tracer()
        t.enable()
        with t.span("work", cat="compile", args={"k": 1}):
            pass
        (ev,) = t.events()
        assert ev["name"] == "work" and ev["ph"] == "X"
        assert ev["cat"] == "compile" and ev["args"] == {"k": 1}
        assert ev["dur"] >= 0 and isinstance(ev["ts"], float)

    def test_decorator_and_instant_and_counter(self):
        t = Tracer()
        t.enable()

        @t.traced(cat="compile")
        def helper():
            return 7

        assert helper() == 7
        t.instant("mark", cat="supervisor", args={"cycle": 3})
        t.counter("cache", {"hits": 2.0})
        phs = [e["ph"] for e in t.events()]
        assert phs == ["X", "i", "C"]
        names = [e["name"] for e in t.events()]
        assert names[0].endswith("helper") and names[1:] == ["mark", "cache"]

    def test_disabled_is_a_noop(self):
        t = Tracer()
        with t.span("work"):
            pass
        t.instant("mark")
        t.complete("x", t.now())
        assert len(t) == 0

    def test_ring_buffer_evicts_and_counts_dropped(self):
        t = Tracer(capacity=4)
        t.enable()
        for i in range(10):
            t.instant(f"e{i}")
        assert len(t) == 4
        assert t.dropped == 6
        assert [e["name"] for e in t.events()] == ["e6", "e7", "e8", "e9"]
        assert t.chrome()["otherData"]["dropped_events"] == 6

    def test_enable_can_resize(self):
        t = Tracer(capacity=2)
        t.enable(capacity=16)
        assert t.capacity == 16

    def test_write_produces_valid_chrome_trace(self, tmp_path):
        t = Tracer()
        t.enable()
        with t.span("a"):
            t.instant("b")
        path = str(tmp_path / "trace.json")
        assert t.write(path) == 2
        assert validate_trace(path) == []


class TestValidateTrace:
    def test_accepts_dict_list_and_json_string(self):
        events = [{"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0}]
        assert validate_trace({"traceEvents": events}) == []
        assert validate_trace(events) == []
        assert validate_trace(json.dumps({"traceEvents": events})) == []

    def test_flags_schema_problems(self):
        bad = [
            {"ph": "X", "ts": 0.0},  # no name, no dur
            {"name": "x", "ph": "Z", "ts": "later"},  # bad phase, bad ts
            {"name": "y", "ph": "i", "ts": 0.0, "args": [1]},  # args not a dict
        ]
        problems = validate_trace(bad)
        assert any("missing 'name'" in p for p in problems)
        assert any("dur" in p for p in problems)
        assert any("unknown phase" in p for p in problems)
        assert any("non-numeric ts" in p for p in problems)
        assert any("args" in p for p in problems)

    def test_flags_unreadable_and_wrong_shape(self, tmp_path):
        assert validate_trace(str(tmp_path / "absent.json"))
        assert validate_trace({"notTraceEvents": []})
        assert validate_trace(42)


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("gem_t_total", help="h")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("gem_t_gauge")
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0
        h = reg.histogram("gem_t_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(100.0)
        assert h.count == 3 and h.sum == pytest.approx(100.55)
        assert h.cumulative()[-1] == (float("inf"), 3)

    def test_get_or_create_is_identity_and_type_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("gem_x_total") is reg.counter("gem_x_total")
        assert reg.counter("gem_l_total", labels={"k": "a"}) is not reg.counter(
            "gem_l_total", labels={"k": "b"}
        )
        with pytest.raises(TypeError):
            reg.gauge("gem_x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("gem_ok_total", labels={"bad-label": "x"})

    def test_reset_keeps_identity_clear_drops(self):
        reg = MetricsRegistry()
        c = reg.counter("gem_r_total")
        c.inc(4)
        reg.reset()
        assert c.value == 0
        assert reg.counter("gem_r_total") is c
        reg.clear()
        assert reg.counter("gem_r_total") is not c

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("gem_hits_total", help="cache hits", labels={"kind": "a"}).inc(3)
        reg.gauge("gem_rate").set(1.5)
        reg.histogram("gem_dur_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert "# HELP gem_hits_total cache hits" in text
        assert "# TYPE gem_hits_total counter" in text
        assert 'gem_hits_total{kind="a"} 3' in text
        assert "gem_rate 1.5" in text
        assert 'gem_dur_seconds_bucket{le="1.0"} 1' in text
        assert 'gem_dur_seconds_bucket{le="+Inf"} 1' in text
        assert "gem_dur_seconds_count 1" in text

    def test_snapshot_and_json(self):
        reg = MetricsRegistry()
        reg.counter("gem_a_total").inc()
        reg.histogram("gem_h", buckets=(1.0,)).observe(2.0)
        snap = reg.snapshot()
        assert snap["gem_a_total"] == 1.0
        assert snap["gem_h"]["count"] == 1 and snap["gem_h"]["buckets"]["+Inf"] == 1
        assert reg.to_json() == {"metrics": snap}

    def test_publish_phase_times_accumulates(self):
        reg = MetricsRegistry()
        reg.publish_phase_times({"fold": 0.25, "inject": 0.0})
        reg.publish_phase_times({"fold": 0.25})
        snap = reg.snapshot()
        assert snap['gem_phase_seconds_total{phase="fold"}'] == pytest.approx(0.5)
        assert 'gem_phase_seconds_total{phase="inject"}' not in snap

    def test_publish_cycle_counters(self):
        from repro.core.interpreter import CycleCounters

        reg = MetricsRegistry()
        counters = CycleCounters(cycles=9, fold_steps=100)
        reg.publish_cycle_counters(counters)
        snap = reg.snapshot()
        assert snap["gem_interp_cycles"] == 9.0
        assert snap["gem_interp_fold_steps"] == 100.0


# -- reports ------------------------------------------------------------------


def _report(**overrides):
    base = dict(
        design="rocketchip",
        workload="wl",
        batch=1,
        engine_mode="fused",
        cycles=100,
        elapsed_s=0.5,
    )
    base.update(overrides)
    return build_run_report(**base)


class TestRunReport:
    def test_build_computes_rates_and_captures_registry(self):
        REGISTRY.counter("gem_seen_total").inc(7)
        rep = _report(batch=4)
        assert rep.cycles_per_s == pytest.approx(200.0)
        assert rep.lane_cycles_per_s == pytest.approx(800.0)
        assert rep.metrics["gem_seen_total"] == 7.0
        assert rep.environment["python"]

    def test_write_load_roundtrip_and_unknown_keys(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(_report(extras={"note": "x"}), path)
        raw = json.load(open(path))
        raw["future_field"] = 123
        json.dump(raw, open(path, "w"))
        rep = load_report(path)
        assert rep.design == "rocketchip"
        assert rep.extras["note"] == "x" and rep.extras["future_field"] == 123

    def test_load_rejects_non_reports(self, tmp_path):
        path = str(tmp_path / "bad.json")
        json.dump({"hello": 1}, open(path, "w"))
        with pytest.raises(ValueError):
            load_report(path)
        json.dump([1, 2], open(path, "w"))
        with pytest.raises(ValueError):
            load_report(path)

    def test_format_report_renders(self):
        rep = _report(
            counters={"cycles": 100, "array_ops": 500},
            phase_times={"fold": 0.3, "inject": 0.1},
        )
        text = format_report(rep)
        assert "rocketchip/wl" in text and "phase split" in text
        assert "array_ops/cycle" in text

    def test_diff_reports(self):
        a = _report(counters={"array_ops": 100}, phase_times={"fold": 0.1})
        b = _report(
            elapsed_s=1.0, counters={"array_ops": 200}, phase_times={"fold": 0.2}
        )
        names = [d.name for d in diff_reports(a, b)]
        assert "cycles_per_s" in names
        assert "counters.array_ops" in names and "phase.fold" in names


# -- interpreter reset + traced cycles ----------------------------------------


class TestInterpreterTelemetry:
    def test_reset_replays_bit_identically(self):
        circuit = random_circuit(321, n_ops=40, n_regs=3, with_memory=True)
        design = _compile_small(circuit)
        stimuli = random_vectors(circuit, seed=9, cycles=10)
        sim = design.simulator(profile=True)
        first = [sim.step(vec) for vec in stimuli]
        assert sim.cycle == 10 and any(sim.phase_times.values())
        sim.reset()
        assert sim.cycle == 0
        assert sim.counters.cycles == 0
        assert all(v == 0.0 for v in sim.phase_times.values())
        second = [sim.step(vec) for vec in stimuli]
        assert first == second

    def test_traced_blocks_emit_one_span_each(self):
        circuit = random_circuit(322, n_ops=40, n_regs=2)
        design = _compile_small(circuit)
        stimuli = random_vectors(circuit, seed=2, cycles=7)
        sim = design.simulator()
        TRACER.enable()
        TRACER.clear()
        try:
            baseline = [sim.step(vec) for vec in stimuli[:3]] + sim.run(stimuli[3:])
        finally:
            TRACER.disable()
        blocks = [e for e in TRACER.events() if e["name"] == "block"]
        assert [(b["args"]["cycle"], b["args"]["n"]) for b in blocks] == [(0, 1), (1, 1), (2, 1), (3, 4)]
        for block in blocks:
            phases = [block["args"][phase] for phase in CYCLE_PHASES]
            assert all(seconds > 0.0 for seconds in phases)
            assert sum(phases) * 1e6 <= block["dur"]
        # Tracing must not have perturbed simulation results.
        sim2 = design.simulator()
        assert [sim2.step(vec) for vec in stimuli] == baseline

    def test_traced_step_does_not_leave_profiling_on(self):
        circuit = random_circuit(323, n_ops=30, n_regs=2)
        design = _compile_small(circuit)
        vec = random_vectors(circuit, seed=1, cycles=1)[0]
        sim = design.simulator(profile=False)
        TRACER.enable()
        try:
            sim.step(vec)
        finally:
            TRACER.disable()
        assert sim.profile is False
        before = dict(sim.phase_times)
        sim.step(vec)
        assert sim.phase_times == before  # untraced step doesn't time


class TestSupervisorTelemetry:
    def test_supervised_run_emits_events_and_metrics(self, tmp_path):
        from repro.runtime.supervisor import Supervisor

        circuit = random_circuit(324, n_ops=40, n_regs=3, with_memory=True)
        design = _compile_small(circuit)
        stimuli = random_vectors(circuit, seed=4, cycles=12)
        TRACER.enable()
        try:
            result = Supervisor(
                design,
                checkpoint_every=4,
                checkpoint_dir=str(tmp_path / "ckpt"),
                scrub_every=4,
                profile=True,
            ).run(stimuli)
        finally:
            TRACER.disable()
        assert result.cycles == 12
        assert any(result.phase_times.values())
        names = {e["name"] for e in TRACER.events()}
        assert "supervisor.scrub" in names
        assert "checkpoint.save" in names
        snap = REGISTRY.snapshot()
        assert snap["gem_supervisor_scrubs_total"] == 3.0
        assert snap["gem_checkpoint_writes_total"] == 3.0
        assert snap["gem_checkpoint_bytes_total"] > 0
        assert snap['gem_phase_seconds_total{phase="fold"}'] > 0

    def test_fault_recovery_counts(self, tmp_path):
        from repro.runtime.supervisor import Supervisor

        circuit = random_circuit(325, n_ops=40, n_regs=3)
        design = _compile_small(circuit)
        stimuli = random_vectors(circuit, seed=5, cycles=10)
        flipped = []

        def hook(interp, cycle):
            if cycle == 5 and not flipped:
                flipped.append(cycle)
                interp.global_state[1] ^= 1

        TRACER.enable()
        try:
            result = Supervisor(
                design, checkpoint_every=2, scrub_every=1, fault_hook=hook
            ).run(stimuli)
        finally:
            TRACER.disable()
        assert result.faults_detected >= 1 and not result.degraded
        names = {e["name"] for e in TRACER.events()}
        assert {"supervisor.fault", "supervisor.rollback"} <= names
        snap = REGISTRY.snapshot()
        assert snap["gem_supervisor_faults_detected_total"] >= 1
        assert snap["gem_supervisor_rollbacks_total"] >= 1


def _compile_spans(circuit, request, path):
    """A traced compile of ``circuit`` on the flow's ``resolved`` loops or
    on its ``python`` ones: the design and each compile phase's span args."""
    if path == "python":
        request.getfixturevalue("python_loops")
    TRACER.enable()
    try:
        design = _compile_small(circuit)
    finally:
        TRACER.disable()
    events = TRACER.events()
    TRACER.clear()
    spans = {}
    for name in ("depth_opt", "partition", "placement"):
        (spans[name],) = [e["args"] for e in events if e["name"] == name]
    return design, spans


def _expected_loops(path):
    from repro.core import placement_kernel

    return "python" if path == "python" else placement_kernel.loops()


class TestPlacementSpan:
    @pytest.mark.parametrize("path", ["resolved", "python"])
    def test_says_which_algorithm2_ran_and_how_often(self, path, request):
        """Algorithm 2 runs in the flow's one set of loops, which the
        ``partition`` span's ``args.loops`` names; the ``placement`` span
        counts Algorithm 1's probes: a base placement per partition that is
        not merged away, one per merge committed, one per merge rejected."""
        circuit = random_circuit(326, n_ops=120, n_regs=6)
        design, spans = _compile_spans(circuit, request, path)
        assert spans["partition"]["loops"] == _expected_loops(path)
        place, merge = spans["placement"], design.merge
        assert place["probes"] == merge.probes == merge.partitions_before + merge.rejected
        assert place["rejected"] == merge.rejected
        assert merge.partitions_before > merge.partitions_after, "no merge was tried"

    def test_fold_use_of_the_shipped_placements(self, request):
        """``and_by_fold_level``, ``placements_per_and`` and ``leaf_use``:
        one value per shipped partition, read off the final placements (not
        the probes), identical on the flow's C and Python loops.  openpiton1 places
        each AND 1.55 times, and every one of the 13 fold levels holds ANDs,
        fewer at each level up: the level loop fills the tree from the root
        level down, so deep cones claim their subtrees before shallow nodes
        take the leaves."""
        from repro.core.compiler import compile_circuit
        from repro.harness.runner import DESIGNS

        circuit = DESIGNS["openpiton1"].build()
        seen = {}
        for path in ("resolved", "python"):
            if path == "python":
                request.getfixturevalue("python_loops")
            TRACER.enable()
            try:
                design = compile_circuit(circuit)
            finally:
                TRACER.disable()
            (span,) = [e for e in TRACER.events() if e["name"] == "placement"]
            TRACER.clear()
            keys = ("and_by_fold_level", "placements_per_and", "leaf_use")
            seen[path] = {key: span["args"][key] for key in keys}
            assert seen[path] == {
                key: [p.fold_use()[key] for p in design.merge.placements] for key in keys
            }
        assert seen["resolved"] == seen["python"]
        (by_level,) = seen["python"]["and_by_fold_level"]
        (per_and,) = seen["python"]["placements_per_and"]
        (leaf_use,) = seen["python"]["leaf_use"]
        assert len(by_level) == 13 and all(by_level)
        assert by_level == sorted(by_level, reverse=True)
        assert sum(by_level[:3]) / sum(by_level) == pytest.approx(0.77, abs=0.01)
        assert per_and == pytest.approx(1.55, abs=0.01)
        assert 0 < leaf_use < 1


class TestPartitionSpan:
    def test_says_which_partitioner_ran_and_how_much_work(self, request):
        """The ``partition`` span names the loops the whole flow ran — C or
        Python, one library and one switch — and counts the partitioner's
        bisections and FM passes: the same counts on either."""
        circuit = random_circuit(326, n_ops=120, n_regs=6)
        seen = {}
        for path in ("resolved", "python"):
            design, spans = _compile_spans(circuit, request, path)
            part = spans["partition"]
            assert part["loops"] == _expected_loops(path)
            results = design.plan.stage_results
            assert part["bisections"] == sum(r.bisections for r in results) > 0
            assert part["fm_passes"] == sum(r.fm_passes for r in results) > 0
            seen[path] = part["bisections"], part["fm_passes"]
        assert seen["resolved"] == seen["python"]


class TestDepthOptSpan:
    def test_says_which_rebuild_ran_and_what_it_did(self, request):
        """The ``depth_opt`` span counts the gates and levels before and
        after the rebuild: the same counts on the C rebuild and on the
        Python one, which the ``partition`` span's ``args.loops`` names."""
        circuit = random_circuit(326, n_ops=120, n_regs=6)
        seen = {}
        for path in ("resolved", "python"):
            design, spans = _compile_spans(circuit, request, path)
            assert spans["partition"]["loops"] == _expected_loops(path)
            opt = spans["depth_opt"]
            assert opt["gates_out"] == design.report.gates <= opt["gates_in"]
            assert opt["levels_out"] == design.report.levels <= opt["levels_in"]
            keys = ("gates_in", "gates_out", "levels_in", "levels_out")
            seen[path] = {key: opt[key] for key in keys}
        assert seen["resolved"] == seen["python"]


# -- CLI end to end -----------------------------------------------------------


class TestRunObservabilityFlags:
    def test_trace_report_metrics_outputs(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        report = str(tmp_path / "report.json")
        metrics = str(tmp_path / "metrics.prom")
        assert cli.main([
            "--log-level", "info", "run", "openpiton1", "--max-cycles", "8",
            "--trace-out", trace, "--report-out", report,
            "--metrics-out", metrics,
        ]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out and "report written" in out
        assert validate_trace(trace) == []
        doc = json.load(open(trace))
        names = [e["name"] for e in doc["traceEvents"]]
        assert any(n.startswith("compile:") for n in names)
        blocks = [
            e for e in doc["traceEvents"]
            if e["name"] == "block" and e.get("cat") == "runtime"
        ]
        assert sum(e["args"]["n"] for e in blocks) == 8
        assert all(set(CYCLE_PHASES) < set(e["args"]) for e in blocks)
        rep = load_report(report)
        assert rep.design == "openpiton1" and rep.cycles == 8
        assert rep.extras["trace_out"] == trace
        prom = open(metrics).read()
        assert "gem_interp_cycles" in prom

    def test_supervised_trace_has_supervisor_events(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        report = str(tmp_path / "report.json")
        assert cli.main([
            "run", "openpiton1", "--max-cycles", "16",
            "--checkpoint-every", "4", "--scrub-every", "4",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--trace-out", trace, "--report-out", report, "--profile",
        ]) == 0
        names = {e["name"] for e in json.load(open(trace))["traceEvents"]}
        assert "supervisor.scrub" in names
        assert "checkpoint.save" in names
        rep = load_report(report)
        assert rep.kind == "gem-run/supervised"
        assert rep.extras["checkpoints_written"] == 4
        assert any(rep.phase_times.values())

    def test_log_level_accepted_everywhere(self, capsys):
        assert cli.main([
            "--log-level", "debug", "run", "openpiton1", "--max-cycles", "4",
        ]) == 0
        with pytest.raises(SystemExit):
            cli.main(["--log-level", "loud", "run", "openpiton1"])


class TestPerfCommand:
    @pytest.fixture()
    def reports(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_report(_report(), a)
        write_report(_report(elapsed_s=1.0), b)
        return a, b

    def test_show_and_diff(self, capsys, reports):
        a, b = reports
        assert cli.main(["perf", "show", a]) == 0
        assert "rocketchip/wl" in capsys.readouterr().out
        assert cli.main(["perf", "diff", a, b]) == 0
        assert "cycles_per_s" in capsys.readouterr().out

    def test_validate_trace_exit_codes(self, capsys, tmp_path):
        good = str(tmp_path / "good.json")
        json.dump({"traceEvents": [{"name": "a", "ph": "i", "ts": 0.0}]},
                  open(good, "w"))
        assert cli.main(["perf", "validate-trace", good]) == 0
        bad = str(tmp_path / "bad.json")
        json.dump({"traceEvents": [{"ph": "Q"}]}, open(bad, "w"))
        assert cli.main(["perf", "validate-trace", bad]) == 1


# -- gem perf compare: two sets of e2e records, the pipeline's rule ------------

DECLARATION = {
    "end_to_end": [
        {"name": "load_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "lane_cycles_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "fused.fold_ms", "unit": "ms", "better": "lower"}],
}
UNITS = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]}


def _e2e_record(metrics, *, workload="w", failed=0, comparable=True, measured_s=12.0):
    """One detail record, field for field as ``run_workload`` in
    ``benchmarks/e2e/run.py`` writes it: the measurement's own detail,
    then ``comparable``, ``stamp``, ``failed_frac``, ``prime``, ``result``."""
    attempted = 1000
    return {
        "workload": workload,
        "seed": 11,
        "trace": 0,
        "rounds": 3,
        "measured_s": measured_s,  # a clock reading: no two runs write the same record
        "host_slowdown": 1.0,
        "lane_cycles_per_pass": 486,
        "samples": {"pass_s": {"median": 0.03, "q1": 0.03, "q3": 0.03, "n": 3}},
        "setup_phases": {"import_s": 0.2},
        "exact": {"outputs_sha256": "00", "counters_per_cycle": {"array_ops": 2893.0}},
        "backend": "native",
        "engine_mode": "fused",
        "comparable": comparable,
        "stamp": {"host": {"cpus": 2}, "git_sha": "unknown", "source_digest": "0" * 16},
        "failed_frac": failed / attempted,
        "prime": None,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
    }


def _write_side(directory, metric, values, **record_fields):
    """One detail file per run, named in run order."""
    directory.mkdir()
    for run, value in enumerate(values):
        with open(directory / f"detail-w-trace0-run{run:02d}.json", "w") as f:
            json.dump(_e2e_record({metric: value}, measured_s=12.0 + run, **record_fields), f)
    return str(directory)


TEN = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # IQR 2%
WIDE = [1.0, 1.6, 0.7, 1.3, 0.9, 1.5, 0.8, 1.2]  # IQR 50%, wider than the 25% bound

#: id -> (metric, parent runs, change runs, verdict on the row, exit code)
VERDICTS = {
    "better-lower-10-of-10": ("load_s", TEN, [v * 0.5 for v in TEN], "better", 0),
    "better-higher-10-of-10": ("lane_cycles_per_s", TEN, [v * 2 for v in TEN], "better", 0),
    "nine-of-ten-wins-is-enough": ("load_s", TEN, [v * 0.9 for v in TEN[:9]] + [1.2], "better", 0),
    "eight-of-ten-wins-is-not": (
        "load_s", TEN, [v * 0.9 for v in TEN[:8]] + [1.2, 1.2], "inside bound", 0,
    ),
    "inside-the-parents-spread": ("load_s", TEN, [v * 0.99 for v in TEN], "inside bound", 0),
    "worse-inside-bound": ("load_s", TEN, [v * 1.2 for v in TEN], "inside bound", 0),
    "worse-lower-beyond-bound": ("load_s", TEN, [v * 1.3 for v in TEN], "WORSE", 1),
    "worse-higher-beyond-bound": ("lane_cycles_per_s", TEN, [v * 0.7 for v in TEN], "WORSE", 1),
    "spread-wider-than-bound": ("load_s", WIDE, [v * 0.95 for v in WIDE], "unresolved", 0),
    "wide-but-every-run-better": ("load_s", WIDE, [0.5] * 8, "better", 0),
    "wide-and-beyond-bound": ("load_s", WIDE, [v * 1.5 for v in WIDE], "WORSE", 1),
    "one-run-a-side-never-better": ("load_s", [1.0], [0.1], "unresolved", 0),
    "one-run-a-side-still-worse": ("load_s", [1.0], [2.0], "WORSE", 1),
    "unequal-counts-no-pairs": ("load_s", TEN, [v * 0.5 for v in TEN[:7]], "better", 0),
    "per-layer-has-no-bound": ("fused.fold_ms", TEN, [v * 3 for v in TEN], "recorded", 0),
}


class TestCompareCommand:
    @pytest.fixture()
    def declaration(self, tmp_path):
        path = tmp_path / "BENCHMARK.json"
        path.write_text(json.dumps(DECLARATION))
        return str(path)

    def _compare(self, capsys, *argv):
        rc = cli.main(["perf", "compare", *argv])
        return rc, capsys.readouterr().out

    @pytest.mark.parametrize("case", VERDICTS)
    def test_verdict_table(self, case, tmp_path, capsys, declaration):
        metric, parent, change, verdict, exit_code = VERDICTS[case]
        rc, out = self._compare(
            capsys,
            _write_side(tmp_path / "parent", metric, parent),
            _write_side(tmp_path / "change", metric, change),
            declaration,
        )
        (row,) = [line for line in out.splitlines() if line.split()[0] == metric]
        assert row.endswith(f"  {verdict}"), out
        assert f"n {len(parent)}/{len(change)}" in row
        assert (row.split("wins")[1].split()[0] == "-") == (len(parent) != len(change))
        assert rc == exit_code

    def test_risen_failed_share_exits_one(self, tmp_path, capsys, declaration):
        parent = _write_side(tmp_path / "parent", "load_s", TEN)
        change = _write_side(tmp_path / "change", "load_s", TEN, failed=3)
        rc, out = self._compare(capsys, parent, change, declaration)
        assert rc == 1 and "failed 0/10000 -> 30/10000" in out and "failed share WORSE" in out
        rc, out = self._compare(capsys, change, change, declaration)
        assert rc == 0 and "failed share WORSE" not in out  # as bad as before is not worse

    def test_nothing_in_common_exits_two(self, tmp_path, capsys, declaration):
        parent = _write_side(tmp_path / "parent", "load_s", TEN, workload="a")
        change = _write_side(tmp_path / "change", "load_s", TEN, workload="b")
        rc, out = self._compare(capsys, parent, change, declaration)
        assert rc == cli.EXIT_USAGE and "nothing in common" in out
        (tmp_path / "empty").mkdir()
        rc, out = self._compare(capsys, parent, str(tmp_path / "empty"), declaration)
        assert rc == cli.EXIT_USAGE and "no records" in out

    @pytest.mark.parametrize("quick_side", ["parent", "change"])
    def test_not_comparable_record_exits_two(self, quick_side, tmp_path, capsys, declaration):
        sides = {
            side: _write_side(tmp_path / side, "load_s", TEN, comparable=side != quick_side)
            for side in ("parent", "change")
        }
        rc, out = self._compare(capsys, sides["parent"], sides["change"], declaration)
        assert rc == cli.EXIT_USAGE
        assert f"{quick_side}: 10 of 10 records are marked comparable: false" in out

    def test_missing_or_wrong_declaration_exits_two(self, tmp_path, capsys):
        side = _write_side(tmp_path / "parent", "load_s", TEN)
        rc, out = self._compare(capsys, side, side, str(tmp_path / "absent.json"))
        assert rc == cli.EXIT_USAGE and "absent.json" in out
        rc, out = self._compare(capsys, side, side, side + "/detail-w-trace0-run00.json")
        assert rc == cli.EXIT_USAGE and "declaration lists no" in out

    def test_results_json_and_detail_files_give_the_same_table(self, tmp_path, capsys, declaration):
        """Two ``sets`` of a results.json are two runs; spans and other JSON
        beside the records are skipped; a detail file that the results.json
        embeds counts once."""
        change = _write_side(tmp_path / "change", "load_s", [0.5, 0.6])
        runs = [_e2e_record({"load_s": v}, measured_s=12 + v) for v in (1.0, 1.1)]
        layers = [_e2e_record({"fused.fold_ms": v}, measured_s=v) | {"trace": 1} for v in (0.03, 0.04)]
        results = {
            "benchmark": "benchmarks/e2e",
            "comparable": True,
            "sets": [{"w": {"end_to_end": r, "trace": t}} for r, t in zip(runs, layers)],
        }
        parent = tmp_path / "parent"
        parent.mkdir()
        (parent / "results.json").write_text(json.dumps(results))
        _, from_results = self._compare(capsys, str(parent / "results.json"), change, declaration)
        (parent / "detail-w-trace0.json").write_text(json.dumps(runs[1]))
        (parent / "trace-w.json").write_text(json.dumps({"traceEvents": [{"name": "a", "ph": "i"}]}))
        (parent / "native-0.json").write_text(json.dumps(["cc", "-O2"]))
        rc, from_directory = self._compare(capsys, str(parent), change, declaration)
        assert rc == 0 and from_directory == from_results
        assert "n 2/2" in from_results and "better" in from_results
