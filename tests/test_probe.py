"""Signal-level observability: probe taps, waveform rings, activity.

The acceptance bar (docs/OBSERVABILITY.md): a probed fused run must be
bit-identical — per probed net, per cycle, per lane — to the gate-level
reference simulator on corpus designs at batch 1 through 256, the SAIF
toggle counts must match an independent recount of the tap stream, and
tap state must survive checkpoint/rollback unchanged.
"""

from __future__ import annotations

import functools
import io
import os

import pytest

from repro.core.compiler import GemCompiler
from repro.errors import ProbeError
from repro.fuzz.corpus import _coerce_stimuli, load_repro
from repro.fuzz.oracle import compile_profile
from repro.obs.activity import (
    ActivityAccumulator,
    format_hot_nets,
    hot_nets,
    read_saif,
    write_saif,
)
from repro.obs.probe import (
    ProbeTap,
    SimrefProbe,
    WaveRing,
    build_probe_plan,
    dump_divergence_waves,
    list_nets,
    probe_catalog,
)
from repro.simref.gate_sim import GateLevelSim
from repro.simref.isa_interp import ReferenceInterpreter
from repro.waveform.vcd import VcdReader

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

#: three structurally different corpus designs pin the bit-identity bar
IDENTITY_DESIGNS = [
    "fuzz_mixed_746926247",
    "fuzz_wide_513846579",
    "fuzz_deep_772151367",
]


@functools.lru_cache(maxsize=None)
def corpus_design(name: str):
    repro = load_repro(os.path.join(CORPUS, f"{name}.gemrepro"))
    compiled = GemCompiler(compile_profile("small")).compile(repro.spec.build())
    stimuli = _coerce_stimuli(repro.spec, repro.stimuli)
    return compiled, stimuli


def run_tapped(compiled, stimuli, *, batch=1, reference=False, nets=None, capacity=None):
    """Run ``stimuli`` with a full-window ring + activity tap attached,
    on the executor or (``reference=True``) the ISA-literal interpreter."""
    plan = build_probe_plan(compiled, nets)
    ring = WaveRing(plan, capacity=capacity or max(len(stimuli), 1))
    acc = ActivityAccumulator(plan)
    tap = ProbeTap(plan, [ring, acc])
    if reference:
        sim = ReferenceInterpreter(compiled.program, batch=batch)
    else:
        sim = compiled.simulator(batch=batch)
    tap.attach(sim)
    for vec in stimuli:
        sim.step(vec)
    return tap, ring, acc


class TestCatalog:
    def test_catalog_covers_all_kinds(self):
        compiled, _ = corpus_design(IDENTITY_DESIGNS[0])
        nets = probe_catalog(compiled)
        assert nets
        assert {net.kind for net in nets} <= {"input", "register", "output"}
        names = [net.name for net in nets]
        assert len(names) == len(set(names)), "catalog names must be unique"
        assert all(net.width == len(net.gidx) > 0 for net in nets)

    def test_group_selectors_and_globs(self):
        compiled, _ = corpus_design(IDENTITY_DESIGNS[0])
        everything = build_probe_plan(compiled)
        regs = build_probe_plan(compiled, "registers")
        assert regs.nets
        assert all(net.kind == "register" for net in regs.nets)
        first = everything.nets[0].name
        one = build_probe_plan(compiled, first)
        assert [net.name for net in one.nets] == [first]

    def test_unmatched_pattern_raises(self):
        compiled, _ = corpus_design(IDENTITY_DESIGNS[0])
        with pytest.raises(ProbeError, match="no_such_net"):
            build_probe_plan(compiled, "no_such_net")

    def test_list_nets_rows(self):
        compiled, _ = corpus_design(IDENTITY_DESIGNS[0])
        rows = list_nets(compiled)
        assert rows and set(rows[0]) == {"net", "kind", "width"}

    def test_attach_rejects_wrong_program(self):
        a, _ = corpus_design(IDENTITY_DESIGNS[0])
        b, _ = corpus_design(IDENTITY_DESIGNS[1])
        plan = build_probe_plan(a)
        with pytest.raises(ProbeError, match="probe plan"):
            ProbeTap(plan).attach(b.simulator())


class TestBitIdentity:
    """The tentpole bar: engine taps == gate-level reference, every lane."""

    @pytest.mark.parametrize("name", IDENTITY_DESIGNS)
    @pytest.mark.parametrize("batch", [1, 64, 256])
    def test_fused_tap_matches_simref(self, name, batch):
        compiled, stimuli = corpus_design(name)
        stimuli = stimuli[:12]
        _, ring, _ = run_tapped(compiled, stimuli, batch=batch)
        sim = GateLevelSim(compiled.synth)
        ref = SimrefProbe(ring.plan).install(sim)
        for vec in stimuli:
            sim.step(vec)
        assert len(ref.samples) == len(stimuli)
        for lane in sorted({0, batch // 2, batch - 1}):
            samples = ring.lane_samples(lane)
            assert len(samples) == len(ref.samples)
            for (cycle, values), expect in zip(samples, ref.samples):
                assert values == expect, f"lane {lane} diverges at cycle {cycle}"

    def test_fused_and_legacy_taps_agree(self):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        stimuli = stimuli[:10]
        _, fused, _ = run_tapped(compiled, stimuli, batch=16)
        _, legacy, _ = run_tapped(compiled, stimuli, batch=16, reference=True)
        assert fused.lane_samples(5) == legacy.lane_samples(5)


class TestWaveRing:
    def test_drop_accounting(self):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        stimuli = stimuli[:10]
        _, ring, _ = run_tapped(compiled, stimuli, capacity=4)
        assert len(ring) == 4
        assert ring.dropped == 6
        assert ring.first_cycle == 6

    def test_lane_out_of_range(self):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        _, ring, _ = run_tapped(compiled, stimuli[:4], batch=8)
        with pytest.raises(ProbeError, match="lane 8"):
            ring.lane_samples(8)

    def test_dump_vcd_roundtrip(self, tmp_path):
        """The dumped VCD reads back exactly as the lane's tap stream."""
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        stimuli = stimuli[:10]
        _, ring, _ = run_tapped(compiled, stimuli, batch=8)
        path = str(tmp_path / "lane3.vcd")
        summary = ring.dump_vcd(path, lane=3)
        assert summary["cycles"] == 10
        assert summary["dropped_windows"] == 0
        with open(path) as f:
            cycles = VcdReader(f).cycles()
        assert cycles == [values for _, values in ring.lane_samples(3)]

    def test_dump_vcd_to_stream(self):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        _, ring, _ = run_tapped(compiled, stimuli[:5])
        buf = io.StringIO()
        summary = ring.dump_vcd(buf, lane=0)
        assert summary["cycles"] == 5
        assert "$dumpvars" in buf.getvalue()


class TestActivity:
    def test_counts_match_independent_recount(self):
        """SAIF counters must equal a from-scratch recount of the tap
        stream through the (independent) integer lane-sample path."""
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        stimuli = stimuli[:12]
        batch = 8
        _, ring, acc = run_tapped(compiled, stimuli, batch=batch)
        per_net = acc.per_net()
        for net in ring.plan.nets:
            t1 = tc = 0
            prev = [None] * batch
            for lane in range(batch):
                for _, values in ring.lane_samples(lane):
                    value = values[net.name]
                    t1 += bin(value).count("1")
                    if prev[lane] is not None:
                        tc += bin(value ^ prev[lane]).count("1")
                    prev[lane] = value
            t0 = len(stimuli) * batch * net.width - t1
            counts = per_net[net.name]
            assert (counts["T0"], counts["T1"], counts["TC"]) == (t0, t1, tc), net.name

    def test_t0_t1_partition_invariant(self):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[1])
        _, _, acc = run_tapped(compiled, stimuli[:9], batch=64)
        total = acc.cycles * acc.batch
        for name, counts in acc.per_bit().items():
            t0, t1, tc = counts
            assert t0 + t1 == total, name
            assert tc <= (acc.cycles - 1) * acc.batch, name

    def test_saif_roundtrip(self, tmp_path):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        _, _, acc = run_tapped(compiled, stimuli[:10], batch=4)
        path = str(tmp_path / "act.saif")
        write_saif(path, acc, design="corpus")
        doc = read_saif(path)  # read_saif validates the count invariants
        assert doc["duration"] == 10
        assert doc["lanes"] == 4
        assert len(doc["nets"]) == acc.plan.num_bits
        per_bit = acc.per_bit()
        for name, counts in doc["nets"].items():
            assert (counts["T0"], counts["T1"], counts["TC"]) == per_bit[name]

    def test_hot_nets_table(self):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        _, _, acc = run_tapped(compiled, stimuli[:10])
        rows = hot_nets(acc, top=3)
        assert len(rows) <= 3
        toggles = [row["toggles"] for row in rows]
        assert toggles == sorted(toggles, reverse=True)
        table = format_hot_nets(rows)
        assert rows[0]["net"] in table
        assert format_hot_nets([]).strip() == "(no activity data)"


class TestRewind:
    def test_tap_snapshot_restore(self):
        """Rolling the tap back and replaying reproduces the exact stream
        an undisturbed run would have produced."""
        from repro.runtime.checkpoint import restore, snapshot

        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        stimuli = stimuli[:10]
        plan = build_probe_plan(compiled)
        ring = WaveRing(plan, capacity=16)
        acc = ActivityAccumulator(plan)
        tap = ProbeTap(plan, [ring, acc])
        sim = compiled.simulator(batch=4)
        tap.attach(sim)
        engine_snap = None
        tap_snap = None
        for cycle, vec in enumerate(stimuli):
            if cycle == 5:
                engine_snap = snapshot(sim)
                tap_snap = tap.snapshot()
            sim.step(vec)
        undisturbed = (ring.lane_samples(1), acc.per_net())
        # rewind to cycle 5 and replay the tail
        restore(sim, engine_snap)
        tap.restore(tap_snap)
        for vec in stimuli[5:]:
            sim.step(vec)
        assert tap.cycle == 10
        assert (ring.lane_samples(1), acc.per_net()) == undisturbed

    def test_supervised_run_matches_plain_tap(self, tmp_path):
        """``run_resilient(probe=...)`` wires the tap through checkpoints
        and produces the same stream as an unsupervised tapped run."""
        from repro.harness.runner import compile_design, design_workloads, run_resilient

        design = compile_design("rocketchip")
        stimuli = next(iter(design_workloads("rocketchip").values())).stimuli[:12]
        plan = build_probe_plan(design, "outputs")
        ring = WaveRing(plan, capacity=16)
        acc = ActivityAccumulator(plan)
        tap = ProbeTap(plan, [ring, acc])
        result = run_resilient(
            design,
            stimuli,
            checkpoint_every=4,
            checkpoint_dir=str(tmp_path),
            probe=tap,
        )
        assert not result.degraded
        assert tap.captured == 12 and acc.cycles == 12
        _, plain_ring, _ = run_tapped(design, stimuli, nets="outputs")
        assert ring.lane_samples(0) == plain_ring.lane_samples(0)


class TestDivergenceDump:
    def test_window_around_cycle(self, tmp_path):
        compiled, stimuli = corpus_design(IDENTITY_DESIGNS[0])
        path = str(tmp_path / "div.vcd")
        summary = dump_divergence_waves(
            compiled, stimuli[:12], 6, path, before=3, after=2
        )
        assert summary["path"] == path
        assert summary["divergence_cycle"] == 6
        assert summary["first_cycle"] == 3
        assert summary["cycles"] == 6  # cycles 3..8 inclusive
        with open(path) as f:
            assert len(VcdReader(f).cycles()) == 6

    def test_fuzz_divergence_dumps_waves(self, tmp_path):
        """A caught oracle divergence must leave a readable VCD window
        behind (the ``gem fuzz run --wave-dir`` path)."""
        from repro.fuzz.corpus import _dump_divergence_waves
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        spec = generate_design(0, "mixed").spec
        stimuli = random_stimuli(spec, 0, 16)
        for bit in range(48):
            config = OracleConfig(
                batches=(1, 16), inject={"kind": "fold", "index": 0, "bit": bit}
            )
            result = run_oracle(spec, stimuli, config)
            if not result.ok:
                break
        else:
            pytest.fail("no observable fold bit in 48 tries")
        path = str(tmp_path / "waves" / "div.vcd")
        _dump_divergence_waves(spec, stimuli, result.divergence, config, path)
        with open(path) as f:
            assert VcdReader(f).cycles()


class TestCli:
    def test_gem_probe_list_json(self, capsys):
        import json

        from repro.harness.cli import main

        assert main(["probe", "list", "rocketchip", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and {"net", "kind", "width"} <= set(rows[0])

    def test_gem_probe_bad_net_is_usage_error(self, capsys):
        from repro.harness.cli import main

        assert main(["probe", "list", "rocketchip", "--nets", "nope*"]) == 2
        assert "probe error" in capsys.readouterr().out

    def test_gem_run_probe_outputs(self, tmp_path, capsys):
        import json

        from repro.harness.cli import main

        vcd = str(tmp_path / "run.vcd")
        saif = str(tmp_path / "run.saif")
        report = str(tmp_path / "run.json")
        rc = main([
            "run", "rocketchip", "--max-cycles", "10", "--batch", "4", "--lane", "2",
            "--probe", "outputs", "--vcd-out", vcd, "--saif-out", saif,
            "--report-out", report,
        ])
        assert rc == 0
        with open(vcd) as f:
            assert len(VcdReader(f).cycles()) == 10
        assert read_saif(saif)["duration"] == 10
        with open(report) as f:
            activity = json.load(f)["extras"]["activity"]
        assert activity["cycles"] == 10 and activity["lanes"] == 4
        assert activity["hot_nets"]

    def test_gem_run_lane_out_of_range(self, capsys):
        from repro.harness.cli import main

        assert main(["run", "rocketchip", "--probe", "--lane", "5"]) == 2
        assert "out of range" in capsys.readouterr().out

    def test_perf_show_handles_reports_without_activity(self):
        from repro.obs.report import build_run_report, format_report

        report = build_run_report(
            design="x", workload="w", batch=1, engine_mode="fused",
            cycles=4, elapsed_s=0.1, registry=None,
        )
        assert "hot nets" not in format_report(report)
