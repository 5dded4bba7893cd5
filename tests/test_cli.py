"""CLI entry points (repro.harness.cli) — smoke level, cheapest design.

These use the harness cache like the benchmarks do; with a warm cache each
command is fast, and with a cold cache they compile openpiton1 (~seconds),
the smallest registered design.
"""

import pytest

from repro.harness import cli


class TestCompileCommand:
    def test_compile_prints_table1_row(self, capsys, tmp_path):
        bitstream = str(tmp_path / "op1.bin")
        assert cli.main_compile(["openpiton1", "--bitstream", bitstream]) == 0
        out = capsys.readouterr().out
        assert "#E-AIG Gates" in out
        assert "replication" in out
        import os

        assert os.path.getsize(bitstream) > 1000

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            cli.main_compile(["no-such-design"])


class TestRunCommand:
    def test_run_reports_match(self, capsys):
        assert cli.main_run(["openpiton1", "ldst_quad2"]) == 0
        out = capsys.readouterr().out
        assert "[MATCH]" in out

    def test_complete_run_off_the_expected_stream_exits_mismatch(self, capsys, monkeypatch):
        import dataclasses

        from repro.harness import runner

        workloads = dict(runner.design_workloads("openpiton1"))
        wl = workloads["ldst_quad2"]
        workloads["ldst_quad2"] = dataclasses.replace(wl, expected_out=[*wl.expected_out, 0])
        monkeypatch.setattr(runner, "design_workloads", lambda name: workloads)
        assert cli.main_run(["openpiton1", "ldst_quad2"]) == cli.EXIT_MISMATCH
        assert "[MISMATCH]" in capsys.readouterr().out

    def test_truncated_run_shows_the_stream_without_a_verdict(self, capsys):
        """The expected stream is the whole workload's: a run cut short by
        --max-cycles cannot be held against it."""
        assert cli.main_run(["openpiton1", "ldst_quad2", "--max-cycles", "30"]) == 0
        out = capsys.readouterr().out
        assert "observable output stream: [" in out
        assert "MATCH]" not in out

    def test_run_default_workload(self, capsys):
        assert cli.main_run(["openpiton1"]) == 0
        assert "cycles in" in capsys.readouterr().out

    def test_run_unknown_workload(self, capsys):
        assert cli.main_run(["openpiton1", "nope"]) == 2
        assert "available" in capsys.readouterr().out

    def test_run_batched_lanes(self, capsys):
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--batch", "16", "--max-cycles", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "x 16 lanes" in out
        assert "lane-cycles/s" in out

    def test_run_batched_output_stream_matches(self, capsys):
        """Lane 0 of a broadcast batched run reproduces the workload's
        expected observable stream exactly."""
        assert cli.main_run(["openpiton1", "ldst_quad2", "--batch", "8"]) == 0
        assert "[MATCH]" in capsys.readouterr().out


class TestCosimCommand:
    def test_cosim_passes(self, capsys):
        assert cli.main_cosim(["openpiton1", "asi_notused_priv"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cosim_max_cycles(self, capsys):
        assert cli.main_cosim(["openpiton1", "ldst_quad2", "--max-cycles", "40"]) == 0
        assert "40 cycles" in capsys.readouterr().out


class TestSupervisedRunCommand:
    def test_checkpointed_run_reports_ok(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "40",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "supervised run" in out
        assert "[OK]" in out
        import os

        assert any(n.endswith(".gemk") for n in os.listdir(ckpt_dir))

    def test_resume_continues_from_checkpoint(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "25",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
        ]) == 0
        capsys.readouterr()
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "60",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
            "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at cycle 20" in out

    def test_scrub_only_run(self, capsys):
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "30", "--scrub-every", "5",
        ]) == 0
        assert "faults detected: 0" in capsys.readouterr().out

    def test_supervised_batched_run(self, capsys):
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "30",
            "--scrub-every", "5", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "x 4 lanes" in out
        assert "faults detected: 0" in out


class TestFaultCampaignCommand:
    def test_campaign_passes(self, capsys):
        assert cli.main_faultcampaign([
            "openpiton1", "ldst_quad2",
            "--trials", "2", "--max-cycles", "24", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out
        assert "PASS" in out
        assert "bitstream" in out and "state" in out


class TestDispatcher:
    def test_main_routes_commands(self, capsys):
        assert cli.main(["run", "openpiton1", "ldst_quad2"]) == 0
        assert "[MATCH]" in capsys.readouterr().out

    def test_main_routes_faultcampaign(self, capsys):
        assert cli.main([
            "faultcampaign", "openpiton1", "ldst_quad2",
            "--trials", "1", "--max-cycles", "16",
        ]) == 0
        assert "fault campaign" in capsys.readouterr().out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])


class TestResilienceExitCodes:
    """Satellite: distinct nonzero exit codes for the distinct failure
    classes (fault-exhausted vs timeout vs corrupt-resume)."""

    def test_exit_codes_distinct(self):
        codes = [
            cli.EXIT_OK,
            cli.EXIT_MISMATCH,
            cli.EXIT_USAGE,
            cli.EXIT_DEGRADED,
            cli.EXIT_TIMEOUT,
            cli.EXIT_CORRUPT_RESUME,
        ]
        assert codes == [0, 1, 2, 3, 4, 5]
        assert len(set(codes)) == len(codes)

    def test_resume_from_empty_dir_exits_corrupt(self, capsys, tmp_path):
        rc = cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "20",
            "--checkpoint-dir", str(tmp_path / "nothing"), "--resume",
        ])
        assert rc == cli.EXIT_CORRUPT_RESUME
        assert "cannot resume" in capsys.readouterr().out

    def test_resume_from_corrupt_file_exits_corrupt(self, capsys, tmp_path):
        bad = tmp_path / "bad.gemk"
        bad.write_bytes(b"\x00" * 64)
        rc = cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "20",
            "--resume", str(bad),
        ])
        assert rc == cli.EXIT_CORRUPT_RESUME
        assert "cannot resume" in capsys.readouterr().out

    def test_exhausted_cycle_budget_exits_timeout(self, capsys):
        """A one-cycle budget cannot finish or extend (half a cycle of
        grace rounds to zero), so the run degrades with a timeout."""
        rc = cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "20",
            "--cycle-budget", "1",
        ])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_TIMEOUT
        assert "DEGRADED" in out
        assert "timeouts: 1" in out

    def test_resume_directory_target_picks_newest(self, capsys, tmp_path):
        """--resume DIR (explicit argument, not the bare flag) selects the
        newest valid checkpoint in that directory via its journal."""
        ckpt_dir = str(tmp_path / "ckpts")
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "25",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
        ]) == 0
        capsys.readouterr()
        assert cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "60",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
            "--resume", ckpt_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at cycle 20" in out
        import os

        assert "journal.json" in os.listdir(ckpt_dir)

    def test_deadline_flag_reports_clean_run(self, capsys):
        rc = cli.main_run([
            "openpiton1", "ldst_quad2", "--max-cycles", "30",
            "--deadline", "300",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "timeouts: 0" in out
