"""Chaos harness (repro.runtime.chaos): seeded failure injection with
recovery-invariant assertions, plus the gem-chaos CLI surface."""

import pytest

from repro.harness import cli
from repro.runtime.chaos import (
    SCENARIOS,
    SMOKE_SEEDS,
    ChaosOutcome,
    ChaosReport,
    run_chaos,
)


class TestRegistry:
    def test_all_documented_scenarios_present(self):
        assert set(SCENARIOS) == {
            "torn-checkpoint",
            "corrupt-cache",
            "corrupt-plan",
            "save-oserror",
            "midcycle-fault",
            "watchdog-hang",
            "lane-quarantine",
        }

    def test_smoke_seeds_fixed(self):
        """CI pins these seeds; changing them silently would change what
        the chaos-smoke job actually covers."""
        assert SMOKE_SEEDS == (11, 23, 47)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_chaos(seeds=(1,), scenarios=("no-such-scenario",))


class TestReport:
    def test_empty_report_passes(self):
        report = ChaosReport()
        assert report.passed
        assert "0 scenario runs" in report.summary()

    def test_failure_flips_report(self):
        report = ChaosReport()
        report.outcomes.append(ChaosOutcome("x", 1, True, "fine"))
        report.outcomes.append(ChaosOutcome("x", 2, False, "broken"))
        assert not report.passed
        assert "1 failure(s)" in report.summary()
        assert "FAIL" in report.summary()


class TestScenarios:
    """One full scenario per class of injection — the complete matrix runs
    in the CI chaos-smoke job, not here."""

    def test_midcycle_fault_scenario(self, tmp_path):
        report = run_chaos(
            seeds=(11,), scenarios=("midcycle-fault",), work_dir=str(tmp_path)
        )
        assert report.passed, report.summary()
        (outcome,) = report.outcomes
        assert outcome.scenario == "midcycle-fault"
        assert outcome.seed == 11

    def test_torn_checkpoint_scenario(self, tmp_path):
        report = run_chaos(
            seeds=(11,), scenarios=("torn-checkpoint",), work_dir=str(tmp_path)
        )
        assert report.passed, report.summary()

    def test_corrupt_plan_scenario(self, tmp_path):
        report = run_chaos(seeds=(11,), scenarios=("corrupt-plan",), work_dir=str(tmp_path))
        assert report.passed, report.summary()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_lane_quarantine_scenario(self, tmp_path):
        """Acceptance: quarantine keeps healthy lanes bit-identical."""
        report = run_chaos(
            seeds=(11,), scenarios=("lane-quarantine",), work_dir=str(tmp_path)
        )
        assert report.passed, report.summary()
        assert "healthy lanes bit-identical" in report.outcomes[0].detail


class TestChaosCLI:
    def test_cli_single_scenario(self, capsys, tmp_path):
        rc = cli.main_chaos(
            [
                "--seeds", "11",
                "--scenarios", "watchdog-hang",
                "--work-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "chaos campaign" in out
        assert "watchdog-hang" in out

    def test_cli_json_output(self, capsys, tmp_path):
        import json

        rc = cli.main_chaos(
            [
                "--seeds", "11",
                "--scenarios", "save-oserror",
                "--work-dir", str(tmp_path),
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["outcomes"][0]["scenario"] == "save-oserror"

    def test_cli_rejects_unknown_scenario(self, capsys, tmp_path):
        rc = cli.main_chaos(["--scenarios", "bogus", "--work-dir", str(tmp_path)])
        assert rc == 2
