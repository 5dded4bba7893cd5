"""Chaos harness (repro.runtime.chaos): seeded failure injection with
recovery-invariant assertions, plus the gem chaos CLI surface."""

import pytest

from repro.harness import cli
from repro.runtime.chaos import (
    LADDER,
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
            "retries-exhausted",
            "every-lane-quarantined",
            "transient-hang",
        }

    def test_smoke_seeds_fixed(self):
        """Tier-1 pins these seeds; changing them silently would change
        what the matrix below actually covers."""
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
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_matrix(self, scenario, seed, tmp_path):
        """The whole matrix ``gem chaos`` runs by default."""
        report = run_chaos(seeds=(seed,), scenarios=(scenario,), work_dir=str(tmp_path))
        assert report.passed, report.summary()
        (outcome,) = report.outcomes
        assert (outcome.scenario, outcome.seed) == (scenario, seed)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_ladder_rows_reach_every_action_and_degrade_reason(self):
        """Enumerated, not sampled: the rows' expected transitions name every
        action ``decide`` can return, and a row ends on each way to degrade."""
        from repro.runtime.supervisor import DEGRADE_REASONS

        seen = {label for row in LADDER.values() for label in row.expect}
        assert {"fault:retry", "fault:tighten", "fault:quarantine", "fault:degrade"} <= seen
        assert {f"degrade:{reason}" for reason in DEGRADE_REASONS} <= seen

    def test_a_kept_work_dir_can_be_reused(self, tmp_path):
        """``--work-dir DIR`` twice: a scenario that counts the files it
        finds must not see the previous run's."""
        for _ in range(2):
            report = run_chaos(seeds=(11,), scenarios=("corrupt-plan",), work_dir=str(tmp_path))
            assert report.passed, report.summary()


class TestChaosCLI:
    def test_cli_single_scenario(self, capsys, tmp_path):
        rc = cli.main(
            [
                "chaos", "--seeds", "11",
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

        rc = cli.main(
            [
                "chaos", "--seeds", "11",
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
        rc = cli.main(["chaos", "--scenarios", "bogus", "--work-dir", str(tmp_path)])
        assert rc == 2
