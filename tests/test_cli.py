"""The ``gem`` command (repro.harness.cli) — smoke level, cheapest design.

These use the harness cache like the benchmarks do; with a warm cache each
command is fast, and with a cold cache they compile openpiton1 (~seconds),
the smallest registered design.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

import pytest

from repro.harness import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def walk(parser, path=("gem",)):
    """Every parser of the tree with the command path that reaches it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from walk(child, (*path, name))


class TestParserTree:
    """The tree ``main`` parses with is the inventory of the command line."""

    #: flags taken out of the tree (DESIGN.md §6 says what replaces each)
    REMOVED_FLAGS = {
        "--tune-budget", "--tune-seed", "--tune-topk", "--tune-cycles", "--designs", "--every",
        "--window", "--keep-going", "--max-retries", "--min-gain", "--no-shrink",
        "--shrink-budget", "--quarantine-after", "--trace-buffer", "--top", "--top-k",
        "--repeats",
    }

    def test_help_renders_for_every_command(self):
        paths = []
        for path, parser in walk(cli.build_parser()):
            assert " ".join(path) in parser.format_help()
            paths.append(" ".join(path[1:]))
        assert sorted(p for p in paths if p and " " not in p) == sorted(cli.COMMANDS)
        assert {p for p in paths if p.startswith("probe ")} == {"probe list", "probe watch"}
        assert {p for p in paths if p.startswith("perf ")} == {
            "perf show", "perf diff", "perf compare", "perf validate-trace",
        }

    def test_every_flag_is_documented_and_none_came_back(self):
        pages = [os.path.join(REPO, "README.md"), *glob.glob(os.path.join(REPO, "docs/*.md"))]
        docs = "".join(open(path, encoding="utf-8").read() for path in pages)
        inventory = set()
        for path, parser in walk(cli.build_parser()):
            for action in parser._actions:
                for flag in action.option_strings:
                    if flag not in ("-h", "--help"):
                        inventory.add(flag)
                        assert re.search(re.escape(flag) + r"\b", docs), (
                            f"{' '.join(path)} {flag} is in no README.md / docs/*.md line"
                        )
        print("flag inventory:", " ".join(sorted(inventory)))
        assert not inventory & self.REMOVED_FLAGS
        with pytest.raises(SystemExit):
            cli.main(["probe", "dump", "openpiton1", "out.vcd"])

    def test_one_console_script_and_no_main_per_tool(self):
        pyproject = open(os.path.join(REPO, "pyproject.toml")).read()
        scripts = pyproject.split("[project.scripts]")[1].split("[")[0].split()
        assert scripts == ["gem", "=", '"repro.harness.cli:main"']
        assert not [name for name in vars(cli) if name.startswith("main_")]

    def test_perf_show_never_loads_the_compile_flow(self, tmp_path):
        """Subcommand imports are lazy: rendering a report needs the report
        module, not the compiler behind the design registry."""
        from repro.obs.report import build_run_report, write_report

        report = str(tmp_path / "report.json")
        write_report(
            build_run_report(
                design="d", workload="w", batch=1, engine_mode="fused", cycles=4, elapsed_s=0.1
            ),
            report,
        )
        heavy = r"repro\.(core\.(compiler|synthesis|partition|placement|merging)|partition|rtl)\b"
        child = subprocess.run(
            [
                sys.executable, "-c",
                "import re, sys\n"
                "from repro.harness import cli\n"
                "cli.build_parser()\n"
                "assert 'numpy' not in sys.modules, 'building the parser is stdlib only'\n"
                f"rc = cli.main(['perf', 'show', {report!r}])\n"
                f"loaded = sorted(m for m in sys.modules if re.match({heavy!r}, m))\n"
                "assert not loaded, loaded\n"
                "sys.exit(rc)\n",
            ],
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr
        assert "d/w" in child.stdout


class TestCompileCommand:
    def test_compile_prints_table1_row(self, capsys, tmp_path):
        bitstream = str(tmp_path / "op1.bin")
        assert cli.main(["compile", "openpiton1", "--bitstream", bitstream]) == 0
        out = capsys.readouterr().out
        assert "#E-AIG Gates" in out
        assert "replication" in out
        import os

        assert os.path.getsize(bitstream) > 1000

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["compile", "no-such-design"])


class TestRunCommand:
    def test_run_reports_match(self, capsys):
        assert cli.main(["run", "openpiton1", "ldst_quad2"]) == 0
        out = capsys.readouterr().out
        assert "[MATCH]" in out

    def test_complete_run_off_the_expected_stream_exits_mismatch(self, capsys, monkeypatch):
        import dataclasses

        from repro.harness import runner

        workloads = dict(runner.design_workloads("openpiton1"))
        wl = workloads["ldst_quad2"]
        workloads["ldst_quad2"] = dataclasses.replace(wl, expected_out=[*wl.expected_out, 0])
        monkeypatch.setattr(runner, "design_workloads", lambda name: workloads)
        assert cli.main(["run", "openpiton1", "ldst_quad2"]) == cli.EXIT_MISMATCH
        assert "[MISMATCH]" in capsys.readouterr().out

    def test_truncated_run_shows_the_stream_without_a_verdict(self, capsys):
        """The expected stream is the whole workload's: a run cut short by
        --max-cycles cannot be held against it."""
        assert cli.main(["run", "openpiton1", "ldst_quad2", "--max-cycles", "30"]) == 0
        out = capsys.readouterr().out
        assert "observable output stream: [" in out
        assert "MATCH]" not in out

    def test_run_default_workload(self, capsys):
        assert cli.main(["run", "openpiton1"]) == 0
        assert "cycles in" in capsys.readouterr().out

    def test_run_unknown_workload(self, capsys):
        assert cli.main(["run", "openpiton1", "nope"]) == 2
        assert "available" in capsys.readouterr().out

    def test_run_batched_lanes(self, capsys):
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--batch", "16", "--max-cycles", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "x 16 lanes" in out
        assert "lane-cycles/s" in out

    def test_run_batched_output_stream_matches(self, capsys):
        """Lane 0 of a broadcast batched run reproduces the workload's
        expected observable stream exactly."""
        assert cli.main(["run", "openpiton1", "ldst_quad2", "--batch", "8"]) == 0
        assert "[MATCH]" in capsys.readouterr().out


class TestTargetGroup:
    """design / workload / --max-cycles are resolved in one place."""

    @pytest.mark.parametrize(
        "command", [["run"], ["cosim"], ["faultcampaign"], ["probe", "watch"]]
    )
    def test_unknown_workload_exits_2_with_the_names(self, command, capsys):
        assert cli.main([*command, "openpiton1", "nosuch"]) == cli.EXIT_USAGE
        out = capsys.readouterr().out
        assert "unknown workload 'nosuch'" in out
        assert "ldst_quad2, fp_mt_combo0, asi_notused_priv" in out

    def test_the_library_resolves_a_workload_the_same_way(self):
        """An unknown workload is a ``ConfigError`` naming the valid ones."""
        from repro.errors import ConfigError
        from repro.harness.runner import design_workload, design_workloads

        first = next(iter(design_workloads("openpiton1").values()))
        assert design_workload("openpiton1") == first
        with pytest.raises(ConfigError, match="unknown workload 'nope'; available: ldst_quad2"):
            design_workload("openpiton1", "nope")

    @pytest.mark.parametrize("command", [["compile"], ["run"], ["probe", "list"], ["tune"]])
    def test_unknown_design_exits_2_with_the_names(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "nosuch"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "gemmini, nvdla, openpiton1, openpiton8, rocketchip" in capsys.readouterr().err


class TestProbeWatch:
    def test_watch_prints_one_lane_per_cycle(self, capsys):
        """``gem probe watch`` rides the shared target and engine groups: the
        values it prints are the ones a plain run of that lane produces."""
        from repro.harness.runner import compile_design, design_workloads

        argv = ["probe", "watch", "openpiton1", "ldst_quad2", "--max-cycles", "6",
                "--nets", "outputs", "--batch", "2", "--lane", "1"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        sim = compile_design("openpiton1").simulator()
        stimuli = design_workloads("openpiton1")["ldst_quad2"].stimuli[:6]
        assert len(lines) == 6
        for cycle, (line, vec) in enumerate(zip(lines, stimuli)):
            assert line.startswith(f"cycle {cycle:6d}: ")
            shown = dict(item.split("=") for item in line.split(": ", 1)[1].split("  "))
            assert shown == {net: str(value) for net, value in sim.step(vec).items()}

    def test_watch_rejects_a_lane_outside_the_batch(self, capsys):
        assert cli.main(["probe", "watch", "openpiton1", "--lane", "2", "--batch", "2"]) == 2
        assert "--lane 2 out of range for --batch 2" in capsys.readouterr().out


class TestCosimCommand:
    def test_cosim_passes(self, capsys):
        assert cli.main(["cosim", "openpiton1", "asi_notused_priv"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cosim_max_cycles(self, capsys):
        assert cli.main(["cosim", "openpiton1", "ldst_quad2", "--max-cycles", "40"]) == 0
        assert "40 cycles" in capsys.readouterr().out


class TestSupervisedRunCommand:
    def test_checkpointed_run_reports_ok(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "40",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "supervised run" in out
        assert "[OK]" in out
        import os

        assert any(n.endswith(".gemk") for n in os.listdir(ckpt_dir))

    def test_resume_continues_from_checkpoint(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "25",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "60",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
            "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at cycle 20" in out

    def test_scrub_only_run(self, capsys):
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "30", "--scrub-every", "5",
        ]) == 0
        assert "faults detected: 0" in capsys.readouterr().out

    def test_supervised_batched_run(self, capsys):
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "30",
            "--scrub-every", "5", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "x 4 lanes" in out
        assert "faults detected: 0" in out


class TestFaultCampaignCommand:
    def test_campaign_passes(self, capsys):
        assert cli.main([
            "faultcampaign", "openpiton1", "ldst_quad2",
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
        rc = cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "20",
            "--checkpoint-dir", str(tmp_path / "nothing"), "--resume",
        ])
        assert rc == cli.EXIT_CORRUPT_RESUME
        assert "cannot resume" in capsys.readouterr().out

    def test_resume_from_corrupt_file_exits_corrupt(self, capsys, tmp_path):
        bad = tmp_path / "bad.gemk"
        bad.write_bytes(b"\x00" * 64)
        rc = cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "20",
            "--resume", str(bad),
        ])
        assert rc == cli.EXIT_CORRUPT_RESUME
        assert "cannot resume" in capsys.readouterr().out

    def test_exhausted_cycle_budget_exits_timeout(self, capsys):
        """A one-cycle budget cannot finish or extend (half a cycle of
        grace rounds to zero), so the run degrades with a timeout."""
        rc = cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "20",
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
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "25",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "60",
            "--checkpoint-every", "10", "--checkpoint-dir", ckpt_dir,
            "--resume", ckpt_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at cycle 20" in out
        import os

        assert "journal.json" in os.listdir(ckpt_dir)

    def test_deadline_flag_reports_clean_run(self, capsys):
        rc = cli.main([
            "run", "openpiton1", "ldst_quad2", "--max-cycles", "30",
            "--deadline", "300",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "timeouts: 0" in out
