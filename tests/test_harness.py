"""Harness utilities: registry, cache, tables, paper data, CLI parsing."""

import os

import pytest

from repro.harness.runner import DESIGNS, _cached
from repro.harness.tables import (
    PAPER_AVERAGE_SPEEDUPS,
    PAPER_EVENTS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    Table2Row,
    average_speedups,
    format_table,
    geomean,
)


class TestRegistry:
    def test_five_designs(self):
        assert set(DESIGNS) == {"nvdla", "rocketchip", "gemmini", "openpiton1", "openpiton8"}

    def test_entries_buildable(self):
        # openpiton1 is the cheapest; build it for real.
        circuit = DESIGNS["openpiton1"].build()
        assert circuit.name == "openpiton1_like"


class TestCache:
    def test_memory_and_disk_roundtrip(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "_memory_cache", {})
        calls = []

        def make():
            calls.append(1)
            return {"v": 42}

        assert runner._cached("test:key", make) == {"v": 42}
        assert runner._cached("test:key", make) == {"v": 42}
        assert len(calls) == 1
        # New process simulation: clear memory cache, hits disk.
        monkeypatch.setattr(runner, "_memory_cache", {})
        assert runner._cached("test:key", make) == {"v": 42}
        assert len(calls) == 1

    def test_corrupt_cache_rebuilds(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "_memory_cache", {})
        path = runner._cache_path("test:bad")
        os.makedirs(tmp_path, exist_ok=True)
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        assert runner._cached("test:bad", lambda: 7) == 7

    def test_unwritable_cache_keeps_the_built_value(self, tmp_path, monkeypatch, caplog):
        """A finished build (minutes, for nvdla) is returned even when its
        cache write fails; the next process rebuilds.  (A regular file
        where the directory should be is unwritable for root too.)"""
        import logging

        import repro.harness.runner as runner

        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        monkeypatch.setenv("GEM_CACHE_DIR", str(blocker / "cache"))
        monkeypatch.setattr(runner, "_memory_cache", {})
        calls = []

        def make():
            calls.append(1)
            return {"v": 42}

        with caplog.at_level(logging.WARNING):
            assert runner._cached("test:key", make) == {"v": 42}
        assert len(caplog.records) == 1 and "cannot cache test" in caplog.text
        monkeypatch.setattr(runner, "_memory_cache", {})
        assert runner._cached("test:key", make) == {"v": 42}
        assert len(calls) == 2
        assert blocker.read_text() == "in the way"

    def test_failed_or_racing_writes_leave_no_temp_file(self, tmp_path, monkeypatch):
        """Writers go through a uniquely named temp file: one that fails
        mid-stream removes it, and two writers of one key never share it."""
        import pickle

        import repro.harness.runner as runner
        from repro.core.cachefile import write_atomic

        monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "_memory_cache", {})
        with pytest.raises((pickle.PicklingError, AttributeError)):
            runner._cached("test:unpicklable", lambda: (lambda: None))
        assert not list(tmp_path.iterdir())

        path = str(tmp_path / "test-shared.pkl")
        seen = []

        def outer(f):
            f.write(b"outer")
            # a second writer of the same path finishes while this one is mid-stream
            write_atomic(path, lambda g: g.write(b"inner"))
            seen.extend(sorted(p.name for p in tmp_path.iterdir()))

        write_atomic(path, outer)
        assert len(seen) == 2 and seen[0] == "test-shared.pkl" and seen[1].endswith(".tmp")
        assert (tmp_path / "test-shared.pkl").read_bytes() == b"outer"
        assert [p.name for p in tmp_path.iterdir()] == ["test-shared.pkl"]


    @pytest.mark.parametrize("writer", ["run report", "fuzz repro", "tuning cache"])
    def test_a_failing_writer_leaves_neither_target_nor_temp(self, writer, tmp_path, monkeypatch):
        """RunReports, .gemrepro files and the tuning cache are written through
        ``write_atomic`` like the compile cache: when the write fails (here
        the rename does) there is no target and no temp file to trip over."""
        from tests.helpers import random_circuit

        if writer == "run report":
            from repro.obs.report import build_run_report, write_report

            report = build_run_report(
                design="d", workload="w", batch=1, engine_mode="fused", cycles=1, elapsed_s=0.1
            )

            def write():
                write_report(report, str(tmp_path / "report.json"))

        elif writer == "fuzz repro":
            from repro.fuzz.corpus import Corpus, load_repro, write_repro

            repro = load_repro(Corpus(os.path.join(os.path.dirname(__file__), "corpus")).paths()[0])

            def write():
                write_repro(str(tmp_path / "case.gemrepro"), repro)

        else:
            from repro.core.autotune import AutotuneConfig, autotune
            from repro.core.synthesis import synthesize

            synth = synthesize(random_circuit(5, n_ops=20, with_memory=False))

            def write():
                opts = AutotuneConfig(budget=1, cache_dir=str(tmp_path))
                autotune(synth, name="t", opts=opts)

        def broken_replace(src, dst):
            raise OSError("rename failed")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", broken_replace)
            with pytest.raises(OSError, match="rename failed"):
                write()
        assert not list(tmp_path.iterdir())
        write()  # and the same writer, unbroken, leaves exactly its target
        assert len(list(tmp_path.iterdir())) == 1


class TestPaperData:
    def test_table1_complete(self):
        assert set(PAPER_TABLE1) == set(DESIGNS)
        for row in PAPER_TABLE1.values():
            assert row["layers"] < row["levels"]

    def test_table2_row_counts(self):
        counts = {d: len(tests) for d, tests in PAPER_TABLE2.items()}
        assert counts == {
            "nvdla": 5, "rocketchip": 5, "gemmini": 2, "openpiton1": 3, "openpiton8": 3,
        }
        assert sum(counts.values()) == 18

    def test_paper_speedup_recomputation(self):
        """Recompute the paper's bottom-row averages from its own table —
        guards our transcription of Table II."""
        ratios = {"commercial": [], "verilator_8t": [], "verilator_1t": [], "gl0am": []}
        for tests in PAPER_TABLE2.values():
            for row in tests.values():
                for key in ratios:
                    if row[key] is not None:
                        ratios[key].append(row["gem_a100"] / row[key])
        for key, values in ratios.items():
            ours = sum(values) / len(values)
            assert ours == pytest.approx(PAPER_AVERAGE_SPEEDUPS[key], rel=0.02), key

    def test_openpiton_event_anomaly_recorded(self):
        assert PAPER_EVENTS["openpiton8"] / PAPER_EVENTS["openpiton1"] == pytest.approx(
            3.34, rel=0.01
        )


class TestTableFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 100, "b": 0.125}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "100" in lines[3]

    def test_format_empty(self):
        assert "empty" in format_table([])

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_average_speedups(self):
        rows = [
            Table2Row("d", "t", commercial=10, verilator_8t=20, verilator_1t=5,
                      gl0am=10, gem_a100=100, gem_3090=90),
            Table2Row("d", "u", commercial=20, verilator_8t=25, verilator_1t=10,
                      gl0am=50, gem_a100=100, gem_3090=90),
        ]
        avg = average_speedups(rows)
        assert avg["commercial"] == pytest.approx((10 + 5) / 2)
        assert avg["gl0am"] == pytest.approx((10 + 2) / 2)


class TestCli:
    def test_main_dispatch_tables_help(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["compile", "--help"])
        with pytest.raises(SystemExit):
            main(["run", "not-a-design"])
