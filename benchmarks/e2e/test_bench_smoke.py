"""Smoke test of the benchmark itself (not part of tier-1: ``testpaths = ["tests"]``).

Run with ``python -m pytest benchmarks/e2e/test_bench_smoke.py``: drives
``python -m benchmarks.e2e --quick`` and checks ``out/results.json``
against the declaration in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def test_declaration_is_within_limits():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_quick_run_reports_every_declared_metric():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick"], cwd=ROOT, timeout=900
    )
    assert proc.returncode == 0
    results = load(os.path.join(HERE, "out", "results.json"))
    assert results["comparable"] is False
    assert results["stamp"]["numpy"] and results["stamp"]["host"]["cpus"]
    (workloads,) = results["sets"]
    assert list(workloads) == [w["name"] for w in bench["workloads"]]
    for name, row in workloads.items():
        for kind, declared in (("end_to_end", bench["end_to_end"]), ("trace", bench["per_layer"])):
            result = row[kind]["result"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in declared}, (name, kind)
            for metric in declared:
                reading = result["metrics"][metric["name"]]
                assert reading["unit"] == metric["unit"]
                assert isinstance(reading["value"], (int, float))
        assert all(row["end_to_end"]["result"]["metrics"][m["name"]]["value"] > 0 for m in bench["end_to_end"])
        assert row["end_to_end"]["exact"]["stimuli_sha256"] == row["trace"]["exact"]["stimuli_sha256"]
        assert row["end_to_end"]["exact"]["bitstream_sha256"] == row["trace"]["exact"]["bitstream_sha256"]
        assert row["end_to_end"]["exact"]["outputs_sha256"] == row["trace"]["exact"]["outputs_sha256"]
