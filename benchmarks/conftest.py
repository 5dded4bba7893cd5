"""Shared infrastructure for the experiment benchmarks.

Each ``benchmarks/test_*`` file regenerates one paper artifact (see the
per-experiment index in DESIGN.md).  Results are printed as paper-vs-
measured tables and appended to ``benchmarks/results.json`` so
EXPERIMENTS.md can be refreshed from a run.  Wall-clock performance of
the simulator itself is not measured here: that is ``benchmarks/e2e``
(``BENCHMARK.json``), whose records ``gem perf compare`` judges.

Compiled designs are cached under ``.gem_cache/`` — the first full run
takes a few minutes, later runs are seconds.
"""

from __future__ import annotations

import json
import os

import pytest

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.json")


def _load() -> dict:
    if os.path.exists(RESULTS_PATH):
        try:
            with open(RESULTS_PATH) as f:
                return json.load(f)
        except Exception:
            return {}
    return {}


@pytest.fixture
def record_experiment():
    """Record one experiment's result dict under its id."""

    def record(experiment_id: str, payload: dict) -> None:
        data = _load()
        data[experiment_id] = payload
        with open(RESULTS_PATH, "w") as f:
            json.dump(data, f, indent=2, sort_keys=True)

    return record


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments here are compile-flow measurements, not microbenchmarks;
    one round keeps the suite's wall time sane while still reporting timing.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
