"""Bounded end-to-end autotune smoke (the CI ``tune-smoke`` job).

A full autotune — compile sweep, cost-model ranking, cache write — on
one small design with a tiny fixed-seed budget.  Slow-marked so the
default CI test matrix skips it; the dedicated ``tune-smoke`` job runs
exactly this file and uploads the tuning-cache JSON it writes as an
artifact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.autotune import MIN_GAIN, AutotuneConfig, KnobSpace, apply_knobs, autotune
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemConfig
from repro.core.depth_opt import optimize
from repro.core.partition import PartitionConfig
from repro.core.synthesis import synthesize
from tests.helpers import random_circuit

pytestmark = pytest.mark.slow


def test_bounded_model_autotune(tmp_path):
    cache_dir = os.environ.get("GEM_TUNE_DIR", str(tmp_path))
    circ = random_circuit(19, n_ops=320, max_width=12, with_memory=False)
    synth = optimize(synthesize(circ))
    base = GemConfig(
        partition=PartitionConfig(gates_per_partition=400, num_stages=2),
        boomerang=BoomerangConfig(width_log2=9),
    )
    result = autotune(
        synth,
        name="tune-smoke",
        base=base,
        space=KnobSpace(
            gates_per_partition=(300, 400, 600),
            num_stages=(1, 2),
            width_log2=(9,),
            sa_iterations=(0, 6),
        ),
        opts=AutotuneConfig(budget=5, seed=0, cache_dir=cache_dir),
    )

    # A tuned pick must beat the default's modelled speed by the margin.
    default = result.candidates[0]
    winner = next(c for c in result.candidates if c.digest == result.winner_digest)
    if result.winner_label == "default":
        assert winner is default and result.winner_knobs == {}
    else:
        assert winner.model_hz >= default.model_hz * (1 + MIN_GAIN)

    # The cache artifact the CI job uploads: present, versioned, replayable.
    assert result.cache_path and os.path.exists(result.cache_path)
    with open(result.cache_path) as f:
        payload = json.load(f)
    assert payload["winner_knobs"] == result.winner_knobs
    assert payload["key"] == result.key

    rerun = autotune(
        synth,
        name="tune-smoke",
        base=base,
        space=KnobSpace(
            gates_per_partition=(300, 400, 600),
            num_stages=(1, 2),
            width_log2=(9,),
            sa_iterations=(0, 6),
        ),
        opts=AutotuneConfig(budget=5, seed=0, cache_dir=cache_dir),
    )
    assert rerun.cache_hit, "second autotune of the same design must not re-sweep"
    assert rerun.winner_knobs == result.winner_knobs


def test_every_candidate_of_a_registry_sweep_simulates_like_the_default(tmp_path):
    """Tuning changes how fast a design simulates, never what: on a registry
    design, every config the stage-count sweep compiled — the winner among
    them — reproduces the default config's outputs cycle for cycle over the
    whole workload."""
    import numpy as np

    from repro.harness.runner import autotune_design, compile_design, design_workloads

    result = autotune_design(
        "openpiton1",
        space=KnobSpace(gates_per_partition=(3072,), num_stages=(None, 2), sa_iterations=(0,)),
        opts=AutotuneConfig(budget=4, seed=0, cache_dir=str(tmp_path)),
    )
    stimuli = next(iter(design_workloads("openpiton1").values())).stimuli
    default = compile_design("openpiton1")
    expected = default.simulator().run(stimuli)
    swept = [c for c in result.candidates if c.status == "ok"]
    assert result.winner_digest in {c.digest for c in swept}
    distinct = 0
    for candidate in swept:
        design = compile_design("openpiton1", apply_knobs(GemConfig(), candidate.knobs))
        distinct += not np.array_equal(design.program.words, default.program.words)
        assert design.simulator().run(stimuli) == expected, candidate.knobs
    assert distinct, "the sweep compiled nothing but the default bitstream"
