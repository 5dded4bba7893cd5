"""The compile cache as a run meets it: what a hit loads, and what a
compile leaves behind.

A compile-cache entry is two files under one key — ``program-*.pkl``, what
a run reads (program, report, four-state rail map), and ``compile-*.pkl``,
the flow's ``synth`` / ``plan`` / ``merge``, read on first touch — and a
compile of a registered design also leaves the program's fused plan in
the plan store.  These tests hold:

* the run path — a disk hit, a simulator, a step — to loading none of the
  compile flow, in a child process as a user's session would;
* both files to the checks every cache entry gets: a torn, foreign or
  stale program file is discarded (and counted) and rebuilt; a flow file that is
  missing, unreadable or another bitstream's is rebuilt on first touch,
  and is never handed out beside a program it does not describe;
* the plan to being written by ``compile_design``, and not by
  ``compile_circuit``.

Every test works in a cache directory of its own, with the in-process
fusion memo cleared, as a fresh process would start.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core import fused as fused_mod
from repro.core.bitstream import mutate_fold_constant
from repro.core.compiler import CompileFlow, compile_circuit
from repro.core.config import GemConfig
from repro.core.interpreter import clear_decode_cache
from repro.errors import GemError
from repro.harness import runner
from repro.obs.metrics import REGISTRY
from tests.helpers import random_circuit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: what a run must not load: the compile flow, the partitioners and the
#: glue of the compile flow's C library (placement_kernel,
#: partition.kernel), the four-state reference, the probe / activity /
#: report layers, waveforms
FLOW_MODULES = (
    r"repro\.(core\.(eaig|synthesis|depth_opt|partition|merging|placement(_kernel)?"
    r"|ram_mapping)|partition(\.kernel)?|fourstate\.(dualrail|sim)"
    r"|obs\.(activity|probe|report)|waveform)\b"
)


def sha256(program) -> str:
    return hashlib.sha256(np.ascontiguousarray(program.words, dtype="<u4")).hexdigest()


def discards(cache: str) -> float:
    return REGISTRY.snapshot().get(f'gem_cache_discards_total{{cache="{cache}"}}', 0.0)


def compile_misses() -> float:
    return REGISTRY.snapshot().get('gem_compile_cache_misses_total{kind="compile"}', 0.0)


def forget_compiles() -> None:
    """Drop compiled designs from the runner's memory, as a new process
    would start (synthesis results stay: they are another entry)."""
    for key in [key for key in runner._memory_cache if key.startswith("compile:")]:
        del runner._memory_cache[key]


def child(script: str, cache) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src"), "GEM_CACHE_DIR": str(cache)}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory; no compiled design and no fused plan in
    memory, so a ``compile_design`` here compiles.  Synthesis results
    another test left in memory are kept: re-synthesizing is not what is
    tested."""
    monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(runner, "_memory_cache", dict(runner._memory_cache))
    forget_compiles()
    fused_mod.clear_fusion_cache()
    clear_decode_cache()
    yield tmp_path
    fused_mod.clear_fusion_cache()
    clear_decode_cache()


def test_a_run_loads_none_of_the_compile_flow(cache):
    """A disk hit, a simulator and a step: the program file and the plan
    file are all a run reads, and no compile-flow module is imported."""
    runner.compile_design("openpiton1")
    script = (
        "import re, sys\n"
        "from repro.harness.runner import compile_design\n"
        "from repro.obs.metrics import REGISTRY\n"
        "sim = compile_design('openpiton1').simulator(batch=3)\n"
        "sim.step({})\n"
        f"loaded = sorted(m for m in sys.modules if re.match({FLOW_MODULES!r}, m))\n"
        "assert not loaded, loaded\n"
        "snap = REGISTRY.snapshot()\n"
        "assert snap['gem_compile_cache_hits_total{kind=\"compile\",tier=\"disk\"}'] == 1, snap\n"
        "assert snap['gem_fusion_cache_hits_total{tier=\"disk\"}'] == 1, snap\n"
        "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))\n"
    )
    run = child(script, cache)
    assert run.returncode == 0, run.stderr
    print(f"repro modules loaded by a run: {run.stdout.strip()}")


def test_a_disk_hit_is_the_compile_it_stored(cache):
    fresh = runner.compile_design("openpiton1")
    kinds = sorted(p.name.split("-")[0] for p in cache.iterdir())
    assert [kind for kind in kinds if kind in ("compile", "plan", "program")] == [
        "compile",
        "plan",
        "program",
    ], "one file of each per compile"
    forget_compiles()
    misses = compile_misses()
    hit = runner.compile_design("openpiton1")
    assert hit is not fresh and not isinstance(hit._flow, CompileFlow), "the flow loads on touch"
    assert hit.report == fresh.report and hit.report.row() == fresh.report.row()
    assert sha256(hit.program) == sha256(fresh.program)
    assert hit.fourstate is None
    assert hit.merge.partitions_after == fresh.merge.partitions_after
    assert hit.plan.num_partitions == fresh.plan.num_partitions
    assert hit.synth.eaig.num_gates() == fresh.synth.eaig.num_gates()
    assert isinstance(hit._flow, CompileFlow) and compile_misses() == misses
    # a design read back pickles whole, like a compiled one
    forget_compiles()
    copy = pickle.loads(pickle.dumps(runner.compile_design("openpiton1")))
    assert copy.merge.partitions_after == fresh.merge.partitions_after


@pytest.mark.parametrize("damage", ["torn", "foreign", "format 3", "format 4"])
def test_an_unusable_program_file_is_discarded_and_rebuilt(damage, cache, caplog):
    want = sha256(runner.compile_design("openpiton1").program)
    (path,) = cache.glob("program-*.pkl")
    if damage == "torn":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    else:
        envelope = pickle.loads(path.read_bytes())
        envelope.update(
            {"key": "compile:other"} if damage == "foreign" else {"format": int(damage.split()[1])}
        )
        path.write_bytes(pickle.dumps(envelope))
    forget_compiles()
    misses, discarded = compile_misses(), discards("compile")
    with caplog.at_level(logging.WARNING):
        design = runner.compile_design("openpiton1")
    assert len(caplog.records) == 1 and "discarding cache entry" in caplog.text
    assert discards("compile") == discarded + 1, "counted under the entry's kind"
    assert compile_misses() == misses + 1
    assert sha256(design.program) == want
    forget_compiles()
    assert sha256(runner.compile_design("openpiton1").program) == want
    assert compile_misses() == misses + 1, "the rebuilt entry is whole again"


@pytest.mark.parametrize("kind", ["synth", "activity"])
def test_an_unusable_entry_of_any_kind_is_discarded_and_counted(kind, cache, caplog):
    key = f"{kind}:openpiton1:torn:v2"
    path = runner._cache_path(key)
    with open(path, "wb") as f:
        f.write(b"\x80\x05torn")
    discarded = discards(kind)
    with caplog.at_level(logging.WARNING):
        assert runner._read_entry(key) is None
    assert "discarding cache entry" in caplog.text
    assert discards(kind) == discarded + 1
    assert not os.path.exists(path)


@pytest.mark.parametrize("damage", ["missing", "unreadable", "another bitstream's"])
def test_a_flow_file_that_fails_on_first_touch_is_rebuilt(damage, cache):
    fresh = runner.compile_design("openpiton1")
    (path,) = cache.glob("compile-*.pkl")
    if damage == "missing":
        path.unlink()
    elif damage == "unreadable":
        path.write_bytes(b"\x80\x04garbage")
    else:
        envelope = pickle.loads(path.read_bytes())
        envelope["value"]["bitstream_sha256"] = "0" * 64
        path.write_bytes(pickle.dumps(envelope))
    forget_compiles()
    misses = compile_misses()
    design = runner.compile_design("openpiton1")
    assert compile_misses() == misses, "the program file alone makes a hit"
    assert design.merge.partitions_after == fresh.merge.partitions_after
    assert compile_misses() == misses + 1, "the first touch rebuilt the entry"
    assert sha256(design.program) == sha256(fresh.program)
    forget_compiles()
    gates = runner.compile_design("openpiton1").synth.eaig.num_gates()
    assert gates == fresh.synth.eaig.num_gates()
    assert compile_misses() == misses + 1, "and stored it again"


def test_a_flow_is_never_handed_out_beside_another_program(cache):
    """A cached program the flow no longer assembles: the first touch
    rebuilds, finds another bitstream and refuses, leaving the rebuild
    in the cache for the next compile."""
    fresh = runner.compile_design("openpiton1")
    (path,) = cache.glob("program-*.pkl")
    envelope = pickle.loads(path.read_bytes())
    envelope["value"]["program"] = mutate_fold_constant(fresh.program, 0, 0)
    path.write_bytes(pickle.dumps(envelope))
    forget_compiles()
    stale = runner.compile_design("openpiton1")
    assert sha256(stale.program) != sha256(fresh.program)
    with pytest.raises(GemError, match="the cached program is"):
        stale.merge
    forget_compiles()
    assert sha256(runner.compile_design("openpiton1").program) == sha256(fresh.program)


def test_a_format_3_entry_is_a_clean_miss(cache, caplog):
    """The format-3 layout was one pickle under the flow file's name and
    no program file: the program file is simply not there."""
    key = f"compile:openpiton1:{GemConfig().digest()}:v2"
    old = runner._cache_path(key)
    os.makedirs(cache, exist_ok=True)
    with open(old, "wb") as f:
        pickle.dump({"format": 3, "key": key, "value": "a format-3 CompiledDesign"}, f)
    misses = compile_misses()
    with caplog.at_level(logging.WARNING):
        design = runner.compile_design("openpiton1")
    assert not caplog.records and compile_misses() == misses + 1
    with open(old, "rb") as f:
        assert pickle.load(f)["format"] == runner.CACHE_FORMAT == 8
    forget_compiles()
    assert runner.compile_design("openpiton1").report == design.report
    assert compile_misses() == misses + 1


def test_a_compile_leaves_the_plan_a_later_run_reads(cache):
    runner.compile_design("rocketchip")
    assert len(list(cache.glob("plan-*.bin"))) == 1
    script = (
        "import json\n"
        "from repro.core.interpreter import decode_cache_stats\n"
        "from repro.harness.runner import compile_design\n"
        "from repro.obs.metrics import REGISTRY\n"
        "compile_design('rocketchip').simulator(batch=64)\n"
        "snap = REGISTRY.snapshot()\n"
        "print(json.dumps({\n"
        "    'disk': snap.get('gem_fusion_cache_hits_total{tier=\"disk\"}', 0),\n"
        "    'fused': snap.get('gem_fusion_cache_misses_total', 0),\n"
        "    'decoded': decode_cache_stats()['misses'],\n"
        "}))\n"
    )
    run = child(script, cache)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"disk": 1, "fused": 0, "decoded": 0}
    assert len(list(cache.glob("plan-*.bin"))) == 1


def test_compile_circuit_writes_no_plan(cache, monkeypatch):
    """The plan is written by the cached compile only: a cold
    ``compile_circuit`` pays no fusion (a load still stores it)."""
    monkeypatch.setattr(fused_mod, "PERSIST_MIN_NODES", 0)
    design = compile_circuit(random_circuit(711, n_ops=40, n_regs=3, with_memory=True))
    assert not list(cache.glob("plan-*.bin"))
    design.simulator()
    assert len(list(cache.glob("plan-*.bin"))) == 1
