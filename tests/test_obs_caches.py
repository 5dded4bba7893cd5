"""Decode/fusion cache behaviour under real sharing patterns (satellite).

Extends the basic cache tests in test_fused_engine with the scenarios
the observability PR cares about: supervisor primary+shadow sharing,
eviction past the 8-entry FIFO bound, executor + reference-interpreter
sharing of one decode/fusion entry, and the mirroring of cache traffic
into the metrics registry.

Decode is demand-driven: a fusion miss decodes (fuse() reads the
partitions), a fusion hit does not, and otherwise only the reference
interpreter asks for partitions.  Every count here is taken against an
empty cache directory of the test's own, so none depends on what an
earlier run left in the plan store (tests/test_plan_store.py covers
that tier).
"""

import pytest

from repro.core.bitstream import mutate_fold_constant
from repro.core.fused import clear_fusion_cache, fusion_cache_stats
from repro.core.interpreter import GemInterpreter, clear_decode_cache, decode_cache_stats
from repro.obs.metrics import REGISTRY, MemoTable
from repro.runtime.supervisor import Supervisor
from repro.simref.isa_interp import ReferenceInterpreter
from tests.helpers import random_circuit, random_vectors
from tests.test_fused_engine import _compile_small


@pytest.fixture(autouse=True)
def _clean_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("GEM_CACHE_DIR", str(tmp_path / "cache"))
    clear_decode_cache()
    clear_fusion_cache()
    REGISTRY.clear()
    yield
    clear_decode_cache()
    clear_fusion_cache()
    REGISTRY.clear()


@pytest.fixture(scope="module")
def design():
    return _compile_small(random_circuit(711, n_ops=40, n_regs=3, with_memory=True))


class TestSupervisorSharing:
    def test_primary_and_shadow_share_one_entry(self, design):
        """Primary + redundant shadow decode and fuse exactly once: the
        shadow's fusion hit never asks for the partitions."""
        circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
        stimuli = random_vectors(circuit, seed=7, cycles=6)
        result = Supervisor(design, shadow="redundant", batch=2).run(stimuli)
        assert result.cycles == len(stimuli)
        assert decode_cache_stats() == {"misses": 1, "hits": 0}
        assert fusion_cache_stats() == {"misses": 1, "hits": 1}

    def test_consecutive_supervised_runs_hit(self, design):
        circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
        stimuli = random_vectors(circuit, seed=8, cycles=4)
        for _ in range(2):
            Supervisor(design, shadow="redundant", batch=2).run(stimuli)
        assert fusion_cache_stats() == {"misses": 1, "hits": 3}
        assert decode_cache_stats() == {"misses": 1, "hits": 0}


class TestEviction:
    def test_lru_eviction_past_capacity(self, design):
        """Distinct bitstreams are distinct keys (a batch is not); pushing
        past the 8-entry bound evicts the oldest and re-keying it re-misses."""
        capacity = MemoTable.CAPACITY  # both caches are one MemoTable each
        assert capacity == 8
        programs = [mutate_fold_constant(design.program, 0, bit) for bit in range(capacity + 1)]
        for program in programs:  # 9 distinct keys
            GemInterpreter(program)
        stats = decode_cache_stats()
        assert stats["misses"] == capacity + 1
        assert stats["hits"] == 0
        # the first bitstream was the oldest entry: it must have been evicted.
        GemInterpreter(programs[0])
        assert decode_cache_stats()["misses"] == capacity + 2
        # The newest key is still resident, at any batch (and its fusion
        # hit decodes nothing).
        GemInterpreter(programs[-1], batch=64)
        assert fusion_cache_stats() == {"misses": capacity + 2, "hits": 1}
        assert decode_cache_stats() == {"misses": capacity + 2, "hits": 0}
        snap = REGISTRY.snapshot()
        assert snap['gem_cache_evictions_total{cache="decode"}'] >= 2
        assert snap['gem_cache_evictions_total{cache="fusion"}'] >= 2


class TestCrossMode:
    def test_fused_and_legacy_share_decode_and_fusion(self, design):
        """The reference interpreter reuses the executor's decode and
        fusion entries (it reads the fused program's static work
        counters) and both produce identical outputs from the shared
        tables."""
        circuit = random_circuit(711, n_ops=40, n_regs=3, with_memory=True)
        stimuli = random_vectors(circuit, seed=11, cycles=8)
        fused_sim = design.simulator(batch=4)
        legacy_sim = ReferenceInterpreter(design.program, batch=4)
        assert decode_cache_stats() == {"misses": 1, "hits": 1}
        assert fusion_cache_stats() == {"misses": 1, "hits": 1}
        for vec in stimuli:
            assert fused_sim.step(vec) == legacy_sim.step(vec)


class TestRegistryMirroring:
    def test_cache_traffic_lands_in_registry(self, design):
        design.simulator(batch=2)
        ReferenceInterpreter(design.program, batch=2)  # reads the partitions: a decode hit
        snap = REGISTRY.snapshot()
        assert snap["gem_decode_cache_misses_total"] == 1.0
        assert snap["gem_decode_cache_hits_total"] == 1.0
        assert snap["gem_fusion_cache_misses_total"] == 1.0
        assert snap['gem_fusion_cache_hits_total{tier="memory"}'] == 1.0
        assert 'gem_fusion_cache_hits_total{tier="disk"}' not in snap
        assert snap["gem_decode_cache_misses_total"] == decode_cache_stats()[
            "misses"
        ]

    def test_registry_reset_does_not_break_counting(self, design):
        design.simulator(batch=2)
        REGISTRY.reset()
        design.simulator(batch=2)
        assert REGISTRY.snapshot()['gem_fusion_cache_hits_total{tier="memory"}'] == 1.0

    def test_registry_clear_does_not_break_counting(self, design):
        """Call sites fetch metrics get-or-create, so clear() between
        runs (the test idiom) never orphans a counter."""
        design.simulator(batch=2)
        REGISTRY.clear()
        design.simulator(batch=2)
        assert REGISTRY.snapshot()['gem_fusion_cache_hits_total{tier="memory"}'] == 1.0
