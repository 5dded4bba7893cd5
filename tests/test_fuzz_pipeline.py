"""Live end-to-end tests of the differential fuzzing pipeline.

The corpus tests replay frozen cases; these run the machinery itself:
generation determinism, the injected-fold acceptance flow (catch →
shrink → replay to the same first-divergence site), the campaign loop,
and the ``gem fuzz`` CLI entry points.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.bitstream import count_fold_instructions, mutate_fold_constant
from repro.core.compiler import GemCompiler
from repro.fuzz import (
    OracleConfig,
    generate_design,
    random_stimuli,
    run_fuzz,
    run_oracle,
    shrink,
)
from repro.fuzz.corpus import Corpus, Repro, load_repro, replay_repro, write_repro
from repro.fuzz.oracle import _coerce_stimuli, compile_profile
from repro.harness.cli import main


class TestGeneratorDeterminism:
    def test_same_seed_same_spec(self):
        a = generate_design(123, "mixed").spec.to_json()
        b = generate_design(123, "mixed").spec.to_json()
        assert a == b

    def test_same_seed_same_stimuli(self):
        spec = generate_design(9, "deep").spec
        assert random_stimuli(spec, 9, 16) == random_stimuli(spec, 9, 16)

    def test_profiles_differ(self):
        assert (
            generate_design(5, "wide").spec.to_json()
            != generate_design(5, "deep").spec.to_json()
        )


class TestFoldMutation:
    def test_mutation_changes_program_and_reseals(self):
        spec = generate_design(0, "mixed").spec
        design = GemCompiler(compile_profile("small")).compile(spec.build())
        assert count_fold_instructions(design.program) > 0
        mutated = mutate_fold_constant(design.program, 0, 2)
        assert mutated.digest() != design.program.digest()
        # The mutated container still loads: wrong program, not corrupt one.
        from repro.core.bitstream import verify_integrity

        verify_integrity(mutated.words)

    def test_double_flip_restores(self):
        spec = generate_design(0, "mixed").spec
        design = GemCompiler(compile_profile("small")).compile(spec.build())
        twice = mutate_fold_constant(mutate_fold_constant(design.program, 0, 2), 0, 2)
        assert twice.digest() == design.program.digest()


class TestInjectedBugAcceptance:
    """The ISSUE acceptance flow: an injected fold-constant mutation is
    caught by the oracle, shrunk, and replayed to the same site."""

    def _failing_config(self, spec, stimuli):
        for bit in range(48):
            config = OracleConfig(
                batches=(1, 16), inject={"kind": "fold", "index": 0, "bit": bit}
            )
            result = run_oracle(spec, stimuli, config)
            if not result.ok:
                return config, result
        pytest.fail("no observable fold bit in 48 tries")

    def test_catch_shrink_replay_same_site(self, tmp_path):
        spec = generate_design(0, "mixed").spec
        stimuli = random_stimuli(spec, 0, 20)
        config, result = self._failing_config(spec, stimuli)
        assert result.divergence.engine in ("fused", "legacy")
        assert result.divergence.reference in ("word", "simref")

        shrunk = shrink(spec, stimuli, config, max_checks=120)
        assert shrunk.shrunk_size <= shrunk.original_size

        path = str(tmp_path / "case.gemrepro")
        write_repro(
            path,
            Repro(
                name="case",
                spec=shrunk.spec,
                stimuli=_coerce_stimuli(shrunk.spec, shrunk.stimuli),
                oracle=config,
                expect=shrunk.divergence,
            ),
        )
        outcome = replay_repro(path)
        assert outcome.ok, outcome.message
        assert outcome.result.divergence.same_site(shrunk.divergence)

    def test_shrink_requires_a_failing_case(self):
        spec = generate_design(0, "mixed").spec
        stimuli = random_stimuli(spec, 0, 6)
        with pytest.raises(ValueError, match="failing case"):
            shrink(spec, stimuli, OracleConfig(batches=(1,)), max_checks=10)


class TestRunFuzz:
    def test_clean_campaign_finds_no_divergence(self, tmp_path):
        stats = run_fuzz(
            0, 6, cycles=12, batches=(1, 4), failure_dir=str(tmp_path / "f")
        )
        assert stats.iterations == 6
        assert stats.divergences == 0
        assert stats.failures == []
        assert stats.coverage

    def test_campaign_is_deterministic(self, tmp_path):
        a = run_fuzz(3, 4, cycles=8, batches=(1,), failure_dir=str(tmp_path / "a"))
        b = run_fuzz(3, 4, cycles=8, batches=(1,), failure_dir=str(tmp_path / "b"))
        assert a.per_profile == b.per_profile
        assert a.coverage == b.coverage

    def test_banking_novel_coverage(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        stats = run_fuzz(
            1, 4, cycles=8, batches=(1,),
            failure_dir=str(tmp_path / "f"), corpus=corpus, bank_novel=True,
        )
        assert stats.banked, "first iterations always break new coverage ground"
        banked = load_repro(stats.banked[0])
        assert banked.expect is None
        assert replay_repro(banked).ok


class TestFuzzCli:
    def test_run_exit_codes_and_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["fuzz", "run", "--seed", "0", "--iters", "2", "--profiles", "mixed",
             "--cycles", "8", "--batches", "1", "--json"]
        )
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["iterations"] == 2
        assert stats["divergences"] == 0

    def test_injected_run_then_replay(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # Fold bit 2 of instruction 0 is observable on seed-0 "mixed"
        # designs (pinned by TestInjectedBugAcceptance above).
        rc = main(
            ["fuzz", "run", "--seed", "0", "--iters", "3", "--profiles", "mixed",
             "--inject-fold", "0:0", "--failure-dir", "inj", "--cycles", "16"]
        )
        capsys.readouterr()
        if rc == 0:
            pytest.skip("mutation unobservable on these draws")
        repros = [os.path.join("inj", n) for n in sorted(os.listdir("inj"))]
        assert repros
        assert main(["fuzz", "replay", *repros]) == 0
        out = capsys.readouterr().out
        assert "reproduced divergence" in out

    def test_corpus_summary(self, capsys):
        corpus_dir = os.path.join(os.path.dirname(__file__), "corpus")
        assert main(["fuzz", "corpus", corpus_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] >= 10
