"""``.gemrepro`` files, the persisted corpus, and the coverage-guided loop.

A ``.gemrepro`` is a *self-contained* JSON replay unit: the design spec,
the stimulus stream, the oracle configuration (engines, batches, compile
profile, optional injected fault), and the expected outcome — either
``expect: null`` (the engines must agree) or a recorded first divergence
(replay must reproduce the same cycle and representative signal).
Nothing else is needed to re-run it on any machine: no RNG, no generator
version, no compiled artifacts.

:class:`Corpus` is a directory of these files (``tests/corpus/`` in this
repository, replayed by ``tests/test_fuzz_corpus.py`` as ordinary pytest
cases).  :func:`run_fuzz` is the ``gem fuzz run`` engine: draw a shape
profile (weighted toward profiles that recently produced *new* structural
coverage), generate, cross-check, shrink-and-save failures, optionally
bank passing designs that broke new coverage ground into the corpus.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field

from repro.core.cachefile import write_atomic
from repro.fuzz.designgen import (
    PROFILES,
    DesignSpec,
    generate_design,
    random_stimuli,
)
from repro.fuzz.oracle import (
    FuzzDivergence,
    OracleConfig,
    OracleResult,
    _coerce_stimuli,
    run_oracle,
)
from repro.fuzz.shrink import shrink
from repro.obs.metrics import publish_fuzz_iteration

logger = logging.getLogger(__name__)

FORMAT = "gemrepro/1"
EXTENSION = ".gemrepro"


@dataclass
class Repro:
    """One parsed ``.gemrepro`` replay unit."""

    name: str
    spec: DesignSpec
    stimuli: list[dict[str, int]]
    oracle: OracleConfig
    #: recorded divergence to reproduce, or None when the case must pass
    expect: FuzzDivergence | None = None
    seed: int | None = None
    profile: str | None = None
    coverage: tuple[str, ...] = ()
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "name": self.name,
            "seed": self.seed,
            "profile": self.profile,
            "spec": self.spec.to_json(),
            "stimuli": self.stimuli,
            "oracle": self.oracle.to_json(),
            "expect": None if self.expect is None else self.expect.to_json(),
            "coverage": sorted(self.coverage),
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, raw: dict) -> "Repro":
        fmt = raw.get("format")
        if fmt != FORMAT:
            raise ValueError(f"unsupported repro format {fmt!r} (expected {FORMAT!r})")
        spec = DesignSpec.from_json(raw["spec"])
        return cls(
            name=str(raw.get("name", spec.name)),
            spec=spec,
            stimuli=[{str(k): int(v) for k, v in vec.items()} for vec in raw["stimuli"]],
            oracle=OracleConfig.from_json(raw.get("oracle", {})),
            expect=None if raw.get("expect") is None else FuzzDivergence.from_json(raw["expect"]),
            seed=raw.get("seed"),
            profile=raw.get("profile"),
            coverage=tuple(raw.get("coverage", ())),
            notes=str(raw.get("notes", "")),
        )


def write_repro(path: str, repro: Repro) -> str:
    """Serialize a repro (atomic replace; returns the path written)."""
    text = json.dumps(repro.to_json(), indent=1, sort_keys=True) + "\n"
    write_atomic(path, lambda f: f.write(text.encode("utf-8")))
    return path


def load_repro(path: str) -> Repro:
    with open(path, encoding="utf-8") as f:
        return Repro.from_json(json.load(f))


@dataclass
class ReplayOutcome:
    """Did a replay reproduce what the repro file promises?"""

    ok: bool
    result: OracleResult
    expected: FuzzDivergence | None
    message: str


def replay_repro(repro: Repro | str) -> ReplayOutcome:
    """Re-run a repro and check it against its recorded expectation.

    * ``expect: null`` — the oracle must report no divergence;
    * recorded divergence — the oracle must diverge at the **same site**
      (cycle + representative signal), the property the shrinker
      preserved and the acceptance gate checks.
    """
    if isinstance(repro, str):
        repro = load_repro(repro)
    result = run_oracle(repro.spec, _coerce_stimuli(repro.spec, repro.stimuli), repro.oracle)
    expected = repro.expect
    if expected is None:
        ok = result.ok
        message = (
            "pass (engines agree)" if ok
            else f"unexpected divergence: {result.divergence.describe()}"
        )
    elif result.divergence is None:
        ok = False
        message = (
            f"expected divergence at cycle {expected.cycle} on "
            f"{expected.signal!r}, but engines agree"
        )
    else:
        ok = result.divergence.same_site(expected)
        message = (
            f"reproduced divergence at cycle {result.divergence.cycle} on "
            f"{result.divergence.signal!r}"
            if ok
            else (
                f"divergence site moved: expected cycle {expected.cycle} signal "
                f"{expected.signal!r}, got cycle {result.divergence.cycle} signal "
                f"{result.divergence.signal!r}"
            )
        )
    return ReplayOutcome(ok=ok, result=result, expected=expected, message=message)


class Corpus:
    """A directory of ``.gemrepro`` files with aggregate coverage."""

    def __init__(self, root: str) -> None:
        self.root = root

    def paths(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.endswith(EXTENSION)
        )

    def load_all(self) -> list[Repro]:
        return [load_repro(p) for p in self.paths()]

    def coverage(self) -> frozenset[str]:
        feats: set[str] = set()
        for repro in self.load_all():
            feats.update(repro.coverage)
        return frozenset(feats)

    def add(self, repro: Repro) -> str:
        """Write a repro under a unique slug derived from its name."""
        slug = "".join(c if c.isalnum() or c in "-_" else "_" for c in repro.name)
        path = os.path.join(self.root, slug + EXTENSION)
        serial = 1
        while os.path.exists(path):
            serial += 1
            path = os.path.join(self.root, f"{slug}_{serial}{EXTENSION}")
        return write_repro(path, repro)

    def summarize(self) -> dict:
        """Corpus health snapshot (the ``gem fuzz corpus`` command body)."""
        repros = self.load_all()
        feats: set[str] = set()
        for r in repros:
            feats.update(r.coverage)
        return {
            "root": self.root,
            "entries": len(repros),
            "expect_pass": sum(1 for r in repros if r.expect is None),
            "expect_divergence": sum(1 for r in repros if r.expect is not None),
            "coverage_features": sorted(feats),
        }


def _dump_divergence_waves(spec, stimuli, divergence, config, path: str) -> str:
    """Probed re-run of a failing case; dumps the VCD window around the
    first divergent cycle (``gem fuzz run --wave-dir``)."""
    from repro.core.compiler import GemCompiler
    from repro.fuzz.oracle import compile_profile
    from repro.obs.probe import dump_divergence_waves

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    compiled = GemCompiler(compile_profile(config.compile_profile)).compile(spec.build())
    coerced = _coerce_stimuli(spec, stimuli)
    summary = dump_divergence_waves(compiled, coerced, divergence.cycle, path)
    logger.warning(
        "divergence waveform: %s (%d probed cycles around cycle %d)",
        path, summary["cycles"], divergence.cycle,
    )
    return path


@dataclass
class FuzzStats:
    """Aggregate outcome of one :func:`run_fuzz` campaign."""

    seed: int
    iterations: int = 0
    divergences: int = 0
    #: failing repro files written (shrunk when shrinking is enabled)
    failures: list[str] = field(default_factory=list)
    #: distinct structural features seen (incl. corpus pre-seeding)
    coverage: set[str] = field(default_factory=set)
    #: iterations that contributed at least one new feature
    novel_iterations: int = 0
    per_profile: dict[str, int] = field(default_factory=dict)
    banked: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.iterations} iterations, {self.divergences} divergences, "
            f"{len(self.coverage)} coverage features "
            f"({self.novel_iterations} novel iterations) in {self.elapsed_s:.1f}s"
        )


def run_fuzz(
    seed: int,
    iters: int,
    *,
    profiles: list[str] | None = None,
    cycles: int = 24,
    batches: tuple[int, ...] = (1, 16),
    backends: tuple[str, ...] | None = None,
    inject: dict | None = None,
    shrink_failures: bool = True,
    shrink_budget: int = 120,
    failure_dir: str = "fuzz-failures",
    corpus: Corpus | None = None,
    bank_novel: bool = False,
    deadline_s: float | None = None,
    wave_dir: str | None = None,
    values: int | None = None,
) -> FuzzStats:
    """The coverage-guided differential fuzz campaign behind ``gem fuzz run``.

    Deterministic per ``seed`` (generation, stimuli, and profile choice all
    derive from it).  Profiles that produce new coverage get their sampling
    weight bumped, so generation drifts toward structures the campaign has
    not explained yet.  Failures are shrunk and written to ``failure_dir``
    as ``.gemrepro`` files; with ``bank_novel`` and a ``corpus``, passing
    designs that contribute new coverage are saved as ``expect: null``
    regression cases.  ``deadline_s`` soft-bounds wall time (checked
    between iterations) for CI smoke budgets.  With ``wave_dir`` set,
    every (shrunk) divergence is re-run with signal probes attached and
    the waveform window around the first divergent cycle is dumped as a
    VCD next to the repro (:func:`repro.obs.probe.dump_divergence_waves`)
    — the triage artifact that shows the state entering the bad cycle.

    ``values`` forces 2- or 4-state oracle checking for every iteration;
    when None each profile's ``ShapeKnobs.values`` decides (the ``xprop``
    profile runs 4-state with x-injecting stimuli out of the box).
    """
    import random

    rng = random.Random(seed ^ 0x9E3779B9)
    names = profiles or sorted(PROFILES)
    for name in names:
        if name not in PROFILES:
            raise ValueError(f"unknown profile {name!r}; have {sorted(PROFILES)}")
    weights = {name: 4 for name in names}
    stats = FuzzStats(seed=seed)
    if corpus is not None:
        stats.coverage.update(corpus.coverage())
    t0 = time.perf_counter()

    def pick_profile() -> str:
        total = sum(weights.values())
        roll = rng.randrange(total)
        for name in names:
            roll -= weights[name]
            if roll < 0:
                return name
        return names[-1]

    for it in range(iters):
        if deadline_s is not None and time.perf_counter() - t0 > deadline_s:
            logger.warning("fuzz deadline (%.0fs) hit after %d iterations", deadline_s, it)
            break
        profile = pick_profile()
        design_seed = rng.getrandbits(31)
        generated = generate_design(design_seed, profile)
        spec = generated.spec
        knobs = PROFILES[profile]
        effective_values = knobs.values if values is None else values
        x_rate = knobs.x_input_rate if effective_values == 4 else 0.0
        stimuli = random_stimuli(spec, design_seed, cycles, x_rate=x_rate)
        config = OracleConfig(
            batches=batches,
            compile_profile=knobs.compile_profile,
            inject=inject,
            values=effective_values,
            **({} if backends is None else {"backends": backends}),
        )
        result = run_oracle(spec, stimuli, config)
        stats.iterations += 1
        stats.per_profile[profile] = stats.per_profile.get(profile, 0) + 1
        new = result.coverage - stats.coverage
        if new:
            stats.coverage.update(new)
            stats.novel_iterations += 1
            weights[profile] += 2
            logger.info(
                "iter %d [%s seed=%d]: +%d coverage %s",
                it, profile, design_seed, len(new), sorted(new),
            )
        if result.ok:
            publish_fuzz_iteration(profile, False, len(stats.coverage))
            if inject is not None:
                # A fixed fold/known-rail bit can land in logic a given
                # design never observes; say so instead of letting a
                # self-test pass silently for the wrong reason.
                logger.warning(
                    "iter %d [%s seed=%d]: injected mutation %s was not "
                    "observable on this design",
                    it, profile, design_seed, inject,
                )
            if bank_novel and corpus is not None and new:
                repro = Repro(
                    name=spec.name,
                    spec=spec,
                    stimuli=_coerce_stimuli(spec, stimuli),
                    oracle=config,
                    expect=None,
                    seed=design_seed,
                    profile=profile,
                    coverage=tuple(sorted(result.coverage)),
                    notes=f"banked by run_fuzz(seed={seed}) for novel coverage",
                )
                stats.banked.append(corpus.add(repro))
            continue

        stats.divergences += 1
        divergence = result.divergence
        logger.warning(
            "iter %d [%s seed=%d]: %s", it, profile, design_seed, divergence.describe()
        )
        final_spec, final_stim, final_div = spec, stimuli, divergence
        shrink_checks = 0
        if shrink_failures:
            try:
                shrunk = shrink(spec, stimuli, config, max_checks=shrink_budget)
                final_spec, final_stim, final_div = (
                    shrunk.spec, shrunk.stimuli, shrunk.divergence,
                )
                shrink_checks = shrunk.checks
                logger.info(
                    "iter %d: shrunk %s -> %s in %d checks",
                    it, shrunk.original_size, shrunk.shrunk_size, shrunk.checks,
                )
            except Exception:
                logger.exception("iter %d: shrink failed; keeping the full case", it)
        publish_fuzz_iteration(profile, True, len(stats.coverage), shrink_checks)
        repro = Repro(
            name=f"{spec.name}_div",
            spec=final_spec,
            stimuli=_coerce_stimuli(final_spec, final_stim),
            oracle=config,
            expect=final_div,
            seed=design_seed,
            profile=profile,
            coverage=tuple(sorted(result.coverage)),
            notes=f"found by run_fuzz(seed={seed}) iteration {it}",
        )
        path = os.path.join(failure_dir, f"{spec.name}_div{EXTENSION}")
        stats.failures.append(write_repro(path, repro))
        if wave_dir is not None and final_div is not None:
            try:
                _dump_divergence_waves(
                    final_spec, final_stim, final_div, config,
                    os.path.join(wave_dir, f"{spec.name}_div.vcd"),
                )
            except Exception:
                logger.exception("iter %d: divergence wave dump failed", it)

    stats.elapsed_s = time.perf_counter() - t0
    return stats
