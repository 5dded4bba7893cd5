"""Compile-time autotuner: knob sweep + placement refinement (docs/TUNING.md).

Simulation speed in GEM is decided at compile time — layers × stages ×
partitions fix the per-cycle work — so this module closes the loop from
:mod:`repro.core.perfmodel` back to the compile knobs:

1. **Knob sweep** — a deterministic grid over :class:`KnobSpace` dimensions
   (gates_per_partition, stage count, boomerang tree height, placement
   refinement budget) is compiled candidate by candidate and scored with the
   analytical GPU cost model :func:`repro.core.perfmodel.tuning_score`.
   The ``model_hz`` argmax wins if it beats the default by
   :data:`MIN_GAIN`, else the default is kept.  Host timings never enter:
   the fused plan evaluates every E-AIG AND once whatever the knobs, so a
   host run would time noise.
2. **Tuning cache** — the winning knobs are stored as JSON keyed by the
   design's structural CRC + knob-space digest + autotune options, so the
   search runs once per (design, space) and every later compile is a
   cache hit (``gem_tune_cache_hits_total``).

Everything is seeded (`AutotuneConfig.seed`) and wall-clock-free, so the
selection is reproducible bit-for-bit across processes; see
``tests/test_regressions.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.cachefile import write_atomic
from repro.core.compiler import CompiledDesign, GemCompiler, GemConfig
from repro.core.perfmodel import tuning_score
from repro.core.synthesis import SynthesisResult
from repro.errors import UnmappableError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

__all__ = [
    "AutotuneConfig",
    "AutotuneResult",
    "CandidateResult",
    "KnobSpace",
    "apply_knobs",
    "autotune",
    "design_crc",
]

#: sweep file version; 4: the knob dicts lost overpartition / optimize /
#: merge_limit, and SA candidates are scored on the jitter-only move;
#: 5: ``sa_iterations`` candidates are scored on best-of-N restarts
CACHE_VERSION = 5
DEFAULT_TUNE_DIR = ".gem_tune"
#: a tuned winner must beat the default's ``model_hz`` by this fraction
MIN_GAIN = 0.05


def default_tune_dir() -> str:
    """Tuning-cache directory (``GEM_TUNE_DIR`` env override)."""
    return os.environ.get("GEM_TUNE_DIR", DEFAULT_TUNE_DIR)


def design_crc(synth: SynthesisResult) -> str:
    """Structural CRC of a synthesized design (the tuning-cache identity).

    Hashes the E-AIG parallel arrays plus the word-level I/O binding, so two
    structurally identical synthesis results share tuning state while any
    netlist change invalidates it.  Independent of PYTHONHASHSEED.
    """
    eaig = synth.eaig
    h = hashlib.sha256()
    h.update(np.asarray([int(k) for k in eaig.kind], dtype=np.int64).tobytes())
    h.update(np.asarray(eaig.fanin0, dtype=np.int64).tobytes())
    h.update(np.asarray(eaig.fanin1, dtype=np.int64).tobytes())
    h.update(np.asarray(eaig.aux, dtype=np.int64).tobytes())
    h.update(repr(eaig.pis).encode())
    h.update(repr(eaig.ffs).encode())
    h.update(repr(eaig.outputs).encode())
    for ram in eaig.rams:
        h.update(repr(ram).encode())
    h.update(repr(sorted(synth.input_bits.items())).encode())
    h.update(repr(sorted(synth.output_bits.items())).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class KnobSpace:
    """The swept GemConfig dimensions (each a tuple of values to try).

    The cross product of all dimensions, in field order, is the candidate
    grid; :class:`AutotuneConfig.budget` subsamples it deterministically.
    The base config itself is always candidate 0 (knobs ``{}``).
    """

    gates_per_partition: tuple[int, ...] = (3072, 6144, 8192)
    num_stages: tuple[int | None, ...] = (None, 1)
    #: boomerang tree height (2^w leaf bits per layer)
    width_log2: tuple[int, ...] = (13,)
    #: placement refinement restarts per partition (``RefineConfig.iterations``)
    sa_iterations: tuple[int, ...] = (0, 12)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def grid(self) -> list[dict]:
        """Every knob combination, in deterministic field order."""
        dims = list(asdict(self).items())
        out = []
        for combo in itertools.product(*(values for _, values in dims)):
            out.append({k: v for (k, _), v in zip(dims, combo)})
        return out


def apply_knobs(base: GemConfig, knobs: dict) -> GemConfig:
    """A fresh GemConfig: ``base`` with ``knobs`` overriding its dimensions."""
    partition = replace(
        base.partition,
        gates_per_partition=knobs.get(
            "gates_per_partition", base.partition.gates_per_partition
        ),
        num_stages=knobs.get("num_stages", base.partition.num_stages),
    )
    boomerang = replace(
        base.boomerang, width_log2=knobs.get("width_log2", base.boomerang.width_log2)
    )
    refine = replace(
        base.refine, iterations=knobs.get("sa_iterations", base.refine.iterations)
    )
    return replace(base, partition=partition, boomerang=boomerang, refine=refine)


@dataclass
class AutotuneConfig:
    """Search budget of one autotune run."""

    #: max candidates compiled (grid is subsampled deterministically)
    budget: int = 8
    seed: int = 0
    #: tuning-cache directory (None → GEM_TUNE_DIR / .gem_tune)
    cache_dir: str | None = None

    def key_dict(self) -> dict:
        return {"budget": self.budget, "seed": self.seed}


@dataclass
class CandidateResult:
    """One evaluated knob combination."""

    knobs: dict
    digest: str  # GemConfig.digest() of the applied candidate
    status: str  # "ok" | "unmappable" | "error"
    score: dict | None = None  # perfmodel.tuning_score breakdown
    compile_s: float = 0.0
    error: str = ""

    @property
    def model_hz(self) -> float:
        return float(self.score["model_hz"]) if self.score else 0.0


@dataclass
class AutotuneResult:
    """The winning config plus the full audit trail of the search."""

    design: str
    crc: str
    space_digest: str
    base_digest: str
    key: str
    seed: int
    winner_knobs: dict
    winner_digest: str
    winner_label: str  # "default" | "tuned"
    cache_hit: bool
    cache_path: str | None
    candidates: list[CandidateResult] = field(default_factory=list)

    def winning_config(self, base: GemConfig | None = None) -> GemConfig:
        return apply_knobs(base or GemConfig(), self.winner_knobs)

    def summary(self) -> str:
        """The sweep as text: one line per candidate, then the verdict."""
        hit = "tuning-cache hit" if self.cache_hit else "sweep ran"
        lines = [f"{self.design} (crc {self.crc}): {hit}, winner = {self.winner_label}"]
        for cand in self.candidates:
            label = ", ".join(f"{k}={v}" for k, v in cand.knobs.items()) or "default"
            model = f"model {cand.model_hz:9.0f} Hz" if cand.score else cand.status
            compiled = f"compile {cand.compile_s:6.2f} s"
            marker = " <== winner" if cand.digest == self.winner_digest else ""
            lines.append(f"  [{cand.status:10s}] {model}  {compiled}  {label}{marker}")
        lines.append(f"winning knobs: {self.winner_knobs or '(default config)'}")
        lines.append(f"cache: {self.cache_path}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "version": CACHE_VERSION,
            "design": self.design,
            "crc": self.crc,
            "space_digest": self.space_digest,
            "base_digest": self.base_digest,
            "key": self.key,
            "seed": self.seed,
            "winner_knobs": self.winner_knobs,
            "winner_digest": self.winner_digest,
            "winner_label": self.winner_label,
            "candidates": [asdict(c) for c in self.candidates],
        }

    @classmethod
    def from_payload(cls, payload: dict, cache_path: str) -> "AutotuneResult":
        return cls(
            design=payload["design"],
            crc=payload["crc"],
            space_digest=payload["space_digest"],
            base_digest=payload["base_digest"],
            key=payload["key"],
            seed=payload["seed"],
            winner_knobs=payload["winner_knobs"],
            winner_digest=payload["winner_digest"],
            winner_label=payload["winner_label"],
            cache_hit=True,
            cache_path=cache_path,
            candidates=[CandidateResult(**c) for c in payload.get("candidates", ())],
        )


def _tune_key(crc: str, space: KnobSpace, base: GemConfig, opts: AutotuneConfig) -> str:
    payload = json.dumps(
        {
            "crc": crc,
            "space": space.digest(),
            "base": base.digest(),
            "opts": opts.key_dict(),
            "version": CACHE_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _counter(name: str, help: str, **labels):
    return REGISTRY.counter(name, help=help, labels=labels or None)


def _load_cache(path: str, **identity: str) -> AutotuneResult | None:
    """The sweep cached at ``path`` if it is of this version, agrees with
    every ``identity`` field and builds a result, else ``None``."""
    try:
        with open(path) as f:
            payload = json.load(f)
    except (OSError, ValueError):
        return None
    want = {"version": CACHE_VERSION, **identity}
    if not isinstance(payload, dict) or any(payload.get(k) != v for k, v in want.items()):
        return None
    try:
        return AutotuneResult.from_payload(payload, path)
    except (TypeError, KeyError, ValueError):
        return None  # a hand-edited or foreign file: a miss, never trusted


def _recall_cache(
    cache_dir: str, design: str, crc: str, base_digest: str
) -> AutotuneResult | None:
    """The newest cached sweep of this design (same netlist, same base
    config) whatever its search options were."""
    try:
        paths = [
            os.path.join(cache_dir, entry)
            for entry in os.listdir(cache_dir)
            if entry.startswith(f"{design}-") and entry.endswith(".json")
        ]
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: (os.path.getmtime(p), p), reverse=True):
        cached = _load_cache(path, design=design, crc=crc, base_digest=base_digest)
        if cached is not None:
            return cached
    return None


def _knob_sort_key(knobs: dict) -> str:
    return json.dumps(knobs, sort_keys=True, default=repr)


def _choose_candidates(
    space: KnobSpace, base: GemConfig, opts: AutotuneConfig
) -> list[tuple[str, dict]]:
    """``[(label, knobs)]``: the base first, then a budgeted grid sample."""
    base_digest = base.digest()
    chosen: list[tuple[str, dict]] = [("default", {})]
    seen = {base_digest}
    grid = []
    for knobs in space.grid():
        digest = apply_knobs(base, knobs).digest()
        if digest in seen:
            continue
        seen.add(digest)
        grid.append(knobs)
    budget = max(0, opts.budget - 1)  # slot 0 is the default
    if len(grid) > budget:
        rng = random.Random(opts.seed * 2_654_435_761 + len(grid))
        grid = sorted(rng.sample(grid, budget), key=_knob_sort_key)
    chosen.extend((_knob_sort_key(k), k) for k in grid)
    return chosen


def autotune(
    synth: SynthesisResult,
    *,
    name: str | None = None,
    base: GemConfig | None = None,
    space: KnobSpace | None = None,
    opts: AutotuneConfig | None = None,
    compile_fn: Callable[[GemConfig], CompiledDesign] | None = None,
    recall: bool = False,
) -> AutotuneResult:
    """Find (or recall) the best GemConfig for one design.

    ``synth`` is the netlist every candidate compiles: no swept knob
    touches synthesis, so one netlist serves the whole sweep (the runner
    passes ``design_synth(name, base)``).  ``compile_fn`` overrides how a
    candidate config becomes a :class:`CompiledDesign` — the runner passes
    its disk-cached ``compile_design`` so tuning also warms the compile
    cache.

    A sweep is recalled when its exact identity (design CRC, knob space,
    base config *and* search options) is cached.  With ``recall`` the
    search options stop mattering: the newest cached sweep of this netlist
    under this base config is the answer, and ``opts`` only says how to
    sweep when there is none — what ``gem run --tune`` asks for, so it hits
    whatever budget or seed ``gem tune`` was given.
    """
    base = base or GemConfig()
    space = space or KnobSpace()
    opts = opts or AutotuneConfig()
    if compile_fn is None:

        def compile_fn(config: GemConfig) -> CompiledDesign:
            return GemCompiler(config).compile(synth)

    design = name or synth.eaig.name
    crc = design_crc(synth)
    key = _tune_key(crc, space, base, opts)
    cache_dir = opts.cache_dir or default_tune_dir()
    cache_path = os.path.join(cache_dir, f"{design}-{key[:12]}.json")

    cached = _load_cache(cache_path, key=key)
    if cached is None and recall:
        cached = _recall_cache(cache_dir, design, crc, base.digest())
    if cached is not None:
        _counter(
            "gem_tune_cache_hits_total", "tuning-cache hits (no sweep re-run)"
        ).inc()
        return cached
    _counter("gem_tune_cache_misses_total", "tuning-cache misses (sweep runs)").inc()

    chosen = _choose_candidates(space, base, opts)
    records: list[CandidateResult] = []

    with TRACER.span(
        f"tune:{design}",
        cat="tune",
        args={"crc": crc, "candidates": len(chosen), "seed": opts.seed},
    ):
        for label, knobs in chosen:
            config = apply_knobs(base, knobs)
            digest = config.digest()
            _counter("gem_tune_candidates_total", "knob candidates evaluated").inc()
            t0 = time.perf_counter()
            try:
                with TRACER.span(
                    f"tune:compile:{design}",
                    cat="tune",
                    args={"digest": digest, "knobs": label},
                ):
                    candidate = compile_fn(config)
            except UnmappableError as exc:
                _counter(
                    "gem_tune_unmappable_total", "candidates rejected as unmappable"
                ).inc()
                records.append(
                    CandidateResult(
                        knobs=knobs,
                        digest=digest,
                        status="unmappable",
                        compile_s=time.perf_counter() - t0,
                        error=str(exc),
                    )
                )
                continue
            except Exception as exc:
                # A sweep probes corners of the knob space the rest of the
                # flow rejects (width_log2=14 raises ConfigError when the
                # compile starts) or has never seen — record the error
                # against the candidate and keep sweeping rather than
                # losing the whole search.
                _counter(
                    "gem_tune_errors_total", "candidates crashed during compile"
                ).inc()
                records.append(
                    CandidateResult(
                        knobs=knobs,
                        digest=digest,
                        status="error",
                        compile_s=time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            records.append(
                CandidateResult(
                    knobs=knobs,
                    digest=digest,
                    status="ok",
                    score=tuning_score(candidate),
                    compile_s=time.perf_counter() - t0,
                )
            )

        ok = [r for r in records if r.status == "ok"]
        if not ok:
            raise UnmappableError(
                f"autotune({design}): no mappable candidate in the knob space"
            )
        default_record = records[0]  # slot 0 is always the base config
        if default_record.status != "ok":
            raise UnmappableError(
                f"autotune({design}): the base config itself failed "
                f"({default_record.status}: {default_record.error})"
            )

        winner = max(ok, key=lambda r: (r.model_hz, _knob_sort_key(r.knobs)))
        if (
            winner is not default_record
            and winner.model_hz < default_record.model_hz * (1 + MIN_GAIN)
        ):
            winner = default_record

    result = AutotuneResult(
        design=design,
        crc=crc,
        space_digest=space.digest(),
        base_digest=base.digest(),
        key=key,
        seed=opts.seed,
        winner_knobs=winner.knobs,
        winner_digest=winner.digest,
        winner_label="default" if winner is default_record else "tuned",
        cache_hit=False,
        cache_path=cache_path,
        candidates=records,
    )
    text = json.dumps(result.to_payload(), indent=2, sort_keys=True)
    write_atomic(cache_path, lambda f: f.write(text.encode()))
    return result
