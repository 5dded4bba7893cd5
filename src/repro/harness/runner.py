"""Design registry and measurement pipeline for the experiments.

Benchmarks regenerate the paper's tables from three kinds of data:

1. **flow outputs** — the compile reports of :func:`compile_design`
   (gates, levels, stages, layers, partitions, bitstream bytes);
2. **activity measurements** — :func:`measure_activity` runs the
   gate-level reference engine on a workload window and reports
   events/toggles per cycle, beside the static compiled-work count;
3. **model speeds** — :mod:`repro.core.perfmodel` converts 1+2 into Hz.

How fast the simulator itself runs on this host is not measured here:
that is ``benchmarks/e2e`` (repeated samples, quartiles, host stamp),
whose records ``gem perf compare`` judges.

Compiles of the full-scale designs take minutes, so results are cached in
``.gem_cache/`` (pickles keyed by design name and scale signature); delete
the directory to force a rebuild.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.cachefile import cache_dir, write_atomic
from repro.core.compiler import CompiledDesign, CompileFlow, GemCompiler
from repro.core.config import GemConfig
from repro.core.engine import validate_values
from repro.core.interpreter import load_program
from repro.errors import ConfigError, GemError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

if TYPE_CHECKING:
    from repro.core.autotune import AutotuneConfig, AutotuneResult, KnobSpace
    from repro.core.bitstream import GemProgram
    from repro.core.synthesis import SynthesisResult
    from repro.designs.workloads import Workload
    from repro.rtl.ir import Circuit
    from repro.runtime.supervisor import SupervisedRun

logger = logging.getLogger(__name__)

#: On-disk cache envelope version.  Every pickle is wrapped as
#: ``{"format": CACHE_FORMAT, "key": key, "value": value}``; entries with
#: a different format (or written before the envelope existed) are
#: deleted and rebuilt instead of being unpickled into stale objects.
#: 3: ``PlacedPartition`` keeps its layers packed instead of as ``Layer`` arrays.
#: 4: a compile entry is two files, the program and the flow (:func:`compile_design`).
#: 5: Algorithm 2 fills the fold tree from the root level down (new bitstreams).
CACHE_FORMAT = 5


def _build_nvdla() -> Circuit:
    from repro.designs.nvdla_like import build_nvdla_like

    return build_nvdla_like()


def _build_rocket() -> Circuit:
    from repro.designs.rocket_like import build_rocket_like

    return build_rocket_like()


def _build_gemmini() -> Circuit:
    from repro.designs.gemmini_like import build_gemmini_like

    return build_gemmini_like()


def _build_openpiton(cores: int) -> Callable[[], Circuit]:
    def build() -> Circuit:
        from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like

        return build_openpiton_like(OpenPitonScale(cores=cores))

    return build


@dataclass(frozen=True)
class DesignEntry:
    name: str
    build: Callable[[], Circuit]
    workload_design: str


#: The five designs of the paper's Table I/II, at reproduction scale.
DESIGNS: dict[str, DesignEntry] = {
    "nvdla": DesignEntry("nvdla", _build_nvdla, "nvdla_like"),
    "rocketchip": DesignEntry("rocketchip", _build_rocket, "rocket_like"),
    "gemmini": DesignEntry("gemmini", _build_gemmini, "gemmini_like"),
    "openpiton1": DesignEntry("openpiton1", _build_openpiton(1), "openpiton1_like"),
    "openpiton8": DesignEntry("openpiton8", _build_openpiton(8), "openpiton8_like"),
}

_memory_cache: dict[str, object] = {}


def _cache_path(key: str, prefix: str | None = None) -> str:
    """The file of ``key``'s entry, named ``<prefix>-<digest>.pkl``; the
    prefix defaults to the key's kind (a compile entry's program file
    is ``program-*``)."""
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(cache_dir(), f"{prefix or key.split(':')[0]}-{digest}.pkl")


def _discard_cache_file(path: str, key: str, reason: str) -> None:
    logger.warning("discarding cache entry %s: %s", path, reason)
    REGISTRY.counter(
        "gem_cache_discards_total",
        "cache files found unusable, deleted and rebuilt",
        labels={"cache": key.split(":", 1)[0]},
    ).inc()
    try:
        os.remove(path)
    except OSError:
        pass


def _load_cached(path: str, key: str):
    """Returns ``(value,)`` on a hit, ``None`` on a miss.

    A pickle that fails to load is *deleted* (it would fail forever), and
    one whose envelope format or key does not match is likewise discarded
    so stale entries from older cache layouts invalidate cleanly.
    """
    try:
        with open(path, "rb") as f:
            envelope = pickle.load(f)
    except (FileNotFoundError, NotADirectoryError):  # nothing cached (or nowhere to)
        return None
    except Exception as exc:
        _discard_cache_file(path, key, f"unreadable pickle ({type(exc).__name__}: {exc})")
        return None
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != CACHE_FORMAT
        or envelope.get("key") != key
    ):
        _discard_cache_file(path, key, "stale format or key mismatch")
        return None
    return (envelope["value"],)


def _read_entry(key: str):
    return _load_cached(_cache_path(key), key)


def _write_entry(key: str, value, prefix: str | None = None) -> None:
    path = _cache_path(key, prefix)
    envelope = {"format": CACHE_FORMAT, "key": key, "value": value}
    try:
        write_atomic(path, lambda f: pickle.dump(envelope, f))
    except OSError as exc:
        # the build may have taken minutes: a cache that cannot be
        # written costs the next process a rebuild, not this one its result
        kind = key.split(":", 1)[0]
        logger.warning("cannot cache %s at %s (%s); it will be rebuilt", kind, path, exc)


def _count_miss(kind: str) -> None:
    REGISTRY.counter(
        "gem_compile_cache_misses_total",
        help="runner cache misses (value rebuilt)",
        labels={"kind": kind},
    ).inc()


def _cached(
    key: str,
    make: Callable[[], object],
    use_disk: bool = True,
    *,
    read: Callable[[str], tuple | None] = _read_entry,
    write: Callable[[str, object], None] = _write_entry,
):
    """``key``'s value: from memory, else read from disk by ``read(key)``
    (``(value,)`` or ``None``), else ``make()`` — kept in memory and
    handed to ``write(key, value)``."""
    kind = key.split(":", 1)[0]
    if key in _memory_cache:
        REGISTRY.counter(
            "gem_compile_cache_hits_total",
            help="runner cache hits (memory or disk)",
            labels={"kind": kind, "tier": "memory"},
        ).inc()
        return _memory_cache[key]
    if use_disk:
        hit = read(key)
        if hit is not None:
            REGISTRY.counter(
                "gem_compile_cache_hits_total",
                help="runner cache hits (memory or disk)",
                labels={"kind": kind, "tier": "disk"},
            ).inc()
            _memory_cache[key] = hit[0]
            return hit[0]
    _count_miss(kind)
    value = make()
    _memory_cache[key] = value
    if use_disk:
        write(key, value)
    return value


def design_circuit(name: str) -> Circuit:
    """Build (and memoize) a registered design's circuit."""
    entry = DESIGNS[name]
    return _cached(f"circuit:{name}", entry.build, use_disk=False)  # cheap to rebuild


def _synth_digest(config: GemConfig | None) -> str:
    """Digest of the synthesis-relevant knobs only (front end of the flow)."""
    config = config or GemConfig()
    payload = json.dumps(
        {"synthesis": asdict(config.synthesis), "optimize": config.optimize},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def design_synth(name: str, config: GemConfig | None = None) -> SynthesisResult:
    """Synthesize (and cache) a registered design under ``config``'s front end.

    The cache key includes a digest of the synthesis + depth-opt knobs —
    default and tuned front ends cache independently (before this keying,
    every config silently shared one netlist).
    """
    config = config or GemConfig()

    def make() -> SynthesisResult:
        from repro.core.depth_opt import optimize
        from repro.core.synthesis import synthesize

        synth = synthesize(design_circuit(name), config.synthesis)
        return optimize(synth) if config.optimize else synth

    return _cached(f"synth:{name}:{_synth_digest(config)}:v2", make)


def compile_design(
    name: str,
    config: GemConfig | None = None,
    *,
    values: int = 2,
    x_reset: bool = True,
    x_memory: bool = True,
) -> CompiledDesign:
    """Full GEM compile (and cache) of a registered design.

    Keyed by the canonical :meth:`GemConfig.digest` of the *effective*
    knobs, so a tuned and a default compile of the same design never
    collide (``repr``-based tags used to miss nested-config drift).

    ``values=4`` compiles through the dual-rail transform
    (:func:`repro.fourstate.fastpath.compile_fourstate`) so the fast
    engines carry X/Z; the x-initialization knobs join the cache key
    because they change the transformed circuit.

    An entry on disk is two files under one key: ``program-*.pkl`` holds
    what a run reads (program, report, four-state rail map) and
    ``compile-*.pkl`` the flow's products (``synth``, ``plan``,
    ``merge``).  A disk hit reads the program file only; the flow file is
    read the first time one of its fields is touched
    (:func:`_flow_loader`).  A compile also leaves the program's fused
    plan in the plan store (:func:`repro.core.fused.fused_program`), so
    the first simulator of a later process reads it instead of fusing.
    """
    four = validate_values(values) == 4

    def make() -> CompiledDesign:
        if four:
            from repro.fourstate.fastpath import compile_fourstate

            return compile_fourstate(
                design_circuit(name), config, x_reset=x_reset, x_memory=x_memory
            )
        return GemCompiler(config).compile(design_synth(name, config))

    def compile_and_store() -> CompiledDesign:
        design = make()
        load_program(design.program)  # fuses, and stores the plan
        return design

    # values4 is v3: the dual-rail transform keeps sync read ports native
    # (deferred-bound), structurally changing the compiled circuit.
    suffix = f"v3:values4:xr{int(x_reset)}:xm{int(x_memory)}" if four else "v2"
    key = f"compile:{name}:{(config or GemConfig()).digest()}:{suffix}"

    def read(key: str) -> tuple[CompiledDesign] | None:
        hit = _load_cached(_cache_path(key, "program"), key)
        if hit is None:
            return None
        run = hit[0]
        flow = _flow_loader(key, run["program"], compile_and_store)
        return (CompiledDesign(run["program"], run["report"], flow, run["fourstate"]),)

    # The span exists even on a cache hit, so every traced run carries a
    # compile span (the child phase spans only appear on real compiles).
    args = {"design": name, "values": 4} if four else {"design": name}
    with TRACER.span(f"compile:{name}", cat="compile", args=args):
        return _cached(key, compile_and_store, read=read, write=_write_design)


def _bitstream_sha256(program: GemProgram) -> str:
    return hashlib.sha256(np.ascontiguousarray(program.words, dtype="<u4")).hexdigest()


def _write_design(key: str, design: CompiledDesign) -> None:
    """Store a compile entry: the flow file first, so that a program
    file on disk always has had its flow written beside it."""
    flow = {"bitstream_sha256": _bitstream_sha256(design.program), "flow": design.flow}
    _write_entry(key, flow)
    run = {"program": design.program, "report": design.report, "fourstate": design.fourstate}
    _write_entry(key, run, "program")


def _flow_loader(key: str, program: GemProgram, rebuild: Callable[[], CompiledDesign]):
    """First-touch loader of a cached design's :class:`CompileFlow`.

    The flow file passes the checks every entry does (:func:`_load_cached`)
    and must name the bitstream of the program it is loaded beside.  When
    it is missing or unusable the entry is rebuilt and stored again; a
    rebuild that assembles another bitstream is an error — the flow of
    one program is never handed out beside another.
    """

    def load() -> CompileFlow:
        want = _bitstream_sha256(program)
        hit = _load_cached(_cache_path(key), key)
        if hit is not None and hit[0]["bitstream_sha256"] == want:
            return hit[0]["flow"]
        if hit is not None:
            _discard_cache_file(_cache_path(key), key, "flow of another bitstream")
        _count_miss("compile")
        design = rebuild()
        _memory_cache[key] = design
        _write_design(key, design)
        got = _bitstream_sha256(design.program)
        if got != want:
            raise GemError(
                f"compile cache: rebuilding the flow of {key} assembled bitstream "
                f"{got[:16]}, the cached program is {want[:16]}; the entry now holds "
                f"the rebuild, compile the design again to run it"
            )
        return design.flow

    return load


def autotune_design(
    name: str,
    *,
    base: GemConfig | None = None,
    space: "KnobSpace | None" = None,
    opts: "AutotuneConfig | None" = None,
    recall: bool = False,
) -> "AutotuneResult":
    """Autotune a registry design (see :mod:`repro.core.autotune`).

    The synth provider is the config-keyed :func:`design_synth`, so
    candidates that change synthesis knobs get their own netlist.
    ``recall`` takes the newest cached sweep of the design whatever its
    search options.
    """
    from repro.core.autotune import autotune

    return autotune(
        lambda cfg: design_synth(name, cfg),
        name=name,
        base=base,
        space=space,
        opts=opts,
        compile_fn=lambda cfg: compile_design(name, cfg),
        recall=recall,
    )


def design_workloads(name: str) -> dict[str, Workload]:
    from repro.designs.workloads import workloads_for

    return workloads_for(DESIGNS[name].workload_design)


def design_workload(name: str, workload: str | None = None) -> Workload:
    """One workload of a registered design: its first when ``workload``
    is ``None``; an unknown name is a :class:`ConfigError` listing them."""
    workloads = design_workloads(name)
    if workload is None:
        return next(iter(workloads.values()))
    if workload not in workloads:
        raise ConfigError(f"unknown workload {workload!r}; available: {', '.join(workloads)}")
    return workloads[workload]


@dataclass
class ActivityMeasurement:
    """Per-workload activity statistics from the gate-level reference engine."""

    design: str
    workload: str
    cycles: int
    events_per_cycle: float
    toggles_per_cycle: float
    gate_levels: int
    compiled_ops_per_cycle: float

    @property
    def gate_launches_per_cycle(self) -> float:
        """GL0AM's kernel launches per cycle: one per level, in each of the
        two settles of a cycle (combinational and post-edge)."""
        return 2.0 * self.gate_levels


def measure_activity(name: str, workload: Workload, max_cycles: int | None = 400) -> ActivityMeasurement:
    """Run the gate-level engine over a workload window and count the
    design's compiled work."""

    def make() -> ActivityMeasurement:
        from repro.core.perfmodel import compiled_work_units
        from repro.simref.gate_sim import GateLevelSim
        from repro.rtl.netlist import Netlist

        stimuli = workload.stimuli
        if max_cycles is not None and len(stimuli) > max_cycles:
            stimuli = stimuli[:max_cycles]
        gl = GateLevelSim(design_synth(name))
        gl.run(stimuli)
        return ActivityMeasurement(
            design=name,
            workload=workload.name,
            cycles=len(stimuli),
            events_per_cycle=gl.events_per_cycle,
            toggles_per_cycle=gl.toggles_per_cycle,
            gate_levels=gl.depth,
            compiled_ops_per_cycle=float(compiled_work_units(Netlist(design_circuit(name)))),
        )

    key = f"activity:{name}:{workload.name}:{max_cycles}:v2"
    return _cached(key, make)


def run_resilient(
    design: CompiledDesign,
    stimuli: list[dict],
    *,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    scrub_every: int | None = 1,
    resume: bool | str = False,
    batch: int = 1,
    backend: str | None = None,
    profile: bool = False,
    deadline_s: float | None = None,
    cycle_budget: int | None = None,
    probe=None,
) -> "SupervisedRun":
    """Execute ``stimuli`` on a compiled design under the resilience supervisor.

    The supervised counterpart of the plain ``gem run`` loop: scrubbed
    against a lockstep shadow, periodically checkpointed, and self-healing
    via checkpoint retry with degradation to the gate-level engine (see
    :mod:`repro.runtime.supervisor`; the ladder's constants are
    :class:`~repro.runtime.supervisor.Policy`'s defaults).  ``resume``
    continues a previous run: ``True``/``"latest"`` selects the newest
    *valid* checkpoint in ``checkpoint_dir`` (journal-guided, walking past
    torn files), a directory path selects from that directory, and a
    ``.gemk`` path loads exactly that file; an unresolvable target raises
    :class:`~repro.errors.CheckpointError` rather than silently
    restarting from cycle 0.  ``deadline_s``/``cycle_budget`` arm a
    cooperative watchdog; ``batch`` packs that many stimulus lanes per
    state word (the result then carries per-lane output streams — see
    docs/ENGINE.md).  ``probe`` attaches a
    :class:`repro.obs.probe.ProbeTap` to the primary engine with
    rollback-consistent tap state (docs/OBSERVABILITY.md).  A design
    compiled with ``values=4`` runs as any other: scrub, checkpoint and
    quarantine operate on both rails, which are ordinary state words of
    the transformed program.
    """
    from repro.runtime.checkpoint import resolve_resume
    from repro.runtime.supervisor import Supervisor
    from repro.runtime.watchdog import Deadline

    resume_from = None
    if resume:
        recovered = resolve_resume(resume, checkpoint_dir)
        resume_from = recovered.checkpoint
        for path, reason in recovered.skipped:
            logger.warning("resume skipped %s: %s", path, reason)
    deadline = None
    if deadline_s is not None or cycle_budget is not None:
        deadline = Deadline(wall_s=deadline_s, max_cycles=cycle_budget)
    supervisor = Supervisor(
        design,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        scrub_every=scrub_every,
        batch=batch,
        backend=backend,
        profile=profile,
        deadline=deadline,
        probe=probe,
    )
    return supervisor.run(stimuli, resume_from=resume_from)
