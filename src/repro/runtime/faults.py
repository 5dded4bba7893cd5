"""Seeded SEU fault injection and campaign driver.

GPU residency exposes a simulation to soft errors the paper's multi-hour
campaigns must survive: a flipped bit in the resident *bitstream* (the
program image), in the *global state* vector, or in a *RAM block*.  This
module models all three as single-event upsets (SEUs) and provides the
campaign driver behind ``gem faultcampaign``:

* **bitstream faults** must be *detected at load* by the container's
  per-section CRC32s (:func:`repro.core.bitstream.verify_integrity`);
* **state** and **RAM faults** must be *caught by scrubbing* (the
  supervisor's lockstep shadow) and *recovered* by checkpoint retry,
  with the recovered run's outputs matching an undisturbed golden run.

Everything is driven by one :class:`random.Random` seed, so campaigns
are exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.bitstream import GemProgram
from repro.core.compiler import CompiledDesign
from repro.core.engine import WORD_LANES
from repro.core.interpreter import GemInterpreter
from repro.errors import BitstreamError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.runtime.supervisor import Supervisor

FAULT_KINDS = ("bitstream", "state", "ram")


@dataclass
class FaultRecord:
    """One injected fault and its observed outcome."""

    kind: str  # "bitstream" | "state" | "ram"
    location: str
    cycle: int = -1  # injection cycle (-1: at load)
    detected: bool = False
    recovered: bool = False
    detail: str = ""
    #: per-lane outcome class for runtime faults: "recovered" (replayed
    #: to golden), "quarantined" (lane masked out), "degraded" (run fell
    #: back to simref), or "missed" (undetected/unrecovered)
    outcome: str = ""


class FaultInjector:
    """Seeded single-event-upset generator over a live run's fault surfaces."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.records: list[FaultRecord] = []

    def _register(self, record: FaultRecord) -> FaultRecord:
        self.records.append(record)
        REGISTRY.counter(
            "gem_faults_injected_total",
            help="SEUs injected by fault campaigns",
            labels={"kind": record.kind},
        ).inc()
        if TRACER.enabled:
            TRACER.instant(
                "fault.inject",
                cat="faults",
                args={
                    "kind": record.kind,
                    "location": record.location,
                    "cycle": record.cycle,
                },
            )
        return record

    def corrupt_bitstream(self, program: GemProgram) -> tuple[GemProgram, FaultRecord]:
        """A copy of ``program`` with one random bit flipped anywhere in
        the container (payload or integrity footer)."""
        words = program.words.copy()
        index = self.rng.randrange(words.size)
        bit = self.rng.randrange(32)
        words[index] = np.uint32(int(words[index]) ^ (1 << bit))
        record = self._register(
            FaultRecord(kind="bitstream", location=f"word {index} bit {bit}")
        )
        return GemProgram(words=words, meta=program.meta), record

    def flip_state_bit(
        self, interp: GemInterpreter, cycle: int = -1, lane: int | None = None
    ) -> FaultRecord:
        """Flip one random bit of the global state vector in place.

        ``lane`` selects which stimulus lane of the packed state word is
        upset (default: a random active lane), modelling an SEU that hits
        one simulated instance of a batched run.
        """
        gstate = interp.state.global_state
        index = self.rng.randrange(gstate.shape[0])
        if lane is None:
            lane = self.rng.randrange(interp.batch) if interp.batch > 1 else 0
        word, bit = interp.engine.lane_coords(lane)
        gstate[index, word] ^= np.uint64(1 << bit)
        return self._register(
            FaultRecord(
                kind="state", location=f"global bit {index} lane {lane}", cycle=cycle
            )
        )

    def flip_ram_bit(
        self, interp: GemInterpreter, cycle: int = -1, lane: int | None = None
    ) -> FaultRecord | None:
        """Flip one random data bit of one RAM word in one lane's image.

        Returns ``None`` when the design has no RAM blocks.
        """
        ram_arrays = interp.state.ram_arrays
        candidates = [i for i, arr in enumerate(ram_arrays) if arr.size > 0]
        if not candidates:
            return None
        ram = self.rng.choice(candidates)
        arr = ram_arrays[ram]  # lane-major: (batch, depth)
        if lane is None:
            lane = self.rng.randrange(arr.shape[0]) if arr.shape[0] > 1 else 0
        word = self.rng.randrange(arr.shape[1])
        data_bits = max(1, interp.loaded.container.rams[ram][1])
        bit = self.rng.randrange(data_bits)
        arr[lane, word] = np.uint32(int(arr[lane, word]) ^ (1 << bit))
        return self._register(
            FaultRecord(
                kind="ram",
                location=f"ram {ram} word {word} bit {bit} lane {lane}",
                cycle=cycle,
            )
        )


@dataclass
class CampaignReport:
    """Aggregated injected / detected / recovered counts per fault class."""

    design: str
    cycles: int
    seed: int
    records: list[FaultRecord] = field(default_factory=list)

    def count(self, kind: str, *, detected: bool | None = None, recovered: bool | None = None) -> int:
        n = 0
        for r in self.records:
            if r.kind != kind:
                continue
            if detected is not None and r.detected != detected:
                continue
            if recovered is not None and r.recovered != recovered:
                continue
            n += 1
        return n

    @property
    def all_bitstream_detected(self) -> bool:
        return self.count("bitstream") == self.count("bitstream", detected=True)

    @property
    def all_runtime_recovered(self) -> bool:
        runtime = [r for r in self.records if r.kind in ("state", "ram")]
        return all(r.detected and r.recovered for r in runtime)

    @property
    def passed(self) -> bool:
        return self.all_bitstream_detected and self.all_runtime_recovered

    def outcome_counts(self, kind: str | None = None) -> dict[str, int]:
        """Per-lane outcome class tallies over the runtime-fault records."""
        counts: dict[str, int] = {}
        for r in self.records:
            if r.kind == "bitstream" or not r.outcome:
                continue
            if kind is not None and r.kind != kind:
                continue
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"fault campaign: {self.design}, {self.cycles} cycles/trial, seed {self.seed}",
            f"  {'class':10s} {'injected':>8s} {'detected':>8s} {'recovered':>9s}  outcomes",
        ]
        for kind in FAULT_KINDS:
            injected = self.count(kind)
            if injected == 0:
                continue
            detected = self.count(kind, detected=True)
            recovered = (
                "-" if kind == "bitstream" else str(self.count(kind, recovered=True))
            )
            counts = self.outcome_counts(kind)
            outcomes = " ".join(
                f"{klass}={counts[klass]}"
                for klass in ("recovered", "quarantined", "degraded", "missed")
                if counts.get(klass)
            )
            lines.append(
                f"  {kind:10s} {injected:8d} {detected:8d} {recovered:>9s}  {outcomes}"
            )
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        for r in self.records:
            if not r.detected or (r.kind != "bitstream" and not r.recovered):
                lines.append(
                    f"  MISSED {r.kind} fault at {r.location} (cycle {r.cycle}): {r.detail}"
                )
        return "\n".join(lines)


def run_campaign(
    design: CompiledDesign,
    stimuli: list[dict[str, int]],
    *,
    name: str = "design",
    trials: int = 10,
    seed: int = 0,
    checkpoint_every: int = 8,
    scrub_every: int = 1,
    max_retries: int = 3,
) -> CampaignReport:
    """Run a full SEU campaign against one compiled design.

    Per trial and fault class, one fault is injected and the detection /
    recovery machinery is exercised end to end.  Recovery is judged
    against a golden undisturbed run: a state or RAM fault counts as
    *recovered* only if the supervised run finishes undegraded with
    outputs bit-identical to the golden ones.

    The state/RAM trials of each fault class share a single lane-batched
    supervised run: trial ``t``'s upset lands in stimulus lane ``t`` at
    its own cycle, and recovery is judged per lane against the golden
    stream.  ``trials`` beyond 64 run in word-sized chunks.
    """
    stimuli = [dict(vec) for vec in stimuli]
    report = CampaignReport(design=name, cycles=len(stimuli), seed=seed)
    injector = FaultInjector(seed)
    report.records = injector.records

    probe = design.simulator()
    golden = probe.run(stimuli)
    has_ram = any(arr.size > 0 for arr in probe.ram_arrays)

    # -- bitstream faults: must be rejected at load ---------------------------
    for _ in range(trials):
        corrupted, record = injector.corrupt_bitstream(design.program)
        try:
            GemInterpreter(corrupted)
            record.detail = "interpreter accepted a corrupted bitstream"
        except BitstreamError as exc:
            record.detected = True
            record.detail = str(exc)

    # -- state / RAM faults: scrub + checkpoint retry -------------------------
    kinds = ["state"] + (["ram"] if has_ram else [])
    supervisor_args = dict(
        checkpoint_every=checkpoint_every,
        scrub_every=scrub_every,
        shadow="redundant",
        max_retries=max_retries,
    )
    for kind in kinds:
        _run_batched_trials(
            design, stimuli, golden, kind, trials, injector, supervisor_args
        )
    _publish_campaign(report)
    return report


def _publish_campaign(report: CampaignReport) -> None:
    """Mirror a campaign's detected/recovered tallies into the registry."""
    for kind in FAULT_KINDS:
        detected = report.count(kind, detected=True)
        if detected:
            REGISTRY.counter(
                "gem_faults_detected_total",
                help="injected SEUs caught by CRC or scrubbing",
                labels={"kind": kind},
            ).inc(detected)
        if kind == "bitstream":
            continue
        recovered = report.count(kind, recovered=True)
        if recovered:
            REGISTRY.counter(
                "gem_faults_recovered_total",
                help="injected SEUs recovered to golden outputs",
                labels={"kind": kind},
            ).inc(recovered)


def _run_batched_trials(
    design: CompiledDesign,
    stimuli: list[dict[str, int]],
    golden: list[dict[str, int]],
    kind: str,
    trials: int,
    injector: FaultInjector,
    supervisor_args: dict,
) -> None:
    """All ``trials`` upsets of one fault class in lane-batched runs.

    Lane ``t`` carries trial ``t``: its fault is injected into that lane
    only, so one supervised run exercises up to :data:`WORD_LANES`
    detections and recoveries against the same broadcast stimuli.  The
    scrub digest covers every lane, so each distinct injection cycle
    produces its own detection/rollback event; per-trial recovery is
    judged by comparing that lane's output stream to the golden run.
    """
    done = 0
    while done < trials:
        lanes = min(WORD_LANES, trials - done)
        done += lanes
        inject = [
            (lane, injector.rng.randrange(1, max(2, len(stimuli))))
            for lane in range(lanes)
        ]
        records: list[FaultRecord | None] = [None] * lanes

        def hook(
            interp: GemInterpreter,
            cycle: int,
            _kind=kind,
            _inject=inject,
            _records=records,
        ) -> None:
            for slot, (lane, at) in enumerate(_inject):
                if cycle == at and _records[slot] is None:
                    if _kind == "state":
                        _records[slot] = injector.flip_state_bit(
                            interp, cycle, lane=lane
                        )
                    else:
                        _records[slot] = injector.flip_ram_bit(
                            interp, cycle, lane=lane
                        )

        supervisor = Supervisor(
            design, batch=lanes, fault_hook=hook, **supervisor_args
        )
        result = supervisor.run(stimuli)
        # With scrub_every=1 every distinct injection cycle is caught by
        # its own digest scrub; coincident injections share one event.
        distinct_cycles = len({at for _, at in inject})
        all_detected = result.faults_detected >= distinct_cycles
        for slot, (lane, _at) in enumerate(inject):
            record = records[slot]
            if record is None:  # pragma: no cover - defensive
                continue
            record.detected = all_detected
            record.recovered = not result.degraded and result.lane_stream(lane) == golden
            lane_class = result.lane_outcomes[lane]
            if record.recovered:
                record.outcome = "recovered"
            elif lane_class in ("quarantined", "degraded"):
                record.outcome = lane_class
                record.detail = lane_class
            else:
                record.outcome = "missed"
                record.detail = (
                    "degraded"
                    if result.degraded
                    else f"lane {lane} outputs differ from golden"
                )
