"""Resilience runtime around the GEM interpreter (fault-tolerant execution).

The layer every scaling step stands on: long simulation campaigns must
survive corrupted bitstreams, SEU-flipped state, hung runs, and torn
checkpoint files without discarding millions of simulated cycles.

* :mod:`repro.runtime.checkpoint` — versioned, CRC32-sealed snapshots of
  full interpreter state; crash-consistent atomic writes; per-directory
  journal; bit-identical resume; rotating on-disk manager;
* :mod:`repro.runtime.faults` — seeded SEU injection (bitstream / state /
  RAM bit flips) and the ``gem faultcampaign`` driver;
* :mod:`repro.runtime.supervisor` — self-healing execution: lockstep
  scrubbing, per-lane fault localization and quarantine, checkpoint
  retry with exponential backoff, and graceful degradation to the
  simref gate-level engine;
* :mod:`repro.runtime.watchdog` — cooperative wall-clock / cycle-budget
  deadlines with exponentially tightening retry grace;
* :mod:`repro.runtime.chaos` — seeded failure-injection harness
  (``gem chaos``) asserting the recovery invariants end to end.

See ``docs/RESILIENCE.md`` for the file formats and the degradation
ladder.
"""

from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointManager,
    RecoveredCheckpoint,
    checkpoint_from_words,
    checkpoint_to_words,
    load_checkpoint,
    resolve_resume,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.runtime.faults import CampaignReport, FaultInjector, FaultRecord, run_campaign
from repro.runtime.supervisor import (
    SupervisedRun,
    Supervisor,
    state_digest,
    state_digest_lanes,
)
from repro.runtime.watchdog import Deadline

__all__ = [
    "CampaignReport",
    "Checkpoint",
    "CheckpointManager",
    "Deadline",
    "FaultInjector",
    "FaultRecord",
    "RecoveredCheckpoint",
    "SupervisedRun",
    "Supervisor",
    "checkpoint_from_words",
    "checkpoint_to_words",
    "load_checkpoint",
    "resolve_resume",
    "restore",
    "run_campaign",
    "save_checkpoint",
    "snapshot",
    "state_digest",
    "state_digest_lanes",
]
