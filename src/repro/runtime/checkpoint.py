"""Checkpoint/restore of live :class:`GemInterpreter` state.

Multi-hour campaigns cannot afford to restart from cycle 0 when a run is
interrupted or corrupted.  A checkpoint is a copy of the interpreter's
:class:`~repro.core.interpreter.SimState` — everything it needs to
continue *bit-identically*:

* the global state vector — packed ``uint64`` words carrying every
  stimulus lane (GPU global memory image),
* every RAM block's contents, one image per lane,
* the cycle counter and the per-cycle work counters (perf-model inputs)

— plus what binds it to where it may be restored: the bitstream's CRC32
digest, the batch size and the value system.  :func:`restore` checks
those and every array shape *before* it writes anything, so a
checkpoint that does not belong raises
:class:`~repro.errors.CheckpointError` and leaves the target as it was.

On-disk format **v4** (``uint32`` words, sealed by the same per-section
CRC32 footer as the bitstream — see :mod:`repro.core.integrity`)::

    section 0  header: magic 'GEMK', format version, cycle (lo, hi),
               program digest, global bits, #rams, 0 (reserved), batch,
               lane-plane words K, value system (2 or 4)
    section 1  counters: fixed-order fields as (lo, hi) u64 pairs
               (``_COUNTER_FIELDS``)
    section 2  global state: K packed uint64 words per bit as (lo, hi)
               pairs, plane-major (bit 0's K words, then bit 1's, ...)
    section 3  RAM images: per block, depth then batch×depth words
               (lane-major)
    section 4  reserved, empty

Section 4 and header word 7 once described deferred writes in flight;
snapshots are taken at cycle boundaries, where there are none, and no
writer ever filled them: a file that does is refused.  A ``values=4``
(dual-rail) snapshot carries the known-rail plane as ordinary
global-state bits, so sections 2–3 need no encoding of their own; the
header word makes restoring into the other value system fail
self-describingly (the digest check would catch it anyway).

Checkpoints are per-run artefacts, so there is one format: v3 (no
value-system word), v2 (no K word) and v1 (bit-packed single instance)
are refused with a :class:`~repro.errors.CheckpointError` naming the
version.

Checkpoints carry no execution-backend identity: the state layout is
backend-independent, so a file saved under the numpy backend resumes
bit-identically under the native kernel (and vice versa).

:class:`CheckpointManager` adds the operational layer: periodic rotating
snapshots with *crash-consistent* writes (temp file + ``fsync`` + atomic
rename + directory ``fsync``), a per-directory **journal**
(``journal.json``, itself written atomically) recording the checkpoint
chain — file name, cycle, byte size, and a CRC32 of the file image —
and a :meth:`CheckpointManager.recover` that walks the journal newest
first past torn, truncated, or corrupted files to the newest snapshot
that still verifies.  One bad write never strands a run, and a crash
*during* a write leaves only an ignorable ``*.tmp`` file behind.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import MAX_LANE_WORDS, WORD_LANES
from repro.core.integrity import seal, unseal
from repro.core.interpreter import CycleCounters, GemInterpreter, SimState
from repro.errors import CheckpointError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

logger = logging.getLogger(__name__)

CKPT_MAGIC = 0x47454D4B  # "GEMK"
CKPT_VERSION = 4
#: header words of a v4 file
_HEADER_WORDS = 11

#: fixed serialization order of the work-counter fields
_COUNTER_FIELDS = (
    "cycles",
    "instruction_words",
    "fold_steps",
    "permutation_bits",
    "layer_syncs",
    "device_syncs",
    "global_reads",
    "global_writes",
    "array_ops",
    "fused_array_ops",
)


@dataclass
class Checkpoint:
    """A resumable snapshot of interpreter state at a cycle boundary."""

    cycle: int
    program_digest: int
    #: packed lane words, shape (global_bits, K), dtype uint64
    global_state: np.ndarray
    #: per block, shape (batch, depth), dtype uint32
    ram_arrays: list[np.ndarray]
    counters: CycleCounters
    #: stimulus lanes captured per state element
    batch: int = 1
    #: lane-plane words per state element (batch = K×64 when K > 1)
    words: int = 1
    #: value system of the snapshotted engine: 2 (plain) or 4 (dual-rail
    #: — the known-rail plane rides inside ``global_state``)
    values: int = 2


def snapshot(interp: GemInterpreter) -> Checkpoint:
    """Capture the interpreter's state between cycles (all lanes)."""
    state = interp.state.copy()
    return Checkpoint(
        cycle=state.cycle,
        program_digest=interp.program.digest(),
        global_state=state.global_state,
        ram_arrays=state.ram_arrays,
        counters=state.counters,
        batch=interp.batch,
        words=interp.engine.words,
        values=interp.values,
    )


def restore(interp: GemInterpreter, ckpt: Checkpoint) -> GemInterpreter:
    """Overwrite ``interp``'s state from ``ckpt``; continuation is
    bit-identical to the run the snapshot was taken from.  A checkpoint
    that does not belong here raises :class:`CheckpointError` with
    ``interp`` untouched."""
    if ckpt.program_digest != interp.program.digest():
        raise CheckpointError(
            "checkpoint was taken against a different bitstream "
            f"(digest {ckpt.program_digest:#010x} != {interp.program.digest():#010x})"
        )
    if ckpt.batch != interp.batch:
        raise CheckpointError(
            f"checkpoint carries {ckpt.batch} stimulus lanes, "
            f"interpreter runs {interp.batch}"
        )
    if ckpt.values != interp.values:
        raise CheckpointError(
            f"checkpoint was taken from a {ckpt.values}-state engine, "
            f"interpreter runs {interp.values}-state"
        )
    try:
        interp.state.assign(
            SimState(ckpt.global_state, ckpt.ram_arrays, ckpt.counters, ckpt.cycle),
            interp.engine,
        )
    except ValueError as exc:
        raise CheckpointError(f"checkpoint does not fit the program: {exc}") from None
    return interp


# -- binary serialization ----------------------------------------------------


def _u64_pair(value: int) -> tuple[int, int]:
    return value & 0xFFFFFFFF, (value >> 32) & 0xFFFFFFFF


def _from_pair(lo: int, hi: int) -> int:
    return (int(hi) << 32) | int(lo)


def _words_to_u32(arr: np.ndarray) -> np.ndarray:
    """uint64 lane words to little-endian (lo, hi) uint32 pairs."""
    return np.ascontiguousarray(arr, dtype="<u8").view("<u4").astype(np.uint32)


def _u32_to_words(words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`_words_to_u32`."""
    raw = np.ascontiguousarray(words[: 2 * count], dtype="<u4")
    return raw.view("<u8").astype(np.uint64)


def checkpoint_to_words(ckpt: Checkpoint) -> np.ndarray:
    """Serialize to a sealed ``uint32`` v4 container (see module docstring)."""
    header = np.array(
        [
            CKPT_MAGIC,
            CKPT_VERSION,
            *_u64_pair(ckpt.cycle),
            ckpt.program_digest & 0xFFFFFFFF,
            ckpt.global_state.shape[0],
            len(ckpt.ram_arrays),
            0,  # reserved (once: deferred writes in flight)
            ckpt.batch,
            int(ckpt.words),
            ckpt.values,
        ],
        dtype=np.uint32,
    )
    counter_words: list[int] = []
    for name in _COUNTER_FIELDS:
        counter_words.extend(_u64_pair(getattr(ckpt.counters, name)))
    ram_words: list[np.ndarray] = []
    for arr in ckpt.ram_arrays:
        ram_words.append(np.array([arr.shape[-1]], dtype=np.uint32))
        ram_words.append(np.ascontiguousarray(arr, dtype=np.uint32).reshape(-1))
    ram_section = (
        np.concatenate(ram_words) if ram_words else np.zeros(0, dtype=np.uint32)
    )
    return seal(
        [
            header,
            np.array(counter_words, dtype=np.uint32),
            _words_to_u32(ckpt.global_state.reshape(-1)),
            ram_section,
            np.zeros(0, dtype=np.uint32),  # reserved
        ]
    )


def checkpoint_from_words(words: np.ndarray) -> Checkpoint:
    """Parse and CRC-verify a serialized checkpoint."""
    sections = unseal(words, error=CheckpointError, what="checkpoint")
    if len(sections) != 5:
        raise CheckpointError(f"checkpoint: expected 5 sections, found {len(sections)}")
    header, counter_sec, state_sec, ram_sec, reserved_sec = sections
    if header.size < 8 or int(header[0]) != CKPT_MAGIC:
        raise CheckpointError("not a GEM checkpoint (bad magic)")
    version = int(header[1])
    if version != CKPT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version} (supported: {CKPT_VERSION})"
        )
    if header.size < _HEADER_WORDS:
        raise CheckpointError(f"checkpoint: v{version} header truncated")
    if int(header[7]) or reserved_sec.size:
        raise CheckpointError(
            f"checkpoint: reserved section 4 must be empty (header claims {int(header[7])} "
            f"entries, section holds {reserved_sec.size} words)"
        )
    if counter_sec.size != 2 * len(_COUNTER_FIELDS):
        raise CheckpointError("checkpoint: counter section has wrong size")
    counters = CycleCounters()
    for i, name in enumerate(_COUNTER_FIELDS):
        setattr(counters, name, _from_pair(counter_sec[2 * i], counter_sec[2 * i + 1]))
    global_bits, num_rams, batch, words_k = (int(header[i]) for i in (5, 6, 8, 9))
    values = int(header[10])
    if values not in (2, 4):
        raise CheckpointError(f"checkpoint: invalid value system {values}")
    if words_k == 1:
        if not 1 <= batch <= 64:
            raise CheckpointError(f"checkpoint: invalid lane count {batch}")
    elif words_k < 1 or words_k > MAX_LANE_WORDS or batch != words_k * WORD_LANES:
        raise CheckpointError(
            f"checkpoint: invalid lane geometry (batch {batch}, {words_k} words)"
        )
    counters.lanes = batch
    if state_sec.size < 2 * global_bits * words_k:
        raise CheckpointError("checkpoint: global state section truncated")
    flat = _u32_to_words(state_sec, global_bits * words_k)
    global_state = flat.reshape(global_bits, words_k)
    ram_arrays: list[np.ndarray] = []
    pos = 0
    for _ in range(num_rams):
        if pos >= ram_sec.size:
            raise CheckpointError("checkpoint: RAM section truncated")
        depth = int(ram_sec[pos])
        span = batch * depth
        if pos + 1 + span > ram_sec.size:
            raise CheckpointError("checkpoint: RAM section truncated")
        image = ram_sec[pos + 1 : pos + 1 + span].astype(np.uint32)
        ram_arrays.append(image.reshape(batch, depth).copy())
        pos += 1 + span
    return Checkpoint(
        cycle=_from_pair(header[2], header[3]),
        program_digest=int(header[4]),
        global_state=global_state,
        ram_arrays=ram_arrays,
        counters=counters,
        batch=batch,
        words=words_k,
        values=values,
    )


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry (the rename) to stable storage."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(path: str, data: bytes) -> None:
    """Crash-consistent file write: temp + fsync + rename + dir fsync.

    After a crash at any instant, ``path`` holds either its previous
    content or the complete new content — never a torn mixture.  The
    chaos harness patches this seam to inject write failures.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def save_checkpoint(ckpt: Checkpoint, path: str) -> int:
    """Atomically + durably write a checkpoint file.

    Returns the CRC32 of the written byte image (the journal records it
    so recovery can reject torn files without parsing them).
    """
    data = np.ascontiguousarray(checkpoint_to_words(ckpt), dtype="<u4").tobytes()
    _write_atomic(path, data)
    return zlib.crc32(data) & 0xFFFFFFFF


def load_checkpoint(path: str) -> Checkpoint:
    """Read and verify a checkpoint file."""
    try:
        words = np.fromfile(path, dtype=np.uint32)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    return checkpoint_from_words(words)


#: journal file name inside a checkpoint directory
JOURNAL_NAME = "journal.json"
#: journal schema version
JOURNAL_VERSION = 1


@dataclass
class RecoveredCheckpoint:
    """Outcome of journal-guided recovery: the snapshot plus provenance."""

    checkpoint: Checkpoint
    path: str
    #: ``(path, reason)`` for every newer candidate that was rejected
    skipped: list[tuple[str, str]] = field(default_factory=list)


class CheckpointManager:
    """Periodic rotating, journaled checkpoints for a supervised run.

    ``every`` is the snapshot period in cycles; ``keep`` bounds how many
    files stay on disk (oldest are pruned).  Every :meth:`save` appends
    to the directory's ``journal.json`` — the authoritative record of
    the checkpoint chain, carrying each file's cycle, byte size, and
    CRC32 of its on-disk image.  :meth:`recover` (and the compatibility
    wrapper :meth:`latest`) walks the journal newest first, rejecting
    torn/truncated/corrupt files by size, image CRC, and a full parse,
    and falls back to a directory scan when the journal itself is
    missing or unreadable — one bad write, journal included, never
    strands a run.
    """

    def __init__(self, directory: str, every: int = 1000, keep: int = 3) -> None:
        if every <= 0:
            raise ValueError("checkpoint period must be positive")
        self.directory = directory
        self.every = every
        self.keep = max(1, keep)

    def _path(self, cycle: int) -> str:
        return os.path.join(self.directory, f"ckpt-{cycle:012d}.gemk")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_NAME)

    def paths(self) -> list[str]:
        """Checkpoint files on disk, oldest first."""
        if not os.path.isdir(self.directory):
            return []
        names = sorted(
            n for n in os.listdir(self.directory)
            if n.startswith("ckpt-") and n.endswith(".gemk")
        )
        return [os.path.join(self.directory, n) for n in names]

    # -- journal --------------------------------------------------------------

    def read_journal(self) -> list[dict]:
        """Journal entries oldest first; ``[]`` if missing/unreadable."""
        try:
            with open(self.journal_path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            return []
        except (OSError, ValueError) as exc:
            logger.warning("unreadable checkpoint journal %s: %s", self.journal_path, exc)
            return []
        if not isinstance(doc, dict) or doc.get("version") != JOURNAL_VERSION:
            logger.warning("checkpoint journal %s has unknown format", self.journal_path)
            return []
        entries = doc.get("entries")
        return entries if isinstance(entries, list) else []

    def _write_journal(self, entries: list[dict]) -> None:
        doc = {"version": JOURNAL_VERSION, "entries": entries}
        _write_atomic(self.journal_path, json.dumps(doc, indent=1).encode())

    def sweep_stale_tmp(self) -> list[str]:
        """Remove ``*.tmp`` leftovers of writes torn by a crash."""
        removed = []
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):
                path = os.path.join(self.directory, name)
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - raced cleanup
                    continue
                logger.warning("removed stale temp file %s (torn write)", path)
                removed.append(path)
        return removed

    # -- save -----------------------------------------------------------------

    def save(self, interp: GemInterpreter) -> str:
        """Snapshot ``interp`` now; returns the file path.

        The checkpoint file lands durably *before* the journal entry
        that references it, so the journal never points at a file that
        might not have hit the disk.
        """
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(interp.cycle)
        with TRACER.span(
            "checkpoint.save", cat="checkpoint", args={"cycle": interp.cycle}
        ):
            crc = save_checkpoint(snapshot(interp), path)
        REGISTRY.counter(
            "gem_checkpoint_writes_total", help="checkpoint files written"
        ).inc()
        REGISTRY.counter(
            "gem_checkpoint_bytes_total", help="checkpoint bytes written"
        ).inc(os.path.getsize(path))
        name = os.path.basename(path)
        entries = [e for e in self.read_journal() if e.get("file") != name]
        entries.append(
            {
                "file": name,
                "cycle": interp.cycle,
                "size": os.path.getsize(path),
                "crc32": crc,
                "batch": interp.batch,
                "words": interp.engine.words,
                "values": interp.values,
                "program_digest": interp.program.digest(),
            }
        )
        entries.sort(key=lambda e: int(e.get("cycle", 0)))
        pruned = entries[-self.keep :]
        for stale in self.paths()[: -self.keep]:
            try:
                os.remove(stale)
            except OSError:  # pragma: no cover - raced cleanup
                pass
        self._write_journal(pruned)
        return path

    def maybe_save(self, interp: GemInterpreter) -> str | None:
        """Snapshot if the cycle counter hits the period boundary."""
        if interp.cycle > 0 and interp.cycle % self.every == 0:
            return self.save(interp)
        return None

    # -- recovery -------------------------------------------------------------

    def _verify_entry(self, entry: dict) -> tuple[Checkpoint | None, str]:
        """Validate one journal entry; returns ``(ckpt, reason)``."""
        name = entry.get("file")
        if not isinstance(name, str) or os.path.basename(name) != name:
            return None, "malformed journal entry"
        path = os.path.join(self.directory, name)
        if not os.path.exists(path):
            return None, "file missing"
        size = os.path.getsize(path)
        if size != entry.get("size"):
            return None, f"size {size} != journal {entry.get('size')} (torn write)"
        with open(path, "rb") as f:
            data = f.read()
        if (zlib.crc32(data) & 0xFFFFFFFF) != entry.get("crc32"):
            return None, "file image CRC mismatch (corrupted)"
        try:
            return checkpoint_from_words(np.frombuffer(data, dtype="<u4")), ""
        except CheckpointError as exc:
            return None, str(exc)

    def _skip(self, path: str, reason: str) -> None:
        logger.warning("skipping unusable checkpoint %s: %s", path, reason)
        REGISTRY.counter(
            "gem_checkpoint_skipped_total",
            help="corrupted/unreadable checkpoints skipped during recovery",
        ).inc()
        if TRACER.enabled:
            TRACER.instant(
                "checkpoint.skip_corrupt",
                cat="checkpoint",
                args={"path": os.path.basename(path)},
            )

    def recover(self) -> RecoveredCheckpoint | None:
        """Newest verifiable checkpoint with provenance, or ``None``.

        Walks the journal newest first (entry → size → image CRC → full
        parse), then any on-disk files the journal does not cover (a
        lost or stale journal), newest first.  Every rejected candidate
        is recorded in :attr:`RecoveredCheckpoint.skipped` and counted
        in the metrics registry.
        """
        self.sweep_stale_tmp()
        skipped: list[tuple[str, str]] = []
        journaled: set[str] = set()
        for entry in reversed(self.read_journal()):
            name = entry.get("file")
            if isinstance(name, str):
                journaled.add(name)
            path = os.path.join(self.directory, str(name))
            ckpt, reason = self._verify_entry(entry)
            if ckpt is None:
                self._skip(path, reason)
                skipped.append((path, reason))
                continue
            REGISTRY.counter(
                "gem_checkpoint_loads_total", help="checkpoints loaded"
            ).inc()
            return RecoveredCheckpoint(checkpoint=ckpt, path=path, skipped=skipped)
        for path in reversed(self.paths()):
            if os.path.basename(path) in journaled:
                continue  # already rejected above
            try:
                ckpt = load_checkpoint(path)
            except CheckpointError as exc:
                self._skip(path, str(exc))
                skipped.append((path, str(exc)))
                continue
            REGISTRY.counter(
                "gem_checkpoint_loads_total", help="checkpoints loaded"
            ).inc()
            return RecoveredCheckpoint(checkpoint=ckpt, path=path, skipped=skipped)
        return None

    def latest(self) -> Checkpoint | None:
        """Newest loadable checkpoint, or ``None`` if there is none."""
        recovered = self.recover()
        return recovered.checkpoint if recovered is not None else None


def resolve_resume(
    target: str | bool, checkpoint_dir: str | None = None
) -> RecoveredCheckpoint:
    """Resolve a ``--resume`` target to a verified checkpoint.

    ``target`` is ``True``/``"latest"`` (newest valid snapshot in
    ``checkpoint_dir``), a checkpoint *directory* (newest valid snapshot
    there, journal-guided), or an exact ``.gemk`` *file*.  Raises
    :class:`CheckpointError` when nothing valid can be resolved — the
    CLI maps that to its corrupt-resume exit code instead of silently
    restarting from cycle 0.
    """
    if target is True or target == "latest":
        if not checkpoint_dir:
            raise CheckpointError("--resume latest requires a checkpoint directory")
        directory = checkpoint_dir
    elif isinstance(target, str) and os.path.isdir(target):
        directory = target
    elif isinstance(target, str):
        ckpt = load_checkpoint(target)  # raises CheckpointError on corruption
        return RecoveredCheckpoint(checkpoint=ckpt, path=target, skipped=[])
    else:
        raise CheckpointError(f"unusable resume target {target!r}")
    recovered = CheckpointManager(directory).recover()
    if recovered is None:
        raise CheckpointError(
            f"no valid checkpoint to resume from in {directory!r}"
        )
    return recovered
