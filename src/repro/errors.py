"""Typed exception hierarchy for the GEM reproduction.

Every failure the toolchain or runtime can signal derives from
:class:`GemError`, so callers (the resilience supervisor in
:mod:`repro.runtime.supervisor` above all) can distinguish *our* faults
from genuine programming errors and react: retry from a checkpoint,
degrade to a reference engine, or re-compile at a different granularity.

The hierarchy::

    GemError
    ├── BitstreamError        malformed / corrupted bitstream container
    ├── ConfigError           compile configuration outside the supported space
    ├── LaneConfigError       unsupported batch / lane-plane geometry, or
    │                         malformed per-lane stimulus arrays
    ├── BackendUnavailableError  requested execution backend cannot load
    ├── StateCorruptionError  runtime state failed an integrity check
    │   └── LaneDivergenceError   ...localized to specific stimulus lanes
    ├── CheckpointError       unusable checkpoint (corrupt, version skew,
    │                         or taken against a different bitstream)
    ├── GemTimeoutError       a watchdog deadline (wall clock or cycle
    │                         budget) expired before the run finished
    ├── ProbeError            a probe plan names nets the design lacks
    ├── UnmappableError       partition state demand exceeds core width
    └── PlacementStallError   a placement layer could not map a single node

:class:`BitstreamError`, :class:`ConfigError` and :class:`LaneConfigError`
additionally subclass :class:`ValueError` because those paths historically raised
bare ``ValueError``; existing ``except ValueError`` callers keep
working.  :class:`PlacementStallError` keeps :class:`RuntimeError` in its
bases for the same reason.
"""

from __future__ import annotations


class GemError(Exception):
    """Base class for every error raised by the GEM toolchain and runtime."""


class BitstreamError(GemError, ValueError):
    """The bitstream container is malformed, truncated, or corrupted.

    Raised at load time: bad magic/version, a failing per-section CRC32,
    an invalid opcode in the instruction stream, or a truncated section.
    """


class ConfigError(GemError, ValueError):
    """A compile configuration lies outside the supported space.

    Raised by ``GemConfig.validate()`` when a compile starts, e.g. for a
    boomerang ``width_log2`` whose fold constants do not fit one FOLD
    instruction — a rejection at the boundary instead of a crash deep in
    bitstream assembly.
    """


class LaneConfigError(GemError, ValueError, TypeError):
    """The batch / lane-plane geometry is unsupported, or lane data misfits it.

    Raised by :class:`repro.core.engine.ExecutionEngine` for a
    non-positive batch, a batch beyond 64 that is not a whole number of
    64-lane words, or a lane-plane word count past the engine limit; by
    the pack layer, on every stimulus entry point, for stimulus that
    does not fit the batch (wrong lane count, unknown input name on the
    array API, a value that is not an integer); and by a backend's
    ``run`` for a block it was not compiled for.  A :class:`ValueError` and
    a :class:`TypeError`: what those cases historically raised.
    """


class BackendUnavailableError(GemError):
    """The requested execution backend cannot be loaded.

    Raised by :func:`repro.core.backend.resolve_backend` for an unknown
    name, or — under ``strict=True`` — when the native cycle kernel has
    neither a C compiler nor a cached build to load; the message names
    the reason.  Callers that pass ``strict=False`` get the numpy
    fallback (logged once) instead of this error.
    """


class StateCorruptionError(GemError):
    """Runtime simulation state failed an integrity check.

    Raised by the scrubber when the interpreter's state digest or outputs
    diverge from the shadow engine — the signature of an SEU-style soft
    error in GPU memory.
    """


class LaneDivergenceError(StateCorruptionError):
    """State corruption localized to specific stimulus lanes.

    Raised by the lane-batched scrub when the per-lane state digests of
    primary and shadow disagree on a *proper subset* of the active lanes.
    The supervisor can then contain the fault by quarantining exactly
    those lanes instead of rolling the whole batch back.
    """

    def __init__(self, message: str, lanes: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        #: the diverging lane indices (sorted, never empty when raised
        #: by the scrubber)
        self.lanes = tuple(lanes)


class CheckpointError(GemError):
    """A checkpoint cannot be used.

    Covers corrupt or truncated checkpoint files, format-version skew,
    and checkpoints bound to a different bitstream than the one loaded.
    """


class GemTimeoutError(GemError):
    """A watchdog deadline expired before the run finished.

    Raised cooperatively by :class:`repro.runtime.watchdog.Deadline`
    checks at cycle boundaries when either the wall-clock budget or the
    executed-cycle budget is exhausted.  The supervisor treats it as a
    recoverable fault class: checkpoint retry under a tightened budget,
    then degradation — a hung run becomes an event, not a lost campaign.
    """

    def __init__(self, message: str, reason: str = "wall") -> None:
        super().__init__(message)
        #: ``"wall"`` (wall-clock budget) or ``"cycles"`` (cycle budget)
        self.reason = reason


class ProbeError(GemError, ValueError):
    """A probe plan cannot be resolved against the design.

    Raised by :func:`repro.obs.probe.build_probe_plan` when a requested
    net name or glob pattern matches nothing in the design's name maps
    (inputs, registers, outputs), or when a lane index is outside the
    batch.  Subclasses :class:`ValueError` for plain-CLI callers.
    """


class UnmappableError(GemError):
    """A partition's state demand exceeds the core width (paper §III-D).

    The mappability predicate of Algorithm 1: partition merging probes
    placements and catches this to reject a merge.
    """


class PlacementStallError(GemError, RuntimeError):
    """Algorithm 2 built a whole layer without mapping a single node.

    Every remaining node failed every attempt on an empty tree, so another
    layer would fail the same way; raised instead of looping.  Carries the
    partition's coordinates so a caller can re-partition around it.
    """

    def __init__(self, message: str, stage: int, index: int) -> None:
        super().__init__(message)
        self.stage = stage
        self.index = index
