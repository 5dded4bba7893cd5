"""Every knob of the compile flow, in a module that imports none of it.

:class:`GemConfig` is the identity of a compile — its :meth:`~GemConfig.digest`
keys the compile cache — so a run that reads a compiled design back needs
it without the flow behind it.  The per-phase knob classes live here with
it; the flow modules that consume them re-export them under their old
names (``repro.core.synthesis.SynthesisConfig`` and so on).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.core.isa import MAX_STATE_BITS, MAX_WIDTH_LOG2
from repro.errors import ConfigError


@dataclass
class RamMappingConfig:
    """Native RAM block shape (the paper's 13-bit address × 32-bit data)."""

    addr_bits: int = 13
    data_bits: int = 32


@dataclass
class SynthesisConfig:
    """Knobs for the synthesis step."""

    ram: RamMappingConfig = field(default_factory=RamMappingConfig)


@dataclass
class PartitionConfig:
    """Partitioning knobs (defaults follow the paper's architecture)."""

    #: bits of block state per virtual Boolean processor core
    width: int = 8192
    #: target live gates per partition before merging (Algorithm 1 merges
    #: excessive partitions back together, so this errs small)
    gates_per_partition: int = 3072
    #: overpartitioning factor for Algorithm 1's "partition excessively"
    overpartition: float = 1.5
    #: number of RepCut stages; None = auto heuristic
    num_stages: int | None = None
    #: allowed relative imbalance inside the hypergraph partitioner
    epsilon: float = 0.1
    seed: int = 0
    max_net_pins: int = 128


@dataclass(frozen=True)
class RefineConfig:
    """Simulated-annealing refinement of boomerang placement.

    ``iterations == 0`` (the default) disables refinement entirely and keeps
    :func:`~repro.core.placement.place_partition` byte-identical to the
    unrefined pass.  All entropy comes from ``seed`` plus the partition's
    coordinates — no wall clock, no ``hash()`` — so the same seed
    reproduces the same placement bit-for-bit across processes.

    Each SA move perturbs the placement *inputs* rather than the placement
    itself: a per-node jitter added to the Algorithm 2 criticality key
    reorders which nodes claim tree positions first, and a per-node level
    promotion places a node one tree level deeper than its local logic level,
    so it is tried earlier in the root-down level loop (a node that fails at
    its promoted level waits for the next layer).  The full placement pass
    re-runs under the perturbation; candidates are accepted on a layer-count
    + writeback-traffic cost (see :func:`~repro.core.placement.placement_cost`).
    """

    iterations: int = 0
    seed: int = 0
    #: initial temperature in layer-count units (wb traffic is fractional)
    initial_temp: float = 0.5
    cooling: float = 0.9
    #: magnitude of the uniform criticality jitter per perturbed node
    jitter: float = 1.5
    #: probability a move toggles a level promotion instead of jittering
    promote_prob: float = 0.25
    #: fraction of the partition's nodes perturbed per move
    move_frac: float = 0.125


@dataclass(frozen=True)
class BoomerangConfig:
    """Shape of the virtual Boolean processor core."""

    #: log2 of the leaf width; the paper's core folds 8192 bits (2^13)
    width_log2: int = 13
    #: state bits per core; defaults to the leaf width (the paper keeps
    #: "up to 8192 bits of circuit states" per core)
    state_bits: int | None = None

    def validate(self) -> None:
        """Reject a core the ISA cannot program, or one too small to place
        a single AND (checked when a compile starts, see
        ``GemConfig.validate``)."""
        if not 1 <= self.width_log2 <= MAX_WIDTH_LOG2:
            raise ConfigError(
                f"width_log2={self.width_log2} is outside [1, {MAX_WIDTH_LOG2}]: "
                f"the fold constants of a wider core do not fit one FOLD "
                f"instruction, so bitstream assembly cannot emit it"
            )
        if self.state_bits is not None and not 4 <= self.state_bits <= MAX_STATE_BITS:
            raise ConfigError(
                f"state_bits={self.state_bits} is outside [4, {MAX_STATE_BITS}]: a core "
                f"needs the constant slot, two sources and one writeback, and a "
                f"writeback addresses at most {MAX_STATE_BITS} slots"
            )

    @property
    def width(self) -> int:
        return 1 << self.width_log2

    @property
    def state_size(self) -> int:
        return self.state_bits if self.state_bits is not None else self.width

    @property
    def threads(self) -> int:
        """GPU threads per block (256 threads × 32 bits = 8192 lanes)."""
        return max(1, self.width // 32)


@dataclass
class GemConfig:
    """All knobs of the compile flow in one place."""

    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    boomerang: BoomerangConfig = field(default_factory=BoomerangConfig)
    #: run the depth-optimization cleanup after lowering
    optimize: bool = True
    #: halve gates_per_partition and retry when a base partition is
    #: unmappable (the paper's flow tunes partition granularity similarly)
    max_partition_retries: int = 3
    #: simulated-annealing placement refinement (iterations=0 disables)
    refine: RefineConfig = field(default_factory=RefineConfig)
    #: Algorithm 1 aggressiveness: max merge candidates probed per base
    #: partition (None = unlimited, 0 = no merging)
    merge_limit: int | None = None

    def __post_init__(self) -> None:
        # The partitioner's width budget must match the processor's state.
        self.partition.width = self.boomerang.state_size

    def validate(self) -> None:
        """Reject knob values the flow cannot compile, with a typed
        :class:`~repro.errors.ConfigError`, before any work is done."""
        self.boomerang.validate()

    def knob_dict(self) -> dict:
        """Canonical JSON-friendly dump of every effective knob.

        This (not ``repr``) is the identity of a compile: cache keys and
        bitstream metadata derive from it via :meth:`digest`.
        """
        return asdict(self)

    def digest(self) -> str:
        """Stable hex digest of the effective knobs (sorted-key JSON)."""
        payload = json.dumps(self.knob_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
