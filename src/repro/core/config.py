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
    """Best-of-N refinement of boomerang placement
    (:func:`~repro.core.placement.refine_placement`).

    ``iterations == 0`` (the default) disables refinement entirely: the
    compile ships Algorithm 2's greedy placements, byte-identical to an
    unrefined one.  Otherwise each shipped placement is raced against
    ``iterations`` independent re-placements of its partition, each under
    a fresh per-node jitter of the Algorithm 2 criticality key (which
    reorders which nodes claim tree positions first), and the cheapest
    under :func:`~repro.core.placement.placement_cost` ships.  The jitter's
    magnitude and the share of nodes it touches are module constants of
    :mod:`repro.core.placement`.  All entropy comes from ``seed`` plus the
    partition's coordinates — no wall clock, no ``hash()`` — so the same
    seed reproduces the same placement bit-for-bit across processes.
    """

    iterations: int = 0
    seed: int = 0


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
    #: best-of-N placement refinement (iterations=0 disables)
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
        if self.partition.gates_per_partition < 1:
            raise ConfigError(
                f"gates_per_partition={self.partition.gates_per_partition} is below 1: "
                f"the partitioner sizes its partition count by dividing by it"
            )

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
