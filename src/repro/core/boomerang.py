"""The boomerang-shaped executor layer (paper §III-A, Fig. 3).

A boomerang layer operates on the block state of a virtual Boolean
processor core (8192 bits by default).  Executing one layer means:

1. **gather** — a bit permutation loads ``width`` leaf bits from state
   (shared memory) positions given by ``perm``; ``-1`` loads the constant-0
   slot;
2. **fold** — ``width_log2`` fold steps; step ``l`` halves the vector by
   combining adjacent pairs ``(a, b) = (v[2i], v[2i+1])`` into::

       out[i] = (a ^ XOR.A[l][i]) & ((b ^ XOR.B[l][i]) | OR.B[l][i])

   ``XOR.A``/``XOR.B`` realize the AIG's INVERT edges; ``OR.B = 1``
   bypasses operand ``b`` so the position passes ``a ^ XOR.A`` through —
   the dashed routes of Fig. 6(4);
3. **writeback** — after fold step ``l``, positions carrying placed AIG
   node values are stored back to allocated state slots.

A single layer can therefore realize up to ``width_log2`` consecutive AIG
levels between synchronizations, which is the mechanism behind the paper's
">5× fewer permutations/synchronizations" claim (Fig. 3) reproduced in
``benchmarks/test_fig3_boomerang_ablation.py``.

This module holds the data model plus a NumPy reference executor; the
bit-exact bitstream interpreter in :mod:`repro.core.interpreter` uses the
same semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.isa import MAX_WIDTH_LOG2
from repro.errors import ConfigError


@dataclass(frozen=True)
class BoomerangConfig:
    """Shape of the virtual Boolean processor core."""

    #: log2 of the leaf width; the paper's core folds 8192 bits (2^13)
    width_log2: int = 13
    #: state bits per core; defaults to the leaf width (the paper keeps
    #: "up to 8192 bits of circuit states" per core)
    state_bits: int | None = None

    def validate(self) -> None:
        """Reject a core the ISA cannot program (checked when a compile
        starts, see ``GemConfig.validate``)."""
        if not 1 <= self.width_log2 <= MAX_WIDTH_LOG2:
            raise ConfigError(
                f"width_log2={self.width_log2} is outside [1, {MAX_WIDTH_LOG2}]: "
                f"the fold constants of a wider core do not fit one FOLD "
                f"instruction, so bitstream assembly cannot emit it"
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
class Layer:
    """One placed boomerang layer, ready to execute."""

    config: BoomerangConfig
    #: state slot per leaf; -1 means "load constant 0"
    perm: np.ndarray
    #: per fold step (index 0 = first fold), bool vectors of halving sizes
    xor_a: list[np.ndarray] = field(default_factory=list)
    xor_b: list[np.ndarray] = field(default_factory=list)
    or_b: list[np.ndarray] = field(default_factory=list)
    #: per fold step, list of (position, state slot) stores
    writebacks: list[list[tuple[int, int]]] = field(default_factory=list)

    @classmethod
    def empty(cls, config: BoomerangConfig) -> "Layer":
        width = config.width
        layer = cls(config=config, perm=np.full(width, -1, dtype=np.int32))
        size = width // 2
        for _ in range(config.width_log2):
            layer.xor_a.append(np.zeros(size, dtype=bool))
            layer.xor_b.append(np.zeros(size, dtype=bool))
            # Default bypass: unoccupied positions pass operand a unchanged.
            layer.or_b.append(np.ones(size, dtype=bool))
            layer.writebacks.append([])
            size //= 2
        return layer

    def num_writebacks(self) -> int:
        return sum(len(w) for w in self.writebacks)

    def execute(self, state: np.ndarray) -> None:
        """Run gather → folds → writebacks over a bool state vector."""
        gather = np.where(self.perm >= 0, self.perm, 0)
        vec = state[gather]
        vec[self.perm < 0] = False
        for step in range(self.config.width_log2):
            a = vec[0::2]
            b = vec[1::2]
            vec = (a ^ self.xor_a[step]) & ((b ^ self.xor_b[step]) | self.or_b[step])
            for pos, slot in self.writebacks[step]:
                state[slot] = vec[pos]


def count_layer_work(layers: list[Layer]) -> dict:
    """Per-cycle work metrics for one partition's layer list.

    These counts feed the GPU performance model: each layer is one shared
    memory permutation plus ``width_log2`` fold steps, with one intra-block
    synchronization per layer (the quantity Fig. 3 is about).
    """
    if not layers:
        return {"layers": 0, "permutations": 0, "fold_steps": 0, "writebacks": 0}
    return {
        "layers": len(layers),
        "permutations": len(layers),
        "fold_steps": sum(layer.config.width_log2 for layer in layers),
        "writebacks": sum(layer.num_writebacks() for layer in layers),
    }
