"""ISA-literal reference interpreter: the executable spec of docs/ISA.md.

:class:`~repro.core.interpreter.GemInterpreter` evaluates a cycle through
the stage-fused executor, which constant-folds, dedups and reschedules
the program at load.  This class evaluates the *same decoded bitstream*
the way the ISA reads — block by block, instruction by instruction:

* INIT — the block's local state starts the cycle at zero;
* READ — ``local[slots] = global[gidx] ^ inv``;
* per boomerang layer: PERM gathers ``2**eff`` local slots, each FOLD
  step halves the vector with ``(a ^ XA) & ((b ^ XB) | OB)``, WB stores
  selected fold positions back into local state;
* GWRITE — immediate writes land in global state at once (later stages
  of the cycle see them), deferred writes are queued for the commit;
* RAMOP — the block's RAM ports, on its local state
  (:meth:`~repro.core.engine.ExecutionEngine.ram_port`, the one numpy
  port the numpy backend also runs);
* a device-wide synchronization after every stage;
* at the cycle boundary the queued writes land in ISA order.

It runs the very :class:`~repro.core.interpreter.LoadedProgram` the
executor runs (:func:`~repro.core.interpreter.load_program`: container
parse and checks, decode, I/O plans) over a
:class:`~repro.core.interpreter.SimState` of its own, and subclasses the
production interpreter for everything that is not evaluation — the pack
layer, blocks, checkpoints, probes — supplying only the block entry a
backend's compiled cycle otherwise serves (:meth:`_run_block`): it
resolves no backend and compiles no cycle.  Work counters are
accumulated dynamically, instruction by instruction, so agreeing with
the executor's static per-cycle deltas is itself a check.

Slow by construction (thousands of tiny NumPy dispatches per cycle); it
exists to be compared against: the differential tests, the fuzz oracle's
``legacy`` engine and :class:`repro.extensions.pruning.PruningGemInterpreter`
(which hooks :meth:`_run_partition`) all run it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.bitstream import GemProgram
from repro.core.interpreter import GemInterpreter, _DecodedPartition, load_program


class ReferenceInterpreter(GemInterpreter):
    """Evaluate every partition's instruction stream literally."""

    mode = "reference"
    backend = None

    def __init__(self, program: GemProgram, batch: int = 1, profile: bool = False) -> None:
        self._bind(load_program(program, batch), profile)
        self._sample(self.loaded.po_gidx)
        # work is counted as it is done; the two dispatch counts are the
        # program's, not the runner's: kept so counters compare field by field
        self._static = tuple(kv for kv in self._static if kv[0] in ("array_ops", "fused_array_ops"))
        #: block-local state, one vector per partition (shared memory)
        self._locals = [self.engine.zeros(p.state_slots) for p in self.loaded.partitions]

    def _run_block(self, n: int, pi_block: np.ndarray, po_block: np.ndarray, times) -> int:
        """The block entry (:meth:`repro.core.backend.ArrayBackend.compile_cycle`)
        over the per-partition loop; its dynamic writes are already counted."""
        gstate, merge = self.global_state, self.engine.merge
        partitions = self.loaded.partitions
        for c in range(n):
            gstate[self.loaded.pi_gidx] = pi_block[c]
            t0 = time.perf_counter()
            #: this cycle's deferred (gidx, values, lane mask | None) scatters, in ISA order
            deferred: list[tuple[np.ndarray, np.ndarray, np.uint64 | None]] = []
            for stage_parts in self.loaded.stage_indices:
                for idx in stage_parts:
                    deferred.extend(self._run_partition(partitions[idx], self._locals[idx]))
                self.counters.device_syncs += 1
            t1 = time.perf_counter()
            po_block[c] = gstate[self._sample_rows]  # the settled point
            for gidx, values, mask in deferred:
                merge(gstate, gidx, values, mask)
            if times is not None:
                times["fold"] += t1 - t0
                times["commit"] += time.perf_counter() - t1
        return 0

    def _run_partition(
        self, part: _DecodedPartition, local: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.uint64 | None]]:
        """Execute one block; returns its deferred (gidx, values, lane
        mask) scatters (mask ``None`` = unconditional commit)."""
        gstate = self.global_state
        local[:] = 0
        if part.read_gidx.size:
            local[part.read_slots] = gstate[part.read_gidx] ^ part.read_inv
        counters = self.counters
        fold_step = self.engine.fold_step
        for layer in part.layers:
            vec = local[layer.gather]
            for step in range(layer.eff_width_log2):
                vec = fold_step(vec, layer.xor_a[step], layer.xor_b[step], layer.or_b[step])
                positions, slots = layer.writebacks[step]
                if positions.size:
                    local[slots] = vec[positions]
            counters.fold_steps += layer.eff_width_log2
            counters.permutation_bits += layer.gather.size
        counters.layer_syncs += len(part.layers)

        deferred: list[tuple[np.ndarray, np.ndarray, np.uint64 | None]] = []
        slots, inv, gidx = part.gw_now
        if gidx.size:
            gstate[gidx] = local[slots] ^ inv
        slots, inv, gidx = part.gw_deferred
        if gidx.size:
            deferred.append((gidx, local[slots] ^ inv, None))
        for op in part.ramops:
            read = self.engine.ram_port(op, local, self.ram_arrays[op.spec.ram_index])
            if read is not None:
                deferred.append(read)
                counters.global_writes += op.spec.data_bits
        counters.global_reads += int(part.read_gidx.size)
        counters.global_writes += int(part.gw_now[2].size + part.gw_deferred[2].size)
        counters.instruction_words += part.instruction_words
        return deferred
