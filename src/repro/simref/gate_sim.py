"""Levelized gate-level batch simulator (the GL0AM stand-in).

GPU gate-level simulators (GCS, GATSPI, GL0AM, …) evaluate gates in
levelized batches: all gates of one logic level are independent, so each
batch is one data-parallel kernel of LUT queries.  This module implements
that execution model over the E-AIG with NumPy as the data-parallel
substrate:

* per cycle, levels are evaluated in order; each level is one vectorized
  gather-evaluate-scatter (one "kernel launch" + one synchronization);
* per-node toggle counts are tracked, because GL0AM's re-simulation
  acceleration makes its effective speed activity-dependent — the
  performance model uses the measured toggle rate the same way;
* source-bit changes (PI bits set, FF and RAM-data commits) are counted
  beside the AND toggles: their sum is the signal-event count of a
  zero-delay event-driven simulator (the commercial-tool stand-in of
  Table II, whose cost scales with ``events_per_cycle``).

It is the one bit-level simulator of the E-AIG, validated cycle-for-cycle
against the word-level golden :class:`repro.rtl.netlist.WordSim`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.eaig import NodeKind
from repro.core.synthesis import SynthesisResult


class GateLevelSim:
    """Full-cycle levelized gate-level evaluation of a synthesized design."""

    def __init__(self, synth: SynthesisResult) -> None:
        synth.eaig.check()
        self.synth = synth
        self.eaig = synth.eaig
        eaig = self.eaig
        n = len(eaig.kind)
        levels = eaig.levels()
        self.depth = max(levels) if levels else 0
        #: per level: (gate nodes, fanin0 node, fanin0 neg, fanin1 node, neg)
        self.level_batches: list[tuple[np.ndarray, ...]] = []
        by_level: dict[int, list[int]] = {}
        for node in range(n):
            if eaig.kind[node] is NodeKind.AND:
                by_level.setdefault(levels[node], []).append(node)
        for level in sorted(by_level):
            nodes = np.array(by_level[level], dtype=np.int64)
            f0 = np.array([eaig.fanin0[v] for v in by_level[level]], dtype=np.int64)
            f1 = np.array([eaig.fanin1[v] for v in by_level[level]], dtype=np.int64)
            self.level_batches.append(
                (nodes, f0 >> 1, (f0 & 1).astype(bool), f1 >> 1, (f1 & 1).astype(bool))
            )
        self.value = np.zeros(n, dtype=bool)
        for ff in eaig.ffs:
            self.value[ff] = bool(eaig.aux[ff])
        self.ram_words: list[list[int]] = []
        for ram in eaig.rams:
            words = list(ram.init) + [0] * (ram.depth - len(ram.init))
            self.ram_words.append(words[: ram.depth])
        self.cycle = 0
        self.total_toggles = 0
        #: AND toggles plus source-bit changes, over all cycles
        self.total_events = 0
        self.gates = eaig.num_gates()
        #: optional per-cycle observer called at the settled point (after
        #: the combinational settle, before the clock edge) — the same
        #: observation point as the packed-lane engines' probe tap, so
        #: tapped streams are comparable bit-for-bit.
        self.probe_hook = None
        self._settle()  # FF init values may imply non-zero logic

    def _settle(self) -> int:
        """Evaluate all levels; returns the number of gate toggles."""
        value = self.value
        toggles = 0
        for nodes, f0, n0, f1, n1 in self.level_batches:
            new = (value[f0] ^ n0) & (value[f1] ^ n1)
            toggles += int((value[nodes] != new).sum())
            value[nodes] = new
        return toggles

    def _lit(self, literal: int) -> bool:
        return bool(self.value[literal >> 1]) ^ bool(literal & 1)

    def _bits(self, literals) -> int:
        word = 0
        for i, literal in enumerate(literals):
            if self._lit(literal):
                word |= 1 << i
        return word

    def _commit(self, nodes: list[int], bits: list[bool]) -> int:
        """Set source ``nodes`` to ``bits``; returns how many changed."""
        new = np.array(bits, dtype=bool)
        changed = int((self.value[nodes] != new).sum())
        self.value[nodes] = new
        return changed

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        eaig = self.eaig
        given = inputs or {}
        pi_nodes: list[int] = []
        pi_bits: list[bool] = []
        for name, bits in self.synth.input_bits.items():
            word = given.get(name, 0)
            for i, literal in enumerate(bits):
                pi_nodes.append(literal >> 1)
                pi_bits.append(bool((word >> i) & 1))
        sources = self._commit(pi_nodes, pi_bits)
        toggles = self._settle()
        outs = self.outputs()
        if self.probe_hook is not None:
            self.probe_hook(self)
        # Clock edge.
        edge_nodes = list(eaig.ffs)
        edge_bits = [self._lit(eaig.fanin0[ff]) for ff in eaig.ffs]
        for ridx, ram in enumerate(eaig.rams):
            if self._lit(ram.ren):
                word = self.ram_words[ridx][self._bits(ram.raddr)]
                edge_nodes.extend(ram.data_nodes)
                edge_bits.extend(bool((word >> bit) & 1) for bit in range(len(ram.data_nodes)))
            if self._lit(ram.wen):
                self.ram_words[ridx][self._bits(ram.waddr)] = self._bits(ram.wdata)
        sources += self._commit(edge_nodes, edge_bits)
        toggles += self._settle()
        self.total_toggles += toggles
        self.total_events += toggles + sources
        self.cycle += 1
        return outs

    def outputs(self) -> dict[str, int]:
        return {name: self._bits(bits) for name, bits in self.synth.output_bits.items()}

    def run(self, stimuli: Iterable[Mapping[str, int]]) -> list[dict[str, int]]:
        return [self.step(vec) for vec in stimuli]

    @property
    def toggles_per_cycle(self) -> float:
        """Mean gate toggles per cycle (GL0AM's activity metric)."""
        return self.total_toggles / self.cycle if self.cycle else 0.0

    @property
    def events_per_cycle(self) -> float:
        """Mean signal events per cycle (the commercial tool's activity metric)."""
        return self.total_events / self.cycle if self.cycle else 0.0
