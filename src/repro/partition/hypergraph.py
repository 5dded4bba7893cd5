"""Weighted hypergraph container for partitioning.

Vertices are ``0..n-1`` with integer weights; each net (hyperedge) is a
tuple of distinct vertices with an integer weight.  The structures are kept
as flat lists for speed — these graphs reach tens of thousands of pins for
the larger benchmark designs.  The incidence lists and the CSR arrays the
C partitioner loops read (:mod:`repro.partition.kernel`) are built once,
the first time either is asked for; :meth:`Hypergraph.add_net` drops them,
and a graph is not otherwise changed after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class HypergraphArrays(NamedTuple):
    """A :class:`Hypergraph` as ``int64`` CSR arrays."""

    net_start: np.ndarray  # nets: pins[net_start[e]:net_start[e + 1]]
    pins: np.ndarray
    inc_start: np.ndarray  # vertex -> incident nets, ascending
    inc: np.ndarray
    net_weight: np.ndarray
    vertex_weight: np.ndarray


@dataclass
class Hypergraph:
    """A vertex- and net-weighted hypergraph."""

    vertex_weight: list[int]
    nets: list[tuple[int, ...]] = field(default_factory=list)
    net_weight: list[int] = field(default_factory=list)
    _incidence: list[list[int]] | None = field(default=None, init=False, repr=False, compare=False)
    _arrays: HypergraphArrays | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_arrays(
        cls,
        vertex_weight: np.ndarray,
        net_start: np.ndarray,
        pins: np.ndarray,
        net_weight: np.ndarray,
    ) -> Hypergraph:
        """The graph of trusted CSR arrays (distinct, in-range pins), which
        it keeps as its :meth:`arrays`."""
        flat = pins.tolist()
        bounds = net_start.tolist()
        graph = cls(vertex_weight=vertex_weight.tolist())
        graph.nets = [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
        graph.net_weight = net_weight.tolist()
        graph._arrays = _with_incidence(vertex_weight, net_start, pins, net_weight)
        return graph

    def __post_init__(self) -> None:
        if len(self.nets) != len(self.net_weight):
            raise ValueError("nets and net_weight must have equal length")
        n = self.num_vertices
        for net in self.nets:
            if len(set(net)) != len(net):
                raise ValueError(f"net {net} has duplicate pins")
            for v in net:
                if not 0 <= v < n:
                    raise ValueError(f"net pin {v} out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weight)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def total_weight(self) -> int:
        return sum(self.vertex_weight)

    def add_net(self, pins: Iterable[int], weight: int = 1) -> None:
        pins = tuple(dict.fromkeys(pins))
        if len(pins) < 2:
            return  # single-pin nets can never be cut
        self.nets.append(pins)
        self.net_weight.append(weight)
        self._incidence = self._arrays = None

    def incidence(self) -> list[list[int]]:
        """Vertex -> list of incident net indices, ascending (built once;
        callers do not change it)."""
        if self._incidence is None:
            inc: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for e, net in enumerate(self.nets):
                for v in net:
                    inc[v].append(e)
            self._incidence = inc
        return self._incidence

    def arrays(self) -> HypergraphArrays:
        """The graph as CSR arrays, incidence in :meth:`incidence`'s order
        (built once)."""
        if self._arrays is None:
            sizes = np.fromiter(map(len, self.nets), dtype=np.int64, count=self.num_nets)
            net_start = np.zeros(self.num_nets + 1, dtype=np.int64)
            np.cumsum(sizes, out=net_start[1:])
            pins = np.fromiter(
                chain.from_iterable(self.nets), dtype=np.int64, count=int(net_start[-1])
            )
            if pins.size and not 0 <= pins.min() <= pins.max() < self.num_vertices:
                raise ValueError("net pin out of range")  # add_net does not check
            self._arrays = _with_incidence(
                np.array(self.vertex_weight, dtype=np.int64),
                net_start,
                pins,
                np.array(self.net_weight, dtype=np.int64),
            )
        return self._arrays

    def cut_weight(self, parts: Sequence[int]) -> int:
        """Total weight of nets spanning more than one part."""
        total = 0
        for net, w in zip(self.nets, self.net_weight):
            first = parts[net[0]]
            if any(parts[v] != first for v in net[1:]):
                total += w
        return total

    def connectivity_minus_one(self, parts: Sequence[int]) -> int:
        """The km1 objective: sum of (lambda - 1) * weight over nets.

        For replication-aided partitioning this equals the number of extra
        logic copies (each net is a bundle of shared nodes; a node used by
        ``lambda`` parts is instantiated ``lambda`` times).
        """
        total = 0
        for net, w in zip(self.nets, self.net_weight):
            lam = len({parts[v] for v in net})
            total += (lam - 1) * w
        return total

    def part_weights(self, parts: Sequence[int], k: int) -> list[int]:
        weights = [0] * k
        for v, p in enumerate(parts):
            weights[p] += self.vertex_weight[v]
        return weights


def _with_incidence(
    vertex_weight: np.ndarray, net_start: np.ndarray, pins: np.ndarray, net_weight: np.ndarray
) -> HypergraphArrays:
    """CSR arrays plus the incidence: a stable sort of the pins by vertex
    keeps each vertex's nets in ascending order."""
    n, m = vertex_weight.size, net_weight.size
    net_of_pin = np.repeat(np.arange(m, dtype=np.int64), np.diff(net_start))
    inc_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pins, minlength=n), out=inc_start[1:])
    inc = net_of_pin[np.argsort(pins, kind="stable")]
    return HypergraphArrays(net_start, pins, inc_start, inc, net_weight, vertex_weight)
