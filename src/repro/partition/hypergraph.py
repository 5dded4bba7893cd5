"""Weighted hypergraph container for partitioning.

Vertices are ``0..n-1`` with integer weights; each net (hyperedge) is a
tuple of distinct vertices with an integer weight.  The CSR arrays the C
partitioner loops read (:mod:`repro.partition.kernel`) are built once,
the first time they are asked for, and the incidence lists from them;
:meth:`Hypergraph.add_net` drops both, and a graph is not otherwise
changed after that.  A graph of :meth:`Hypergraph.from_arrays` keeps its
arrays and spells its nets out as tuples only when a Python loop reads
:attr:`Hypergraph.nets`.
"""

from __future__ import annotations

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


class Hypergraph:
    """A vertex- and net-weighted hypergraph."""

    def __init__(
        self,
        vertex_weight: list[int],
        nets: Iterable[tuple[int, ...]] = (),
        net_weight: Iterable[int] = (),
    ) -> None:
        self.vertex_weight = vertex_weight
        self._nets: list[tuple[int, ...]] | None = list(nets)
        self.net_weight = list(net_weight)
        self._incidence: list[list[int]] | None = None
        self._arrays: HypergraphArrays | None = None
        if len(self._nets) != len(self.net_weight):
            raise ValueError("nets and net_weight must have equal length")
        for net in self._nets:
            if not net or len(set(net)) != len(net):
                raise ValueError(f"net {net} has duplicate pins or none")
            if not all(0 <= v < self.num_vertices for v in net):
                raise ValueError(f"net {net}: pin out of range")

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
        graph = cls(vertex_weight=vertex_weight.tolist())
        graph._nets = None  # spelled out from the arrays when first read
        graph.net_weight = net_weight.tolist()
        graph._arrays = _with_incidence(vertex_weight, net_start, pins, net_weight)
        return graph

    @property
    def nets(self) -> list[tuple[int, ...]]:
        """Each net's pins, as a tuple."""
        if self._nets is None:
            self._nets = list(map(tuple, _rows(self._arrays.net_start, self._arrays.pins)))
        return self._nets

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weight)

    @property
    def num_nets(self) -> int:
        return len(self.net_weight)

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
            self._incidence = _rows(self.arrays().inc_start, self.arrays().inc)
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
        arrays = self.arrays()
        if not self.num_nets:
            return 0  # reduceat cannot take no segments
        pin_parts = np.asarray(parts)[arrays.pins]
        starts = arrays.net_start[:-1]  # every net has a pin
        cut = np.minimum.reduceat(pin_parts, starts) != np.maximum.reduceat(pin_parts, starts)
        return int(arrays.net_weight[cut].sum())

    def connectivity_minus_one(self, parts: Sequence[int]) -> int:
        """The km1 objective: sum of (lambda - 1) * weight over nets.

        For replication-aided partitioning this equals the number of extra
        logic copies (each net is a bundle of shared nodes; a node used by
        ``lambda`` parts is instantiated ``lambda`` times).
        """
        arrays = self.arrays()
        part_of = np.asarray(parts, dtype=np.int64)
        k = int(part_of.max()) + 1 if part_of.size else 1
        net_of_pin = np.repeat(np.arange(self.num_nets, dtype=np.int64), np.diff(arrays.net_start))
        spans = np.unique(net_of_pin * k + part_of[arrays.pins]) // k
        lam = np.bincount(spans, minlength=self.num_nets)
        return int(((lam - 1) * arrays.net_weight).sum())

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
    # a stable sort of 16-bit keys is a radix sort, ~9x one of int64 keys
    keys = pins.astype(np.uint16) if n <= 1 << 16 else pins
    inc = net_of_pin[np.argsort(keys, kind="stable")]
    return HypergraphArrays(net_start, pins, inc_start, inc, net_weight, vertex_weight)


def _rows(start: np.ndarray, flat: np.ndarray) -> list[list[int]]:
    """The rows of a CSR pair as lists."""
    bounds, items = start.tolist(), flat.tolist()
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]
