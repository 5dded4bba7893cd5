"""Extended and-inverter graph (E-AIG), the paper's circuit format (Fig. 2).

An E-AIG contains:

* **AND** nodes over complementable edges (INVERT gates are edge attributes,
  the standard AIG encoding; the paper's fake ASIC library gives INV gates
  0 ps, so logic depth counts AND levels only);
* **FF** nodes — D flip-flops clocked by the single implicit clock;
* **RAM** blocks — the fixed native RAM type (13-bit address × 32-bit data
  by default) with one synchronous read port and one write port.  General
  behavioral RAMs are decomposed onto this type by
  :mod:`repro.core.ram_mapping`.

Edges are *literals*: ``lit = 2 * node + negated``.  Node 0 is the constant
false, so literal 0 is ``0`` and literal 1 is ``1``.

The class performs structural hashing and constant folding on construction
(``AND(x, 0) = 0``, ``AND(x, 1) = x``, ``AND(x, x) = x``,
``AND(x, ~x) = 0``), which is the first half of the depth-oriented synthesis
step; the rest lives in :mod:`repro.core.depth_opt`.

The format's bit-level simulator is
:class:`repro.simref.gate_sim.GateLevelSim`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

FALSE = 0  #: literal constant false
TRUE = 1  #: literal constant true


class NodeKind(enum.IntEnum):
    CONST = 0  # node 0 only
    PI = 1
    AND = 2
    FF = 3
    RAMRD = 4  # one bit of a RAM block's registered read data


def lit(node: int, neg: bool = False) -> int:
    """Build a literal from a node index and a complement flag."""
    return 2 * node + (1 if neg else 0)


def lit_node(literal: int) -> int:
    return literal >> 1


def lit_neg(literal: int) -> bool:
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    return literal ^ 1


@dataclass
class Ram:
    """One native RAM block instance.

    Ports are literal vectors into the same E-AIG.  Semantics per clock
    edge (matching :class:`repro.rtl.memory.Memory` read-first behaviour)::

        if wen: ram[waddr] <= wdata
        rdata  <= ram[raddr_old] if ren else rdata   # sampled before write

    ``rdata`` is exposed through ``data_nodes``: RAMRD nodes owned by this
    block, one per data bit.
    """

    index: int
    name: str
    addr_bits: int
    data_bits: int
    raddr: list[int] = field(default_factory=list)
    ren: int = TRUE
    waddr: list[int] = field(default_factory=list)
    wdata: list[int] = field(default_factory=list)
    wen: int = FALSE
    data_nodes: list[int] = field(default_factory=list)
    init: list[int] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return 1 << self.addr_bits

    def port_literals(self) -> list[int]:
        """All input literals consumed by this RAM block."""
        return [*self.raddr, self.ren, *self.waddr, *self.wdata, self.wen]


class EAIGArrays(NamedTuple):
    """An :class:`EAIG`'s per-node lists as read-only numpy arrays."""

    kind: np.ndarray  # int8 NodeKind
    fanin0: np.ndarray  # int64 literals
    fanin1: np.ndarray
    level: np.ndarray  # int64, ``level_of``


class EAIG:
    """Extended and-inverter graph with structural hashing.

    The strash is keyed by one int per AND, ``fanin0 << 32 | fanin1``
    (``fanin0 < fanin1``): no container per node for the collector to
    track.  The key is unique while every literal is below 2**32, so a
    graph holds fewer than 2**31 nodes; :meth:`check` raises beyond.
    """

    #: nodes a graph may hold: every literal fits the strash key's 32 bits
    MAX_NODES = 1 << 31

    #: the memo of :meth:`arrays` (a class default, so a pickle that never
    #: held one loads without it)
    _arrays: EAIGArrays | None = None

    def __init__(self, name: str = "eaig") -> None:
        self.name = name
        # Per-node parallel arrays (compact, cache-friendly for big graphs).
        self.kind: list[NodeKind] = [NodeKind.CONST]
        self.fanin0: list[int] = [FALSE]  # AND: literal a; FF: literal d
        self.fanin1: list[int] = [FALSE]  # AND: literal b
        self.aux: list[int] = [0]  # PI: input index; FF: init; RAMRD: packed ram/bit
        #: Incrementally maintained logic level per node (AND adds a level).
        self.level_of: list[int] = [0]
        self.names: dict[int, str] = {}
        self.pis: list[int] = []
        self.ffs: list[int] = []
        self.rams: list[Ram] = []
        self.outputs: list[tuple[str, int]] = []
        #: ``fanin0 << 32 | fanin1`` -> AND node, one entry per AND
        self._strash: dict[int, int] = {}
        #: FFs created before their d input is known (two-phase construction)
        self._pending_ffs: set[int] = set()

    # -- construction --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    def __getstate__(self) -> dict:
        # the array view is rebuilt on demand, never stored
        state = self.__dict__.copy()
        state.pop("_arrays", None)
        return state

    def _new_node(self, kind: NodeKind, aux: int = 0) -> int:
        """Append a source node (PI, FF or RAMRD), level 0; ANDs come from
        :meth:`add_and` and :meth:`extend_ands` only."""
        self._arrays = None
        node = len(self.kind)
        self.kind.append(kind)
        self.fanin0.append(FALSE)
        self.fanin1.append(FALSE)
        self.aux.append(aux)
        self.level_of.append(0)
        return node

    def add_pi(self, name: str | None = None) -> int:
        """Add a primary input; returns its (positive) literal."""
        node = self._new_node(NodeKind.PI, aux=len(self.pis))
        self.pis.append(node)
        if name:
            self.names[node] = name
        return lit(node)

    def add_and(self, a: int, b: int) -> int:
        """Add (or reuse) an AND node; returns the output literal.

        Applies constant folding and structural hashing, so the returned
        literal may refer to an existing node or a constant.
        """
        if a > b:
            a, b = b, a
        if a == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE
        key = a << 32 | b
        node = self._strash.get(key)
        if node is None:
            node = len(self.kind)
            self._strash[key] = node
            self._arrays = None
            self.kind.append(NodeKind.AND)
            self.fanin0.append(a)
            self.fanin1.append(b)
            self.aux.append(0)
            level_of = self.level_of
            level_a, level_b = level_of[a >> 1], level_of[b >> 1]
            level_of.append((level_a if level_a > level_b else level_b) + 1)
        return node << 1

    def extend_ands(self, fanin0: np.ndarray, fanin1: np.ndarray, levels: np.ndarray) -> None:
        """Append AND nodes as :meth:`add_and` would have made them one by
        one: each pair normalised (``fanin0 < fanin1``), not foldable, new
        to the strash and over earlier nodes, ``levels`` their
        ``level_of``.  The caller guarantees all of it (depth_opt's native
        rebuild hands over the int64 arrays ``gem_rebuild`` filled)."""
        self._arrays = None
        base, count = len(self.kind), len(fanin0)
        self.kind.extend([NodeKind.AND] * count)
        self.fanin0.extend(fanin0.tolist())
        self.fanin1.extend(fanin1.tolist())
        self.aux.extend([0] * count)
        self.level_of.extend(levels.tolist())
        keys = (fanin0 << 32 | fanin1).tolist()
        self._strash.update(zip(keys, range(base, base + count)))

    def add_or(self, a: int, b: int) -> int:
        return self.add_and(a ^ 1, b ^ 1) ^ 1

    def add_xor(self, a: int, b: int) -> int:
        x = self.add_and(a, b ^ 1)
        y = self.add_and(a ^ 1, b)
        return self.add_and(x ^ 1, y ^ 1) ^ 1

    def add_mux(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        if a == b:
            return a
        if sel == TRUE:
            return a
        if sel == FALSE:
            return b
        x = self.add_and(sel, a)
        y = self.add_and(sel ^ 1, b)
        return self.add_and(x ^ 1, y ^ 1) ^ 1

    def add_ff(self, init: int = 0, name: str | None = None) -> int:
        """Declare a flip-flop (d assigned later); returns its literal."""
        node = self._new_node(NodeKind.FF, aux=init)
        self.ffs.append(node)
        self._pending_ffs.add(node)
        if name:
            self.names[node] = name
        return lit(node)

    def set_ff_input(self, ff_literal: int, d: int) -> None:
        node = lit_node(ff_literal)
        if self.kind[node] is not NodeKind.FF:
            raise ValueError(f"node {node} is not a FF")
        if node not in self._pending_ffs:
            raise ValueError(f"FF {node} input already set")
        if lit_neg(ff_literal):
            raise ValueError("set_ff_input expects the positive FF literal")
        self.fanin0[node] = d
        self._arrays = None
        self._pending_ffs.discard(node)

    def add_ram(self, name: str, addr_bits: int, data_bits: int, init: Sequence[int] = ()) -> Ram:
        """Declare a native RAM block; ports are wired by the caller."""
        ram = Ram(index=len(self.rams), name=name, addr_bits=addr_bits, data_bits=data_bits, init=list(init))
        for bit in range(data_bits):
            node = self._new_node(NodeKind.RAMRD, aux=(ram.index << 8) | bit)
            ram.data_nodes.append(node)
        self.rams.append(ram)
        return ram

    def add_output(self, name: str, literal: int) -> None:
        self.outputs.append((name, literal))

    def check(self) -> None:
        """Validate completeness: no pending FFs, RAM ports fully wired,
        fewer than :attr:`MAX_NODES` nodes."""
        if self._pending_ffs:
            raise ValueError(f"{len(self._pending_ffs)} FFs have no d input")
        n = len(self.kind)
        if n >= self.MAX_NODES:
            raise ValueError(f"{n} nodes: the strash key holds fewer than {self.MAX_NODES}")
        for ram in self.rams:
            if len(ram.raddr) != ram.addr_bits or len(ram.waddr) != ram.addr_bits:
                raise ValueError(f"RAM {ram.name!r}: address ports incomplete")
            if len(ram.wdata) != ram.data_bits:
                raise ValueError(f"RAM {ram.name!r}: write data port incomplete")
            for literal in ram.port_literals():
                if lit_node(literal) >= n:
                    raise ValueError(f"RAM {ram.name!r}: dangling port literal {literal}")
        for _, literal in self.outputs:
            if lit_node(literal) >= n:
                raise ValueError(f"dangling output literal {literal}")

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> EAIGArrays:
        """``kind``, ``fanin0``, ``fanin1`` and ``level_of`` as read-only
        arrays, built on first use and kept until a node is added, an FF
        input set or :meth:`drop_arrays` called."""
        if self._arrays is None:
            n = len(self.kind)
            arrays = EAIGArrays(
                kind=np.fromiter(self.kind, dtype=np.int8, count=n),
                fanin0=np.array(self.fanin0, dtype=np.int64),
                fanin1=np.array(self.fanin1, dtype=np.int64),
                level=np.array(self.level_of, dtype=np.int64),
            )
            for arr in arrays:
                arr.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def drop_arrays(self) -> None:
        """Forget :meth:`arrays` until the next call: a compiled design
        does not hold the view its compile read."""
        self._arrays = None

    def num_gates(self) -> int:
        """Number of AND gates (the paper's '#E-AIG Gates' metric): every
        AND node comes from :meth:`add_and` and holds one strash entry."""
        return len(self._strash)

    def levels(self) -> list[int]:
        """Logic level per node: AND = 1 + max(inputs); sources = 0.

        Matches the paper's delay model (AND/OR = 1 ps, INV = 0 ps): only
        AND nodes add a level, inverters are free edge attributes.  An
        AND's fan-ins precede it and never change, so this is the
        incrementally kept ``level_of``.
        """
        return list(self.level_of)

    def lit_level(self, literal: int) -> int:
        """Incrementally tracked logic level of a literal's node."""
        return self.level_of[literal >> 1]

    def depth(self) -> int:
        """Maximum logic level over all nodes (the paper's '#Levels')."""
        return max(self.level_of)

    def level_histogram(self) -> dict[int, int]:
        """AND-gate count per logic level — exhibits the long tail (Obs. 4).

        Levels appear in the order of their first AND node."""
        arrays = self.arrays()
        levels = arrays.level[arrays.kind == NodeKind.AND]
        values, first, counts = np.unique(levels, return_index=True, return_counts=True)
        order = np.argsort(first)
        return dict(zip(values[order].tolist(), counts[order].tolist()))

    def state_roots(self) -> list[int]:
        """Literals that must be computed every cycle: FF inputs, RAM ports,
        and primary outputs.  These are the 'endpoints' partitioning uses."""
        roots = [self.fanin0[ff] for ff in self.ffs]
        for ram in self.rams:
            roots.extend(ram.port_literals())
        roots.extend(literal for _, literal in self.outputs)
        return roots

    def fanout_counts(self) -> np.ndarray:
        """Uses per node (int64): AND fan-ins, FF inputs, RAM ports and
        outputs."""
        arrays = self.arrays()
        is_and = arrays.kind == NodeKind.AND
        ports = [literal for ram in self.rams for literal in ram.port_literals()]
        ports.extend(literal for _, literal in self.outputs)
        literals = np.concatenate(
            (
                arrays.fanin0[is_and],
                arrays.fanin1[is_and],
                arrays.fanin0[arrays.kind == NodeKind.FF],
                np.array(ports, dtype=np.int64),
            )
        )
        return np.bincount(literals >> 1, minlength=len(self.kind))

    def cone(self, roots: Iterable[int]) -> set[int]:
        """Transitive combinational fan-in nodes of ``roots`` literals.

        Stops at PIs, FFs, RAMRDs and constants (state sources); the result
        contains only AND node indices, the replication unit of RepCut.
        """
        seen: set[int] = set()
        stack = [lit_node(r) for r in roots]
        while stack:
            node = stack.pop()
            if node in seen or self.kind[node] is not NodeKind.AND:
                continue
            seen.add(node)
            stack.append(lit_node(self.fanin0[node]))
            stack.append(lit_node(self.fanin1[node]))
        return seen

    def stats(self) -> dict:
        return {
            "name": self.name,
            "nodes": len(self.kind),
            "gates": self.num_gates(),
            "levels": self.depth(),
            "pis": len(self.pis),
            "ffs": len(self.ffs),
            "rams": len(self.rams),
            "outputs": len(self.outputs),
        }
