"""Canonical flat netlist plus the golden word-level simulator.

:class:`Netlist` wraps an elaborated :class:`~repro.rtl.ir.Circuit` with the
derived structure every downstream consumer needs: a topological order of the
combinational ops, logic levels, fanout maps and cycle detection.

:class:`WordSim` is the *golden model* of the whole repository: a direct
Python-integer evaluation of the word-level netlist, independent of the
E-AIG synthesis path.  The other cycle simulators (the gate-level
:class:`~repro.simref.gate_sim.GateLevelSim` and the GEM interpreter itself)
are tested cycle-for-cycle against it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Mapping

from repro.rtl.ir import Circuit, Op, OpKind, Signal
from repro.rtl.memory import Memory


class CombinationalLoopError(ValueError):
    """Raised when the design contains a combinational cycle."""


def _mask(width: int) -> int:
    return (1 << width) - 1


#: Op kinds whose output is state or external, i.e. not produced by the
#: current cycle's combinational evaluation.
_SOURCE_KINDS = frozenset({OpKind.INPUT, OpKind.CONST, OpKind.REG})


def _comb_deps(op: Op) -> tuple[Signal, ...]:
    """Input signals that ``op`` combinationally depends on."""
    if op.kind in _SOURCE_KINDS:
        return ()
    if op.kind is OpKind.MEMRD and op.attrs["sync"]:
        return ()  # registered read data: a state source
    return op.inputs


class Netlist:
    """Topologically ordered view of a circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.memories: dict[str, Memory] = {m.name: m for m in circuit.memories}
        self.order: list[Op] = self._toposort()
        self.level: dict[int, int] = self._levelize()

    # -- structure -----------------------------------------------------------

    def _toposort(self) -> list[Op]:
        """Kahn topological sort of combinational ops; sources first."""
        circuit = self.circuit
        indeg: dict[int, int] = {}
        consumers: dict[int, list[Op]] = {}
        comb_ops: list[Op] = []
        for op in circuit.ops:
            deps = _comb_deps(op)
            if op.kind in _SOURCE_KINDS or (op.kind is OpKind.MEMRD and op.attrs["sync"]):
                continue
            comb_ops.append(op)
            indeg[op.out.uid] = 0
            for sig in deps:
                producer = circuit.producer.get(sig.uid)
                if producer is not None and _comb_deps(producer):
                    pass  # counted below via consumers
        # Build consumer edges between combinational ops only.
        comb_set = {op.out.uid for op in comb_ops}
        for op in comb_ops:
            for sig in _comb_deps(op):
                if sig.uid in comb_set:
                    consumers.setdefault(sig.uid, []).append(op)
                    indeg[op.out.uid] += 1
        ready = deque(op for op in comb_ops if indeg[op.out.uid] == 0)
        order: list[Op] = []
        while ready:
            op = ready.popleft()
            order.append(op)
            for nxt in consumers.get(op.out.uid, ()):
                indeg[nxt.out.uid] -= 1
                if indeg[nxt.out.uid] == 0:
                    ready.append(nxt)
        if len(order) != len(comb_ops):
            stuck = [op for op in comb_ops if indeg[op.out.uid] > 0]
            names = ", ".join(op.out.name for op in stuck[:5])
            raise CombinationalLoopError(
                f"combinational cycle involving {len(stuck)} ops (e.g. {names})"
            )
        return order

    def _levelize(self) -> dict[int, int]:
        """Word-level logic level per signal uid (sources at level 0)."""
        level: dict[int, int] = {}
        for op in self.circuit.ops:
            if not _comb_deps(op):
                level[op.out.uid] = 0
        for op in self.order:
            level[op.out.uid] = 1 + max(
                (level.get(sig.uid, 0) for sig in _comb_deps(op)), default=0
            )
        return level

    @property
    def depth(self) -> int:
        """Maximum word-level combinational depth."""
        return max(self.level.values(), default=0)

    def fanout(self) -> dict[int, int]:
        """Number of consumers per signal uid (memories count port uses)."""
        counts: dict[int, int] = {}
        for op in self.circuit.ops:
            for sig in op.inputs:
                counts[sig.uid] = counts.get(sig.uid, 0) + 1
        for mem in self.circuit.memories:
            for wp in mem.write_ports:
                for sig in (wp.en, wp.addr, wp.data):
                    counts[sig.uid] = counts.get(sig.uid, 0) + 1
            for rp in mem.read_ports:
                counts[rp.addr.uid] = counts.get(rp.addr.uid, 0) + 1
                if rp.en is not None:
                    counts[rp.en.uid] = counts.get(rp.en.uid, 0) + 1
        for _, sig in self.circuit.outputs:
            counts[sig.uid] = counts.get(sig.uid, 0) + 1
        return counts

    def stats(self) -> dict:
        s = self.circuit.stats()
        s["comb_ops"] = len(self.order)
        s["word_depth"] = self.depth
        return s


def _evaluate(op: Op, get: Callable[[Signal], int]) -> int:
    """Evaluate one combinational op given operand values."""
    kind = op.kind
    w = op.out.width
    if kind is OpKind.AND:
        return get(op.inputs[0]) & get(op.inputs[1])
    if kind is OpKind.OR:
        return get(op.inputs[0]) | get(op.inputs[1])
    if kind is OpKind.XOR:
        return get(op.inputs[0]) ^ get(op.inputs[1])
    if kind is OpKind.NOT:
        return ~get(op.inputs[0]) & _mask(w)
    if kind is OpKind.ADD:
        return (get(op.inputs[0]) + get(op.inputs[1])) & _mask(w)
    if kind is OpKind.SUB:
        return (get(op.inputs[0]) - get(op.inputs[1])) & _mask(w)
    if kind is OpKind.MUL:
        return (get(op.inputs[0]) * get(op.inputs[1])) & _mask(w)
    if kind is OpKind.EQ:
        return int(get(op.inputs[0]) == get(op.inputs[1]))
    if kind is OpKind.LT:
        return int(get(op.inputs[0]) < get(op.inputs[1]))
    if kind is OpKind.MUX:
        sel, a, b = op.inputs
        return get(a) if get(sel) else get(b)
    if kind is OpKind.REDAND:
        return int(get(op.inputs[0]) == _mask(op.inputs[0].width))
    if kind is OpKind.REDOR:
        return int(get(op.inputs[0]) != 0)
    if kind is OpKind.REDXOR:
        return bin(get(op.inputs[0])).count("1") & 1
    if kind is OpKind.SHLI:
        return (get(op.inputs[0]) << op.attrs["amount"]) & _mask(w)
    if kind is OpKind.SHRI:
        return get(op.inputs[0]) >> op.attrs["amount"]
    if kind is OpKind.SHL:
        amount = get(op.inputs[1])
        return (get(op.inputs[0]) << amount) & _mask(w) if amount < w else 0
    if kind is OpKind.SHR:
        amount = get(op.inputs[1])
        return get(op.inputs[0]) >> amount if amount < w else 0
    if kind is OpKind.SLICE:
        return (get(op.inputs[0]) >> op.attrs["lo"]) & _mask(w)
    if kind is OpKind.CONCAT:
        value = 0
        shift = 0
        for sig in op.inputs:
            value |= get(sig) << shift
            shift += sig.width
        return value
    raise NotImplementedError(f"cannot evaluate {kind}")


class WordSim:
    """Golden word-level cycle simulator.

    ``step(inputs)`` evaluates one full clock cycle: combinational settle,
    then clock edge (register update, memory writes, synchronous read-port
    sampling with read-first semantics).  Returns a dict of output values.
    """

    def __init__(self, netlist: Netlist, trap_write_conflicts: bool = False) -> None:
        self.netlist = netlist
        self.circuit = netlist.circuit
        self.trap_write_conflicts = trap_write_conflicts
        self.values: dict[int, int] = {}
        self.mem_state: dict[str, list[int]] = {
            m.name: m.initial_words() for m in self.circuit.memories
        }
        #: sync read-port output values: (mem name, port index) -> int
        self.sync_rd: dict[tuple[str, int], int] = {}
        for mem in self.circuit.memories:
            for i, rp in enumerate(mem.read_ports):
                if rp.sync:
                    self.sync_rd[(mem.name, i)] = 0
        for op in self.circuit.ops:
            if op.kind is OpKind.REG:
                self.values[op.out.uid] = op.attrs.get("init", 0)
            elif op.kind is OpKind.CONST:
                self.values[op.out.uid] = op.attrs["value"]
        self.cycle = 0

    def _get(self, sig: Signal) -> int:
        return self.values[sig.uid]

    def settle(self, inputs: Mapping[str, int]) -> None:
        """Drive inputs and propagate combinational values (no clock edge)."""
        values = self.values
        by_name = {s.name: s for s in self.circuit.inputs}
        # Undriven inputs read as 0 this cycle (consistent across all the
        # simulators in this repository, which compare cycle-for-cycle).
        for sig in self.circuit.inputs:
            values[sig.uid] = 0
        for name, value in inputs.items():
            sig = by_name.get(name)
            if sig is None:
                raise KeyError(f"unknown input {name!r}")
            if value >> sig.width:
                raise ValueError(f"input {name!r}: value {value} does not fit in {sig.width} bits")
            values[sig.uid] = value
        # Publish sync read data (state) before combinational eval.
        for mem in self.circuit.memories:
            for i, rp in enumerate(mem.read_ports):
                if rp.sync:
                    values[rp.data.uid] = self.sync_rd[(mem.name, i)]
        get = self._get
        for op in self.netlist.order:
            if op.kind is OpKind.MEMRD:  # asynchronous read port
                mem = self.netlist.memories[op.attrs["memory"]]
                addr = get(op.inputs[0]) % mem.depth
                values[op.out.uid] = self.mem_state[mem.name][addr]
            else:
                values[op.out.uid] = _evaluate(op, get)

    def clock_edge(self) -> None:
        """Apply one rising clock edge to all state elements."""
        get = self._get
        # Sample register inputs before any update.
        reg_next = [(op.out.uid, get(op.inputs[0])) for op in self.circuit.ops if op.kind is OpKind.REG]
        # Sample sync read ports (read-first: before writes of this edge).
        new_sync_rd: dict[tuple[str, int], int] = {}
        for mem in self.circuit.memories:
            words = self.mem_state[mem.name]
            for i, rp in enumerate(mem.read_ports):
                if not rp.sync:
                    continue
                if rp.en is not None and not get(rp.en):
                    new_sync_rd[(mem.name, i)] = self.sync_rd[(mem.name, i)]
                else:
                    new_sync_rd[(mem.name, i)] = words[get(rp.addr) % mem.depth]
        # Apply memory writes.
        for mem in self.circuit.memories:
            words = self.mem_state[mem.name]
            written: set[int] = set()
            for wp in mem.write_ports:
                if get(wp.en):
                    addr = get(wp.addr) % mem.depth
                    if self.trap_write_conflicts and addr in written:
                        raise RuntimeError(f"memory {mem.name!r}: write conflict at address {addr}")
                    written.add(addr)
                    words[addr] = get(wp.data)
        # Commit registers.
        for uid, value in reg_next:
            self.values[uid] = value
        self.sync_rd = new_sync_rd
        self.cycle += 1

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        """Run one full clock cycle and return the circuit outputs."""
        self.settle(inputs or {})
        outs = self.outputs()
        self.clock_edge()
        return outs

    def outputs(self) -> dict[str, int]:
        """Current (settled) output values."""
        return {name: self.values[sig.uid] for name, sig in self.circuit.outputs}

    def peek(self, sig: Signal) -> int:
        """Read any settled signal value (for debugging and tests)."""
        return self.values[sig.uid]

    def run(self, stimuli: Iterable[Mapping[str, int]]) -> list[dict[str, int]]:
        """Run a sequence of input vectors, returning outputs per cycle."""
        return [self.step(vec) for vec in stimuli]
