"""Depth-oriented E-AIG optimization (paper §III-B, second synthesis stage).

The paper's fake ASIC library (AND/OR = 1 ps, INV = 0 ps) makes commercial
timing-driven synthesis behave as a depth minimizer.  Our lowering in
:mod:`repro.core.synthesis` already builds log-depth operators, so this pass
plays the cleanup role the ASIC tool plays after elaboration:

* **dead-node elimination** — only logic reachable from flip-flop inputs,
  RAM ports and primary outputs survives (RAM adapters and speculative
  builder logic leave garbage behind);
* **re-strashing** — structural hashing across the whole graph after all
  construction, merging duplicates the incremental hash missed (e.g. nodes
  equal only after constant propagation);
* **tree balancing** — maximal single-fanout AND conjunctions are collected
  and rebuilt shallowest-first (ABC's ``balance`` with level-aware Huffman
  merging), reducing depth of chained conjunctions.

``optimize`` rebuilds a :class:`~repro.core.synthesis.SynthesisResult`
in place of the old one, preserving the word-level I/O binding, FF order,
and RAM blocks, so everything downstream (partitioning, placement,
simulation) is oblivious to whether optimization ran.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.eaig import EAIG, FALSE, NodeKind, lit_node
from repro.core.synthesis import SynthesisResult, reduce_tree
from repro.errors import GemError


def optimize(result: SynthesisResult, balance: bool = True) -> SynthesisResult:
    """DCE + re-strash (+ balance) a synthesized design."""
    old = result.eaig
    new, lit_map = rebuild(old, balance=balance)
    return replace(
        result,
        eaig=new,
        input_bits={k: [lit_map[l] for l in v] for k, v in result.input_bits.items()},
        output_bits={k: [lit_map[l] for l in v] for k, v in result.output_bits.items()},
    )


def compact(eaig: EAIG) -> EAIG:
    """DCE + re-strash only (no restructuring)."""
    return rebuild(eaig, balance=False)[0]


def rebuild(old: EAIG, balance: bool) -> tuple[EAIG, dict[int, int]]:
    """Rebuild ``old`` bottom-up from its roots.

    Returns the new graph and a literal translation map covering every
    literal that refers to a surviving (live) node plus all state nodes.
    """
    old.check()
    new = EAIG(old.name)
    node_map: dict[int, int] = {0: 0}  # old node -> new *positive literal*

    for idx, pi in enumerate(old.pis):
        node_map[pi] = new.add_pi(old.names.get(pi, f"pi{idx}"))
    for ff in old.ffs:
        node_map[ff] = new.add_ff(init=old.aux[ff], name=old.names.get(ff))
    for ram in old.rams:
        new_ram = new.add_ram(ram.name, ram.addr_bits, ram.data_bits, init=ram.init)
        for old_node, new_node in zip(ram.data_nodes, new_ram.data_nodes):
            node_map[old_node] = 2 * new_node

    fanout = old.fanout_counts() if balance else []

    def translate(literal: int) -> int:
        return node_map[literal >> 1] ^ (literal & 1)

    def conjunction_leaves(root: int) -> list[int]:
        """Maximal AND cone of ``root``: expand non-complemented,
        single-fanout AND fanins (ABC balance's collection rule)."""
        leaves: list[int] = []
        stack = [2 * root]
        while stack:
            literal = stack.pop()
            node = literal >> 1
            if (
                literal & 1 == 0
                and old.kind[node] is NodeKind.AND
                and (node == root or fanout[node] == 1)
            ):
                stack.append(old.fanin0[node])
                stack.append(old.fanin1[node])
            else:
                leaves.append(literal)
        return leaves

    def build(root_literal: int) -> None:
        """Iterative post-order construction of one cone."""
        stack: list[tuple[int, bool]] = [(root_literal >> 1, False)]
        while stack:
            node, expanded = stack.pop()
            if node in node_map:
                continue
            kind = old.kind[node]
            if kind is not NodeKind.AND:
                raise GemError(f"unmapped non-AND node {node} ({kind})")
            if balance:
                leaves = conjunction_leaves(node)
                if expanded:
                    new_leaves = [translate(l) for l in leaves]
                    node_map[node] = _tree_and_signed(new, new_leaves)
                else:
                    stack.append((node, True))
                    stack.extend((l >> 1, False) for l in leaves)
            else:
                if expanded:
                    node_map[node] = new.add_and(
                        translate(old.fanin0[node]), translate(old.fanin1[node])
                    )
                else:
                    stack.append((node, True))
                    stack.append((old.fanin0[node] >> 1, False))
                    stack.append((old.fanin1[node] >> 1, False))

    roots: list[int] = []
    for ff in old.ffs:
        roots.append(old.fanin0[ff])
    for ram in old.rams:
        roots.extend(ram.port_literals())
    roots.extend(literal for _, literal in old.outputs)
    for root in roots:
        build(root)

    for ff in old.ffs:
        new.set_ff_input(node_map[ff], translate(old.fanin0[ff]))
    for ram, new_ram in zip(old.rams, new.rams):
        new_ram.raddr = [translate(l) for l in ram.raddr]
        new_ram.ren = translate(ram.ren)
        new_ram.waddr = [translate(l) for l in ram.waddr]
        new_ram.wdata = [translate(l) for l in ram.wdata]
        new_ram.wen = translate(ram.wen)
    for name, literal in old.outputs:
        new.add_output(name, translate(literal))
    new.check()

    lit_map: dict[int, int] = {}
    for old_node, new_pos in node_map.items():
        lit_map[2 * old_node] = new_pos
        lit_map[2 * old_node + 1] = new_pos ^ 1
    return new, lit_map


def _tree_and_signed(eaig: EAIG, leaves: list[int]) -> int:
    """Level-aware AND reduction returning a *positive* literal mapping.

    The conjunction value may strash to a complemented literal (e.g. when it
    folds to a constant); callers store node mappings as positive literals,
    so encode the result literal directly.
    """
    if not leaves:
        return 1  # empty conjunction is TRUE; map node to constant literal
    result = reduce_tree(eaig, leaves, eaig.add_and, empty=FALSE)
    return result


def depth_report(eaig: EAIG) -> dict:
    """Depth/size snapshot used by benchmarks and EXPERIMENTS.md."""
    hist = eaig.level_histogram()
    depth = max(hist) if hist else 0
    gates = sum(hist.values())
    # Long-tail metric (paper Observation 4): fraction of gates in the
    # shallowest quarter of levels.
    frontier = sum(count for lvl, count in hist.items() if lvl <= max(1, depth // 4))
    return {
        "gates": gates,
        "depth": depth,
        "frontier_fraction": frontier / gates if gates else 0.0,
        "histogram": hist,
    }
