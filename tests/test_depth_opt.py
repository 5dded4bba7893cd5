"""Depth-oriented optimization (repro.core.depth_opt)."""

import numpy as np
import pytest

from repro.core.depth_opt import compact, depth_report, optimize, rebuild
from repro.core.eaig import EAIG, NodeKind
from repro.core.synthesis import synthesize
from repro.designs.openpiton_like import OpenPitonScale, build_openpiton_like
from repro.errors import GemError
from repro.fourstate.dualrail import to_dual_rail
from repro.harness.runner import DESIGNS
from repro.rtl import Netlist, WordSim
from repro.simref.gate_sim import GateLevelSim
from tests.helpers import lockstep, random_circuit, random_vectors


class TestDCE:
    def test_dead_nodes_removed(self):
        g = EAIG()
        a, b = g.add_pi(), g.add_pi()
        live = g.add_and(a, b)
        g.add_and(a, g.add_and(a, lit_not_b := b ^ 1))  # dead cone
        g.add_output("y", live)
        new = compact(g)
        assert new.num_gates() == 1

    def test_ram_port_logic_is_live(self):
        g = EAIG()
        ram = g.add_ram("m", 2, 2)
        a, b = g.add_pi(), g.add_pi()
        ram.raddr = [g.add_and(a, b), a]
        ram.waddr = [a, b]
        ram.wdata = [a, b]
        ram.wen = g.add_and(a, b)
        ram.ren = 1
        g.add_output("q", 2 * ram.data_nodes[0])
        new = compact(g)
        assert new.num_gates() == 1  # the shared AND survives once
        assert len(new.rams) == 1
        assert new.rams[0].init == ram.init


class TestBalance:
    def test_chain_becomes_tree(self):
        # A linear AND chain of 16 inputs has depth 15; balance -> depth 4.
        g = EAIG()
        acc = g.add_pi()
        for _ in range(15):
            acc = g.add_and(acc, g.add_pi())
        g.add_output("y", acc)
        assert g.depth() == 15
        new, _ = rebuild(g, balance=True)
        assert new.depth() == 4

    def test_balance_respects_fanout_boundaries(self):
        # A node with external fanout must still be computed (not absorbed).
        g = EAIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        mid = g.add_and(a, b)
        top = g.add_and(mid, c)
        g.add_output("mid", mid)
        g.add_output("top", top)
        new, _ = rebuild(g, balance=True)
        assert new.num_gates() == 2
        assert dict(new.outputs)["mid"] != dict(new.outputs)["top"]


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_optimize_preserves_behaviour(self, seed):
        circuit = random_circuit(seed + 10, n_ops=45, with_memory=True)
        word = WordSim(Netlist(circuit))
        optimized = GateLevelSim(optimize(synthesize(circuit)))
        lockstep({"word": word, "opt": optimized}, random_vectors(circuit, seed, 30))

    def test_optimize_never_increases_gates_or_depth(self):
        for seed in range(4):
            circuit = random_circuit(seed + 30, n_ops=50)
            base = synthesize(circuit)
            opt = optimize(base)
            assert opt.eaig.num_gates() <= base.eaig.num_gates()
            assert opt.eaig.depth() <= base.eaig.depth()

    def test_idempotent(self):
        circuit = random_circuit(77, n_ops=40)
        once = optimize(synthesize(circuit))
        twice = optimize(once)
        assert twice.eaig.num_gates() == once.eaig.num_gates()
        assert twice.eaig.depth() == once.eaig.depth()


class TestReport:
    def test_depth_report_fields(self):
        circuit = random_circuit(5, n_ops=40)
        report = depth_report(synthesize(circuit).eaig)
        assert report["gates"] == sum(report["histogram"].values())
        assert 0.0 <= report["frontier_fraction"] <= 1.0
        assert report["depth"] == max(report["histogram"])

    def test_long_tail_observation(self):
        """Observation 4 of the paper: most gates in the frontier levels."""
        circuit = random_circuit(123, n_ops=120)
        report = depth_report(synthesize(circuit).eaig)
        if report["depth"] >= 8:
            assert report["frontier_fraction"] > 0.25


# -- gem_rebuild against the Python loop ---------------------------------------

#: the registered designs, the cold benchmark's, a dual-rail one (4-state
#: compiles run depth_opt too) and generated ones with memory
REBUILD_CASES = [*sorted(DESIGNS), "openpiton3", "dual-rail", "random-3", "random-17", "random-41"]


@pytest.fixture(scope="module", params=REBUILD_CASES)
def synthesized(request) -> EAIG:
    case = request.param
    if case == "openpiton3":
        circuit = build_openpiton_like(OpenPitonScale(cores=3))
    elif case == "dual-rail":
        circuit = to_dual_rail(random_circuit(11, n_ops=60, n_regs=4, with_memory=True)).circuit
    elif case.startswith("random-"):
        circuit = random_circuit(int(case.split("-")[1]), n_ops=80, with_memory=True)
    else:
        circuit = DESIGNS[case].build()
    return synthesize(circuit).eaig


def _everything(eaig: EAIG, node_map: np.ndarray) -> dict:
    """What a rebuild makes, in the order it made it, and its node map."""
    return {
        "kind": eaig.kind,
        "fanin0": eaig.fanin0,
        "fanin1": eaig.fanin1,
        "aux": eaig.aux,
        "level_of": eaig.level_of,
        "names": list(eaig.names.items()),
        "strash": list(eaig._strash.items()),
        "pis": eaig.pis,
        "ffs": eaig.ffs,
        "rams": [vars(ram) for ram in eaig.rams],
        "outputs": eaig.outputs,
        "node_map": node_map.tolist(),
    }


@pytest.mark.usefixtures("native_loops")
class TestNativeMatchesPython:
    """``gem_rebuild`` makes the Python loop's graph node for node: the
    same ANDs in the same order, the same strash, the same node map."""

    @pytest.mark.parametrize("balance", [True, False])
    def test_same_graph(self, synthesized, balance, request):
        native = _everything(*rebuild(synthesized, balance))
        assert vars(synthesized).get("_arrays") is None, "the rebuild kept the old view"
        request.getfixturevalue("python_loops")
        python = _everything(*rebuild(synthesized, balance))
        for key, value in python.items():
            assert native[key] == value, key

    def test_same_graph_when_a_conjunction_meets_a_complement(self, request):
        """Balancing pairs the two shallowest leaves first, here ``a`` and
        ``~a``: ``add_and`` folds them to FALSE, and so must C."""
        g = EAIG()
        a, c, d = g.add_pi(), g.add_pi(), g.add_pi()
        shared = g.add_and(c, d)  # two fan-outs: a leaf one level up
        g.add_output("shared", shared)
        g.add_output("y", g.add_and(g.add_and(a, shared), a ^ 1))
        native = _everything(*rebuild(g, balance=True))
        request.getfixturevalue("python_loops")
        python = _everything(*rebuild(g, balance=True))
        assert native == python
        assert python["outputs"][1] == ("y", 0)

    @pytest.mark.parametrize("balance", [True, False])
    def test_same_error_for_an_unregistered_source(self, balance, request):
        g = EAIG()
        a = g.add_pi()
        stray = g._new_node(NodeKind.PI)  # a PI that g.pis does not list
        g.add_output("y", g.add_and(a, g.add_and(2 * stray, g.add_pi())))
        messages = []
        for loops in ("native_loops", "python_loops"):
            request.getfixturevalue(loops)
            with pytest.raises(GemError, match="unmapped non-AND node") as info:
                rebuild(g, balance)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"unmapped non-AND node {stray} ({NodeKind.PI})"
