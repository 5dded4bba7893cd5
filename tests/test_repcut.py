"""Replication-aided partitioning (repro.partition.repcut)."""

from repro.core.eaig import EAIG, NodeKind, lit_not
from repro.partition.repcut import (
    cone_masks,
    cone_signatures,
    repcut_partition,
    signature_hypergraph,
)


def _diamond() -> tuple[EAIG, list[list[int]], dict]:
    """Two endpoints sharing a middle cone:

        a b     c d
         \\|     |/
          x     y
           \\   /
            s        (shared)
           / \\
          e1  e2     (endpoint roots: AND(s,x), AND(s,y))
    """
    g = EAIG()
    a, b, c, d = (g.add_pi() for _ in range(4))
    x = g.add_and(a, b)
    y = g.add_and(c, d)
    s = g.add_and(x, y)
    e1 = g.add_and(s, x)
    e2 = g.add_and(s, lit_not(y))
    nodes = {"x": x >> 1, "y": y >> 1, "s": s >> 1, "e1": e1 >> 1, "e2": e2 >> 1}
    return g, [[e1], [e2]], nodes


class TestConeMasks:
    def test_membership(self):
        g, groups, n = _diamond()
        masks = cone_masks(g, groups)
        assert masks[n["e1"]] == 0b01
        assert masks[n["e2"]] == 0b10
        assert masks[n["s"]] == 0b11  # shared
        assert masks[n["x"]] == 0b11  # via s and via e1
        assert masks[n["y"]] == 0b11

    def test_source_flags_truncate(self):
        g, groups, n = _diamond()
        flags = [False] * len(g.kind)
        flags[n["s"]] = True  # pretend s is published by an earlier stage
        masks = cone_masks(g, groups, source_flags=flags)
        assert masks[n["s"]] == 0
        assert masks[n["x"]] == 0b01  # only via e1 now
        assert masks[n["y"]] == 0b10

    def test_state_sources_never_masked(self):
        g, groups, _ = _diamond()
        masks = cone_masks(g, groups)
        for pi in g.pis:
            assert masks[pi] == 0


class TestSharingHypergraph:
    def test_nets_from_signatures(self):
        g, groups, n = _diamond()
        sigs = cone_signatures(g, groups)
        graph = signature_hypergraph(2, sigs)
        # signature 0b11 holds x, y, s -> one net of weight 3.
        shared = sigs.signature[sigs.nodes.tolist().index(n["s"])]
        assert sigs.count[shared] == 3
        assert graph.num_nets == 1
        assert graph.net_weight[0] == 3

    def test_vertex_weights_are_cone_sizes(self):
        g, groups, _ = _diamond()
        graph = signature_hypergraph(2, cone_signatures(g, groups))
        # Each group's cone has 4 nodes, plus base weight 1.
        assert graph.vertex_weight == [5, 5]

    def test_huge_nets_dropped(self):
        g, groups, _ = _diamond()
        # four groups that each hold both endpoints: every node is in all four cones
        sigs = cone_signatures(g, [groups[0] + groups[1]] * 4)
        assert sigs.count.tolist() == [5]
        assert signature_hypergraph(4, sigs, max_net_pins=3).num_nets == 0
        assert signature_hypergraph(4, sigs, max_net_pins=4).num_nets == 1


class TestRepCut:
    def test_split_duplicates_shared_cone(self):
        g, groups, n = _diamond()
        result = repcut_partition(g, groups, k=2)
        # The two endpoints land apart; shared nodes s, x, y are duplicated.
        assert sorted(result.assignment) == [0, 1]
        assert result.total_nodes == 5
        assert result.replicated_nodes == 3
        assert abs(result.replication_cost - 3 / 5) < 1e-9

    def test_single_partition_no_replication(self):
        g, groups, _ = _diamond()
        result = repcut_partition(g, groups, k=1)
        assert result.replication_cost == 0.0
        assert len(result.part_nodes[0]) == 5

    def test_every_group_assigned(self):
        g, groups, _ = _diamond()
        result = repcut_partition(g, groups, k=2)
        assert sorted(v for part in result.part_groups for v in part) == [0, 1]

    def test_part_nodes_cover_cones(self):
        g, groups, _ = _diamond()
        result = repcut_partition(g, groups, k=2)
        for gi, literals in enumerate(groups):
            part = result.assignment[gi]
            part_nodes = set(result.part_nodes[part])
            assert g.cone(literals) <= part_nodes

    def test_replication_grows_with_k(self):
        """The paper's Fig. 5 premise: replication cost rises with
        partition count."""
        import random

        from tests.helpers import random_circuit
        from repro.core.synthesis import synthesize
        from repro.core.partition import build_endpoint_groups

        circuit = random_circuit(3, n_ops=80, n_regs=8)
        eaig = synthesize(circuit).eaig
        groups = [g.roots for g in build_endpoint_groups(eaig)]
        costs = []
        for k in (1, 2, 4, 8):
            result = repcut_partition(eaig, groups, k=k, seed=1)
            costs.append(result.replication_cost)
        assert costs[0] == 0.0
        assert costs[-1] >= costs[1]
