"""Multi-stage partitioning of whole designs (repro.core.partition)."""

import pytest

from repro.core.eaig import NodeKind, lit_node
from repro.core.partition import (
    PartitionConfig,
    _live,
    _max_need_level,
    build_endpoint_groups,
    choose_cut_levels,
    compute_sources,
    partition_design,
)
from repro.core.synthesis import synthesize
from repro.errors import GemError
from repro.rtl import CircuitBuilder
from tests.helpers import random_circuit


def _design(seed=1, n_ops=80):
    return synthesize(random_circuit(seed, n_ops=n_ops, n_regs=6, with_memory=True)).eaig


class TestEndpointGroups:
    def test_groups_cover_everything(self):
        eaig = _design()
        groups = build_endpoint_groups(eaig)
        kinds = {}
        for g in groups:
            kinds[g.kind] = kinds.get(g.kind, 0) + 1
        assert kinds.get("ff", 0) == len(eaig.ffs)
        assert kinds.get("ram", 0) == len(eaig.rams)
        assert kinds.get("po", 0) >= 1

    def test_ram_groups_keep_all_ports(self):
        eaig = _design()
        for g in build_endpoint_groups(eaig):
            if g.kind == "ram":
                ram = eaig.rams[g.ram_index]
                assert set(g.roots) == set(ram.port_literals())

    def test_po_groups_by_word(self):
        eaig = _design()
        po_names = {g.po_name for g in build_endpoint_groups(eaig) if g.kind == "po"}
        expected = {name.rsplit("[", 1)[0] for name, _ in eaig.outputs}
        assert po_names == expected


class TestCutLevels:
    def test_single_stage_no_cuts(self):
        eaig = _design()
        assert choose_cut_levels(eaig, build_endpoint_groups(eaig), 1) == []

    def test_two_stage_cut_in_range(self):
        eaig = _design(seed=4, n_ops=120)
        cuts = choose_cut_levels(eaig, build_endpoint_groups(eaig), 2)
        if cuts:  # shallow designs may decline to cut
            assert 1 <= cuts[0] < eaig.depth()

    def test_cuts_are_increasing(self):
        eaig = _design(seed=5, n_ops=150)
        cuts = choose_cut_levels(eaig, build_endpoint_groups(eaig), 3)
        assert cuts == sorted(set(cuts))


class TestArrayPasses:
    """The numpy passes over ``eaig.arrays()`` against their per-node
    definitions."""

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_live_need_and_sources(self, seed):
        eaig = _design(seed=seed, n_ops=120)
        groups = build_endpoint_groups(eaig)
        roots = [r for g in groups for r in g.roots]
        live = _live(eaig.arrays(), [lit_node(r) for r in roots])
        assert set(live.nonzero()[0].tolist()) == eaig.cone(roots)
        level = eaig.level_of
        need = [0] * len(eaig)
        for node, kind in enumerate(eaig.kind):
            if kind is NodeKind.AND and live[node]:
                for fanin in (eaig.fanin0[node], eaig.fanin1[node]):
                    need[lit_node(fanin)] = max(need[lit_node(fanin)], level[node])
        for g in groups:
            glevel = max((level[lit_node(r)] for r in g.roots), default=0)
            for r in g.roots:
                need[lit_node(r)] = max(need[lit_node(r)], glevel)
        assert _max_need_level(eaig, groups, live).tolist() == need
        for spec in partition_design(eaig, PartitionConfig(gates_per_partition=100)).partitions:
            local = set(spec.nodes)
            reads = {lit_node(f) for n in spec.nodes for f in (eaig.fanin0[n], eaig.fanin1[n])}
            reads |= {lit_node(r) for r in spec.root_literals()}
            expected = sorted(reads - local - {0})
            assert spec.sources == expected
            spec.sources = []
            compute_sources(eaig, spec)
            assert spec.sources == expected


class TestPartitionDesign:
    @pytest.mark.parametrize("stages", [1, 2])
    def test_plan_validates(self, stages):
        eaig = _design(seed=7, n_ops=100)
        plan = partition_design(
            eaig, PartitionConfig(gates_per_partition=300, num_stages=stages)
        )
        plan.validate()  # raises on any ownership/source violation
        assert plan.num_partitions >= 1

    def test_every_gate_owned_somewhere(self):
        eaig = _design(seed=8)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=300))
        owned = set()
        for spec in plan.partitions:
            owned.update(spec.nodes)
        # Every live gate (reachable from endpoints) is owned; dead gates
        # need not be.
        live = eaig.cone(eaig.state_roots())
        assert live <= owned

    def test_stage_sources_only_from_earlier_stages(self):
        eaig = _design(seed=9, n_ops=140)
        plan = partition_design(
            eaig, PartitionConfig(gates_per_partition=200, num_stages=2)
        )
        published_by_stage: dict[int, set[int]] = {}
        for spec in plan.partitions:
            published_by_stage.setdefault(spec.stage, set()).update(spec.cut_nodes)
        for spec in plan.partitions:
            for src in spec.sources:
                if eaig.kind[src] is NodeKind.AND:
                    earlier = set()
                    for s in range(spec.stage):
                        earlier |= published_by_stage.get(s, set())
                    assert src in earlier

    def test_multi_stage_reduces_replication_on_shared_designs(self):
        """Fig. 5's effect: staging cuts replication at high partition
        counts (checked loosely: staged cost must not explode)."""
        eaig = _design(seed=10, n_ops=200)
        one = partition_design(
            eaig, PartitionConfig(gates_per_partition=150, num_stages=1, overpartition=1.0)
        )
        two = partition_design(
            eaig, PartitionConfig(gates_per_partition=150, num_stages=2, overpartition=1.0)
        )
        # Small random circuits only show the effect weakly (the full-size
        # demonstration is benchmarks/test_fig5_repcut_stages.py); here we
        # only require staging not to blow the cost up.
        assert two.replication_cost() <= one.replication_cost() * 1.5 + 0.05

    def test_stats_shape(self):
        eaig = _design(seed=11)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=400))
        stats = plan.stats()
        assert stats["partitions"] == plan.num_partitions
        assert len(stats["stage_partitions"]) == stats["stages"]

    def test_replication_cost_nonnegative(self):
        eaig = _design(seed=12)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=250))
        assert plan.replication_cost() >= 0.0


class TestValidateRaisesGemError:
    """A plan that breaks an invariant is a typed error, not an
    ``AssertionError``: it is the check between a partitioner bug and a
    bitstream."""

    def _plan(self):
        eaig = _design(seed=7, n_ops=100)
        plan = partition_design(eaig, PartitionConfig(gates_per_partition=300))
        assert plan.num_partitions >= 2
        return plan

    def test_doubly_owned_ff(self):
        plan = self._plan()
        owner = next(p for p in plan.partitions if p.ff_nodes)
        other = next(p for p in plan.partitions if p is not owner)
        ff = next(g for g in owner.groups if g.kind == "ff")
        other.groups.append(ff)
        with pytest.raises(GemError, match=f"FF {ff.ff_node} owned twice"):
            plan.validate()

    def test_unresolved_source(self):
        plan = self._plan()
        spec = next(p for p in plan.partitions if p.sources and p.nodes)
        local = set(spec.nodes)
        read = {
            lit_node(f)
            for n in spec.nodes
            for f in (plan.eaig.fanin0[n], plan.eaig.fanin1[n])
        } - local - {0}
        spec.sources = [s for s in spec.sources if s not in read]
        with pytest.raises(GemError, match="neither local nor a source"):
            plan.validate()


class TestTrivialDesigns:
    def test_pure_combinational(self):
        b = CircuitBuilder()
        x = b.input("x", 8)
        y = b.input("y", 8)
        b.output("z", x + y)
        eaig = synthesize(b.build()).eaig
        plan = partition_design(eaig, PartitionConfig())
        plan.validate()
        assert plan.num_partitions == 1

    def test_wire_only_design(self):
        b = CircuitBuilder()
        x = b.input("x", 4)
        b.output("y", x)
        eaig = synthesize(b.build()).eaig
        plan = partition_design(eaig, PartitionConfig())
        plan.validate()
