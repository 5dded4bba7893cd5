"""FM refinement and multilevel k-way partitioning."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.eaig import NodeKind
from repro.core.synthesis import synthesize
from repro.fuzz.designgen import generate_design
from repro.partition import fm, kernel, multilevel
from repro.partition.fm import refine_bipartition
from repro.partition.hypergraph import Hypergraph
from repro.partition.multilevel import bisect, coarsen, partition_kway
from repro.partition.repcut import (
    cone_masks,
    cone_signatures,
    repcut_partition,
    signature_hypergraph,
)


def _two_clusters(n_per_side=12, cross_nets=2, seed=0) -> Hypergraph:
    """Two dense clusters joined by a few weak nets: the planted optimum
    is the cluster boundary."""
    rng = random.Random(seed)
    n = 2 * n_per_side
    g = Hypergraph(vertex_weight=[1] * n)
    for side in (0, 1):
        base = side * n_per_side
        for _ in range(4 * n_per_side):
            a, b = rng.sample(range(base, base + n_per_side), 2)
            g.add_net([a, b], weight=3)
    for _ in range(cross_nets):
        g.add_net([rng.randrange(n_per_side), n_per_side + rng.randrange(n_per_side)], weight=1)
    return g


class TestFM:
    def test_improves_bad_start(self):
        g = _two_clusters()
        n = g.num_vertices
        # Interleaved start: terrible cut.
        parts = [v % 2 for v in range(n)]
        start_cut = g.cut_weight(parts)
        final = refine_bipartition(g, parts, [n, n])
        assert final < start_cut
        assert final <= 2  # planted boundary weight

    def test_respects_balance_bound(self):
        g = _two_clusters()
        n = g.num_vertices
        parts = [v % 2 for v in range(n)]
        cap = n // 2 + 1
        refine_bipartition(g, parts, [cap, cap])
        weights = g.part_weights(parts, 2)
        assert max(weights) <= cap

    def test_no_nets_is_noop(self):
        g = Hypergraph(vertex_weight=[1] * 4)
        parts = [0, 1, 0, 1]
        assert refine_bipartition(g, parts, [4, 4]) == 0


class TestCoarsen:
    def test_weight_preserved(self):
        g = _two_clusters()
        coarse, vmap = coarsen(g, random.Random(0))
        assert coarse.total_weight == g.total_weight
        assert len(vmap) == g.num_vertices
        assert coarse.num_vertices < g.num_vertices

    def test_net_projection(self):
        g = Hypergraph(vertex_weight=[1] * 4)
        g.add_net([0, 1], weight=2)
        g.add_net([2, 3], weight=2)
        g.add_net([0, 2], weight=1)
        coarse, vmap = coarsen(g, random.Random(1))
        # Any surviving net must have >= 2 distinct coarse pins.
        for net in coarse.nets:
            assert len(net) >= 2


class TestBisect:
    def test_finds_planted_cut(self):
        g = _two_clusters(n_per_side=16)
        parts = bisect(g, rng=random.Random(3))
        assert g.cut_weight(parts) <= 2

    def test_weight_fraction(self):
        g = Hypergraph(vertex_weight=[1] * 30)
        for i in range(29):
            g.add_net([i, i + 1])
        parts = bisect(g, weight_fraction0=1 / 3, epsilon=0.15, rng=random.Random(0))
        w0 = sum(1 for p in parts if p == 0)
        assert 6 <= w0 <= 14  # about a third, with slack


class TestKway:
    def test_all_parts_used(self):
        g = _two_clusters(n_per_side=16)
        parts = partition_kway(g, 4)
        assert set(parts) == {0, 1, 2, 3}

    def test_k_one(self):
        g = _two_clusters()
        assert set(partition_kway(g, 1)) == {0}

    def test_k_larger_than_n(self):
        g = Hypergraph(vertex_weight=[1, 1, 1])
        parts = partition_kway(g, 8)
        assert len(parts) == 3
        assert all(0 <= p < 8 for p in parts)

    def test_deterministic_for_seed(self):
        g = _two_clusters(seed=5)
        assert partition_kway(g, 4, seed=9) == partition_kway(g, 4, seed=9)

    def test_balance_roughly_even(self):
        g = Hypergraph(vertex_weight=[1] * 64)
        rng = random.Random(2)
        for _ in range(200):
            a, b = rng.sample(range(64), 2)
            g.add_net([a, b])
        parts = partition_kway(g, 4, epsilon=0.1)
        weights = g.part_weights(parts, 4)
        assert max(weights) <= 1.5 * (64 / 4)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_kway(Hypergraph(vertex_weight=[1]), 0)


# -- the C loops against the Python ones ---------------------------------------


def _random_graph(seed: int, n: int, m: int) -> Hypergraph:
    """Vertex weights 1–50; nets of 2–140 pins (wider than the 16 pins
    matching reads, and around RepCut's 128-pin net limit); one net in
    eight repeated with its pins reversed, so contraction merges it."""
    rng = random.Random(seed)
    g = Hypergraph(vertex_weight=[rng.randint(1, 50) for _ in range(n)])
    for _ in range(m):
        size = min(n, rng.choice([2, 2, 2, 3, 3, 4, 6, 9, 16, 17, 40, 127, 128, 129, 140]))
        pins = rng.sample(range(n), size)
        g.add_net(pins, weight=rng.randint(1, 12))
        if rng.random() < 0.125:
            g.add_net(pins[::-1], weight=rng.randint(1, 12))
    return g


#: (seed, vertices, nets): a graph with no nets, small and coarsening-sized
#: ones, and some with more nets than vertices
_GRAPHS = [(0, 40, 0), (1, 2, 1), (2, 30, 25), (3, 150, 200), (4, 260, 180), (5, 320, 500)]


def _random_groups(eaig, count, seed):
    """``count`` endpoint groups of 1–4 root literals over every node kind.
    Group 0 roots on the constant, 1 on a PI, 2 on an FF and 3 on a RAM
    read bit (where the design has one): cones that are empty.  One group
    in twenty has no roots at all, and one in ten roots only on sources."""
    rng = random.Random(seed)
    of_kind = {kind: [n for n in range(len(eaig)) if eaig.kind[n] is kind] for kind in NodeKind}
    sources = [n for kind, nodes in of_kind.items() if kind is not NodeKind.AND for n in nodes]
    groups = [[2 * nodes[0] + 1] for kind, nodes in of_kind.items() if kind is not NodeKind.AND and nodes]
    groups = groups[:count]
    while len(groups) < count:
        draw = rng.random()
        pool = sources if draw < 0.1 else of_kind[NodeKind.AND] + sources
        size = 0 if draw > 0.95 else rng.randint(1, 4)
        groups.append([2 * rng.choice(pool) + rng.randrange(2) for _ in range(size)])
    return groups


def _signature_masks(sigs):
    """Each signature of a :class:`ConeSignatures` as a big-int mask."""
    bounds = sigs.pin_start.tolist()
    return [sum(1 << g for g in sigs.pins[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def _graph_of_masks(num_groups, masks, max_net_pins):
    """The sharing hypergraph spelled out over big-int masks, as lists:
    vertex weights (1 plus the cone size), then one net per distinct mask
    of 2 to ``max_net_pins`` groups (its groups ascending, weighted by its
    node count), in order of first holder."""
    histogram = Counter(m for m in masks if m)
    weights = [1] * num_groups
    nets, net_weight = [], []
    for mask, count in histogram.items():
        pins = tuple(g for g, bit in enumerate(reversed(bin(mask))) if bit == "1")
        for g in pins:
            weights[g] += count
        if 2 <= len(pins) <= max_net_pins:
            nets.append(pins)
            net_weight.append(count)
    return weights, nets, net_weight


#: (design seed, profile, groups): one group, a word boundary from both
#: sides, and more than 1024 groups (17 words), on designs with RAM read
#: bits, deep cones and wide fan-out
_CONE_CASES = [
    (1, "ram", 1),
    (4, "ram", 63),
    (2, "mixed", 64),
    (7, "merge_stress", 65),
    (3, "deep", 130),
    (4, "ram", 1100),
]


class TestNativeMatchesPython:
    """``gem_fm_pass`` and ``gem_coarsen`` (:mod:`repro.partition.kernel`)
    against the Python loops they replace: the same result and the same
    ``random.Random`` state afterwards, so a k-way partition — which shares
    one generator across all its bisections — is the same on both paths."""

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    def test_coarsen(self, seed, n, m, native_loops, request):
        g = _random_graph(seed, n, m)
        native_rng, python_rng = random.Random(seed), random.Random(seed)
        native, native_map = coarsen(g, native_rng)
        request.getfixturevalue("python_loops")
        python, python_map = coarsen(g, python_rng)
        assert native_map.tolist() == python_map.tolist()
        assert native.vertex_weight == python.vertex_weight
        assert native.nets == python.nets
        assert native.net_weight == python.net_weight
        assert native_rng.getstate() == python_rng.getstate()
        if m:
            assert native.num_nets < g.num_nets, "no net merged or vanished"
        # the native graph's arrays are its nets' arrays
        for field, cached in zip(native.arrays()._fields, native.arrays()):
            rebuilt = Hypergraph(
                vertex_weight=native.vertex_weight,
                nets=native.nets,
                net_weight=native.net_weight,
            ).arrays()
            assert cached.tolist() == getattr(rebuilt, field).tolist(), field

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    @pytest.mark.parametrize("start", ["random", "tight", "infeasible"])
    def test_every_fm_pass(self, seed, n, m, start, native_loops):
        """Pass by pass as ``refine_bipartition`` runs them: from a random
        start, from one whose sides sit within half a vertex of their bounds
        (moves turn inadmissible, then admissible again as the other side
        sheds weight), and from one whose part 0 holds everything (over its
        bound)."""
        g = _random_graph(seed, n, m)
        rng = random.Random(seed)
        total = g.total_weight
        max_w = [total // 2 + 1, total // 2 + 1]
        if start == "infeasible":
            parts = [0] * n
            assert g.part_weights(parts, 2)[0] > max_w[0]
        else:
            parts = [rng.randrange(2) for _ in range(n)]
        if start == "tight":
            max_w = [w + 25 for w in g.part_weights(parts, 2)]
        for _ in range(fm._MAX_PASSES):
            order = list(range(n))
            rng.shuffle(order)
            python_parts, native_parts = list(parts), np.array(parts, dtype=np.uint8)
            python = fm._one_pass(g, python_parts, max_w, order)
            native = fm._one_pass_native(native_loops, g, native_parts, max_w, order)
            assert native == python
            assert native_parts.tolist() == python_parts
            assert native[1] == g.cut_weight(native_parts)
            parts = python_parts
            if not native[0]:
                break

    def test_wide_gains_take_the_python_pass(self, native_loops):
        """Gains wider than the C bucket array are refined in Python, with
        the same order: the result does not change."""
        g = _random_graph(6, 60, 80)
        g.net_weight = [w << 22 for w in g.net_weight]
        parts = [v % 2 for v in range(g.num_vertices)]
        order = list(range(g.num_vertices))
        random.Random(6).shuffle(order)
        native_parts = np.array(parts, dtype=np.uint8)
        native = fm._one_pass_native(native_loops, g, native_parts, [10**9] * 2, order)
        assert native == fm._one_pass(g, parts, [10**9] * 2, order)
        assert native_parts.tolist() == parts

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    def test_partition_kway(self, seed, n, m, native_loops, request):
        g = _random_graph(seed, n, m)
        native = {}
        for k in range(2, 10):
            stats = Counter()
            native[k] = partition_kway(g, k, seed=seed, stats=stats), stats
        native_rng, python_rng = random.Random(seed), random.Random(seed)
        native_bisect = bisect(g, 0.4, rng=native_rng)
        request.getfixturevalue("python_loops")
        for k in range(2, 10):
            stats = Counter()
            assert (partition_kway(g, k, seed=seed, stats=stats), stats) == native[k], k
        assert bisect(g, 0.4, rng=python_rng).tolist() == native_bisect.tolist()
        assert native_rng.getstate() == python_rng.getstate()

    @pytest.mark.parametrize("seed, profile, count", _CONE_CASES)
    @pytest.mark.parametrize("truncate", [False, True])
    def test_cone_signatures(self, seed, profile, count, truncate, native_loops, request):
        """``gem_cone_masks`` plus its numpy glue against ``cone_masks``:
        each node's signature is its mask, numbered by first holder, and
        the sharing hypergraph is the one the masks spell out.  Without the
        library ``cone_signatures`` numbers ``cone_masks``'s masks into
        :class:`ConeSignatures` equal to C's field for field, so the
        :class:`RepCutResult` is the same — with cones whole, and truncated
        by ``source_flags`` at a mid level plus random nodes."""
        eaig = synthesize(generate_design(seed, profile).spec.build()).eaig
        groups = _random_groups(eaig, count, seed)
        flags = None
        if truncate:
            rng = random.Random(seed)
            mid = eaig.depth() // 2
            flags = [
                kind is NodeKind.AND and (level <= mid or rng.random() < 0.1)
                for kind, level in zip(eaig.kind, eaig.level_of)
            ]
        masks = cone_masks(eaig, groups, flags)
        sigs = cone_signatures(eaig, groups, flags)
        by_signature = _signature_masks(sigs)
        native_masks = [0] * len(eaig)
        for node, s in zip(sigs.nodes.tolist(), sigs.signature.tolist()):
            native_masks[node] = by_signature[s]
        assert native_masks == masks
        histogram = Counter(m for m in masks if m)  # in order of first holder
        assert list(histogram) == by_signature
        assert sigs.count.tolist() == list(histogram.values())
        for max_net_pins in (3, 128):
            graph = signature_hypergraph(count, sigs, max_net_pins)
            weights, nets, net_weight = _graph_of_masks(count, masks, max_net_pins)
            assert graph.vertex_weight == weights
            assert graph.nets == nets
            assert graph.net_weight == net_weight
        if count > 2:
            assert any(len(pins) > 1 for pins in nets), "no shared logic"
            assert any(not m for m in masks), "every node in some cone"
        k = min(4, count)
        native_result = repcut_partition(eaig, groups, k, seed=seed, cones=sigs)
        assert repcut_partition(eaig, groups, k, seed=seed, source_flags=flags) == native_result
        request.getfixturevalue("python_loops")
        python = cone_signatures(eaig, groups, flags)
        for field, native_field, python_field in zip(sigs._fields, sigs, python):
            assert python_field.dtype == native_field.dtype, field
            assert np.array_equal(python_field, native_field), field
        assert repcut_partition(eaig, groups, k, seed=seed, source_flags=flags) == native_result

    @pytest.mark.parametrize("path", ["native", "python"])
    def test_cone_signatures_refuse_bad_roots(self, path, request):
        """Both paths refuse a root literal past the last node or below
        zero, and ``source_flags`` of the wrong length, before they sweep."""
        request.getfixturevalue(f"{path}_loops")
        eaig = synthesize(generate_design(1, "ram").spec.build()).eaig
        for roots in ([2 * len(eaig)], [2, -1]):
            with pytest.raises(ValueError, match="root literal out of range"):
                cone_signatures(eaig, [roots])
        with pytest.raises(ValueError, match="source_flags"):
            cone_signatures(eaig, [[2]], [False])

    def test_bad_input_is_refused_before_c_reads_it(self):
        g = _random_graph(7, 20, 15)
        with pytest.raises(ValueError, match="0 or 1"):
            refine_bipartition(g, [2] * 20, [10**6] * 2)
        with pytest.raises(ValueError, match="0 or 1"):
            refine_bipartition(g, [0] * 19, [10**6] * 2)
        g.add_net([0, 20])
        with pytest.raises(ValueError, match="out of range"):
            g.arrays()


def _list_initial_bipartition(graph, target0, rng):
    """The list-based BFS the arrays-first ``_initial_bipartition``
    replaced, kept verbatim as its oracle."""
    n = graph.num_vertices
    incidence = graph.incidence()
    best_parts = None
    best_cut = None
    for _ in range(multilevel._INITIAL_TRIES):
        parts = [1] * n
        weight0 = 0
        seed = rng.randrange(n)
        frontier = [seed]
        visited = {seed}
        while frontier and weight0 < target0:
            v = frontier.pop()
            if weight0 + graph.vertex_weight[v] > target0 and weight0 > 0:
                continue
            parts[v] = 0
            weight0 += graph.vertex_weight[v]
            for e in incidence[v]:
                for u in graph.nets[e]:
                    if u not in visited:
                        visited.add(u)
                        frontier.insert(0, u)
            if not frontier:
                # Disconnected remainder: jump to an unvisited vertex.
                rest = [u for u in range(n) if u not in visited]
                if rest:
                    nxt = rng.choice(rest)
                    visited.add(nxt)
                    frontier.append(nxt)
        cut = graph.cut_weight(parts)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_parts = parts
    return best_parts


class TestArraysFirst:
    """The k-way partitioner's array paths against Python references:
    ``gem_contract`` against ``_contract``, ``gem_shuffle`` against
    ``random.Random.shuffle``, the initial bipartition against the
    list-based BFS it replaced, and a graph's nets spelled out lazily."""

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    @pytest.mark.parametrize("subset", ["all", "half", "one", "none", "many-to-one"])
    def test_contract(self, seed, n, m, subset, native_loops, request):
        """Sub-graphs on every vertex, a random half, one and none, and a
        contraction that maps several vertices to one and drops others:
        ``_subgraph`` on both paths, and ``gem_contract`` against
        ``_contract`` directly."""
        g = _random_graph(seed, n, m)
        rng = random.Random(seed)
        coarse_of = [-1] * n
        if subset == "many-to-one":
            nc = max(1, n // 3)
            coarse_of = [rng.randrange(-1, nc) for _ in range(n)]
        else:
            size = {"all": n, "half": n // 2, "one": min(n, 1), "none": 0}[subset]
            vertices = np.array(sorted(rng.sample(range(n), size)), dtype=np.int64)
            nc = vertices.size
            for i, v in enumerate(vertices.tolist()):
                coarse_of[v] = i
        python = multilevel._contract(g, coarse_of, nc)
        native, native_map = multilevel._contract_native(
            native_loops, g, coarse_of=np.array(coarse_of, dtype=np.int64), nc=nc
        )
        assert native_map.tolist() == coarse_of
        assert native.vertex_weight == python.vertex_weight
        assert native.nets == python.nets
        assert native.net_weight == python.net_weight
        kept = [{coarse_of[v] for v in net} - {-1} for net in g.nets]
        assert python.num_nets == len({frozenset(pins) for pins in kept if len(pins) >= 2})
        if subset == "many-to-one" and m >= 25:
            assert python.num_nets < sum(len(pins) >= 2 for pins in kept), "no net merged"
            assert any(len(pins) == 1 for pins in kept), "no net shrank to one pin"
        if subset != "many-to-one":
            native_sub = multilevel._subgraph(g, vertices)
            request.getfixturevalue("python_loops")
            python_sub = multilevel._subgraph(g, vertices)
            assert native_sub.vertex_weight == python_sub.vertex_weight == python.vertex_weight
            assert native_sub.nets == python_sub.nets == python.nets
            assert native_sub.net_weight == python_sub.net_weight == python.net_weight

    @pytest.mark.parametrize("seed", range(10))
    def test_shuffle(self, seed, native_loops):
        """One generator per side, through every length in turn (so the
        draws start at many points of the MT19937 state and cross its
        regeneration), on both sides of the length ``gem_shuffle`` starts
        at: the same order, and the same state afterwards."""
        ours, theirs = random.Random(seed), random.Random(seed)
        cutoff = kernel.SHUFFLE_IN_C_FROM
        for n in (0, 1, 2, 3, 63, 64, 65, cutoff - 1, cutoff, cutoff + 1, 1731):
            order = kernel.shuffled_order(native_loops, ours, n)
            expected = list(range(n))
            theirs.shuffle(expected)
            assert order.dtype == np.int64
            assert order.tolist() == expected, n
            assert ours.getstate() == theirs.getstate(), n
        assert ours.random() == theirs.random()

    def test_shuffle_refuses_lengths_past_32_bits(self, native_loops):
        """A draw of more than 32 bits is not one MT19937 word: refused
        before any write (``order`` is NULL here)."""
        mt = np.array(random.Random(0).getstate()[1], dtype=np.uint32)
        assert native_loops.shuffle(mt.ctypes.data, 1 << 32, None) == -1
        assert mt.tolist() == list(random.Random(0).getstate()[1])

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    @pytest.mark.parametrize("isolated", [0, 25])
    @pytest.mark.parametrize("fraction", [0.3, 0.5])
    def test_initial_bipartition(self, seed, n, m, isolated, fraction):
        """On graphs with nets wider than 16 pins and with isolated
        vertices (jumps to the unvisited): the same parts and the same
        generator state."""
        g = _random_graph(seed, n, m)
        g = Hypergraph(
            vertex_weight=g.vertex_weight + [1 + v % 7 for v in range(isolated)],
            nets=g.nets,
            net_weight=g.net_weight,
        )
        target0 = int(round(g.total_weight * fraction))
        ours, theirs = random.Random(seed), random.Random(seed)
        parts = multilevel._initial_bipartition(g, target0, ours)
        assert parts.dtype == np.uint8
        assert parts.tolist() == _list_initial_bipartition(g, target0, theirs)
        assert ours.getstate() == theirs.getstate()

    def test_initial_bipartition_graphs_have_wide_nets(self):
        assert any(max(map(len, _random_graph(*case).nets), default=0) > 16 for case in _GRAPHS)

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    def test_lazy_nets(self, seed, n, m):
        """A graph of CSR arrays spells its nets out only when read, as the
        tuples of the list-built graph; its objectives, read off the
        arrays, are those of the nets spelled out."""
        g = _random_graph(seed, n, m)
        a = g.arrays()
        lazy = Hypergraph.from_arrays(a.vertex_weight, a.net_start, a.pins, a.net_weight)
        assert lazy.num_nets == g.num_nets
        assert lazy._nets is None
        assert lazy.nets == g.nets
        assert all(type(net) is tuple for net in lazy.nets)
        rng = random.Random(seed)
        for k in (2, 3, 7):
            parts = [rng.randrange(k) for _ in range(n)]
            spans = [len({parts[v] for v in net}) for net in g.nets]
            cut = sum(w for lam, w in zip(spans, g.net_weight) if lam > 1)
            km1 = sum((lam - 1) * w for lam, w in zip(spans, g.net_weight))
            assert lazy.cut_weight(parts) == g.cut_weight(np.array(parts)) == cut
            assert lazy.connectivity_minus_one(parts) == km1
