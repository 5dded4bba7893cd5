"""FM refinement and multilevel k-way partitioning."""

import random
from collections import Counter

import pytest

from repro.partition import fm, kernel
from repro.partition.fm import refine_bipartition
from repro.partition.hypergraph import Hypergraph
from repro.partition.multilevel import bisect, coarsen, partition_kway


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


def _native_or_skip():
    lib = kernel.library()
    if lib is None:
        pytest.skip("no C compiler and no cached partitioner library here")
    return lib


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


def _python(monkeypatch):
    monkeypatch.setattr(kernel, "library", lambda: None)


class TestNativeMatchesPython:
    """``gem_fm_pass`` and ``gem_coarsen`` (:mod:`repro.partition.kernel`)
    against the Python loops they replace: the same result and the same
    ``random.Random`` state afterwards, so a k-way partition — which shares
    one generator across all its bisections — is the same on both paths."""

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    def test_coarsen(self, seed, n, m, monkeypatch):
        _native_or_skip()
        g = _random_graph(seed, n, m)
        native_rng, python_rng = random.Random(seed), random.Random(seed)
        native, native_map = coarsen(g, native_rng)
        _python(monkeypatch)
        python, python_map = coarsen(g, python_rng)
        assert native_map == python_map
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
    def test_every_fm_pass(self, seed, n, m, start):
        """Pass by pass as ``refine_bipartition`` runs them: from a random
        start, from one whose sides sit within half a vertex of their bounds
        (moves turn inadmissible, then admissible again as the other side
        sheds weight), and from one whose part 0 holds everything (over its
        bound)."""
        lib = _native_or_skip()
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
            python_parts, native_parts = list(parts), list(parts)
            python = fm._one_pass(g, python_parts, max_w, order)
            native = fm._one_pass_native(lib, g, native_parts, max_w, order)
            assert native == python
            assert native_parts == python_parts
            assert native[1] == g.cut_weight(native_parts)
            parts = native_parts
            if not native[0]:
                break

    def test_wide_gains_take_the_python_pass(self):
        """Gains wider than the C bucket array are refined in Python, with
        the same order: the result does not change."""
        lib = _native_or_skip()
        g = _random_graph(6, 60, 80)
        g.net_weight = [w << 22 for w in g.net_weight]
        parts = [v % 2 for v in range(g.num_vertices)]
        order = list(range(g.num_vertices))
        random.Random(6).shuffle(order)
        native_parts = list(parts)
        native = fm._one_pass_native(lib, g, native_parts, [10**9] * 2, order)
        assert native == fm._one_pass(g, parts, [10**9] * 2, order)
        assert native_parts == parts

    @pytest.mark.parametrize("seed, n, m", _GRAPHS)
    def test_partition_kway(self, seed, n, m, monkeypatch):
        _native_or_skip()
        g = _random_graph(seed, n, m)
        native = {}
        for k in range(2, 10):
            stats = Counter()
            native[k] = partition_kway(g, k, seed=seed, stats=stats), stats
        native_rng, python_rng = random.Random(seed), random.Random(seed)
        native_bisect = bisect(g, 0.4, rng=native_rng)
        _python(monkeypatch)
        for k in range(2, 10):
            stats = Counter()
            assert (partition_kway(g, k, seed=seed, stats=stats), stats) == native[k], k
        assert bisect(g, 0.4, rng=python_rng) == native_bisect
        assert native_rng.getstate() == python_rng.getstate()

    def test_bad_input_is_refused_before_c_reads_it(self):
        g = _random_graph(7, 20, 15)
        with pytest.raises(ValueError, match="0 or 1"):
            refine_bipartition(g, [2] * 20, [10**6] * 2)
        with pytest.raises(ValueError, match="0 or 1"):
            refine_bipartition(g, [0] * 19, [10**6] * 2)
        g.add_net([0, 20])
        with pytest.raises(ValueError, match="out of range"):
            g.arrays()
