"""Tests for the random treewidth-2 query generators."""

from repro.query import (
    is_treewidth_at_most_2,
    random_cactus,
    random_partial_two_tree,
    random_series_parallel,
    random_tw2_query,
)



class TestSeriesParallel:
    def test_always_tw2(self, rng):
        for _ in range(20):
            q = random_series_parallel(int(rng.integers(1, 10)), rng)
            assert is_treewidth_at_most_2(q)

    def test_connected(self, rng):
        for _ in range(10):
            assert random_series_parallel(5, rng).is_connected()

    def test_zero_ops_is_edge(self, rng):
        q = random_series_parallel(0, rng)
        assert q.k == 2 and q.num_edges() == 1

    def test_grows_with_ops(self, rng):
        q = random_series_parallel(8, rng)
        assert q.k == 10  # one new node per operation + 2 terminals


class TestPartialTwoTree:
    def test_always_tw2_and_connected(self, rng):
        for _ in range(20):
            q = random_partial_two_tree(int(rng.integers(3, 11)), rng)
            assert is_treewidth_at_most_2(q)
            assert q.is_connected()

    def test_requested_size(self, rng):
        assert random_partial_two_tree(7, rng).k == 7

    def test_no_sparsify_is_two_tree(self, rng):
        q = random_partial_two_tree(6, rng, sparsify=0.0)
        assert q.num_edges() == 2 * 6 - 3  # 2-tree edge count

    def test_tiny(self, rng):
        assert random_partial_two_tree(1, rng).k == 1
        assert random_partial_two_tree(2, rng).k == 2


class TestCactus:
    def test_always_tw2(self, rng):
        for _ in range(15):
            q = random_cactus(int(rng.integers(1, 4)), rng)
            assert is_treewidth_at_most_2(q)
            assert q.is_connected()

    def test_single_cycle(self, rng):
        q = random_cactus(1, rng, min_len=4, max_len=4)
        assert q.k == 4 and q.num_edges() == 4


class TestMixedSampler:
    def test_respects_max_k(self, rng):
        for _ in range(40):
            q = random_tw2_query(rng, max_k=8)
            assert q.k <= 8
            assert is_treewidth_at_most_2(q)

    def test_decomposable_and_countable(self, rng):
        """End-to-end fuzz: every generated query decomposes, validates
        and counts identically under PS/DB/brute force."""
        from repro.counting import count_colorful_matches
        from repro.decomposition import build_decomposition, validate_plan
        from repro.engine import CountingEngine
        from repro.graph import erdos_renyi

        for _ in range(12):
            q = random_tw2_query(rng, max_k=7)
            plan = build_decomposition(q)
            validate_plan(plan)
            g = erdos_renyi(8, 0.5, rng)
            colors = rng.integers(0, q.k, size=g.n)
            expected = count_colorful_matches(g, q, colors)
            engine = CountingEngine(g)
            assert engine.count_colorful(q, colors, method="ps", plan=plan) == expected
            assert engine.count_colorful(q, colors, method="db", plan=plan) == expected
