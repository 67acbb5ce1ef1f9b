"""Tests for query isomorphism utilities."""

import pytest

from repro.query import (
    QueryGraph,
    are_isomorphic,
    canonical_form,
    cycle_query,
    degree_sequence,
    diamond,
    find_isomorphism,
    paper_query,
    path_query,
)



class TestIsomorphism:
    def test_relabeled_cycles_isomorphic(self):
        a = cycle_query(5)
        b = QueryGraph([("v", "w"), ("w", "x"), ("x", "y"), ("y", "z"), ("z", "v")])
        iso = find_isomorphism(a, b)
        assert iso is not None
        # verify it is adjacency-preserving
        for u, v in a.edges():
            assert b.has_edge(iso[u], iso[v])

    def test_different_sizes_not_isomorphic(self):
        assert not are_isomorphic(cycle_query(4), cycle_query(5))

    def test_same_degree_sequence_not_sufficient(self):
        # C6 vs two disjoint triangles... (keep connected: C6 vs prism-path)
        a = cycle_query(6)
        b = QueryGraph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert degree_sequence(a) == degree_sequence(b)
        assert not are_isomorphic(a, b)

    def test_glet2_is_diamond(self):
        assert are_isomorphic(paper_query("glet2"), diamond())

    def test_path_vs_star(self):
        from repro.query import star_query

        assert not are_isomorphic(path_query(4), star_query(3))

    def test_identity(self):
        q = paper_query("wiki")
        iso = find_isomorphism(q, q)
        assert iso is not None


class TestCanonicalForm:
    def test_relabeling_invariant(self, rng):
        q = cycle_query(5)
        perm = list(rng.permutation(5))
        relabeled = QueryGraph([(perm[a], perm[b]) for a, b in q.edges()])
        assert canonical_form(q) == canonical_form(relabeled)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(cycle_query(4)) != canonical_form(path_query(4))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            canonical_form(cycle_query(9))

    def test_counts_are_isomorphism_invariant(self, rng):
        """Match counts do not depend on query labelling."""
        from repro.engine import CountingEngine
        from repro.graph import erdos_renyi

        g = erdos_renyi(10, 0.5, rng)
        q = paper_query("glet2")
        perm = {v: f"x{v}" for v in q.nodes()}
        relabeled = QueryGraph([(perm[a], perm[b]) for a, b in q.edges()])
        colors = rng.integers(0, q.k, size=g.n)
        engine = CountingEngine(g)
        assert engine.count_colorful(q, colors) == engine.count_colorful(relabeled, colors)
