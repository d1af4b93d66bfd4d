"""Matching algorithms against exhaustive oracles, plus the dual identity."""

import random as stdrandom
from itertools import combinations

from hypothesis import given, settings, strategies as st

import pytest

from linhyp.algebra import l_k, projective_plane, random_linear
from linhyp.catalog import special
from linhyp.core import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    dual_graph,
    graph_isomorphic,
    incidence_graph,
)
from linhyp.matching import (
    Matching,
    check_dual_identity,
    hall_violator,
    max_matching_bipartite,
    max_matching_bruteforce,
    max_matching_general,
    odd_components,
    tutte_berge_certificate,
)


def recursive_bipartite_matching(g: Graph) -> Matching:
    """Reference: the same augmenting-path search written recursively."""
    left = sorted(g.bipartition[0])
    adj = g.adjacency()
    match: dict[int, int] = {}

    def try_augment(v: int, visited: set[int]) -> bool:
        for w in sorted(adj[v]):
            if w in visited:
                continue
            visited.add(w)
            if w not in match or try_augment(match[w], visited):
                match[v] = w
                match[w] = v
                return True
        return False

    for v in left:
        if v not in match:
            try_augment(v, set())
    return Matching(tuple(sorted((v, match[v]) for v in left if v in match)))


def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)]
    )
    return Graph(10, edges)


class TestBipartite:
    def test_complete_3x3(self):
        assert max_matching_bipartite(complete_bipartite(3, 3)).size == 3

    def test_star(self):
        assert max_matching_bipartite(complete_bipartite(1, 4)).size == 1

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_koenig_deficiency_form(self, seed):
        rng = stdrandom.Random(seed)
        a = rng.randrange(1, 7)
        b = rng.randrange(1, 7)
        edges = [
            (i, a + j)
            for i in range(a)
            for j in range(b)
            if rng.random() < 0.45
        ]
        g = Graph(a + b, edges, bipartition=(range(a), range(a, a + b)))
        size = max_matching_bipartite(g).size
        adj = g.adjacency()
        worst = 0
        for r in range(a + 1):
            for sub in combinations(range(a), r):
                nbrs = set().union(*(adj[v] for v in sub)) if sub else set()
                worst = max(worst, len(sub) - len(nbrs))
        assert size == a - worst

    def test_matching_validity(self):
        g = complete_bipartite(4, 2)
        m = max_matching_bipartite(g)
        assert m.check(g)

    def test_long_path_needs_no_recursion(self):
        # path a_1 - l_1 - a_2 - l_2 - ... - a_k - l_k on 4000 vertices; every
        # l_i < k first takes a_{i+1}, so l_k augments back along the path
        k = 2000
        left = list(range(k))
        right = [2 * k - 1 - i for i in range(k)]  # a_{i+1}, ids descending
        edges = [(left[i], right[i]) for i in range(k)]
        edges += [(left[i], right[i + 1]) for i in range(k - 1)]
        g = Graph(2 * k, edges, bipartition=(left, right))
        m = max_matching_bipartite(g)
        assert m.check(g)
        assert m.pairs == tuple((left[i], right[i]) for i in range(k))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
    def test_same_pairs_as_recursive_reference(self, q):
        g = incidence_graph(projective_plane(q))
        m = max_matching_bipartite(g)
        assert m == recursive_bipartite_matching(g)
        assert m.size == q * q + q + 1


class TestHallViolator:
    def test_star_leaves(self):
        g = complete_bipartite(1, 4)
        s = hall_violator(g, side=1)
        assert s is not None and len(s) >= 2

    def test_perfect_matchable(self):
        assert hall_violator(complete_bipartite(3, 3), side=0) is None

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_violator_iff_deficient(self, seed):
        rng = stdrandom.Random(seed)
        a = rng.randrange(1, 7)
        b = rng.randrange(1, 7)
        edges = [
            (i, a + j)
            for i in range(a)
            for j in range(b)
            if rng.random() < 0.4
        ]
        g = Graph(a + b, edges, bipartition=(range(a), range(a, a + b)))
        size = max_matching_bipartite(g).size
        s = hall_violator(g, side=0)
        if size == a:
            assert s is None
        else:
            assert s is not None
            adj = g.adjacency()
            nbrs = set().union(*(adj[v] for v in s))
            assert len(nbrs) < len(s)


class TestGeneralMatching:
    def test_k4(self):
        assert max_matching_general(complete_graph(4)).size == 2

    def test_odd_cycle(self):
        assert max_matching_general(cycle_graph(7)).size == 3

    def test_petersen(self):
        assert max_matching_general(petersen()).size == 5
        assert max_matching_bruteforce(petersen()) == 5

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_blossom_vs_bruteforce(self, seed):
        rng = stdrandom.Random(seed)
        n = rng.randrange(2, 12)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        assert max_matching_general(g).size == max_matching_bruteforce(g, guard_m=60)


class TestTutteBerge:
    def test_c7(self):
        s, value = tutte_berge_certificate(cycle_graph(7))
        assert value == 3 and s == frozenset()

    def test_k4(self):
        assert tutte_berge_certificate(complete_graph(4))[1] == 2

    def test_weak_duality_everywhere(self):
        g = petersen()
        alpha = max_matching_general(g).size
        for r in range(4):
            for sub in combinations(range(g.n), r):
                s = frozenset(sub)
                assert (g.n + len(s) - odd_components(g, s)) // 2 >= alpha

    def test_dual_of_h14_5(self):
        g = dual_graph(special("H14_5"))
        s, value = tutte_berge_certificate(g)
        assert value == special("H14_5").m - 4  # tau = 4 = m - alpha'

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_certificate_agrees_with_blossom(self, seed):
        rng = stdrandom.Random(seed)
        n = rng.randrange(2, 10)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        s, value = tutte_berge_certificate(g)
        assert value == max_matching_general(g).size
        assert (g.n + len(s) - odd_components(g, s)) // 2 == value


class TestPackingGraph:
    def test_matching_vs_bruteforce_on_special_set(self):
        # bipartite graph pairing packed copies with external edges
        from linhyp.algebra import random_linear
        from linhyp.deficiency import SpecialSet, estar_bipartite_graph, find_embeddings

        for seed in (3, 14, 159, 2653):
            host = random_linear(12, 4, 3, 6, seed=seed)
            embs = find_embeddings(host, "H4")
            picked = []
            taken: set[int] = set()
            for e in embs:
                if not taken & set(e.vertex_map):
                    picked.append(e)
                    taken.update(e.vertex_map)
            x = SpecialSet(tuple(picked))
            g = estar_bipartite_graph(host, x)
            assert max_matching_bipartite(g).size == max_matching_bruteforce(g)


class TestDualIdentity:
    def test_h10(self):
        h = special("H10")
        g = dual_graph(h)
        assert graph_isomorphic(g, complete_graph(5))
        assert max_matching_general(g).size == 2
        assert check_dual_identity(h)

    def test_h4(self):
        assert check_dual_identity(special("H4"))

    def test_lk_family(self):
        for k in (2, 3, 4, 5, 6):
            assert check_dual_identity(l_k(k))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_degree_two(self, seed):
        h = random_linear(18, 4, 2, 8, seed)
        assert check_dual_identity(h)
