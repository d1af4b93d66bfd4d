"""Matching algorithms against exhaustive oracles, plus the dual identity."""

import random as stdrandom
from itertools import combinations

from hypothesis import given, settings, strategies as st

import pytest

from linhyp.algebra import l_k, projective_plane, random_linear
from linhyp.catalog import NAMES, special
from linhyp.core import (
    Graph,
    Hypergraph,
    dual_graph,
    graph_isomorphic,
    incidence_graph,
)
from linhyp.matching import (
    Matching,
    check_dual_identity,
    hall_violator,
    max_matching_bipartite,
    max_matching_general,
    odd_components,
    tutte_berge_certificate,
)

from corpus import greedy_start
from oracles import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    estar_bipartite_graph,
    max_matching_bruteforce,
    max_matching_general_per_root,
    oriented_blossom_pairs,
)


def recursive_bipartite_matching(g: Graph) -> Matching:
    """Reference: a depth-first augmenting-path search from each left vertex,
    written recursively, from the empty matching."""
    left = sorted(g.bipartition[0])
    adj = g.adj
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
        adj = g.adj
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

    def test_long_path_augments_through_the_greedy_start(self):
        # the path above: the greedy start gives each l_i, i < k, its lower id
        # a_{i+1} and leaves l_k and a_1 alone, so the one augmenting path runs
        # from l_k through all k left vertices and flips all k - 1 greedy pairs
        k = 2000
        left = list(range(k))
        right = [2 * k - 1 - i for i in range(k)]
        edges = [(left[i], right[i]) for i in range(k)]
        edges += [(left[i], right[i + 1]) for i in range(k - 1)]
        g = Graph(2 * k, edges, bipartition=(left, right))
        start = greedy_start(g)
        assert [v for v in range(g.n) if v not in start] == [left[-1], right[0]]
        pairs = max_matching_bipartite(g).pairs
        assert all(start[u] != w for u, w in pairs[:-1])

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
    def test_same_pairs_as_recursive_reference(self, q):
        g = incidence_graph(projective_plane(q))
        m = max_matching_bipartite(g)
        assert m.pairs == oriented_blossom_pairs(g)
        assert m.size == recursive_bipartite_matching(g).size == q * q + q + 1
        assert m.check(g)


class TestMatchingCheck:
    # edges (0,1) (1,2) (2,3); vertex 4 is isolated
    G = Graph(5, [(2, 3), (0, 1), (1, 2)])

    def test_accepts_reversed_pairs(self):
        assert Matching(((1, 0), (3, 2))).check(self.G)

    def test_rejects_a_non_edge(self):
        assert not Matching(((0, 2),)).check(self.G)
        assert not Matching(((2, 0),)).check(self.G)

    def test_rejects_a_repeated_vertex(self):
        assert not Matching(((0, 1), (1, 2))).check(self.G)
        assert not Matching(((1, 2), (2, 1))).check(self.G)

    def test_rejects_a_pair_past_the_last_edge(self):
        assert not Matching(((3, 4),)).check(self.G)
        assert not Matching(((4, 3),)).check(self.G)
        assert not Matching(((0, 1),)).check(Graph(2, []))


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
            adj = g.adj
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


def _blossom_corpus() -> list[tuple[str, Graph]]:
    rng = stdrandom.Random(0xB105)
    hosts = [("petersen", petersen()), ("K7", complete_graph(7)), ("C9", cycle_graph(9))]
    for i in range(60):
        n = rng.randrange(2, 40)
        p = rng.choice((0.05, 0.1, 0.2, 0.4))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        hosts.append((f"random({i})", Graph(n, edges)))
    # sparse graphs on which queueing a contracted blossom's vertices in
    # any order but increasing changes which augmenting paths are found
    for seed in (100, 523, 631, 931):
        sparse = stdrandom.Random(seed)
        n = sparse.randrange(60, 120)
        p = sparse.choice((0.02, 0.04, 0.08))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if sparse.random() < p]
        hosts.append((f"sparse({seed})", Graph(n, edges)))
    hosts += [(f"dual({name})", dual_graph(special(name))) for name in NAMES
              if special(name).max_degree() <= 2]
    for seed in range(4):
        hosts.append((f"dual(random_linear({seed}))", dual_graph(random_linear(18, 4, 2, 8, seed))))
    hosts.append(("incidence(PG(2,5))", incidence_graph(projective_plane(5))))
    # every vertex an unmatched root: the searches that were quadratic
    disjoint = Hypergraph(4000, [range(4 * i, 4 * i + 4) for i in range(1000)])
    hosts.append(("edgeless-dual", dual_graph(disjoint)))
    hosts.append(("star(2001)", Graph(2001, [(0, i) for i in range(1, 2001)])))
    return hosts


BLOSSOM_CORPUS = _blossom_corpus()


@pytest.mark.parametrize("name,g", BLOSSOM_CORPUS, ids=[name for name, _ in BLOSSOM_CORPUS])
def test_blossom_pairs_match_frozen_per_root_search(name, g):
    assert max_matching_general(g).pairs == max_matching_general_per_root(g)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_blossom_pairs_match_frozen_per_root_search_random(seed):
    rng = stdrandom.Random(seed)
    n = rng.randrange(1, 30)
    p = rng.random()
    g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
    assert max_matching_general(g).pairs == max_matching_general_per_root(g)


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
        from linhyp.deficiency import SpecialSet, find_embeddings

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
