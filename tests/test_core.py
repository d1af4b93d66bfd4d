"""Structural model and transformation tests."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from linhyp.algebra import affine_plane, affine_residual, l_k, projective_plane, random_linear
from linhyp.catalog import special
from linhyp.core import (
    Graph,
    Hypergraph,
    HypergraphError,
    bipartite_complement,
    complement_hypergraph,
    component_count,
    component_masks,
    components,
    delete_vertices,
    dual_graph,
    graph_isomorphic,
    hypergraph_isomorphic,
    incidence_graph,
    is_connected,
    is_k_uniform,
    is_linear,
    onh,
    shrink_remove,
)
from linhyp.rng import SplitMix64
from linhyp.solver import tau

from corpus import random_host
from oracles import (
    complete_bipartite,
    complete_graph,
    components_union_find,
    cycle_graph,
    gamma_t_bruteforce,
)


def h4() -> Hypergraph:
    return Hypergraph(4, [[0, 1, 2, 3]])


class TestConstruction:
    def test_canonical_edge_order(self):
        h = Hypergraph(5, [[4, 2, 3, 0], [1, 0, 2, 3]])
        assert h.edges == ((0, 1, 2, 3), (0, 2, 3, 4))

    def test_rejects_out_of_range(self):
        with pytest.raises(HypergraphError):
            Hypergraph(3, [[0, 3]])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(HypergraphError):
            Hypergraph(4, [[0, 1, 1, 2]])

    def test_duplicate_edges_allowed(self):
        h = Hypergraph(4, [[0, 1, 2, 3], [0, 1, 2, 3]])
        assert h.m == 2
        assert not is_linear(h)


class TestUniformLinear:
    def test_h4_uniform(self):
        assert is_k_uniform(h4(), 4)
        assert not is_k_uniform(h4(), 3)

    def test_affine_plane_uniform_linear(self):
        h = affine_plane(3)
        assert is_k_uniform(h, 3)
        assert is_linear(h)

    def test_fano_complement_not_linear(self):
        comp = complement_hypergraph(projective_plane(2))
        # any two line complements share 7 - 2 - ... >= 2 points
        assert not is_linear(comp)
        for a, b in itertools.combinations(comp.edges, 2):
            assert len(set(a) & set(b)) == 2


class TestDegrees:
    def test_affine_plane_regular(self):
        assert affine_plane(3).degrees() == [4] * 9

    def test_h10_two_regular(self):
        assert special("H10").degrees() == [2] * 10

    def test_single_edge(self):
        assert h4().degrees() == [1, 1, 1, 1]


class TestDeleteVertices:
    def test_affine_plane_vertex_deletion(self):
        h = delete_vertices(affine_plane(3), {0})
        assert (h.n, h.m) == (8, 8)

    def test_single_edge_collapses(self):
        h = delete_vertices(h4(), {2})
        assert (h.n, h.m) == (0, 0)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_line_prefix_deletion_counts(self, s):
        plane = affine_plane(4)
        line = plane.edges[0]
        h = delete_vertices(plane, line[:s])
        assert h.n == 16 - s
        assert h.m == 16 + 4 - 1 - 4 * s

    def test_empty_deletion_is_identity(self):
        h = affine_plane(3)
        assert delete_vertices(h, set()) == h

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edge_count_identity(self, seed, data):
        h = random_linear(12, 3, 3, 8, seed)
        xs = data.draw(st.sets(st.integers(0, 11), max_size=4))
        killed = sum(1 for e in h.edges if set(e) & xs)
        assert delete_vertices(h, xs).m == h.m - killed


class TestShrinkRemove:
    def test_identity(self):
        h = affine_plane(2)
        assert shrink_remove(h, set(), set()) == h

    def test_trim_single_vertex(self):
        h = shrink_remove(h4(), set(), {0})
        assert h.n == 3 and h.edges == ((0, 1, 2),)

    def test_agrees_with_delete_when_y_empty(self):
        h = special("H10")
        assert shrink_remove(h, {3}, set()) == delete_vertices(h, {3})
        rng = SplitMix64(2024)
        for _ in range(40):
            n = 1 + rng.randbelow(12)
            h = random_host(rng, n, rng.randbelow(9), 4)
            xs = set(rng.sample(range(n), rng.randbelow(n + 1)))
            expected = _delete_by_definition(h, xs)
            assert delete_vertices(h, xs) == expected
            assert shrink_remove(h, xs, set()) == expected

    def test_delete_rejects_out_of_range(self):
        for xs in ({4}, {-1}, {0, 9}):
            with pytest.raises(HypergraphError):
                delete_vertices(h4(), xs)

    def test_rejects_emptied_edge(self):
        with pytest.raises(HypergraphError):
            shrink_remove(h4(), set(), {0, 1, 2, 3})


class TestComplement:
    def test_fano_complement_shape(self):
        comp = complement_hypergraph(projective_plane(2))
        assert (comp.n, comp.m) == (7, 7)
        assert is_k_uniform(comp, 4)

    def test_full_edge_rejected(self):
        with pytest.raises(HypergraphError):
            complement_hypergraph(h4())

    def test_involution_on_fano(self):
        fano = projective_plane(2)
        assert complement_hypergraph(complement_hypergraph(fano)) == fano

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_involution_generic(self, seed):
        h = random_linear(9, 3, 3, 6, seed)
        if h.m == 0 or any(len(e) == h.n for e in h.edges):
            return
        assert complement_hypergraph(complement_hypergraph(h)) == h


def heawood_lcf() -> Graph:
    # independent Heawood construction: LCF notation [5, -5]^7 on C_14
    edges = [(i, (i + 1) % 14) for i in range(14)]
    for i in range(14):
        off = 5 if i % 2 == 0 else -5
        edges.append((i, (i + off) % 14))
    return Graph(14, edges)


class TestIncidenceGraph:
    def test_fano_incidence_is_heawood(self):
        g = incidence_graph(projective_plane(2))
        assert graph_isomorphic(g, heawood_lcf())

    def test_single_edge_star(self):
        g = incidence_graph(h4())
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]

    def test_residual_plane_incidence(self):
        g = incidence_graph(affine_residual(4, 1))
        assert g.n == 30
        assert set(g.degrees()) == {4}


class TestGraphAdjacency:
    @staticmethod
    def random_pairs(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
        # each pair drawn in either orientation, and some drawn twice
        pairs = []
        for _ in range(rng.randbelow(3 * n + 1)):
            a, b = rng.sample(range(n), 2)
            pairs.append((a, b))
            if rng.randbelow(4) == 0:
                pairs.append((b, a) if rng.randbelow(2) else (a, b))
        return pairs

    def test_edges_match_sorted_canonical_pairs(self):
        rng = SplitMix64(0x6A7)
        reversed_seen = duplicates_seen = 0
        for _ in range(60):
            n = 2 + rng.randbelow(20)
            pairs = self.random_pairs(rng, n)
            canon = {(min(a, b), max(a, b)) for a, b in pairs}
            reversed_seen += any(a > b for a, b in pairs)
            duplicates_seen += len(canon) < len(pairs)
            g = Graph(n, pairs)
            assert g.edges == tuple(sorted(canon))
            assert g.m == len(canon)
            assert g.degrees() == [sum(v in e for e in canon) for v in range(n)]
            for v, nb in enumerate(g.adj):
                assert type(nb) is tuple and list(nb) == sorted(set(nb))
                assert all(v in g.adj[w] for w in nb)
        assert reversed_seen >= 50 and duplicates_seen >= 30

    def test_equality_and_hash_follow_the_edge_set(self):
        rng = SplitMix64(0x4A5)
        for _ in range(30):
            n = 2 + rng.randbelow(12)
            pairs = self.random_pairs(rng, n)
            g = Graph(n, pairs)
            flipped = Graph(n, [(b, a) for a, b in reversed(pairs)] + pairs[:3])
            assert g == flipped and hash(g) == hash(flipped)
            assert g != Graph(n + 1, pairs)
            if g.m:
                assert g != Graph(n, g.edges[1:])
        g = complete_bipartite(2, 3)
        assert g != Graph(5, g.edges)
        assert g == Graph(5, g.edges, bipartition=([0, 1], [2, 3, 4]))

    def test_bipartition_rejects_edges_within_either_side(self):
        for pairs in ([(0, 1)], [(3, 2)], [(0, 2), (1, 3), (3, 2)]):
            with pytest.raises(HypergraphError, match="does not cross"):
                Graph(4, pairs, bipartition=([0, 1], [2, 3]))
        Graph(4, [(0, 2), (3, 1)], bipartition=([0, 1], [2, 3]))

    def test_onh_matches_sorted_neighbour_sets(self):
        rng = SplitMix64(0x0A4)
        for _ in range(30):
            n = 2 + rng.randbelow(12)
            g = Graph(n, self.random_pairs(rng, n) + [(v, (v + 1) % n) for v in range(n)])
            nbrs = [set() for _ in range(n)]
            for a, b in g.edges:
                nbrs[a].add(b)
                nbrs[b].add(a)
            assert onh(g) == Hypergraph(n, [sorted(nb) for nb in nbrs])

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
    def test_incidence_graph_matches_checked_construction_on_planes(self, q):
        for h in (projective_plane(q), affine_plane(q)):
            self.assert_incidence_graph_matches_checked_construction(h)

    def test_incidence_graph_matches_checked_construction_on_random_hosts(self):
        rng = SplitMix64(0x1C6)
        for i in range(40):
            h = random_host(rng, 1 + rng.randbelow(15), rng.randbelow(12), 5)
            self.assert_incidence_graph_matches_checked_construction(h)

    @staticmethod
    def assert_incidence_graph_matches_checked_construction(h: Hypergraph) -> None:
        pairs = [(v, h.n + i) for i, e in enumerate(h.edges) for v in e]
        left, right = range(h.n), range(h.n, h.n + h.m)
        expected = Graph(h.n + h.m, pairs, bipartition=(left, right))
        g = incidence_graph(h)
        assert g == expected and hash(g) == hash(expected)
        assert g.edges == tuple(sorted(pairs))

    def test_incidence_graph_shares_the_edge_tuples(self):
        h = projective_plane(5)
        g = incidence_graph(h)
        assert all(g.adj[h.n + i] is e for i, e in enumerate(h.edges))

    def test_incidence_graph_of_order_37_retains_under_one_mib(self):
        h = projective_plane(37)
        tracemalloc.start()
        try:
            g = incidence_graph(h)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 38 * h.n
        # the edge-tuple form retained 3.61 MiB
        assert retained <= 2**20


class TestBipartiteComplement:
    def test_heawood_complement_regular(self):
        g = bipartite_complement(incidence_graph(projective_plane(2)))
        assert g.n == 14
        assert set(g.degrees()) == {4}

    def test_involution(self):
        g = incidence_graph(affine_plane(2))
        assert bipartite_complement(bipartite_complement(g)) == g

    def test_complete_bipartite_empties(self):
        assert bipartite_complement(complete_bipartite(3, 4)).m == 0

    def test_requires_bipartition(self):
        with pytest.raises(HypergraphError):
            bipartite_complement(complete_graph(4))


class TestOnh:
    def test_c4_neighborhoods(self):
        h = onh(cycle_graph(4))
        assert h.m == 4
        assert all(len(e) == 2 for e in h.edges)
        assert len(set(h.edges)) == 2

    def test_heawood_complement_onh(self):
        h = onh(bipartite_complement(incidence_graph(projective_plane(2))))
        assert (h.n, h.m) == (14, 14)
        assert is_k_uniform(h, 4)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(HypergraphError):
            onh(Graph(3, [(0, 1)]))

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_total_domination_equivalence(self, seed):
        # tau of the ONH against the direct total-domination scan
        import random

        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        if any(d == 0 for d in g.degrees()):
            return
        assert tau(onh(g)).tau == gamma_t_bruteforce(g)


class TestDualGraph:
    def test_h10_dual_is_k5(self):
        assert graph_isomorphic(dual_graph(special("H10")), complete_graph(5))

    def test_h4_dual_isolated(self):
        g = dual_graph(h4())
        assert (g.n, g.m) == (1, 0)

    def test_l6_dual_is_k7(self):
        assert graph_isomorphic(dual_graph(l_k(6)), complete_graph(7))

    def test_rejects_high_degree(self):
        with pytest.raises(HypergraphError):
            dual_graph(affine_plane(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dual_degree_identity(self, seed):
        h = random_linear(14, 4, 2, 6, seed)
        g = dual_graph(h)
        deg = g.degrees()
        hdeg = h.degrees()
        for i, e in enumerate(h.edges):
            assert deg[i] == sum(1 for v in e if hdeg[v] == 2)


def _delete_by_definition(h: Hypergraph, xs: set[int]) -> Hypergraph:
    """H - X: the edges missing X, on their own vertices, kept in order."""
    kept = [e for e in h.edges if not xs & set(e)]
    used = sorted({v for e in kept for v in e})
    return Hypergraph(len(used), [[used.index(v) for v in e] for e in kept])


def _bfs_components(g: Graph) -> list[set[int]]:
    """Components by breadth-first search from each unseen vertex in order."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen: set[int] = set()
    out = []
    for s in range(g.n):
        if s in seen:
            continue
        comp, queue = {s}, [s]
        for v in queue:
            for w in nbrs[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(comp)
    return out


GRAPHS = {
    "isolated": Graph(5, [(1, 3)]),
    "three": Graph(9, [(0, 4), (4, 8), (1, 5), (1, 3), (2, 6), (2, 7), (6, 7)]),
    "edgeless": Graph(4, []),
    "empty": Graph(0, []),
    "heawood": incidence_graph(projective_plane(2)),
    "cycle": cycle_graph(6),
    "K33": complete_bipartite(3, 3),
}


class TestGraphComponents:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_breadth_first_search(self, name):
        g = GRAPHS[name]
        expected = _bfs_components(g)
        assert components(g) == expected
        assert component_count(g) == len(expected)
        assert is_connected(g) == (len(expected) <= 1)

    def test_shapes(self):
        assert components(GRAPHS["isolated"]) == [{0}, {1, 3}, {2}, {4}]
        assert components(GRAPHS["three"]) == [{0, 4, 8}, {1, 3, 5}, {2, 6, 7}]
        assert components(GRAPHS["edgeless"]) == [{0}, {1}, {2}, {3}]
        assert components(GRAPHS["empty"]) == []
        assert is_connected(GRAPHS["empty"])
        assert not is_connected(GRAPHS["edgeless"])

    def test_random_graphs(self):
        rng = SplitMix64(77)
        for _ in range(30):
            n = rng.randbelow(15)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randbelow(min(len(pairs), 12) + 1)))
            assert components(g) == _bfs_components(g)


# Hypergraphs whose components are easy to get wrong: vertices in no edge,
# size-1 edges, duplicate edges, n = 0, and edge orders in which a later
# edge joins two earlier parts, so that the merge needs a second pass.
COMPONENT_HOSTS = {
    "isolated": Hypergraph(6, [[1, 3], [3, 4]]),
    "size-1 edges": Hypergraph(5, [[2], [0, 1], [4], [1]]),
    "duplicates": Hypergraph(5, [[0, 2], [0, 2], [3, 4], [3, 4]]),
    "empty": Hypergraph(0, []),
    "edgeless": Hypergraph(3, []),
    "late join": Hypergraph(4, [[0, 3], [1, 2], [2, 3]]),
    "late joins": Hypergraph(9, [[0, 8], [1, 2], [3, 4], [5, 6], [2, 3], [4, 5], [6, 8]]),
    "two copies": Hypergraph(8, [[0, 1, 2, 3], [4, 5, 6, 7]]),
    "H10": special("H10"),
    "H21_4": special("H21_4"),
    "AG(2,3)-2": affine_residual(3, 2),
    "AG(2,4)-4": affine_residual(4, 4),
}


class TestComponents:
    @pytest.mark.parametrize("name", sorted(COMPONENT_HOSTS))
    def test_matches_union_find(self, name):
        h = COMPONENT_HOSTS[name]
        expected = components_union_find(h)
        assert components(h) == expected
        assert component_count(h) == len(expected)
        assert is_connected(h) == (len(expected) <= 1)
        # the same edges as a graph wherever they are pairs
        if all(len(e) == 2 for e in h.edges):
            g = Graph(h.n, h.edges)
            assert components(g) == components_union_find(g) == expected

    def test_random_hosts_and_graphs_match_union_find(self):
        rng = SplitMix64(2018)
        for _ in range(60):
            n = rng.randbelow(20)
            h = random_host(rng, n, rng.randbelow(12), 4) if n else Hypergraph(0, [])
            assert components(h) == components_union_find(h)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randbelow(min(len(pairs), 15) + 1)))
            assert components(g) == components_union_find(g)

    def test_merge_takes_a_second_pass(self):
        # in this order the third edge joins the first two parts, and the
        # second edge merges only on the pass after it
        assert component_masks([0b0011, 0b1100, 0b0110]) == [0b1111]
        assert component_masks([0b0001, 0b0100, 0b1000]) == [0b0001, 0b0100, 0b1000]
        assert component_masks([]) == []

    def test_two_copies(self):
        h = Hypergraph(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert len(components(h)) == 2

    def test_h10_connected(self):
        assert len(components(special("H10"))) == 1

    def test_empty(self):
        assert components(Hypergraph(0, [])) == []


class TestIsomorphism:
    def test_lk4_is_h10(self):
        assert hypergraph_isomorphic(l_k(4), special("H10"))

    def test_relabeling(self):
        h = Hypergraph(6, [[0, 1, 2, 3], [2, 3, 4, 5]])
        perm = [5, 3, 1, 0, 2, 4]
        relabeled = Hypergraph(6, [[perm[v] for v in e] for e in h.edges])
        assert hypergraph_isomorphic(h, relabeled)

    def test_distinct_catalog_members(self):
        assert not hypergraph_isomorphic(special("H14_5"), special("H14_6"))

    def test_all_catalog_members_distinct(self):
        from linhyp.catalog import NAMES

        entries = [(k, special(k)) for k in NAMES]
        for (ka, a), (kb, b) in itertools.combinations(entries, 2):
            assert not hypergraph_isomorphic(a, b), (ka, kb)

    def test_graph_isomorphism_negative(self):
        assert not graph_isomorphic(cycle_graph(6), complete_bipartite(3, 3))
