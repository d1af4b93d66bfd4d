"""Special-set machinery: embeddings, E*, deficiency, key inequality."""

from itertools import combinations, permutations
from operator import ge

import pytest
from hypothesis import given, settings, strategies as st

from linhyp.algebra import affine_residual, random_linear
from linhyp.catalog import DEFIC_WEIGHT, NAMES, SHAPES, order_class, special
from linhyp.core import Hypergraph, HypergraphError, component_count
from linhyp.deficiency import (
    SpecialSet,
    _plan,
    check_key_theorem,
    check_lemma_specialset,
    defic_of_set,
    deficiency,
    estar,
    find_embeddings,
)
from linhyp.solver import tau

from oracles import enumerate_special_sets, x_transversal_size


def bridged_host() -> Hypergraph:
    # two disjoint 4-edges joined by one bridging 4-edge
    return Hypergraph(10, [[0, 1, 2, 3], [4, 5, 6, 7], [0, 4, 8, 9]])


def brute_deficiency(host: Hypergraph) -> int:
    """Oracle: exhaustive enumeration over all subsets of candidate copies."""
    cands = []
    for kind in NAMES:
        cands.extend(find_embeddings(host, kind))
    assert len(cands) <= 14, "oracle reserved for small hosts"
    best = 0
    for r in range(len(cands) + 1):
        for sub in combinations(cands, r):
            taken: set[int] = set()
            ok = True
            for empl in sub:
                vs = set(empl.vertex_map)
                if taken & vs:
                    ok = False
                    break
                taken |= vs
            if not ok:
                continue
            best = max(best, defic_of_set(host, SpecialSet(tuple(sub))))
    return best


class TestFindEmbeddings:
    def test_h4_copies_in_h10(self):
        assert len(find_embeddings(special("H10"), "H4")) == 5

    def test_h10_in_itself(self):
        embs = find_embeddings(special("H10"), "H10")
        assert len(embs) == 1
        assert embs[0].edge_indices == (0, 1, 2, 3, 4)

    def test_residual_44_h4_copies(self):
        assert len(find_embeddings(affine_residual(4, 4), "H4")) == 3

    def test_h11_inside_h21(self):
        # the members formed by attaching an H_11 block carry a copy of it;
        # H21_5 is the one member assembled differently
        for i in (1, 2, 3, 4, 6):
            assert find_embeddings(special(f"H21_{i}"), "H11"), f"H21_{i}"
        assert not find_embeddings(special("H21_5"), "H11")

    def test_embedding_realizes_edges(self):
        host = special("H14_5")
        for emb in find_embeddings(host, "H4"):
            assert set(emb.vertex_map) == set(host.edges[emb.edge_indices[0]])

    def test_too_small_host(self):
        assert find_embeddings(special("H4"), "H10") == []

    def test_edge_automorphism_group_orders(self):
        orders = [len(_plan(kind).group) for kind in NAMES if kind != "H4"]
        assert orders == [120, 12, 4, 36, 6, 8, 48, 14, 8, 72, 12, 8, 48, 8]

    @pytest.mark.parametrize("kind", ["H10", "H11"] + [f"H14_{i}" for i in range(1, 7)])
    def test_groups_match_edge_permutations_keeping_meets(self, kind):
        # In a linear 4-uniform pattern an edge permutation comes from a
        # vertex automorphism iff it keeps which edges meet and which triples
        # of edges share a vertex: those fix the degree >= 2 vertices, and the
        # degree-1 vertices fill the remaining slots of each edge.
        edges = [set(e) for e in special(kind).edges]
        pairs = list(combinations(range(len(edges)), 2))
        triples = list(combinations(range(len(edges)), 3))

        def keeps_meets(g):
            return all(
                len(edges[a] & edges[b]) == len(edges[g[a]] & edges[g[b]]) for a, b in pairs
            ) and all(
                bool(edges[a] & edges[b] & edges[c])
                == bool(edges[g[a]] & edges[g[b]] & edges[g[c]])
                for a, b, c in triples
            )

        want = {g for g in permutations(range(len(edges))) if keeps_meets(g)}
        assert set(_plan(kind).group) == want

    def test_plans_start_at_a_greatest_degree_profile(self):
        for kind in NAMES[1:]:
            steps = _plan(kind).steps
            first = steps[0].degrees
            # no other edge has degrees nowhere below the first step's
            assert not any(
                s.degrees != first and all(map(ge, s.degrees, first)) for s in steps
            ), kind
            # the lexicographically greatest profile, least edge index on a tie
            greatest = max(s.degrees for s in steps)
            assert steps[0].edge == min(s.edge for s in steps if s.degrees == greatest), kind

    def test_need_counts_per_step(self):
        # per step, the pattern edges whose sorted degrees are nowhere below
        # the step's: at least that many host edges must fit the step
        needs = {kind: _plan(kind).need for kind in NAMES if kind != "H4"}
        assert needs == {
            "H10": (5, 5, 5, 5, 5),
            "H11": (3, 3, 3, 5, 5),
            "H14_1": (3, 3, 6, 3, 6, 6, 7),
            "H14_2": (3, 3, 6, 3, 6, 6, 7),
            "H14_3": (3, 3, 6, 6, 6, 3, 7),
            "H14_4": (1, 5, 5, 5, 5, 7, 7),
            "H14_5": (7, 7, 7, 7, 7, 7, 7),
            "H14_6": (7, 7, 7, 7, 7, 7, 7),
            "H21_1": (5, 5, 5, 11, 11, 5, 5, 9, 7, 7, 9),
            "H21_2": (3, 3, 3, 11, 11, 9, 9, 9, 9, 9, 9),
            "H21_3": (6, 6, 6, 11, 11, 6, 6, 6, 9, 9, 9),
            "H21_4": (1, 6, 6, 8, 6, 8, 11, 6, 6, 11, 11),
            "H21_5": (6, 6, 11, 6, 11, 11, 6, 6, 11, 6, 11),
            "H21_6": (1, 5, 5, 5, 11, 11, 11, 5, 11, 11, 11),
        }

    def test_conditions_bound_later_steps_by_their_orbits(self):
        def closure(bounds, edges):
            below = {}
            for e in edges:
                below[e] = set(bounds[e]).union(*(below[f] for f in bounds[e]))
            return below

        for kind in NAMES:
            if kind == "H4":
                continue
            plan = _plan(kind)
            edges = [step.edge for step in plan.steps]
            orbit_bounds = {e: set() for e in edges}
            stabilizer = plan.group
            for e in edges:
                for f in {g[e] for g in stabilizer} - {e}:
                    orbit_bounds[f].add(e)
                stabilizer = [g for g in stabilizer if g[e] == e]
            assert stabilizer == [tuple(range(len(edges)))], kind
            kept = dict(zip(edges, plan.after))
            assert all(set(kept[e]) <= orbit_bounds[e] for e in edges), kind
            assert closure(kept, edges) == closure(orbit_bounds, edges), kind


class TestEstar:
    def test_whole_hypergraph(self):
        h = special("H10")
        x = SpecialSet(tuple(find_embeddings(h, "H10")))
        assert estar(h, x) == frozenset()

    def test_bridge(self):
        h = bridged_host()
        embs = find_embeddings(h, "H4")
        disjoint = [e for e in embs if e.edge_indices[0] != 1]
        # edge 1 is the bridge after canonical sorting
        bridge = [e for e in embs if e not in disjoint]
        assert len(disjoint) == 2 and len(bridge) == 1
        x = SpecialSet(tuple(disjoint))
        assert estar(h, x) == frozenset({1})

    def test_incidence_count(self):
        h = special("H21_2")
        one = find_embeddings(h, "H4")[0]
        x = SpecialSet((one,))
        incident = {
            i
            for i, e in enumerate(h.edges)
            if i != one.edge_indices[0] and set(e) & set(one.vertex_map)
        }
        assert estar(h, x) == frozenset(incident)


class TestDeficOfSet:
    def test_empty(self):
        assert defic_of_set(special("H10"), SpecialSet(())) == 0

    def test_isolated_h4(self):
        h = Hypergraph(4, [[0, 1, 2, 3]])
        x = SpecialSet(tuple(find_embeddings(h, "H4")))
        assert defic_of_set(h, x) == 8

    def test_bridged(self):
        h = bridged_host()
        embs = [e for e in find_embeddings(h, "H4") if e.edge_indices[0] != 1]
        assert defic_of_set(h, SpecialSet(tuple(embs))) == 16 - 13


class TestDeficiency:
    @pytest.mark.parametrize("kind", NAMES)
    def test_catalog_values(self, kind):
        value, argmax = deficiency(special(kind))
        assert value == DEFIC_WEIGHT[order_class(kind)]
        assert len(argmax) == 1 and argmax.embeddings[0].kind == kind

    def test_bridged(self):
        value, argmax = deficiency(bridged_host())
        assert value == 3
        assert sorted(e.edge_indices[0] for e in argmax.embeddings) == [0, 2]

    def test_nonnegative_and_empty_admissible(self):
        h = affine_residual(4, 2)
        value, _ = deficiency(h)
        assert value >= 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bruteforce_equivalence(self, seed):
        h = random_linear(14, 4, 3, 7, seed)
        cands = sum(len(find_embeddings(h, k)) for k in NAMES)
        if cands > 14:
            return
        assert deficiency(h)[0] == brute_deficiency(h)

    @pytest.mark.parametrize("kind", ["H4", "H10", "H11", "H14_5", "H21_2"])
    def test_standalone_identity(self, kind):
        h = special(kind)
        n, m, t = SHAPES[kind]
        assert deficiency(h)[0] == 45 * t - 6 * n - 13 * m

    def test_disjoint_union_adds_weights(self):
        # H_10 plus a far-away single edge: both pack with no E* charge
        h10 = special("H10")
        edges = list(h10.edges) + [(10, 11, 12, 13)]
        h = Hypergraph(14, edges)
        value, argmax = deficiency(h)
        assert value == 10 + 8
        assert sorted(e.kind for e in argmax.embeddings) == ["H10", "H4"]

    def test_only_4_edges_are_h4_copies(self):
        # H4 has 4 vertices: a 3-edge or a 6-edge is no copy of it
        h = Hypergraph(7, [[0, 1, 2], [3, 4, 5, 6]])
        assert [e.edge_indices for e in find_embeddings(h, "H4")] == [(1,)]
        assert deficiency(h)[0] == 8
        lone = Hypergraph(6, [range(6)])
        assert find_embeddings(lone, "H4") == []
        assert deficiency(lone)[0] == 0

    def test_hypotheses_come_before_the_guard(self):
        # 8 vertices, two edges sharing 0 and 1: not linear, and over guard 5
        host = Hypergraph(8, [[0, 1, 2, 3], [0, 1, 4, 5], [5, 6, 7]])
        with pytest.raises(HypergraphError, match="linear"):
            deficiency(host, guard_n=5)


class TestXTransversalSize:
    @pytest.mark.parametrize("kind", ["H4", "H10", "H11", "H14_3", "H21_4"])
    def test_matches_solver_on_member_union(self, kind):
        host = special(kind)
        x = SpecialSet(tuple(find_embeddings(host, kind)))
        # restrict to the packed edges and solve directly
        verts = sorted(x.vertex_set())
        rid = {v: i for i, v in enumerate(verts)}
        sub = Hypergraph(
            len(verts),
            [[rid[v] for v in host.edges[i]] for i in sorted(x.edge_set())],
        )
        assert tau(sub).tau == x_transversal_size(x)

    def test_two_component_union(self):
        h = Hypergraph(14, [[0, 1, 2, 3], [4, 5, 6, 7], [4, 8, 9, 10], [8, 11, 12, 13], [5, 8, 2, 12]])
        embs = find_embeddings(h, "H4")
        pick = [e for e in embs if e.edge_indices[0] in (0, 3)]
        x = SpecialSet(tuple(pick))
        assert x_transversal_size(x) == 2


class TestKeyTheorem:
    def test_h4_arithmetic(self):
        assert check_key_theorem(special("H4"))  # 45 <= 24 + 13 + 8

    def test_h10_equality(self):
        h = special("H10")
        value, _ = deficiency(h)
        assert 45 * 3 == 6 * 10 + 13 * 5 + value

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, seed):
        h = random_linear(16, 4, 3, 9, seed)
        assert check_key_theorem(h)


class TestLemmaSpecialSet:
    def test_single_component_single_copy(self):
        h = Hypergraph(4, [[0, 1, 2, 3]])
        x = SpecialSet(tuple(find_embeddings(h, "H4")))
        assert check_lemma_specialset(h, x)

    def test_bridged(self):
        h = bridged_host()
        embs = [e for e in find_embeddings(h, "H4") if e.edge_indices[0] != 1]
        assert check_lemma_specialset(h, SpecialSet(tuple(embs)))

    @pytest.mark.parametrize("kind", NAMES)
    def test_all_visited_sets_on_catalog(self, kind):
        h = special(kind)
        for x in enumerate_special_sets(h):
            assert check_lemma_specialset(h, x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_visited_sets_on_random_hosts(self, seed):
        h = random_linear(14, 4, 3, 7, seed)
        c = component_count(h)
        for x in enumerate_special_sets(h):
            assert 3 * len(estar(h, x)) >= len(x) - c
