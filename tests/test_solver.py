"""Exact solver tests: oracle agreement, guards, enumeration, domination."""

import pytest
from hypothesis import given, settings, strategies as st

from linhyp.algebra import affine_plane, g30, heawood, projective_plane, random_linear
from linhyp.catalog import special
from linhyp.core import (
    Hypergraph,
    bipartite_complement,
    complement_hypergraph,
    delete_vertices,
    incidence_graph,
    onh,
)
from linhyp.solver import (
    GuardExceeded,
    enumerate_min_transversals,
    exists_min_transversal,
    gamma_t,
    tau,
    tau_bruteforce,
)

from oracles import cycle_graph


class TestBruteforce:
    def test_h4(self):
        assert tau_bruteforce(special("H4")).tau == 1

    def test_empty(self):
        res = tau_bruteforce(Hypergraph(3, []))
        assert res.tau == 0 and res.witness == ()

    def test_f9(self):
        assert tau_bruteforce(affine_plane(3)).tau == 5

    def test_fano(self):
        assert tau_bruteforce(projective_plane(2)).tau == 3

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            tau_bruteforce(affine_plane(7))


class TestBranchAndBound:
    def test_fano_complement(self):
        assert tau(complement_hypergraph(projective_plane(2))).tau == 3

    def test_heawood_complement_onh(self):
        h = onh(bipartite_complement(incidence_graph(projective_plane(2))))
        assert tau(h).tau == 6

    def test_g30_onh(self):
        assert tau(onh(g30())).tau == 12

    def test_witness_contract(self):
        res = tau(affine_plane(4))
        assert res.check(affine_plane(4))
        assert res.tau == 7

    @pytest.mark.parametrize("q,expected", [(2, 3), (3, 5), (4, 7), (5, 9)])
    def test_affine_planes(self, q, expected):
        assert tau(affine_plane(q)).tau == 2 * q - 1 == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence(self, seed):
        h = random_linear(14, 4, 3, 8, seed)
        assert tau(h).tau == tau_bruteforce(h).tau

    def test_oracle_equivalence_corpus(self):
        # a fixed seeded corpus of 500 instances, n <= 16
        for i in range(500):
            n = 10 + (i % 7)
            m_target = min(5 + (i % 4), 3 * n // 4)
            h = random_linear(n, 4, 3, m_target, seed=60_000 + i)
            assert tau(h).tau == tau_bruteforce(h).tau, i

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=50, deadline=None)
    def test_vertex_deletion_monotonicity(self, seed, data):
        h = random_linear(12, 3, 3, 8, seed)
        xs = data.draw(st.sets(st.integers(0, 11), min_size=1, max_size=3))
        assert tau(delete_vertices(h, xs)).tau >= tau(h).tau - len(xs)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_edge_deletion_monotonicity(self, seed, drop):
        h = random_linear(12, 3, 3, 8, seed)
        if h.m == 0:
            return
        keep = [e for i, e in enumerate(h.edges) if i != drop % h.m]
        assert tau(Hypergraph(h.n, keep)).tau <= tau(h).tau


class TestEnumeration:
    def test_h4_singletons(self):
        assert enumerate_min_transversals(special("H4")) == [(0,), (1,), (2,), (3,)]

    def test_h10_every_vertex_covered(self):
        ts = enumerate_min_transversals(special("H10"))
        assert len(ts) >= 10
        covered = {v for t in ts for v in t}
        assert covered == set(range(10))

    def test_triangle_covers(self):
        tri = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        assert enumerate_min_transversals(tri) == [(0, 1), (0, 2), (1, 2)]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_min_transversals(special("H10"), guard_tau=2)


class TestExistsPredicate:
    def test_h10_any_pair(self):
        h = special("H10")
        from itertools import combinations

        for u, v in combinations(range(10), 2):
            assert exists_min_transversal(h, lambda t: u in t and v in t)

    def test_h11_exception_triple(self):
        from linhyp.verify import h11_exceptional_triple

        h = special("H11")
        s = set(h11_exceptional_triple())
        assert not exists_min_transversal(h, lambda t: len(t & s) >= 2)

    def test_h4_single_vertex(self):
        h = special("H4")
        for v in range(4):
            assert exists_min_transversal(h, lambda t: v in t)


class TestGammaT:
    def test_c4(self):
        assert gamma_t(cycle_graph(4)) == 2

    def test_heawood_bipartite_complement(self):
        assert gamma_t(bipartite_complement(heawood())) == 6

    def test_f8_equals_residual(self):
        # deleting any vertex of F_9 gives the same transversal number
        plane = affine_plane(3)
        values = {tau(delete_vertices(plane, {v})).tau for v in range(9)}
        assert values == {4}
