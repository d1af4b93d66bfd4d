"""Catalog property suite and named-bound verification."""

from fractions import Fraction

import pytest

from linhyp.algebra import (
    affine_plane,
    affine_residual,
    family_f,
    fano_complement,
    random_linear,
)
from linhyp.catalog import NAMES, special
from linhyp.core import ArgumentError, Graph, Hypergraph, hypergraph_isomorphic, is_connected
from linhyp.solver import tau
from linhyp.verify import (
    HypothesisViolation,
    bound_check,
    defic_identity_check,
    h11_exceptional_triple,
    obs61_suite,
    theorem_mainyy_check,
    tightness_scan,
)


class TestObs61:
    @pytest.mark.parametrize("kind", NAMES)
    def test_catalog_entry_passes(self, kind):
        report = obs61_suite(kind)
        assert report.all_passed, report.failures()

    def test_h4_inapplicable_items(self):
        report = obs61_suite("H4")
        by_prop = {c.prop: c for c in report.checks}
        assert by_prop["a"].applicable and by_prop["a"].passed
        assert by_prop["g"].passed
        for prop in ("f", "h", "i", "j", "k", "p"):
            assert not by_prop[prop].applicable

    def test_h10_items(self):
        report = obs61_suite("H10")
        by_prop = {c.prop: c for c in report.checks}
        for prop in ("b", "f", "g", "h"):
            assert by_prop[prop].applicable and by_prop[prop].passed

    def test_h11_exception_recorded(self):
        report = obs61_suite("H11")
        by_prop = {c.prop: c for c in report.checks}
        assert by_prop["i"].passed
        assert by_prop["m"].passed
        assert by_prop["m"].witness and "excepted" in by_prop["m"].witness

    def test_exceptional_triple_is_unique_failure(self):
        triple = h11_exceptional_triple()
        assert len(triple) == 3
        h = special("H11")
        from itertools import combinations

        from linhyp.solver import enumerate_min_transversals

        ts = enumerate_min_transversals(h)
        failing = []
        for cand in combinations(range(h.n), 3):
            if not any(len(set(t) & set(cand)) >= 2 for t in ts):
                failing.append(set(cand))
        assert failing == [set(triple)]

    def test_unknown_kind(self):
        from linhyp.catalog import CatalogError

        with pytest.raises(CatalogError):
            obs61_suite("H12")

    @pytest.mark.parametrize("kind", NAMES)
    def test_defic_identity(self, kind):
        assert defic_identity_check(kind)


class TestBoundCheck:
    def test_main5_residual_tight(self):
        res = bound_check(affine_residual(4, 2), "MAIN5")
        assert res.holds and res.tau == 5 and res.slack == 0

    def test_main5_rejects_nonlinear(self):
        with pytest.raises(HypothesisViolation):
            bound_check(fano_complement(), "MAIN5")

    def test_fano_complement_violates_ratio(self):
        # confirms that dropping linearity breaks the n+m over 5 bound
        h = fano_complement()
        assert tau(h).tau == 3 > Fraction(h.n + h.m, 5)

    def test_deg2_family_tight(self):
        res = bound_check(family_f(1), "DEG2")
        assert res.holds and res.tau == 4 and res.slack == 0

    def test_deg2_excludes_h10(self):
        with pytest.raises(HypothesisViolation):
            bound_check(special("H10"), "DEG2")

    def test_k23_planes(self):
        # full planes satisfy the bound strictly; only their one- and
        # two-vertex deletions are tight
        res2 = bound_check(affine_plane(2), "K23")
        assert res2.holds and res2.slack == Fraction(1, 3)
        assert bound_check(affine_plane(3), "K23").holds

    def test_q46_catalog(self):
        for kind in NAMES:
            assert bound_check(special(kind), "Q46").holds

    def test_q46_random_corpus(self):
        for i in range(150):
            n = 12 + (i % 7)
            max_deg = 2 + (i % 5)
            m_target = min(4 + (i % 8), max_deg * n // 4)
            h = random_linear(n, 4, max_deg, m_target, seed=70_000 + i)
            assert bound_check(h, "Q46").holds, i

    def test_laichang_no_linearity_needed(self):
        assert bound_check(fano_complement(), "LAICHANG").holds

    def test_laichang_tight_on_overlapping_triangle(self):
        # three 4-edges pairwise sharing two vertices: tau = 2 = 2(6+3)/9,
        # the degree-two extremal case for the 2(n+m)/9 bound
        t4 = Hypergraph(6, [[0, 1, 2, 3], [2, 3, 4, 5], [0, 1, 4, 5]])
        assert t4.max_degree() == 2
        res = bound_check(t4, "LAICHANG")
        assert res.holds and res.slack == 0 and res.tau == 2

    def test_r3reg_parallel_class_construction(self):
        # three parallel classes of AG(2,4) give a 3-regular 4-uniform
        # linear hypergraph on 16 vertices
        plane = affine_plane(4)
        classes: list[list[int]] = []
        unused = list(range(plane.m))
        while unused:
            head = unused.pop(0)
            cls = [head]
            for other in list(unused):
                if all(not set(plane.edges[other]) & set(plane.edges[c]) for c in cls):
                    cls.append(other)
                    unused.remove(other)
            classes.append(cls)
        chosen = [plane.edges[i] for cls in classes[:3] for i in cls]
        h = Hypergraph(16, chosen)
        res = bound_check(h, "R3REG")
        assert res.holds
        assert res.bound == Fraction(7 * 16, 20)

    def test_td37_graph_bound(self):
        from linhyp.algebra import heawood
        from linhyp.core import bipartite_complement

        g = bipartite_complement(heawood())
        res = bound_check(g, "TD37")
        assert res.holds and res.slack == 0  # the unique extremal graph

    def test_td37_rejects_the_empty_graph(self):
        # the empty graph has no minimum degree, so no bound is checked on it
        with pytest.raises(HypothesisViolation):
            bound_check(Graph(0, []), "TD37")

    def test_unknown_bound(self):
        with pytest.raises(ArgumentError):
            bound_check(special("H4"), "NOPE")


class TestMainYY:
    @pytest.mark.parametrize("q,s", [(4, 1), (4, 2), (4, 3), (4, 4), (3, 1), (3, 2), (2, 1), (2, 2)])
    def test_residual_identity(self, q, s):
        assert theorem_mainyy_check(q, s)

    def test_f7_values(self):
        h = affine_residual(3, 2)
        assert (tau(h).tau, h.n, h.m) == (3, 7, 5)
        assert Fraction(7 + 5, 4) == 3


class TestTightness:
    def test_k3_equality_cases(self):
        e3 = Hypergraph(3, [[0, 1, 2]])
        f7 = affine_residual(3, 2)
        f8 = affine_residual(3, 1)
        f9 = affine_plane(3)
        others = [
            ("rand1", random_linear(9, 3, 2, 4, seed=101)),
            ("rand2", random_linear(10, 3, 2, 5, seed=202)),
        ]
        corpus = [("E3", e3), ("F7", f7), ("F8", f8), ("F9", f9)] + [
            (n, h) for n, h in others if is_connected(h)
        ]
        tight = tightness_scan(corpus, "K23")
        assert "E3" in tight and "F7" in tight and "F8" in tight
        assert "F9" not in tight  # tau(F9) = 5 < 21/4

    def test_k2_equality_cases(self):
        e2 = Hypergraph(2, [[0, 1]])
        k3 = affine_residual(2, 1)
        k4 = affine_plane(2)
        tight = tightness_scan([("E2", e2), ("K3", k3), ("K4", k4)], "K23")
        assert set(tight) == {"E2", "K3"}
        assert hypergraph_isomorphic(e2, affine_residual(2, 2))

    def test_main5_residual_family_all_tight(self):
        corpus = [(f"s={s}", affine_residual(4, s)) for s in range(1, 5)]
        assert len(tightness_scan(corpus, "MAIN5")) == 4
