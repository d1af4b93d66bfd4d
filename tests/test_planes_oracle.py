"""Plane construction on integer field codes, bipartite matching on the
blossom search and the trusted incidence graph against frozen copies of the
tuple-arithmetic constructions, the depth-first augmenting search and the
validating ``Graph`` construction they replaced.

``max_matching_bipartite`` returns the blossom pairs written (left, right),
so its pairs are pinned to those and its size to the frozen search; Hall
violators do not depend on the maximum matching they are built from, so
they are pinned to the frozen ``hall_violator`` on the frozen search.
"""

from __future__ import annotations

import pytest

from linhyp.algebra import affine_plane, field_tables, gf, projective_plane
from linhyp.core import Graph, Hypergraph, incidence_graph
from linhyp.matching import hall_violator, max_matching_bipartite, max_matching_general
from linhyp.rng import SplitMix64

from corpus import random_host
from oracles import hall_violator_frozen, oracle_bipartite, oriented_blossom_pairs

# e = 1 to 5: primes, 4 8 16 32, 9 27, 25
PLANE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32, 37]
TABLE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


def oracle_affine_plane(q: int) -> Hypergraph:
    field = gf(q)
    elems = field.elements()
    idx = {x: i for i, x in enumerate(elems)}

    def point(x: tuple, y: tuple) -> int:
        return idx[x] * q + idx[y]

    lines = []
    for m in elems:  # y = m x + b
        for b in elems:
            lines.append(
                [point(x, field.add(field.mul(m, x), b)) for x in elems]
            )
    for c in elems:  # x = c
        lines.append([point(c, y) for y in elems])
    return Hypergraph(q * q, lines)


def oracle_projective_plane(q: int) -> Hypergraph:
    field = gf(q)
    elems = field.elements()
    zero, one = field.zero(), field.one()
    points = []
    for x in elems:
        for y in elems:
            points.append((one, x, y))
    for y in elems:
        points.append((zero, one, y))
    points.append((zero, zero, one))
    pidx = {pt: i for i, pt in enumerate(points)}

    def normalize(vec):
        for lead in vec:
            if lead != zero:
                inv = field.inv(lead)
                return tuple(field.mul(inv, c) for c in vec)
        raise AssertionError("zero vector has no projective class")

    def null_basis(a, b, c):
        if c != zero:
            cinv = field.inv(c)
            u = (one, zero, field.neg(field.mul(a, cinv)))
            v = (zero, one, field.neg(field.mul(b, cinv)))
        elif b != zero:
            binv = field.inv(b)
            u = (one, field.neg(field.mul(a, binv)), zero)
            v = (zero, zero, one)
        else:
            u = (zero, one, zero)
            v = (zero, zero, one)
        return u, v

    lines = []
    for a, b, c in points:
        u, v = null_basis(a, b, c)
        members = [pidx[normalize(v)]]
        for t in elems:
            w = tuple(field.add(uc, field.mul(t, vc)) for uc, vc in zip(u, v))
            members.append(pidx[normalize(w)])
        lines.append(members)
    return Hypergraph(len(points), lines)


def oracle_incidence_graph(h: Hypergraph) -> Graph:
    edges = []
    for i, e in enumerate(h.edges):
        for v in e:
            edges.append((v, h.n + i))
    return Graph(
        h.n + h.m,
        edges,
        bipartition=(range(h.n), range(h.n, h.n + h.m)),
    )


@pytest.mark.parametrize("q", PLANE_ORDERS)
def test_planes_match_frozen_tuple_construction(q):
    assert projective_plane(q) == oracle_projective_plane(q)
    assert affine_plane(q) == oracle_affine_plane(q)


@pytest.mark.parametrize("q", TABLE_ORDERS)
def test_field_tables_agree_with_tuple_arithmetic(q):
    field = gf(q)
    elems = field.elements()
    add, mul, neg, inv = field_tables(q)
    for i, a in enumerate(elems):
        assert elems[neg[i]] == field.neg(a)
        if i:
            assert elems[inv[i]] == field.inv(a)
        for j, b in enumerate(elems):
            assert elems[add[i][j]] == field.add(a, b)
            assert elems[mul[i][j]] == field.mul(a, b)


def assert_same_incidence_graph(h: Hypergraph) -> None:
    g = incidence_graph(h)
    assert g == oracle_incidence_graph(h)
    # Matching.check bisects in g.edges, so they must be sorted and distinct
    assert list(g.edges) == sorted(set(g.edges))


@pytest.mark.parametrize("q", PLANE_ORDERS)
def test_incidence_graph_matches_validating_construction_on_planes(q):
    assert_same_incidence_graph(projective_plane(q))
    assert_same_incidence_graph(affine_plane(q))


INCIDENCE_HOSTS = {
    "duplicate-edges": Hypergraph(6, [[0, 1, 2], [0, 1, 2], [2, 3], [2, 3], [4]]),
    "isolated-vertices": Hypergraph(9, [[1, 7], [3, 4, 7], [1, 3]]),
    "duplicates-and-isolated": Hypergraph(7, [[5], [2, 5], [5], [2, 5], [0, 2, 6]]),
    "edgeless": Hypergraph(5, []),
    "empty": Hypergraph(0, []),
    **{
        f"random-{i}": random_host(SplitMix64(0x1C + i), 3 + i, 2 + 2 * i, 4)
        for i in range(12)
    },
}


@pytest.mark.parametrize("name", INCIDENCE_HOSTS)
def test_incidence_graph_matches_validating_construction_on_hosts(name):
    assert_same_incidence_graph(INCIDENCE_HOSTS[name])


@pytest.mark.parametrize("q", PLANE_ORDERS)
def test_bipartite_pairs_match_frozen_search_on_planes(q):
    g = incidence_graph(projective_plane(q))
    m = max_matching_bipartite(g)
    assert m.pairs == oriented_blossom_pairs(g)
    assert m.size == oracle_bipartite(g).size == q * q + q + 1
    assert m.check(g)


def _random_bipartite(rng: SplitMix64) -> Graph:
    """Sides drawn per vertex, so right ids fall below and between left ids;
    a lopsided side share leaves some roots unmatched."""
    n = 4 + rng.randbelow(37)
    left_share = 2 + rng.randbelow(7)  # in tenths
    left, right = [], []
    for v in range(n):
        (left if rng.randbelow(10) < left_share else right).append(v)
    density = 1 + rng.randbelow(5)  # in tenths
    edges = [(a, b) for a in left for b in right if rng.randbelow(10) < density]
    return Graph(n, edges, bipartition=(left, right))


RANDOM_GRAPHS = [_random_bipartite(SplitMix64(0xB1 + i)) for i in range(120)]


def test_random_corpus_reaches_interleaved_and_deficient_sides():
    interleaved = deficient_left = deficient_right = 0
    for g in RANDOM_GRAPHS:
        left, right = g.bipartition
        if right and left and min(right) < min(left) and min(left) < max(right) < max(left):
            interleaved += 1
        size = oracle_bipartite(g).size
        deficient_left += size < len(left)
        deficient_right += size < len(right)
    assert interleaved >= 10
    assert deficient_left >= 20
    assert deficient_right >= 20


@pytest.mark.parametrize("i", range(len(RANDOM_GRAPHS)))
def test_bipartite_pairs_match_frozen_search_on_random_graphs(i):
    g = RANDOM_GRAPHS[i]
    m = max_matching_bipartite(g)
    assert m.pairs == oriented_blossom_pairs(g)
    assert m.size == oracle_bipartite(g).size
    assert m.check(g)


def test_bipartite_pairs_are_written_left_to_right_and_sorted():
    flipped = 0
    for g in RANDOM_GRAPHS:
        left, right = g.bipartition
        pairs = max_matching_bipartite(g).pairs
        assert all(a in left and b in right for a, b in pairs)
        assert list(pairs) == sorted(pairs)
        # the blossom writes a pair (a, b) with a < b, so a right vertex
        # below its partner comes first there and has to be moved
        flipped += any(a in right for a, _ in max_matching_general(g).pairs)
    assert flipped >= 10


def test_blossom_sizes_match_frozen_search_on_random_graphs():
    for g in RANDOM_GRAPHS:
        m = max_matching_general(g)
        assert m.check(g)
        assert m.size == oracle_bipartite(g).size


def test_hall_violators_match_frozen_search():
    found = [hall_violator(g, side) for g in RANDOM_GRAPHS for side in (0, 1)]
    expected = [hall_violator_frozen(g, side) for g in RANDOM_GRAPHS for side in (0, 1)]
    assert found == expected
    assert sum(s is not None for s in found[0::2]) >= 20
    assert sum(s is not None for s in found[1::2]) >= 20
