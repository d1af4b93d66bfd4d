"""The individualize-and-refine isomorphism search against the frozen
backtracking search it replaced, and the automorphism queries that the tau
search's orbit rule relies on.

Every permutation the library returns is re-checked here against the edge
multiset, independently of the library's own leaf check.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from linhyp.algebra import affine_plane, affine_residual, g30, heawood, projective_plane
from linhyp.catalog import NAMES, special
from linhyp.core import (
    Automorphisms,
    Hypergraph,
    _refine,
    _Union,
    bipartite_complement,
    graph_isomorphic,
    hypergraph_isomorphic,
    onh,
)
from linhyp.rng import SplitMix64

from corpus import relabel
from oracles import complete_bipartite, cycle_graph, iso_backtrack, refine_sorted_tuples

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def oracle_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    if h1.n != h2.n or h1.m != h2.m:
        return False
    if sorted(map(len, h1.edges)) != sorted(map(len, h2.edges)):
        return False
    return iso_backtrack(h1.n, h1.edges, h2.edges) is not None


def is_automorphism(h: Hypergraph, perm) -> bool:
    if sorted(perm) != list(range(h.n)):
        return False
    return Counter(tuple(sorted(perm[v] for v in e)) for e in h.edges) == Counter(h.edges)


def pinned(h: Hypergraph, u: int) -> Hypergraph:
    """H with a new edge through u of a size no edge of H has, so that an
    isomorphism pinned(h, u) -> pinned(h, v) is an automorphism of H taking
    u to v."""
    size = max(map(len, h.edges), default=1) + 1
    return Hypergraph(h.n + size - 1, h.edges + ((u, *range(h.n, h.n + size - 1)),))


PLANES = [(f"AG(2,{q})", affine_plane(q)) for q in (2, 3, 4)] + [
    (f"PG(2,{q})", projective_plane(q)) for q in (2, 3, 4)
]


def test_catalog_pairs_match_frozen_search():
    entries = [(k, special(k)) for k in NAMES]
    for (ka, a), (kb, b) in itertools.product(entries, repeat=2):
        want = oracle_isomorphic(a, b)
        assert want == (ka == kb)
        assert hypergraph_isomorphic(a, b) == want, (ka, kb)


@pytest.mark.parametrize("name", NAMES)
def test_relabelled_catalog_entries_match_frozen_search(name):
    h = special(name)
    for seed in range(3):
        g = relabel(h, seed)
        assert hypergraph_isomorphic(h, g) and oracle_isomorphic(h, g)
        other = relabel(special("H14_6" if name == "H14_5" else "H14_5"), seed)
        assert hypergraph_isomorphic(g, other) == oracle_isomorphic(g, other)


def test_planes_match_frozen_search():
    hosts = PLANES + [(f"{name}-relabel", relabel(h, 7)) for name, h in PLANES]
    for (ka, a), (kb, b) in itertools.product(hosts, repeat=2):
        want = oracle_isomorphic(a, b)
        assert want == (ka.split("-")[0] == kb.split("-")[0])
        assert hypergraph_isomorphic(a, b) == want, (ka, kb)


def test_known_non_isomorphic_pairs():
    assert not hypergraph_isomorphic(special("H14_5"), special("H14_6"))
    assert not oracle_isomorphic(special("H14_5"), special("H14_6"))
    assert not graph_isomorphic(cycle_graph(6), complete_bipartite(3, 3))
    c6, k33 = cycle_graph(6), complete_bipartite(3, 3)
    assert iso_backtrack(6, c6.edges, k33.edges) is None
    assert graph_isomorphic(heawood(), heawood())


def test_duplicate_edges():
    twice = Hypergraph(4, [[0, 1], [0, 1], [2, 3]])
    assert hypergraph_isomorphic(twice, Hypergraph(4, [[2, 3], [2, 3], [0, 1]]))
    assert not hypergraph_isomorphic(twice, Hypergraph(4, [[0, 1], [2, 3], [0, 2]]))
    autos = Automorphisms(twice)
    assert autos.mapping(0, 2) is None and autos.mapping(2, 0) is None
    perm = autos.mapping(0, 1)
    assert perm[0] == 1 and is_automorphism(twice, perm)
    # the same edges, with one duplicate moved: the refinement sees degrees
    # and the leaf check compares multisets, not sets
    h = Hypergraph(6, [[0, 1, 2], [0, 1, 2], [3, 4, 5], [2, 3]])
    g = Hypergraph(6, [[0, 1, 2], [3, 4, 5], [3, 4, 5], [2, 3]])
    assert hypergraph_isomorphic(h, g) == oracle_isomorphic(h, g) is True
    autos = Automorphisms(h)
    for u, v in itertools.permutations(range(6), 2):
        perm = autos.mapping(u, v)
        assert (perm is not None) == oracle_isomorphic(pinned(h, u), pinned(h, v)), (u, v)
        assert perm is None or (perm[u] == v and is_automorphism(h, perm))


SYMMETRIC = PLANES + [
    ("AG(2,5)", affine_plane(5)),
    ("AG(2,5)-1", affine_residual(5, 1)),
    ("onh(g30)", onh(g30())),
    ("onh(heawood-bc)", onh(bipartite_complement(heawood()))),
    ("H10", special("H10")),
    ("H14_3", special("H14_3")),
]


@pytest.mark.parametrize("name,h", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_symmetric_hosts_match_frozen_search(name, h):
    autos = Automorphisms(h)
    for v in range(h.n):
        perm = autos.mapping(0, v)
        assert perm is None or (perm[0] == v and is_automorphism(h, perm)), v
        if v < 6 and not name.startswith(("AG", "PG")):
            assert (perm is not None) == oracle_isomorphic(pinned(h, 0), pinned(h, v)), v
        if name.startswith(("AG", "PG")):  # the planes are point-transitive
            assert perm is not None, v


@pytest.mark.parametrize("name", NAMES)
def test_catalog_orbits_match_frozen_search(name):
    h = special(name)
    autos = Automorphisms(h)
    for v in range(h.n):
        perm = autos.mapping(0, v)
        assert (perm is not None) == oracle_isomorphic(pinned(h, 0), pinned(h, v)), v
        assert perm is None or (perm[0] == v and is_automorphism(h, perm))


STABILISED = [
    ("AG(2,2)", affine_plane(2)),
    ("PG(2,2)", projective_plane(2)),
    ("C6", Hypergraph(6, [[i, (i + 1) % 6] for i in range(6)])),
]


@pytest.mark.parametrize("name,h", STABILISED, ids=[name for name, _ in STABILISED])
def test_colour_classes_give_setwise_stabilisers(name, h):
    # the whole group by brute force, then, for vertex sets S and T as two
    # colour classes, the queries must answer exactly for the automorphisms
    # that map S onto S and T onto T
    group = [p for p in itertools.permutations(range(h.n)) if is_automorphism(h, p)]
    base = Automorphisms(h)
    for s_set, t_set in (((0,), ()), ((0,), (1,)), ((0, 1), (2,)), ((), (0, 1))):
        colors = [0] * h.n
        for v in s_set:
            colors[v] = 1
        for v in t_set:
            colors[v] = 2
        kept = [p for p in group if all(colors[p[w]] == colors[w] for w in range(h.n))]
        autos = base.restricted(list(colors), 10**9)
        assert autos._union is base._union
        for u, v in itertools.permutations(range(h.n), 2):
            want = any(p[u] == v for p in kept)
            perm = autos.mapping(u, v)
            assert (perm is not None) == want, (s_set, t_set, u, v)
            assert perm is None or (
                perm[u] == v
                and is_automorphism(h, perm)
                and all(colors[perm[w]] == colors[w] for w in range(h.n))
            )


RIGID = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4], [1, 4, 5], [0, 5], [0, 3]])
# the same edge sizes and degrees, one edge moved
PARTNER = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4], [1, 4, 5], [0, 5], [2, 5]])


def test_rigid_host_has_no_automorphism():
    perms = [p for p in itertools.permutations(range(RIGID.n)) if is_automorphism(RIGID, p)]
    assert perms == [tuple(range(RIGID.n))]
    autos = Automorphisms(RIGID)
    for u, v in itertools.permutations(range(RIGID.n), 2):
        assert autos.mapping(u, v) is None


def test_budget_exhaustion_returns_none():
    # the budget counts refinement rounds, shared by the colouring of H and
    # every query: too few give None, never a wrong answer
    h = relabel(affine_plane(5), 3)
    found = [
        Automorphisms(h).restricted([0] * h.n, budget).mapping(0, 1) for budget in range(24)
    ]
    least = next(b for b, perm in enumerate(found) if perm is not None)
    assert least >= 4 and found[:least] == [None] * least
    for perm in found[least:]:
        assert perm is not None and perm[0] == 1 and is_automorphism(h, perm)
    assert Automorphisms(h).mapping(0, 1) == found[least]
    autos = Automorphisms(h).restricted([0] * h.n, least)
    assert autos.mapping(0, 1) is not None and autos.mapping(0, 2) is None
    assert autos.left == 0


def test_leaf_check_rejects_non_automorphisms_under_optimize():
    # With the refinement switched off, every leaf of the search is an
    # arbitrary bijection; only the explicit leaf check can reject them, and
    # it must still do so when asserts are stripped.
    assert not oracle_isomorphic(RIGID, PARTNER)
    assert sorted(RIGID.degrees()) == sorted(PARTNER.degrees())
    code = textwrap.dedent(
        f"""
        import itertools, sys
        import linhyp.core as core
        from linhyp.core import Automorphisms, Hypergraph, hypergraph_isomorphic
        core._refine = lambda col, edges, inc, rounds=None: (col, 1, True)
        rigid = Hypergraph(6, {RIGID.edges!r})
        autos = Automorphisms(rigid)
        found = [autos.mapping(u, v) for u, v in itertools.permutations(range(6), 2)]
        cycle = Hypergraph(5, [[i, (i + 1) % 5] for i in range(5)])
        perm = Automorphisms(cycle).mapping(0, 2)
        ok = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in cycle.edges)
        print(sys.flags.optimize, found.count(None), len(found), ok == list(cycle.edges),
              hypergraph_isomorphic(rigid, Hypergraph(6, {PARTNER.edges!r})))
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "30", "30", "True", "False"]


# The unions on which the integer-coded refinement is checked against the
# frozen sorted-tuple one: each host with itself, and the Heawood graph with
# a relabelled copy, as graph_isomorphic builds it.
_HEAWOOD = heawood()
REFINED = [
    (name, _Union(h.n, h.edges, h.edges))
    for name, h in [(name, special(name)) for name in NAMES]
    + [(f"AG(2,{q})", affine_plane(q)) for q in (2, 3, 4, 5, 7)]
    + [(f"PG(2,{q})", projective_plane(q)) for q in (2, 3, 4, 5)]
    + [
        ("onh(g30)", onh(g30())),
        ("Z60(0,1,7)", Hypergraph(60, [(i, (i + 1) % 60, (i + 7) % 60) for i in range(60)])),
    ]
] + [(
    "heawood-graph",
    _Union(_HEAWOOD.n, _HEAWOOD.edges, relabel(Hypergraph(_HEAWOOD.n, _HEAWOOD.edges), 11).edges),
)]


def _seeded_colourings(rng: SplitMix64, n: int):
    # colourings of the union with 1, 2, 3 or n colours; the all-one
    # colouring; and one vertex of each copy individualised, as an orbit
    # query starts
    for _ in range(6):
        k = (1, 2, 3, n)[rng.randbelow(4)]
        yield [rng.randbelow(k) for _ in range(2 * n)]
    yield [0] * (2 * n)
    col = [0] * (2 * n)
    col[rng.randbelow(n)] = col[n + rng.randbelow(n)] = 1
    yield col


@pytest.mark.parametrize("name,union", REFINED, ids=[name for name, _ in REFINED])
def test_refine_matches_frozen_sorted_tuples(name, union):
    # the same colouring, round count and equitable flag under every budget,
    # on the whole union (as _Union.search refines it) and on the first copy
    # alone (as Automorphisms does, reading only the first n incidence lists)
    n, rng = union.n, SplitMix64(0x2EF1)
    for col in _seeded_colourings(rng, n):
        for budget in (1, 2, 3, 1 + rng.randbelow(8), math.inf):
            for edges, start in ((union.edges, col), (union.e1, col[:n])):
                got = _refine(list(start), edges, union.inc, budget)
                want = refine_sorted_tuples(list(start), edges, union.inc, budget)
                assert got == want, (name, budget)
