"""Differential test of the bitset branch and bound for tau.

``oracle_tau`` is a frozen copy of the original list-based search: it
rebuilds the uncovered-edge list at every node, counts degrees in dicts and
bounds by a greedy packing of whole edges and ``ceil(|unc| / Delta)``.  The
bitset ``tau`` must return the same tau, witness and method on every host of
the corpus below, and may only explore fewer nodes, since its bounds are at
least as strong, the branching is unchanged, and a child skipped by the
orbit rule holds nothing smaller than the incumbent.  A host with two or
more components with edges is compared against ``oracle_by_components``:
``tau`` searches each component on its own once the root's bounds fail.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import linhyp.core
import linhyp.solver
from linhyp.algebra import (
    affine_plane,
    affine_residual,
    g30,
    heawood,
    projective_plane,
    random_linear,
)
from linhyp.catalog import NAMES, special
from linhyp.core import (
    Automorphisms,
    Hypergraph,
    bipartite_complement,
    is_linear,
    onh,
    shrink_remove,
)
from linhyp.probability import ShrinkConfig, shrink
from linhyp.rng import SplitMix64
from linhyp.solver import (
    _EXACT_DEGREE,
    TransversalResult,
    _fractional_weights,
    tau,
    tau_bruteforce,
)

from corpus import random_host, relabel
from oracles import components_union_find


def _oracle_greedy_cover(masks: list[int], n: int) -> list[int]:
    uncovered = list(masks)
    cover = []
    while uncovered:
        best_v, best_cnt = -1, -1
        for v in range(n):
            bit = 1 << v
            cnt = sum(1 for em in uncovered if em & bit)
            if cnt > best_cnt:
                best_v, best_cnt = v, cnt
        cover.append(best_v)
        bit = 1 << best_v
        uncovered = [em for em in uncovered if not em & bit]
    return cover


def _oracle_lower_bound(uncovered: list[int]) -> int:
    if not uncovered:
        return 0
    taken = 0
    packing = 0
    for em in uncovered:
        if not em & taken:
            packing += 1
            taken |= em
    degs: dict[int, int] = {}
    for em in uncovered:
        m = em
        while m:
            v = (m & -m).bit_length() - 1
            degs[v] = degs.get(v, 0) + 1
            m &= m - 1
    dmax = max(degs.values())
    count_bound = -(-len(uncovered) // dmax)
    return max(packing, count_bound)


def oracle_tau(h: Hypergraph) -> TransversalResult:
    masks = h.edge_masks()
    if not masks:
        return TransversalResult(0, (), 0, "branch_and_bound")
    greedy = _oracle_greedy_cover(masks, h.n)
    best_size = len(greedy)
    best_set = list(greedy)
    nodes = 0

    def dfs(uncovered: list[int], chosen: list[int], forbidden: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = list(chosen)
            return
        if len(chosen) + _oracle_lower_bound(uncovered) >= best_size:
            return
        pick_allowed = 0
        pick_size = 1 << 62
        for em in uncovered:
            allowed = em & ~forbidden
            if not allowed:
                return
            sz = allowed.bit_count()
            if sz < pick_size:
                pick_allowed, pick_size = allowed, sz
        degs: dict[int, int] = {}
        m = pick_allowed
        while m:
            v = (m & -m).bit_length() - 1
            degs[v] = 0
            m &= m - 1
        for em in uncovered:
            for v in degs:
                if em & (1 << v):
                    degs[v] += 1
        order = sorted(degs, key=lambda v: (-degs[v], v))
        banned = forbidden
        for v in order:
            bit = 1 << v
            chosen.append(v)
            dfs([em for em in uncovered if not em & bit], chosen, banned)
            chosen.pop()
            banned |= bit

    dfs(masks, [], 0)
    return TransversalResult(best_size, tuple(sorted(best_set)), nodes, "branch_and_bound")


def _parts(h: Hypergraph) -> list[set[int]]:
    """The components of ``h`` that hold an edge."""
    return [c for c in components_union_find(h) if any(c.issuperset(e) for e in h.edges)]


def _by_parts(h: Hypergraph, solve) -> TransversalResult:
    """``solve`` on each component with edges, its vertices relabelled in
    increasing order: the sum of the tau, the union of the witnesses, and
    one node for the whole host's root plus the sum of the nodes."""
    size, witness, nodes = 0, [], 1
    for part in _parts(h):
        labels = sorted(part)
        at = {v: i for i, v in enumerate(labels)}
        sub = solve(Hypergraph(len(labels), [
            [at[v] for v in e] for e in h.edges if e[0] in part
        ]))
        size += sub.tau
        witness += [labels[v] for v in sub.witness]
        nodes += sub.nodes_explored
    return TransversalResult(size, tuple(sorted(witness)), nodes, "branch_and_bound")


def oracle_by_components(h: Hypergraph) -> TransversalResult:
    """``oracle_tau`` per component (``_by_parts``) on a host with two or
    more components with edges, and of the whole host otherwise."""
    return _by_parts(h, oracle_tau) if len(_parts(h)) > 1 else oracle_tau(h)


def _symmetric() -> list[tuple[str, Hypergraph]]:
    """Hosts with large automorphism groups, where the orbit rule can fire;
    relabelled, so that the root's edge and children are not the
    construction's own."""
    hosts = []
    for q in (2, 3, 4, 5):
        hosts.append((f"AG(2,{q})-relabel", relabel(affine_plane(q), q)))
        for s in range(1, q + 1):
            hosts.append((f"AG(2,{q})-{s}-relabel", relabel(affine_residual(q, s), 10 * q + s)))
    for q in (2, 3, 4):
        hosts.append((f"PG(2,{q})", projective_plane(q)))
    hosts.append(("onh(g30)-relabel", relabel(onh(g30()), 30)))
    hosts.append(("onh(heawood-bc)", onh(bipartite_complement(heawood()))))
    # two relabelled hosts, one on the even and one on the odd vertices
    # (AG(2,5)-1 leaves vertex 48 isolated): each component is large enough
    # for its own search to test orbits
    for name, a, b in (
        ("AG(2,5)-pair", affine_plane(5), affine_plane(5)),
        ("AG(2,5)+AG(2,5)-1", affine_residual(5, 1), affine_plane(5)),
    ):
        a, b = relabel(a, 51), relabel(b, 52)
        hosts.append((name, Hypergraph(2 * b.n, [
            *([2 * v for v in e] for e in a.edges), *([2 * v + 1 for v in e] for e in b.edges)
        ])))
    return hosts


SYMMETRIC = _symmetric()

# A cubic graph on 20 vertices, as a 2-uniform hypergraph: every vertex has
# one refinement colour, yet vertex 0, the root's first child, lies in no
# minimum transversal, so the only optima sit in the root's child 2 (vertex
# 3, the other end of the root's edge).  Skipping a root child that no
# automorphism maps onto child 1 loses them.
REGULAR_RIGID = Hypergraph(20, [
    (0, 3), (0, 10), (0, 19), (1, 7), (1, 10), (1, 13), (2, 3), (2, 5), (2, 17),
    (3, 15), (4, 6), (4, 14), (4, 16), (5, 8), (5, 15), (6, 17), (6, 19), (7, 9),
    (7, 18), (8, 11), (8, 12), (9, 16), (9, 18), (10, 13), (11, 12), (11, 13),
    (12, 14), (14, 16), (15, 18), (17, 19),
])

# A 7-cycle and a disjoint edge, as a 2-uniform hypergraph: tau = 4 + 1 = 5,
# and the greedy cover finds 5.  At the root both packings stop at nu = 4 and
# degree counting allows 4 too (four vertices of degree 2 cover the 8 edges),
# but y_e = 1/2 on the cycle and 1 on the lone edge is a fractional packing
# of weight 7/2 + 1 = 9/2 > 4, so the root itself is pruned.
CYCLE_AND_EDGE = Hypergraph(9, [(i, (i + 1) % 7) for i in range(7)] + [(7, 8)])


# Circulants on Z_n, one edge {i + s : s in shape} per i: vertex-transitive,
# with point stabilisers that vary with the shape.  With the orbit rule at
# every node and an unbounded budget, a stabiliser colouring that dropped
# the chosen class would skip children that hold the only optima on each of
# them.
CIRCULANTS = [
    (f"Z{n}{shape}", Hypergraph(n, [[(i + d) % n for d in shape] for i in range(n)]))
    for n, shape in ((8, (0, 3)), (9, (0, 1, 5)), (12, (0, 1, 5)), (13, (0, 1, 7)))
]


def _corpus() -> list[tuple[str, Hypergraph]]:
    corpus = [(name, special(name)) for name in NAMES]
    for q in (2, 3, 4, 5):
        corpus.append((f"AG(2,{q})", affine_plane(q)))
        for s in range(1, q + 1):
            corpus.append((f"AG(2,{q})-{s}", affine_residual(q, s)))
    corpus.append(("onh(g30)", onh(g30())))
    corpus += SYMMETRIC
    pg5 = projective_plane(5)
    for seed in range(4):
        corpus.append((f"shrink(PG(2,5),{seed})", shrink(pg5, ShrinkConfig(3, seed))))
    for seed in range(6):
        corpus.append((f"random_linear(40,{seed})", random_linear(40, 4, 3, 26, seed)))
    rng = SplitMix64(0x7A0)
    for i in range(40):
        h = random_host(rng, 4 + rng.randbelow(22), 1 + rng.randbelow(24), 6)
        if i % 4 == 0:  # duplicate an edge
            h = Hypergraph(h.n, h.edges + h.edges[-1:])
        corpus.append((f"mixed({i})", h))
    # a linear host where the greedy packing of allowed parts alone would
    # fall below that of whole edges and let the search grow past the oracle
    corpus.append(("whole-packing", Hypergraph(25, [
        [0, 1, 8], [0, 10, 19], [1, 6, 14], [1, 9, 16], [2, 12, 13], [3, 5, 13],
        [3, 16, 19], [4, 7, 9], [8, 11, 17], [10, 11, 14], [10, 12, 23], [16, 20, 24],
    ])))
    corpus += CIRCULANTS
    corpus.append(("regular-rigid", REGULAR_RIGID))
    corpus.append(("cycle-and-edge", CYCLE_AND_EDGE))
    corpus.append(("isolated", Hypergraph(9, [[0, 2, 4], [2, 5], [4, 5, 7], [0, 7]])))
    corpus.append(("isolated-dup", Hypergraph(6, [[1], [1], [3, 4], [3, 4]])))
    corpus.append(("edgeless", Hypergraph(5, [])))
    corpus.append(("empty", Hypergraph(0, [])))
    return corpus


CORPUS = _corpus()


@pytest.mark.parametrize("name,h", CORPUS, ids=[name for name, _ in CORPUS])
def test_tau_matches_frozen_oracle(name, h):
    got, want = tau(h), oracle_by_components(h)
    assert (got.tau, got.witness, got.method) == (want.tau, want.witness, want.method)
    assert got.nodes_explored <= want.nodes_explored


def test_corpus_reaches_pruned_searches():
    # the corpus must hold searches where the stronger bounds cut nodes
    fewer = sum(
        tau(h).nodes_explored < oracle_by_components(h).nodes_explored for _, h in CORPUS
    )
    assert fewer >= 20


def test_split_keeps_the_whole_host_witness_on_the_corpus(monkeypatch):
    # the union of the per-component first optima is the whole search's
    # first optimum on every disconnected corpus host, and the split takes
    # onh(g30) from 1,528 nodes to 1 + 95 + 112
    split = [(name, h) for name, h in CORPUS if len(_parts(h)) > 1]
    assert len(split) == 19
    got = [tau(h) for _, h in split]
    with monkeypatch.context() as m:
        m.setattr(linhyp.solver, "component_masks", lambda masks: [None])
        whole = [tau(h) for _, h in split]
    for (name, _), r, w in zip(split, got, whole):
        assert (r.tau, r.witness) == (w.tau, w.witness), name
        assert r.nodes_explored <= w.nodes_explored, name
    g = onh(g30())
    halves = [
        tau(Hypergraph(15, [[v - 15 * i for v in e] for e in g.edges if e[0] // 15 == i]))
        for i in (0, 1)
    ]
    assert components_union_find(g) == [set(range(15)), set(range(15, 30))]
    assert [r.nodes_explored for r in halves] == [95, 112]
    assert tau(g).nodes_explored == 1 + 95 + 112


# A star with 20 leaves, a 7-cycle and a 5-cycle, as a 2-uniform
# hypergraph: the root stays open (fractional load 1 + 7/2 + 5/2 = 7 is not
# above 8 - 1), and the host's maximum degree is above the exact range of
# the fractional weights while the cycles' is not.
STAR_AND_CYCLES = Hypergraph(33, [(0, v) for v in range(1, 21)] + [
    (21 + i, 21 + (i + 1) % 7) for i in range(7)
] + [(28 + i, 28 + (i + 1) % 5) for i in range(5)])


def test_split_searches_each_component_as_its_own_tau():
    # each component takes the nodes and first optimum that tau of that
    # component alone, relabelled in increasing order, does
    hosts = [h for _, h in CORPUS if len(_parts(h)) > 1] + [STAR_AND_CYCLES]
    assert max(STAR_AND_CYCLES.degrees()) > _EXACT_DEGREE
    split = 0
    for h in hosts:
        got = tau(h)
        if got.nodes_explored > 1:  # the root left open: the split ran
            assert got == _by_parts(h, tau), h
            split += 1
    assert tau(STAR_AND_CYCLES).nodes_explored > 1
    assert split >= 6, split


def test_fractional_packing_prunes_where_the_other_bounds_miss():
    h = CYCLE_AND_EDGE
    assert sorted(h.degrees())[-4:] == [2, 2, 2, 2] and h.m == 8
    got, want = tau(h), oracle_tau(h)
    assert (got.tau, got.witness) == (want.tau, want.witness) == (5, (0, 2, 4, 5, 7))
    assert got.nodes_explored == 1 < want.nodes_explored


def test_fractional_weights_are_exact_on_the_corpus():
    # no corpus host has a degree above the exact range, so the cap on L
    # changes no search of the corpus
    for name, h in CORPUS:
        delta = max(h.degrees(), default=0)
        big, weight = _fractional_weights(delta)
        assert big == lcm(*range(1, delta + 1)), name
        assert all(weight[d] * d == big for d in range(1, delta + 1)), name


def test_fractional_weights_round_down_above_the_exact_degree():
    big, weight = _fractional_weights(2000)
    assert big == lcm(*range(1, _EXACT_DEGREE + 1)) == 720720
    assert all(weight[d] * d <= big < (weight[d] + 1) * d for d in range(1, 2001))
    star = Hypergraph(2001, [(0, v) for v in range(1, 2001)])
    got = tau(star)
    assert (got.tau, got.witness, got.nodes_explored) == (1, (0,), 1)
    # dense graphs with maximum degree 22 to 28, whose searches run the
    # rounded weights at every node
    rng = SplitMix64(0xDE17A)
    for n in range(24, 32):
        h = Hypergraph(n, [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.randbelow(100) < 80
        ])
        assert max(h.degrees()) > _EXACT_DEGREE
        got, want = tau(h), oracle_tau(h)
        assert (got.tau, got.witness) == (want.tau, want.witness), n
        assert got.nodes_explored < want.nodes_explored, n


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_tau_matches_bruteforce_and_oracle_on_random_linear(data):
    k = data.draw(st.sampled_from((2, 3, 4)), label="k")
    n = data.draw(st.integers(k, 14), label="n")
    max_deg = data.draw(st.integers(1, 5), label="max_deg")
    m = data.draw(st.integers(0, max_deg * n // k), label="m")
    h = random_linear(n, k, max_deg, m, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    got, want = tau(h), oracle_by_components(h)
    assert got.tau == tau_bruteforce(h).tau == want.tau
    assert got.witness == want.witness
    assert got.nodes_explored <= want.nodes_explored


def _unpruned_tau(h: Hypergraph, monkeypatch) -> TransversalResult:
    with monkeypatch.context() as m:
        m.setattr(linhyp.solver, "_orbit_test", lambda autos, first: lambda v: False)
        return tau(h)


def _spy_root_queries(monkeypatch) -> list[tuple[int, int, object]]:
    """Record (u, v, answer) for every automorphism query made at the root
    of tau: there the chosen set C is empty, so no vertex has C's colour."""
    asked = []
    restricted, mapping = Automorphisms.restricted, Automorphisms.mapping

    def spy_restricted(self, colors, budget):
        out = restricted(self, colors, budget)
        out.at_root = 1 not in colors
        return out

    def spy_mapping(self, u, v):
        found = mapping(self, u, v)
        if self.at_root:
            asked.append((u, v, found))
        return found

    monkeypatch.setattr(Automorphisms, "restricted", spy_restricted)
    monkeypatch.setattr(Automorphisms, "mapping", spy_mapping)
    return asked


def test_orbit_rule_keeps_tau_and_witness(monkeypatch):
    # the same search without the orbit rule: same tau and witness, never
    # fewer nodes; the rule must fire on the plane families, and on the
    # AG(2,5) pair in each component's own search
    fired = []
    for name, h in CORPUS:
        got, plain = tau(h), _unpruned_tau(h, monkeypatch)
        assert (got.tau, got.witness) == (plain.tau, plain.witness), name
        assert got.nodes_explored <= plain.nodes_explored, name
        if got.nodes_explored < plain.nodes_explored:
            fired.append(name)
    pairs = {"AG(2,5)-pair", "AG(2,5)+AG(2,5)-1"}
    assert {"AG(2,5)", "AG(2,5)-1", "AG(2,5)-relabel", *pairs} <= set(fired)
    assert len(fired) >= 6, fired
    found_on = []
    mapping = Automorphisms.mapping

    def spy_mapping(self, u, v):
        perm = mapping(self, u, v)
        if perm is not None:
            found_on.append(self.h)
        return perm

    monkeypatch.setattr(Automorphisms, "mapping", spy_mapping)
    for name in sorted(pairs):
        found_on.clear()
        tau(dict(CORPUS)[name])
        assert len({id(h) for h in found_on}) == 2, name
        assert {h.n for h in found_on} <= {24, 25}, name


def test_orbit_rule_at_every_node_keeps_tau_and_witness(monkeypatch):
    # every searched child may build a test for its later siblings, with a
    # budget that lets every automorphism search finish, so the rule fires
    # far more often than under the measured ratios
    monkeypatch.setattr(linhyp.solver, "_TEST_NODES", 0)
    monkeypatch.setattr(linhyp.solver, "_ROUND_NODES", 1e-9)
    fired = []
    for name, h in CORPUS:
        got, want = tau(h), oracle_by_components(h)
        assert (got.tau, got.witness) == (want.tau, want.witness), name
        if got.nodes_explored < _unpruned_tau(h, monkeypatch).nodes_explored:
            fired.append(name)
    assert {name for name, _ in CIRCULANTS} <= set(fired)
    assert len(fired) >= 40, fired


def test_orbit_rule_node_counts(monkeypatch):
    # nodes before the orbit rule: 5,503, 1,985 and 70,761; with the rule at
    # the root only, before the fractional-packing bound: 1,986, 650, 28,881
    # and (affine_residual(7, 5)) 4,707; with it: 1,671, 558, 25,938 and 3,032;
    # with the rule at every node, before the dominance rule: 559, 558, 8,118
    # and 660
    asked = _spy_root_queries(monkeypatch)
    assert tau(affine_plane(5)).nodes_explored == 466
    # the root's orbit is closed under both automorphisms found, so of the
    # four later root children only two need a search
    assert [v for _, v, found in asked if found is not None] == [v for _, v, _ in asked]
    assert len(asked) == 2
    assert tau(affine_residual(5, 1)).nodes_explored == 465
    assert tau(onh(g30())).nodes_explored == 208  # 1,528 before the split
    assert tau(affine_residual(7, 5)).nodes_explored == 469


def test_orbit_rule_below_the_root_on_ag7():
    # 943,062 nodes with the rule at the root only, 58,431 before the
    # dominance rule, and 48,481 while a child's subtree could build tests
    # only if its parent's tests had found an automorphism
    got = tau(affine_plane(7))
    assert got.tau == 13
    assert got.witness == (0, 1, 2, 3, 4, 5, 6, 7, 14, 21, 28, 35, 42)
    assert got.nodes_explored == 32580


def test_root_child_outside_the_first_orbit_is_searched(monkeypatch):
    # the first root child's subtree is small here, below the size at which
    # the orbit test runs at all, so that threshold is lifted
    monkeypatch.setattr(linhyp.solver, "_TEST_NODES", 0)
    h = REGULAR_RIGID
    autos = Automorphisms(h)
    assert autos.mapping(0, 3) is None
    assert autos.equitable and len(set(autos.colors)) == 1
    assert h.edges[0] == (0, 3)
    t = tau(h).tau
    assert tau(shrink_remove(h, [0], [])).tau + 1 > t  # no optimum through 0
    asked = _spy_root_queries(monkeypatch)
    got = tau(h)
    assert asked and asked[0][:2] == (0, 3) and all(f is None for *_, f in asked)
    want = oracle_tau(h)
    assert (got.tau, got.witness) == (want.tau, want.witness)
    assert 3 in got.witness and 0 not in got.witness


def test_orbit_tests_on_a_rigid_circulant(monkeypatch):
    # The circulant on Z_60 with edges {i, i+1, i+7} is vertex-transitive, so
    # the root's children are one orbit, but no automorphism fixes a vertex
    # and moves another: every test below the root finds nothing.  Every
    # searched child with a large enough subtree still builds one, so this
    # pins what those vain tests cost: 107 refinement rounds, one of them
    # the check that the host is not discrete (106 before it).  It was 33
    # while only the subtrees of children searched before any test of their
    # parent's could test, and 9 with the rule at the root only, on the same
    # 5,715 nodes.  Before the dominance rule: 20,469 nodes, and 265 rounds
    # (44 under that gate).
    h = Hypergraph(60, [(i, (i + 1) % 60, (i + 7) % 60) for i in range(60)])
    rounds = []
    refine = linhyp.core._refine

    def counting(*args, **kwargs):
        out = refine(*args, **kwargs)
        rounds.append(out[1])
        return out

    monkeypatch.setattr(linhyp.core, "_refine", counting)
    got = tau(h)
    assert (got.tau, got.nodes_explored) == (23, 5715)
    assert sum(rounds) == 107


def test_rigid_exit_keeps_every_search(monkeypatch):
    # The two shrunk PG(2,7) hosts of `prob mc --p 7 --seed 7` refine to a
    # discrete colouring in three rounds, so only the identity preserves it
    # and no orbit test is built: 17 and 29 automorphism queries, each
    # answering None, before the exit.  With the exit off, every search
    # keeps its tau, witness and nodes.
    pg7 = projective_plane(7)
    mc = [shrink(pg7, ShrinkConfig(4, 7 ^ (0x51AB1E * (t + 1)))) for t in range(2)]
    hosts = [h for _, h in CORPUS] + mc
    asked = []
    mapping = Automorphisms.mapping

    def spy_mapping(self, u, v):
        asked.append((u, v))
        return mapping(self, u, v)

    monkeypatch.setattr(Automorphisms, "mapping", spy_mapping)
    with monkeypatch.context() as m:
        m.setattr(Automorphisms, "discrete", lambda self: False)
        off = [tau(h) for h in hosts]
        assert asked
        asked.clear()
        for h in mc:
            tau(h)
        assert len(asked) == 17 + 29
    asked.clear()
    for h in mc:
        assert Automorphisms(h).discrete()
        tau(h)
    assert asked == []
    assert [tau(h) for h in hosts] == off


# The root's pick is the edge {0, 4}: vertex 4 has residual degree 3, and
# vertex 0 lies in no other edge, so once child 4 is searched the dominance
# rule skips child 0 (3 nodes before the rule).
PENDANT = Hypergraph(10, [[0, 4], [1, 6, 8, 9], [1, 7, 8], [2, 4, 6, 8], [2, 4, 7], [3, 6]])


def test_dominance_rule_at_every_node_keeps_tau_and_witness(monkeypatch):
    # With the orbit rule off, every child that is not searched is skipped by
    # the dominance rule, which runs at every node with no gate: the first
    # child is always searched, and a later child only if its residual degree
    # is above 1.  Skipping more (a first child of degree 1, or later ones of
    # degree 2) loses optima on the corpus and on these small mixed hosts.
    got = _unpruned_tau(PENDANT, monkeypatch)
    assert (got.tau, got.witness, got.nodes_explored) == (3, (1, 3, 4), 2)
    rng = SplitMix64(0xD0E1)
    hosts = list(CORPUS) + [
        (f"small({i})", random_host(rng, 4 + rng.randbelow(12), 1 + rng.randbelow(14), 5))
        for i in range(400)
    ]
    for name, h in hosts:
        got, want = _unpruned_tau(h, monkeypatch), oracle_by_components(h)
        assert (got.tau, got.witness) == (want.tau, want.witness), name
        assert got.nodes_explored <= want.nodes_explored, name
        if h.n <= 16:
            assert got.tau == tau_bruteforce(h).tau, name


@pytest.mark.parametrize("name,h", CORPUS, ids=[name for name, _ in CORPUS])
def test_incidence_masks_transpose_edge_masks(name, h):
    em, inc = h.edge_masks(), h.incidence_masks()
    assert len(inc) == h.n
    for i in range(h.m):
        for v in range(h.n):
            assert (em[i] >> v & 1) == (inc[v] >> i & 1)


def _pairwise_linear(h: Hypergraph) -> bool:
    return all(len(set(a) & set(b)) <= 1 for a, b in combinations(h.edges, 2))


@pytest.mark.parametrize(
    "h,linear",
    [
        (Hypergraph(3, [[1], [1]]), True),
        (Hypergraph(3, [[0, 1], [0, 1]]), False),
        (Hypergraph(4, [[0], [0], [0, 1], [1, 2]]), True),
        (Hypergraph(4, [[0, 1, 2], [2, 3], [2, 3]]), False),
        (Hypergraph(4, [[0, 1, 2], [1, 2, 3]]), False),
        (Hypergraph(5, [[0, 1, 2], [2, 3, 4], [0, 4]]), True),
        (Hypergraph(2, []), True),
    ],
)
def test_is_linear_small_cases(h, linear):
    assert _pairwise_linear(h) == linear
    assert is_linear(h) == linear


def test_is_linear_matches_pairwise_reference():
    rng = SplitMix64(0x11EA)
    hosts = [h for _, h in CORPUS]
    for _ in range(300):
        h = random_host(rng, 3 + rng.randbelow(12), rng.randbelow(8), 4)
        if h.m and rng.randbelow(3) == 0:  # duplicate an edge of any size
            h = Hypergraph(h.n, h.edges + (h.edges[rng.randbelow(h.m)],))
        hosts.append(h)
    assert any(is_linear(h) for h in hosts) and not all(is_linear(h) for h in hosts)
    for h in hosts:
        assert is_linear(h) == _pairwise_linear(h), h


def test_is_linear_matches_pairwise_reference_with_small_duplicates():
    # duplicate edges of size 1 keep a host linear, those of size 2 do not
    rng = SplitMix64(0x1D0)
    verdicts = {True: 0, False: 0}
    dup_sizes = set()
    for _ in range(3000):
        n = 2 + rng.randbelow(9)
        h = random_host(rng, n, rng.randbelow(6), 3)
        edges = list(h.edges)
        for _ in range(rng.randbelow(3)):
            e = rng.sample(range(n), 1 + rng.randbelow(2))
            edges += [e, e]
            dup_sizes.add(len(e))
        h = Hypergraph(n, edges)
        linear = is_linear(h)
        assert linear == _pairwise_linear(h), h
        verdicts[linear] += 1
    assert dup_sizes == {1, 2}
    assert min(verdicts.values()) >= 500, verdicts
