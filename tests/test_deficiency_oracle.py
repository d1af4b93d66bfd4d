"""Differential test of the deficiency search on incidence masks.

``oracle_deficiency``, ``oracle_estar`` and ``oracle_defic_of_set`` are
frozen copies of the set-based code: E*(X) by a frozenset scan of every host
edge, a fresh ``SpecialSet`` and a full rescore at every search node, and a
bound that subtracts 13 for each E*(X) edge no compatible candidate can
absorb.  The mask-based search must return the same value and argmax, visit
the same special sets in the same order, and agree on E*(X) and defic of
every visited set.  The oracle keeps the replaced code's extra visit of the
empty set before its search; the search itself visits each set once.  The oracle also counts its prunes, so the corpus is checked
to reach pruned searches.
"""

from __future__ import annotations

import json

import pytest

from linhyp import cli
from linhyp.algebra import random_linear
from linhyp.catalog import DEFIC_WEIGHT, NAMES, SHAPES, order_class, special
from linhyp.core import Hypergraph, HypergraphError, is_linear
from linhyp.deficiency import (
    SpecialSet,
    _candidate_embeddings,
    defic_of_set,
    deficiency,
    estar,
)
from linhyp.hgio import dumps
from linhyp.rng import SplitMix64
from linhyp.solver import GuardExceeded

from corpus import bridged, glued


def oracle_estar(host: Hypergraph, x: SpecialSet) -> frozenset[int]:
    vs = x.vertex_set()
    es = x.edge_set()
    return frozenset(
        i for i, e in enumerate(host.edges) if i not in es and vs & set(e)
    )


def oracle_defic_of_set(host: Hypergraph, x: SpecialSet) -> int:
    counts = x.partition_counts()
    weight = sum(DEFIC_WEIGHT[cls] * cnt for cls, cnt in counts.items())
    return weight - 13 * len(oracle_estar(host, x))


def oracle_deficiency(host: Hypergraph, guard_n: int = 30, visitor=None, prunes=None):
    if host.n > guard_n:
        raise GuardExceeded(f"n={host.n} exceeds deficiency guard {guard_n}")
    if not is_linear(host):
        raise HypergraphError("deficiency is defined over linear hosts here")

    cands = _candidate_embeddings(host)
    vmasks = []
    for emb in cands:
        m = 0
        for v in emb.vertex_map:
            m |= 1 << v
        vmasks.append(m)
    weights = [DEFIC_WEIGHT[order_class(emb.kind)] for emb in cands]
    edge_sets = [emb.edge_set() for emb in cands]
    edge_vmask = []
    for e in host.edges:
        m = 0
        for v in e:
            m |= 1 << v
        edge_vmask.append(m)

    best_value = 0
    best_set = SpecialSet(())
    if visitor:
        visitor(SpecialSet(()))

    def dfs(idx: int, chosen: list[int], vmask: int) -> None:
        nonlocal best_value, best_set
        ss = SpecialSet(tuple(cands[i] for i in chosen))
        value = oracle_defic_of_set(host, ss)
        if visitor:
            visitor(ss)
        if value > best_value or (
            value == best_value and ss.footprint() < best_set.footprint()
        ):
            best_value, best_set = value, ss
        compatible = [j for j in range(idx, len(cands)) if not vmasks[j] & vmask]
        if not compatible:
            return
        chosen_edges: set[int] = set()
        for i in chosen:
            chosen_edges |= edge_sets[i]
        absorbable: set[int] = set()
        for j in compatible:
            absorbable |= edge_sets[j]
        definite_estar = sum(
            1
            for ei in range(host.m)
            if ei not in chosen_edges
            and ei not in absorbable
            and edge_vmask[ei] & vmask
        )
        w_chosen = sum(weights[i] for i in chosen)
        ub = w_chosen + sum(weights[j] for j in compatible) - 13 * definite_estar
        if ub < best_value:
            if prunes is not None:
                prunes.append(chosen)
            return
        for j in compatible:
            dfs(j + 1, chosen + [j], vmask | vmasks[j])

    dfs(0, [], 0)
    return best_value, best_set


def tie_host() -> Hypergraph:
    """An isolated H10 on the highest vertices, and a component where an
    H4 edge and an H14 copy joined by one 4-edge score 8 + 5 - 13 = 0.

    The H10 alone and the H10 with the zero-scoring pair both reach the
    maximum 10.  The pair holds edges 0 and up, so the tie-break must
    replace the H10, found first, by the larger packing: its footprint is
    lexicographically less, although its edge mask is numerically greater.
    """
    h14 = special("H14_1")
    deg = h14.degrees()
    free = min(v for v in range(h14.n) if deg[v] < 3)
    edges = [[0, 1, 2, 3], [0, 4 + free, 18, 19]]
    edges += [[4 + v for v in e] for e in h14.edges]
    edges += [[20 + v for v in e] for e in special("H10").edges]
    return Hypergraph(30, edges)


def _glued_corpus() -> list[tuple[str, Hypergraph]]:
    out = []
    for seed in range(120):
        rng = SplitMix64(0xDEF1C + seed)
        kinds, size = [], 0
        for _ in range(4):
            kind = NAMES[rng.randbelow(len(NAMES))]
            if size + SHAPES[kind][0] <= 30:
                kinds.append(kind)
                size += SHAPES[kind][0]
        extra = rng.randbelow(5)
        out.append((f"glued-{'-'.join(kinds)}-{extra}-{seed}", glued(tuple(kinds), extra, seed)))
    return out


CORPUS = (
    [(f"catalog-{k}", special(k)) for k in NAMES]
    + [
        ("bridged-H10-H11", bridged(("H10", "H11"), 2, 1)),
        ("bridged-H14_1-H4-H10", bridged(("H14_1", "H4", "H10"), 1, 2)),
        ("bridged-H10-H10", bridged(("H10", "H10"), 1, 3)),
        ("bridged-H14_5-H11", bridged(("H14_5", "H11"), 2, 4)),
        ("bridged-H11-H10-H4", bridged(("H11", "H10", "H4"), 1, 7)),
        ("bridged-H14_2-H10", bridged(("H14_2", "H10"), 1, 8)),
        ("bridged-H10-H10-H4", bridged(("H10", "H10", "H4"), 2, 9)),
        ("union-H10-H14_3", bridged(("H10", "H14_3"), 0, 10)),
        ("union-H21_2-H4-H4", bridged(("H21_2", "H4", "H4"), 0, 11)),
        ("union-H11-H11-H4", bridged(("H11", "H11", "H4"), 0, 12)),
    ]
    + [
        (f"random-{n}-{seed}", random_linear(n, 4, 3, 2 * n // 3, seed))
        for n in range(12, 31, 2)
        for seed in (1, 2)
    ]
    + _glued_corpus()
    + [("tie", tie_host())]
)


def _visits(search, host: Hypergraph, **kwargs):
    seen: list[SpecialSet] = []
    value, best = search(host, visitor=seen.append, **kwargs)
    return value, best, seen


@pytest.mark.parametrize("name,host", CORPUS, ids=[name for name, _ in CORPUS])
def test_deficiency_matches_frozen_oracle(name, host):
    value, best, seen = _visits(deficiency, host)
    want_value, want_best, want_seen = _visits(oracle_deficiency, host)
    assert value == want_value
    assert best == want_best
    assert best.footprint() == want_best.footprint()
    assert want_seen[0] == SpecialSet(())
    assert seen == want_seen[1:]
    for x in {x.embeddings: x for x in seen}.values():
        assert estar(host, x) == oracle_estar(host, x)
        assert defic_of_set(host, x) == oracle_defic_of_set(host, x)


def test_visitor_sees_each_special_set_once():
    for name, host in CORPUS:
        _, _, seen = _visits(deficiency, host)
        keys = [frozenset(x.embeddings) for x in seen]
        assert keys[0] == frozenset(), name
        assert len(set(keys)) == len(keys), name


def test_corpus_reaches_hard_cases():
    prunes: list = []
    values, kinds = [], set()
    for _, host in CORPUS:
        value, best = oracle_deficiency(host, prunes=prunes)
        values.append(value)
        kinds |= {emb.kind for emb in best.embeddings}
    assert len(prunes) >= 100
    assert sum(v > 0 for v in values) >= 20
    assert {"H4", "H10", "H11"} <= kinds and any(k.startswith("H14") for k in kinds)


def test_tie_break_decides_argmax():
    host = tie_host()
    value, best, seen = _visits(deficiency, host)
    assert value == 10
    assert [emb.kind for emb in best.embeddings] == ["H10", "H4", "H14_1"]
    first = next(x for x in seen if defic_of_set(host, x) == value)
    assert [emb.kind for emb in first.embeddings] == ["H10"]
    assert best.footprint() < first.footprint()


@pytest.mark.parametrize(
    "host,exc",
    [
        (Hypergraph(31, [[0, 1, 2, 3]]), GuardExceeded),
        (Hypergraph(6, [[0, 1, 2], [0, 1, 3]]), HypergraphError),
    ],
    ids=["guard", "non-linear"],
)
def test_rejections_match_frozen_oracle(host, exc):
    with pytest.raises(exc) as got:
        deficiency(host)
    with pytest.raises(exc) as want:
        oracle_deficiency(host)
    assert str(got.value) == str(want.value)


def defic_json(path: str, capsys) -> dict:
    assert cli.main(["defic", path]) == 0
    out = json.loads(capsys.readouterr().out)
    del out["manifest"]["elapsed_ms"]
    return out


@pytest.mark.parametrize("name", ["bridged-H10-H10-H4", "union-H10-H14_3", "tie"])
def test_defic_json_matches_frozen_search(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / "host.hg"
    path.write_text(dumps(dict(CORPUS)[name]), encoding="ascii")
    got = defic_json(str(path), capsys)
    monkeypatch.setattr(cli, "deficiency", oracle_deficiency)
    monkeypatch.setattr(cli, "estar", oracle_estar)
    want = defic_json(str(path), capsys)
    assert got == want
    assert got["value"] > 0 and got["set"]
