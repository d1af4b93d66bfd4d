"""Tests of the benchmark's planted-host generator and span tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import linhyp  # noqa: E402
from linhyp import hgio  # noqa: E402
from linhyp.core import components, is_k_uniform, is_linear  # noqa: E402

from planted import planted_host  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import catalog_edges  # noqa: E402

SEEDS = range(24)
KINDS = {k: v for k, v in catalog_edges().items() if v[0] <= 14}


def host(seed: int):
    return planted_host(seed, KINDS)


def test_hosts_are_4_uniform_linear_max_degree_3():
    for seed in SEEDS:
        h = hgio.loads(host(seed).hg_text())
        assert is_k_uniform(h, 4), seed
        assert is_linear(h), seed
        assert h.max_degree() <= 3, seed


def test_output_is_byte_identical_per_seed():
    texts = [host(seed).hg_text().encode("ascii") for seed in SEEDS]
    assert texts == [host(seed).hg_text().encode("ascii") for seed in SEEDS]
    assert len(set(texts)) == len(texts)


def test_find_embeddings_finds_every_planted_copy():
    for seed in SEEDS:
        planted = host(seed)
        h = hgio.loads(planted.hg_text())
        index = {e: i for i, e in enumerate(h.edges)}
        for copy in planted.copies:
            want = frozenset(index[e] for e in copy.edges)
            found = {emb.edge_set() for emb in linhyp.find_embeddings(h, copy.kind)}
            assert want in found, (seed, copy.kind)


def test_isolated_copies_are_components_and_some_copy_is_joined():
    for seed in SEEDS:
        planted = host(seed)
        comps = [frozenset(c) for c in components(hgio.loads(planted.hg_text()))]
        for copy in planted.copies:
            vertices = frozenset(v for e in copy.edges for v in e)
            assert (vertices in comps) == copy.isolated, (seed, copy.kind)
        if len(planted.copies) > 1:
            assert not all(c.isolated for c in planted.copies), seed


def test_a_seeds_hosts_have_positive_deficiency():
    values = [linhyp.deficiency(hgio.loads(host(seed).hg_text()))[0] for seed in range(6)]
    assert sum(v > 0 for v in values) / len(values) > 0.5, values


def test_tracer_nests_spans_and_restores_functions():
    original = linhyp.solver.tau
    h = hgio.loads(host(3).hg_text())
    with Tracer() as tracer:
        assert linhyp.tau is not original and linhyp.verify.tau is not original
        assert linhyp.check_key_theorem(h)
    assert linhyp.tau is original and linhyp.verify.tau is original
    spans = tracer.spans
    top = spans.names.index("deficiency.check_key_theorem")
    children = {spans.names[i] for i, p in enumerate(spans.parents) if p == top}
    assert children == {"core.is_linear", "solver.tau", "deficiency.deficiency"}
    assert abs(sum(spans.self_times()) - spans.covered()) < 1e-9
    layers = spans.layers()
    assert layers["deficiency.find_embeddings.calls"] == len(linhyp.SPECIAL_NAMES)
    assert layers["deficiency.sets_visited"] >= 1
    assert layers["solver.tau.nodes"] == linhyp.tau(h).nodes_explored
