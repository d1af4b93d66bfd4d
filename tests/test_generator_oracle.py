"""Differential test of ``random_linear`` against the draw-every-time loop.

``oracle_random_linear`` is a frozen copy of the earlier generator: it
rebuilds the open pool and scans every kept edge on each draw, and stops
only at m_target edges, an empty-enough pool or a spent budget.  The
current generator keeps the pool and the per-vertex neighbour masks up to
date and also stops once no k open vertices are pairwise unjoined, which
must never change the host.  Three sha256 pins of ``hgio.dumps`` fix the
output independently of the frozen copy.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from linhyp import algebra
from linhyp.algebra import AlgebraError, random_linear
from linhyp.core import Hypergraph, vertex_mask
from linhyp.hgio import dumps
from linhyp.rng import SplitMix64


def oracle_random_linear(
    n: int, k: int, max_deg: int, m_target: int, seed: int
) -> Hypergraph:
    """Seeded greedy generator of a k-uniform linear hypergraph with
    maximum degree <= max_deg; stops at m_target edges or when the retry
    budget runs out, returning whatever was built."""
    if k > n or k < 1 or max_deg < 1 or m_target < 0:
        raise AlgebraError("infeasible parameters")
    if k * m_target > max_deg * n:
        raise AlgebraError("degree budget cannot host that many edges")
    rng = SplitMix64(seed)
    deg = [0] * n
    accepted: list[tuple[int, ...]] = []
    masks: list[int] = []
    budget = 200 * max(m_target, 1)
    while len(accepted) < m_target and budget > 0:
        budget -= 1
        pool = [v for v in range(n) if deg[v] < max_deg]
        if len(pool) < k:
            break
        pick = rng.sample(pool, k)
        cand = tuple(sorted(pick))
        mask = vertex_mask(cand)
        if any((mask & old).bit_count() > 1 for old in masks):
            continue
        accepted.append(cand)
        masks.append(mask)
        for v in cand:
            deg[v] += 1
    return Hypergraph(n, accepted)


def seeds(stream: int, count: int) -> list[int]:
    rng = SplitMix64(stream)
    return [rng.next_u64() for _ in range(count)]


def stalled(h: Hypergraph, k: int, max_deg: int) -> bool:
    """Whether k or more vertices were still open when the host stopped."""
    return sum(d < max_deg for d in h.degrees()) >= k


# The host shapes the benchmark workloads build, 60 seeds each.
WORKLOAD_SHAPES = {
    "dual-small": [
        (12 + i % 7, 4, 2, min(4 + i % 5, (12 + i % 7) // 2)) for i in range(60)
    ],
    "dual-32": [(32, 4, 2, 14)] * 60,
    "defic-cells": [(n, 4, 3, m) for m in range(5, 10) for n in range(12, 19)] * 2,
    "defic-large": [(n, 4, 3, 10) for n in range(20, 31)] * 6,
    "tau-40": [(40, 4, 3, 26)] * 60,
}


@pytest.mark.parametrize("shape", sorted(WORKLOAD_SHAPES))
def test_workload_shapes_match_frozen_loop(shape):
    tuples = WORKLOAD_SHAPES[shape]
    assert len(tuples) >= 50
    stream = 1 + sorted(WORKLOAD_SHAPES).index(shape)
    for args, seed in zip(tuples, seeds(stream, len(tuples))):
        assert random_linear(*args, seed) == oracle_random_linear(*args, seed), (args, seed)


def sweep_tuples(count: int) -> list[tuple[int, int, int, int, int]]:
    rng = SplitMix64(2024)
    out = []
    for _ in range(count):
        k = 1 + rng.randbelow(6)
        max_deg = 1 + rng.randbelow(4)
        n = k + rng.randbelow(13)
        m_target = rng.randbelow(max_deg * n // k + 1)
        out.append((n, k, max_deg, m_target, rng.next_u64()))
    return out


def test_seeded_sweep_matches_frozen_loop():
    tuples = sweep_tuples(2000)
    stalls = 0
    for n, k, max_deg, m_target, seed in tuples:
        h = random_linear(n, k, max_deg, m_target, seed)
        assert h == oracle_random_linear(n, k, max_deg, m_target, seed), (
            n, k, max_deg, m_target, seed)
        stalls += h.m < m_target and stalled(h, k, max_deg)
    assert {t[1] for t in tuples} == set(range(1, 7))
    assert {t[2] for t in tuples} == set(range(1, 5))
    # the sweep reaches hosts that stop with k or more open vertices left
    assert stalls >= 100


@pytest.mark.parametrize(
    "args",
    [
        (1, 1, 1, 1),
        (5, 1, 3, 15),
        (7, 1, 4, 20),
        (4, 4, 1, 1),
        (6, 6, 3, 3),
        (9, 9, 2, 2),
        (10, 4, 3, 0),
        (10, 3, 1, 3),
        (13, 4, 1, 3),
        (20, 5, 1, 4),
        (20, 2, 1, 10),
    ],
)
def test_edge_cases_match_frozen_loop(args):
    for seed in seeds(sum(args), 20):
        assert random_linear(*args, seed) == oracle_random_linear(*args, seed), (args, seed)


def test_k1_repeats_singletons():
    h = random_linear(5, 1, 3, 15, 7)
    assert h == oracle_random_linear(5, 1, 3, 15, 7)
    assert h.m == 15 and len(set(h.edges)) == 5


@pytest.mark.parametrize("args", [(2000, 4, 3, 1400, 1), (2000, 3, 2, 1300, 5)])
def test_large_n_matches_frozen_loop(args):
    assert random_linear(*args) == oracle_random_linear(*args)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k_above_recursion_limit_matches_frozen_loop(seed):
    # the search for k pairwise unjoined vertices goes k levels deep
    args = (2200, 1050, 2, 1, seed)
    assert random_linear(*args) == oracle_random_linear(*args)


def test_large_k_max_deg_2_is_quick():
    # With max_deg = 2 the open vertices form one clique per kept edge,
    # the slowest shape for the search; its node budget keeps each call
    # to a few draws' worth of work.
    start = time.perf_counter()
    hosts = [random_linear(150, 12, 2, 25, seed) for seed in range(3)]
    assert time.perf_counter() - start < 5.0
    for seed, h in enumerate(hosts):
        assert h == oracle_random_linear(150, 12, 2, 25, seed)


def test_search_gives_up_on_disjoint_cliques():
    groups, size = 11, 9
    nbr = [0] * (groups * size)
    for g in range(groups):
        clique = ((1 << size) - 1) << (g * size)
        for v in range(g * size, (g + 1) * size):
            nbr[v] = clique ^ (1 << v)
    everything = (1 << len(nbr)) - 1
    assert algebra._has_unjoined(everything, nbr, 12) is None
    assert algebra._has_unjoined(everything, nbr, 11) is True
    assert algebra._has_unjoined(everything >> size * 8, nbr, 4) is False


def test_exhausted_search_keeps_drawing(monkeypatch):
    # A search that runs out of nodes must not end the loop.
    monkeypatch.setattr(algebra, "_SEARCH_NODES", 1)
    for n, k, max_deg, m_target, seed in sweep_tuples(300):
        assert random_linear(n, k, max_deg, m_target, seed) == oracle_random_linear(
            n, k, max_deg, m_target, seed), (n, k, max_deg, m_target, seed)


# Recorded with the draw-every-time loop; (14, 4, 2, 7, 0) stops one edge
# short: four vertices are still open, but two of them share an edge.
@pytest.mark.parametrize(
    "args, m, digest",
    [
        ((40, 4, 3, 26, 1), 26, "f6d3f7e42bad81947a26d3da2b96197885167846c2707bd578ca786fe8e09c01"),
        ((14, 4, 2, 7, 0), 6, "9830c799c802ee3fe1a56aa1bb0351683cfca81764b4b865bd2ce498a769d804"),
        ((2000, 4, 3, 1400, 1), 1400, "f62e97c3ae94cad0058de4afb9e9ea37b90fc497dc25c3b31f3246e840aac92c"),
    ],
)
def test_pinned_hosts(args, m, digest):
    h = random_linear(*args)
    assert h.m == m
    assert hashlib.sha256(dumps(h).encode()).hexdigest() == digest
