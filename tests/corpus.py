"""Seeded host generators and reference helpers shared by the differential
(frozen-oracle) tests."""

from __future__ import annotations

from linhyp.catalog import special
from linhyp.core import Graph, Hypergraph, vertex_mask
from linhyp.rng import SplitMix64


def random_host(rng: SplitMix64, n: int, m: int, max_size: int) -> Hypergraph:
    """Mixed edge sizes, usually non-linear; vertices may stay isolated."""
    edges = []
    for _ in range(m):
        size = 1 + rng.randbelow(min(n, max_size))
        edges.append(rng.sample(range(n), size))
    return Hypergraph(n, edges)


def relabel(h: Hypergraph, seed: int) -> Hypergraph:
    perm = SplitMix64(seed).sample(list(range(h.n)), h.n)
    return Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])


def bridged(kinds: tuple[str, ...], bridges: int, seed: int) -> Hypergraph:
    """Disjoint catalog copies joined by 4-edges through fresh vertices.

    Each bridge takes one vertex of degree < 3 from each of two copies and
    two new vertices, so the host stays 4-uniform, linear, max degree 3.
    """
    rng = SplitMix64(seed)
    n, edges, blocks = 0, [], []
    for kind in kinds:
        p = special(kind)
        edges += [[n + v for v in e] for e in p.edges]
        blocks.append(range(n, n + p.n))
        n += p.n
    for _ in range(bridges):
        deg = [0] * n
        for e in edges:
            for v in e:
                deg[v] += 1
        a, b = rng.sample(blocks, 2)
        open_a = [v for v in a if deg[v] < 3]
        open_b = [v for v in b if deg[v] < 3]
        if not open_a or not open_b:
            continue
        edges.append([rng.sample(open_a, 1)[0], rng.sample(open_b, 1)[0], n, n + 1])
        n += 2
    return relabel(Hypergraph(n, edges), seed)


def glued(kinds: tuple[str, ...], extra: int, seed: int) -> Hypergraph:
    """Catalog copies glued at single vertices, plus a few random edges.

    Each copy after the first shares at most one vertex with the copies
    before it, so the host stays linear.  Then ``extra`` random edges of 2
    to 4 vertices are drawn, each kept only if the host stays linear.
    """
    rng = SplitMix64(seed)
    n, edges = 0, []
    for kind in kinds:
        p = special(kind)
        base = n
        glue = rng.randbelow(p.n) if base and rng.randbelow(3) else -1
        ids = []
        for v in range(p.n):
            if v == glue:
                ids.append(rng.randbelow(base))
            else:
                ids.append(n)
                n += 1
        edges += [[ids[v] for v in e] for e in p.edges]
    masks = [vertex_mask(e) for e in edges]
    for _ in range(extra):
        e = rng.sample(range(n), 2 + rng.randbelow(3))
        em = vertex_mask(e)
        if all((em & old).bit_count() <= 1 for old in masks):
            edges.append(e)
            masks.append(em)
    return relabel(Hypergraph(n, edges), seed)


def greedy_start(g: Graph) -> dict[int, int]:
    """The greedy start of ``max_matching_general`` on adjacency sets: each
    vertex still unmatched, in increasing order, takes its least unmatched
    neighbour.  The map holds both directions of every pair."""
    adj = g.adj
    match: dict[int, int] = {}
    for v in range(g.n):
        if v in match:
            continue
        free = [w for w in adj[v] if w not in match]
        if free:
            w = min(free)
            match[v] = w
            match[w] = v
    return match
