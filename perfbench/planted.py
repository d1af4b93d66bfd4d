"""Seeded generator of hosts with planted catalog copies (stdlib only).

A planted host is 4-uniform, linear and of maximum degree at most three.  It
holds pairwise vertex-disjoint copies of catalog entries.  Some copies stay
isolated, each its own component, so they score their full deficiency
weight.  The others are joined to each other and to a few free vertices by
external 4-edges, which land in E*(X) for any packing that uses those
copies.  Random hosts of the same size almost never contain a copy other
than H4; planted ones do by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator; same stream for the same seed everywhere."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def hg_text(n: int, edges) -> str:
    """A hypergraph in the ``.hg`` format (1-based ids, edges as given)."""
    lines = [f"p hg {n} {len(edges)}"]
    lines += ["e " + " ".join(str(v + 1) for v in e) for e in edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PlantedCopy:
    kind: str
    edges: tuple[tuple[int, ...], ...]  # host vertex ids, each edge sorted
    isolated: bool


@dataclass(frozen=True)
class PlantedHost:
    n: int
    edges: tuple[tuple[int, ...], ...]  # sorted, in canonical order
    copies: tuple[PlantedCopy, ...]

    def hg_text(self) -> str:
        return hg_text(self.n, self.edges)


def planted_host(
    seed: int,
    catalog: dict[str, tuple[int, tuple[tuple[int, ...], ...]]],
    max_n: int = 26,
    max_copies: int = 4,
    free_vertices: int = 4,
    external_edges: int = 2,
) -> PlantedHost:
    """Plant disjoint copies of ``catalog`` entries (name -> (n, edges)).

    Copies are drawn until ``max_copies`` or the vertex budget is reached.
    The first copy is always isolated and, when there are several copies,
    the last one is always joined; the others are isolated with probability
    one half.  Up to ``external_edges`` joining edges are placed, each on
    vertices of degree at most two that share no edge, and each meeting at
    least one joined copy.
    """
    rng = SplitMix64(seed)
    kinds = sorted(catalog)
    budget = max_n - free_vertices
    chosen: list[str] = []
    while len(chosen) < max_copies:
        fitting = [k for k in kinds if catalog[k][0] <= budget]
        if not fitting:
            break
        kind = fitting[rng.below(len(fitting))]
        chosen.append(kind)
        budget -= catalog[kind][0]
    n = max_n - budget
    label = rng.permutation(n)

    edges: list[tuple[int, ...]] = []
    placed: list[tuple[str, list[tuple[int, ...]], bool]] = []
    joined_vertices: list[int] = []
    base = 0
    for i, kind in enumerate(chosen):
        size, cat_edges = catalog[kind]
        copy_edges = [tuple(sorted(label[base + v] for v in e)) for e in cat_edges]
        if i == 0:
            isolated = True
        elif i == len(chosen) - 1:
            isolated = False
        else:
            isolated = rng.below(2) == 0
        if not isolated:
            joined_vertices += [label[base + v] for v in range(size)]
        placed.append((kind, copy_edges, isolated))
        edges += copy_edges
        base += size
    free = [label[v] for v in range(base, n)]
    joined = set(joined_vertices)

    degree = [0] * n
    partners: list[set[int]] = [set() for _ in range(n)]

    def add_edge(e: tuple[int, ...]) -> None:
        for v in e:
            degree[v] += 1
            partners[v].update(e)

    for e in edges:
        add_edge(e)
    pool = sorted(joined) + free
    placed_external = 0
    for _ in range(200 * external_edges):
        if placed_external == external_edges:
            break
        open_pool = [v for v in pool if degree[v] < 3]
        if len(open_pool) < 4:
            break
        pick: list[int] = []
        for v in (open_pool[rng.below(len(open_pool))] for _ in range(4)):
            if v in pick or any(v in partners[u] for u in pick):
                break
            pick.append(v)
        if len(pick) < 4 or not joined & set(pick):
            continue
        e = tuple(sorted(pick))
        edges.append(e)
        add_edge(e)
        placed_external += 1

    copies = tuple(PlantedCopy(k, tuple(sorted(ce)), iso) for k, ce, iso in placed)
    return PlantedHost(n, tuple(sorted(edges)), copies)
