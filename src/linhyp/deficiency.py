"""Special sub-hypergraph packings and the deficiency functional.

A copy of a catalog entry inside a host is edge-induced: a set of host edges
together with exactly their union of vertices, isomorphic to the entry.
Host vertices may carry additional external edges; those land in E*(X).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import ge, itemgetter
from typing import Callable, Optional

from .catalog import DEFIC_WEIGHT, NAMES, TAU_OF_CLASS, order_class, special
from .core import Hypergraph, HypergraphError, component_count, is_linear
from .solver import GuardExceeded


@dataclass(frozen=True)
class Embedding:
    """One catalog copy in a host: catalog vertex i sits at vertex_map[i]."""

    kind: str
    vertex_map: tuple[int, ...]
    edge_indices: tuple[int, ...]  # host edge index realizing each catalog edge

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertex_map)

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_indices)


@dataclass(frozen=True)
class SpecialSet:
    """Pairwise vertex-disjoint catalog copies in a common host."""

    embeddings: tuple[Embedding, ...]

    def __post_init__(self):
        taken: set[int] = set()
        for emb in self.embeddings:
            vs = emb.vertex_set()
            if taken & vs:
                raise HypergraphError("embeddings must be pairwise vertex-disjoint")
            taken |= vs

    def __len__(self) -> int:
        return len(self.embeddings)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for e in self.embeddings for v in e.vertex_map)

    def edge_set(self) -> frozenset[int]:
        return frozenset(i for e in self.embeddings for i in e.edge_indices)

    def partition_counts(self) -> dict[int, int]:
        """Weak-partition sizes keyed by order class {4, 10, 11, 14, 21}."""
        counts = {4: 0, 10: 0, 11: 0, 14: 0, 21: 0}
        for emb in self.embeddings:
            counts[order_class(emb.kind)] += 1
        return counts

    def x_transversal_size(self) -> int:
        """Minimum size of a set hitting every edge of every member copy."""
        return sum(
            TAU_OF_CLASS[order_class(emb.kind)] for emb in self.embeddings
        )

    def footprint(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set()))


EMPTY_SET = SpecialSet(())


@dataclass(frozen=True)
class _Step:
    """One pattern edge of the search, with what it must satisfy."""

    edge: int
    degrees: tuple[int, ...]  # pattern degrees of the edge's vertices, descending
    meets: tuple[int, ...]  # |p & p_t| for the pattern edge p_t of each earlier step t
    via_vertex: int  # a vertex of this edge placed at an earlier step, or -1
    via_step: int  # else an earlier step whose edge meets this one
    place: tuple[tuple[int, int], ...]  # (v, t): v's image is shared with step t's image
    inside: tuple[int, ...]  # placed vertices whose image must lie in this edge's image


@dataclass(frozen=True)
class _Plan:
    """Per-kind search data for :func:`find_embeddings`, built once."""

    n: int
    steps: tuple[_Step, ...]
    leaves: tuple[tuple[int, tuple[int, ...]], ...]  # (edge, its degree-1 vertices)
    layout: tuple[int, ...]  # representative key: vertex v is v, edge e is n + e
    vertex_at: tuple[int, ...]  # position of each vertex in the key
    edge_at: tuple[int, ...]  # position of each edge in the key


@lru_cache(maxsize=None)
def _plan(kind: str) -> _Plan:
    pattern = special(kind)
    if not is_linear(pattern):
        raise HypergraphError(f"edge-level search needs a linear pattern, not {kind}")
    n, edges = pattern.n, [set(e) for e in pattern.edges]
    deg = pattern.degrees()

    # search order: most-constrained first (most vertices already mapped)
    order = [0]
    seen = set(edges[0])
    while len(order) < len(edges):
        nxt = max(
            (i for i in range(len(edges)) if i not in order),
            key=lambda i: (len(seen & edges[i]), -i),
        )
        order.append(nxt)
        seen |= edges[nxt]
    first_step: dict[int, int] = {}  # vertex -> step of its first edge
    hits = [0] * n  # edges of each vertex among the steps so far
    steps = []
    for s, e in enumerate(order):
        meets = tuple(len(edges[e] & edges[t]) for t in order[:s])
        placed_before = [v for v in sorted(edges[e]) if hits[v] >= 2]
        via_step = next((t for t, k in enumerate(meets) if k), -1)
        place, inside = [], []
        for v in sorted(edges[e]):
            hits[v] += 1
            if hits[v] == 1:
                first_step[v] = s
            elif hits[v] == 2:
                place.append((v, first_step[v]))
            else:
                inside.append(v)
        steps.append(
            _Step(
                e,
                tuple(sorted((deg[v] for v in edges[e]), reverse=True)),
                meets,
                placed_before[0] if placed_before else -1,
                via_step,
                tuple(place),
                tuple(inside),
            )
        )
    leaves = tuple(
        (e, tuple(v for v in sorted(edges[e]) if deg[v] == 1))
        for e in range(len(edges))
    )

    # The representative of an edge set is the least key, where the key
    # lists, over the order "next = least index touching the mapped region",
    # each edge's image and then the images of the vertices it newly maps.
    layout: list[int] = [n]
    layout.extend(sorted(edges[0]))
    seen = set(edges[0])
    remaining = set(range(1, len(edges)))
    while remaining:
        nxt = min(i for i in remaining if seen & edges[i])
        layout.append(n + nxt)
        layout.extend(sorted(edges[nxt] - seen))
        seen |= edges[nxt]
        remaining.discard(nxt)
    return _Plan(
        n,
        tuple(steps),
        leaves,
        tuple(layout),
        tuple(layout.index(v) for v in range(n)),
        tuple(layout.index(n + e) for e in range(len(edges))),
    )


def find_embeddings(host: Hypergraph, kind: str) -> list[Embedding]:
    """All edge-induced copies of a catalog entry, one per edge-index set.

    The search maps pattern edges to host edges, most-constrained edge
    first (the one sharing the most vertices with those already mapped).
    Candidates for an edge are the host edges at an already-mapped vertex
    or edge, drawn from a vertex-to-incident-edges index.  One is kept if
    it has the right size, is unused, and meets every earlier image in
    exactly as many vertices as the pattern edges meet.  A host edge whose
    vertex degrees, sorted, fall below the pattern edge's anywhere can host
    no image of it and is never tried.  A pattern vertex of degree >= 2 is
    placed at the one vertex its edges' images share, and placed images are
    distinct.  Degree-1 vertices take the leftover slots of their edge's
    image in increasing order.

    Each copy is reported once, by its representative: of all mappings onto
    the same edge set, the one whose key is least.  The key lists, over the
    pattern edges in the order "next = least index touching the mapped
    region", the host edge index and then the images of the pattern
    vertices that edge newly maps.  The list is sorted by ``edge_indices``.
    """
    pattern = special(kind)
    if host.n < pattern.n or host.m < pattern.m:
        return []
    if kind == "H4":
        # every single edge is a copy
        return [
            Embedding("H4", tuple(e), (i,)) for i, e in enumerate(host.edges)
        ]
    plan = _plan(kind)
    n, steps, leaves = plan.n, plan.steps, plan.leaves
    masks = host.edge_masks()
    deg = host.degrees()
    host_degrees = [sorted((deg[v] for v in e), reverse=True) for e in host.edges]
    fits: dict[tuple[int, ...], int] = {}  # pattern degrees -> host edge bitmask
    for step in steps:
        if step.degrees not in fits:
            fits[step.degrees] = sum(
                1 << i
                for i, hd in enumerate(host_degrees)
                if len(hd) == len(step.degrees) and all(map(ge, hd, step.degrees))
            )
    fit = [fits[step.degrees] for step in steps]
    if not all(fit):
        return []
    incident: list[list[int]] = [[] for _ in range(host.n)]
    for i, e in enumerate(host.edges):
        for v in e:
            incident[v].append(i)
    values = [0] * len(plan.layout)  # vertex images, then edge images
    step_masks = [0] * len(steps)
    key_of = itemgetter(*plan.layout)
    best: dict[int, tuple[int, ...]] = {}  # edge-set bitmask -> least key

    def extend(s: int, used: int, placed: int) -> None:
        if s == len(steps):
            for e, free_vertices in leaves:
                slots = masks[values[n + e]] & ~placed
                for v in free_vertices:
                    low = slots & -slots
                    values[v] = low.bit_length() - 1
                    slots ^= low
            key = key_of(values)
            old = best.get(used)
            if old is None or key < old:
                best[used] = key
            return
        step = steps[s]
        allowed = fit[s] & ~used
        if s == 0:
            cands = range(host.m)
        elif step.via_vertex >= 0:
            cands = incident[values[step.via_vertex]]
        else:
            cands = set()
            free = step_masks[step.via_step] & ~placed
            while free:
                low = free & -free
                cands.update(incident[low.bit_length() - 1])
                free ^= low
        for hi in cands:
            if not allowed >> hi & 1:
                continue
            hm = masks[hi]
            for t, k in enumerate(step.meets):
                if (hm & step_masks[t]).bit_count() != k:
                    break
            else:
                if not all(hm >> values[v] & 1 for v in step.inside):
                    continue
                now = placed
                for v, t in step.place:
                    x = hm & step_masks[t]  # one vertex: the edges meet once
                    if now & x:
                        break
                    values[v] = x.bit_length() - 1
                    now |= x
                else:
                    values[n + step.edge] = hi
                    step_masks[s] = hm
                    extend(s + 1, used | 1 << hi, now)

    extend(0, 0, 0)
    found = [
        Embedding(
            kind,
            tuple(key[i] for i in plan.vertex_at),
            tuple(key[i] for i in plan.edge_at),
        )
        for key in best.values()
    ]
    return sorted(found, key=lambda e: e.edge_indices)


def estar(host: Hypergraph, x: SpecialSet) -> frozenset[int]:
    """Host edge indices outside the packing that intersect its vertices."""
    vs = x.vertex_set()
    es = x.edge_set()
    return frozenset(
        i for i, e in enumerate(host.edges) if i not in es and vs & set(e)
    )


def defic_of_set(host: Hypergraph, x: SpecialSet) -> int:
    """10|X_10| + 8|X_4| + 5|X_14| + 4|X_11| + |X_21| - 13|E*(X)|."""
    counts = x.partition_counts()
    weight = sum(DEFIC_WEIGHT[cls] * cnt for cls, cnt in counts.items())
    return weight - 13 * len(estar(host, x))


def estar_bipartite_graph(host: Hypergraph, x: SpecialSet):
    """The bipartite graph pairing packed copies with the E*(X) edges.

    Left side: one vertex per member of the packing (in order).  Right side:
    one vertex per E*(X) edge (ascending edge index).  An edge joins them
    when the external edge intersects that copy.  Matchings here decide
    whether every external edge can be charged to a distinct copy.
    """
    from .core import Graph

    ext = sorted(estar(host, x))
    k = len(x.embeddings)
    pairs = []
    for j, ei in enumerate(ext):
        everts = set(host.edges[ei])
        for i, emb in enumerate(x.embeddings):
            if everts & set(emb.vertex_map):
                pairs.append((i, k + j))
    return Graph(k + len(ext), pairs, bipartition=(range(k), range(k, k + len(ext))))


def _candidate_embeddings(host: Hypergraph) -> list[Embedding]:
    # kinds in descending deficiency contribution tighten bounds early
    kind_order = sorted(
        NAMES, key=lambda k: (-DEFIC_WEIGHT[order_class(k)], k)
    )
    out: list[Embedding] = []
    for kind in kind_order:
        out.extend(find_embeddings(host, kind))
    return out


def deficiency(
    host: Hypergraph,
    guard_n: int = 30,
    visitor: Optional[Callable[[SpecialSet], None]] = None,
) -> tuple[int, SpecialSet]:
    """Exact maximum of defic over all special H-sets, with an argmax.

    Branch and bound over disjoint embedding selections.  The bound adds the
    weights of still-compatible candidates and charges 13 for every edge
    already touching the packing that no remaining candidate can absorb.
    Ties on the value break toward the lexicographically least edge-index
    footprint.  The value is never below 0 (the empty set is admissible).
    If given, ``visitor`` is called on every special set the search forms.
    """
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
    best_set = EMPTY_SET
    if visitor:
        visitor(EMPTY_SET)

    def dfs(idx: int, chosen: list[int], vmask: int) -> None:
        nonlocal best_value, best_set
        ss = SpecialSet(tuple(cands[i] for i in chosen))
        value = defic_of_set(host, ss)
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
            return
        for j in compatible:
            dfs(j + 1, chosen + [j], vmask | vmasks[j])

    dfs(0, [], 0)
    return best_value, best_set


def enumerate_special_sets(
    host: Hypergraph, guard_n: int = 30
) -> list[SpecialSet]:
    """Every special set the deficiency search visits (including empty)."""
    seen: list[SpecialSet] = []
    keys: set[tuple] = set()

    def visit(ss: SpecialSet) -> None:
        key = tuple(sorted((e.kind, e.edge_indices) for e in ss.embeddings))
        if key not in keys:
            keys.add(key)
            seen.append(ss)

    deficiency(host, guard_n=guard_n, visitor=visit)
    return seen


def check_key_theorem(host: Hypergraph) -> bool:
    """45 tau(H) <= 6 n(H) + 13 m(H) + defic(H) for 4-uniform linear, max deg 3."""
    from .core import is_k_uniform
    from .solver import tau

    if not is_k_uniform(host, 4):
        raise HypergraphError("key theorem needs a 4-uniform hypergraph")
    if not is_linear(host):
        raise HypergraphError("key theorem needs a linear hypergraph")
    if host.max_degree() > 3:
        raise HypergraphError("key theorem needs maximum degree <= 3")
    t = tau(host).tau
    value, _ = deficiency(host)
    return 45 * t <= 6 * host.n + 13 * host.m + value


def check_lemma_specialset(host: Hypergraph, x: SpecialSet) -> bool:
    """3 |E*(X)| >= |X| - c(H)."""
    return 3 * len(estar(host, x)) >= len(x) - component_count(host)
