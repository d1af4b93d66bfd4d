"""Special sub-hypergraph packings and the deficiency functional.

A copy of a catalog entry inside a host is edge-induced: a set of host edges
together with exactly their union of vertices, isomorphic to the entry.
Host vertices may carry additional external edges; those land in E*(X).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from operator import ge, itemgetter
from typing import Callable, Optional

from .catalog import DEFIC_WEIGHT, NAMES, order_class, special
from .core import (
    CertificateError,
    Hypergraph,
    HypergraphError,
    component_count,
    is_k_uniform,
    is_linear,
    members,
    vertex_mask,
)
from .solver import GuardExceeded, tau


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

    def footprint(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set()))


@dataclass(frozen=True)
class _Step:
    """One pattern edge of the search, with what it must satisfy."""

    edge: int
    degrees: tuple[int, ...]  # pattern degrees of the edge's vertices, descending
    apart: tuple[int, ...]  # earlier steps whose pattern edge misses this one
    meets: tuple[tuple[int, int], ...]  # (t, |p & p_t|) for the others, p_t step t's edge
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
    crossings: tuple[tuple[int, int, int], ...]  # (v, a, b): v of degree >= 2 is in a and b
    layout: tuple[int, ...]  # representative key: vertex v is v, edge e is n + e
    vertex_at: tuple[int, ...]  # position of each vertex in the key
    edge_at: tuple[int, ...]  # position of each edge in the key
    need: tuple[int, ...]  # per step: the pattern's own edges that fit it (see _step_fits)
    group: tuple[tuple[int, ...], ...] = ()  # edge automorphisms: edge e goes to g[e]
    after: tuple[tuple[int, ...], ...] = ()  # per step: edges whose image must be smaller


@dataclass(frozen=True)
class _Index:
    """Per-host data for :func:`find_embeddings`, shared by every kind."""

    masks: list[int]  # edge vertex masks
    edge_degrees: list[tuple[int, ...]]  # vertex degrees of each edge, descending
    incidence: list[int]  # vertex -> mask of the edges containing it
    fits: dict[tuple[int, ...], int]  # pattern degrees -> mask of the edges that fit

    def fit(self, degrees: tuple[int, ...]) -> int:
        """Mask of the host edges whose sorted degrees are nowhere below ``degrees``."""
        mask = self.fits.get(degrees)
        if mask is None:
            mask = self.fits[degrees] = sum(
                1 << i
                for i, hd in enumerate(self.edge_degrees)
                if len(hd) == len(degrees) and all(map(ge, hd, degrees))
            )
        return mask


def _index(host: Hypergraph) -> _Index:
    deg = host.degrees()
    return _Index(
        host.edge_masks(),
        [tuple(sorted((deg[v] for v in e), reverse=True)) for e in host.edges],
        host.incidence_masks(),
        {},
    )


# the catalog kinds of one host are searched back to back
_host_index = lru_cache(maxsize=1)(_index)


@lru_cache(maxsize=None)
def _plan(kind: str) -> _Plan:
    pattern = special(kind)
    if not is_linear(pattern):
        raise HypergraphError(f"edge-level search needs a linear pattern, not {kind}")
    n, m, edges = pattern.n, pattern.m, [set(e) for e in pattern.edges]
    deg = pattern.degrees()
    own = _index(pattern)  # the pattern as its own host
    profile = own.edge_degrees

    # search order: the rarest edge first (the greatest degree profile, which
    # the fewest host edges fit), then the edge sharing the most vertices
    # with those already mapped, the rarer one on a tie
    root = max(range(m), key=lambda i: (profile[i], -i))
    order = [root]
    seen = set(edges[root])
    while len(order) < m:
        nxt = max(
            (i for i in range(m) if i not in order),
            key=lambda i: (len(seen & edges[i]), profile[i], -i),
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
                profile[e],
                tuple(t for t, k in enumerate(meets) if not k),
                tuple((t, k) for t, k in enumerate(meets) if k),
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
    crossings = tuple(
        (v, *[e for e in range(m) if v in edges[e]][:2]) for v in range(n) if deg[v] >= 2
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
    plan = _Plan(
        n,
        tuple(steps),
        leaves,
        crossings,
        tuple(layout),
        tuple(layout.index(v) for v in range(n)),
        tuple(layout.index(n + e) for e in range(m)),
        tuple(own.fit(profile[e]).bit_count() for e in order),
        after=((),) * m,
    )

    # The edge automorphisms are the mappings of the pattern onto itself.
    group: list[tuple[int, ...]] = []
    _search(own, plan, lambda values, used, placed: group.append(tuple(values[n:])))

    # Grochow-Kellis conditions: along the steps, the edge of each step takes
    # the least image over its orbit under the automorphisms fixing the edges
    # of the earlier steps.  Those fix every earlier edge, so each condition
    # bounds a later step from below.  A bound that follows from the others
    # through an earlier step's bounds is dropped.
    step_of = {step.edge: s for s, step in enumerate(steps)}
    bounds: list[set[int]] = [set() for _ in steps]
    times = []  # g -> g t, for one automorphism t per bound
    stabilizer = group
    for step in steps:
        e = step.edge
        for t in stabilizer:
            if t[e] != e and e not in bounds[step_of[t[e]]]:
                bounds[step_of[t[e]]].add(e)
                times.append(itemgetter(*t))
        stabilizer = [g for g in stabilizer if g[e] == e]
    below: list[set[int]] = []  # edges whose image lies below each step's
    after = []
    for bound in bounds:
        implied = set().union(*(below[step_of[e]] for e in bound))
        below.append(bound | implied)
        after.append(tuple(sorted(bound - implied)))

    # Those automorphisms, one per bound, generate the group: the mappings
    # found, each once, form it iff they hold the identity and right
    # multiplication by each generator keeps them inside.
    elements = set(group)
    if len(elements) < len(group) or tuple(range(m)) not in elements or any(
        right(g) not in elements for right in times for g in group
    ):
        raise CertificateError(f"the automorphisms found for {kind} are not a group")
    return replace(plan, group=tuple(group), after=tuple(after))


def _step_fits(index: _Index, plan: _Plan) -> Optional[list[int]]:
    """Per step, the mask of the indexed host edges that fit its pattern
    edge, or None when some step's mask holds fewer edges than its ``need``.

    Distinct pattern edges map to distinct host edges, each fitting its own
    pattern edge, and a host edge that fits an edge whose degrees are nowhere
    below a step's fits that step too.  So None means the host holds no copy.
    """
    fit = [index.fit(step.degrees) for step in plan.steps]
    if any(mask.bit_count() < k for mask, k in zip(fit, plan.need)):
        return None
    return fit


def _search(
    index: _Index, plan: _Plan, leaf: Callable[[list[int], int, int], None]
) -> None:
    """Call ``leaf(values, used, placed)`` at each mapping of the plan's
    pattern into the indexed host that meets the plan's conditions, once
    each; with no conditions, on the pattern itself, these are its edge
    automorphisms.

    ``values`` holds the image of vertex v at v and of edge e at n + e, with
    degree-1 vertices left unset; ``used`` is the mask of the image edges and
    ``placed`` the mask of the images of the degree >= 2 vertices.
    """
    n, steps, after = plan.n, plan.steps, plan.after
    masks, incidence = index.masks, index.incidence
    fit = _step_fits(index, plan)
    if fit is None:
        return
    values = [0] * len(plan.layout)  # vertex images, then edge images
    step_masks = [0] * len(steps)

    def extend(s: int, used: int, placed: int) -> None:
        if s == len(steps):
            leaf(values, used, placed)
            return
        step = steps[s]
        allowed = fit[s] & ~used
        for e in after[s]:
            allowed &= -2 << values[n + e]
        if not allowed:
            return
        apart = 0  # no vertex of the image may lie in these
        for t in step.apart:
            apart |= step_masks[t]
        inside = 0  # and these must all lie in it
        for v in step.inside:
            inside |= 1 << values[v]
        if s == 0:
            cands = allowed
        elif step.via_vertex >= 0:
            cands = incidence[values[step.via_vertex]] & allowed
        else:
            cands = 0
            free = step_masks[step.via_step] & ~placed
            while free:
                low = free & -free
                cands |= incidence[low.bit_length() - 1]
                free ^= low
            cands &= allowed
        while cands:
            edge = cands & -cands
            cands ^= edge
            hi = edge.bit_length() - 1
            hm = masks[hi]
            if hm & apart:
                continue
            for t, k in step.meets:
                if (hm & step_masks[t]).bit_count() != k:
                    break
            else:
                if hm & inside != inside:
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
                    extend(s + 1, used | edge, now)

    extend(0, 0, 0)


def find_embeddings(host: Hypergraph, kind: str) -> list[Embedding]:
    """All edge-induced copies of a catalog entry, one per edge-index set.

    The search maps pattern edges to host edges.  It starts at the rarest
    pattern edge, the one whose vertex degrees, sorted, are lexicographically
    greatest; each later step takes the edge sharing the most vertices with
    those already mapped.  Candidates for an edge are the host edges at an
    already-mapped vertex or edge, drawn from a vertex-to-incident-edges
    index.  One is kept if it has the right size, is unused, and meets every
    earlier image in exactly as many vertices as the pattern edges meet.  A
    host edge whose vertex degrees, sorted, fall below the pattern edge's
    anywhere can host no image of it and is never tried.  Before any step is
    tried, the host edges that fit each step are counted: if they are fewer
    than the pattern edges whose degrees are nowhere below the step's, each
    of which needs a host edge of its own that fits the step, there is no
    copy and the search returns at once.  A pattern vertex of degree >= 2 is
    placed at the one vertex its edges' images share, and placed images are
    distinct.  Degree-1 vertices take the leftover slots of their edge's
    image in increasing order.  The host's index is built once and shared
    by consecutive calls on the same host.

    The mappings onto one edge set are any one of them composed with each
    edge automorphism of the pattern (the group is every mapping of the
    pattern onto itself that the same search finds).  Symmetry-breaking
    conditions (Grochow and Kellis, RECOMB 2007) let exactly one of them
    through: along the step order, an edge in the orbit of an earlier step's
    edge, under the automorphisms fixing the edges of the steps before that
    one, must take a larger host edge index than that edge's image.  A second mapping reaching an edge
    set raises ``CertificateError``, so this is checked on every call.

    Each copy is reported by its representative: of the mapping found
    composed with each automorphism, the one whose key is least.  The key
    lists, over the pattern edges in the order "next = least index touching
    the mapped region", the host edge index and then the images of the
    pattern vertices that edge newly maps.  The list is sorted by
    ``edge_indices``.  H4's copies are the host's 4-edges.
    """
    pattern = special(kind)
    if host.n < pattern.n or host.m < pattern.m:
        return []
    if kind == "H4":
        # every single 4-edge is a copy
        return [
            Embedding("H4", e, (i,)) for i, e in enumerate(host.edges) if len(e) == 4
        ]
    plan = _plan(kind)
    index = _host_index(host)
    n, masks = plan.n, index.masks
    crossings, leaves, key_of = plan.crossings, plan.leaves, itemgetter(*plan.layout)
    image = [0] * len(plan.layout)  # a mapping composed with an automorphism
    best: dict[int, tuple[int, ...]] = {}  # edge-set bitmask -> least key

    def least_key(values: list[int], used: int, placed: int) -> None:
        if used in best:
            raise CertificateError(f"two mappings of {kind} reach edge set {members(used)}")
        edges = values[n:]
        keys = []
        for g in plan.group:
            mapped = [edges[e] for e in g]  # edge e goes where g[e] went
            image[n:] = mapped
            for v, a, b in crossings:
                image[v] = (masks[mapped[a]] & masks[mapped[b]]).bit_length() - 1
            for e, free_vertices in leaves:
                slots = masks[mapped[e]] & ~placed
                for v in free_vertices:
                    low = slots & -slots
                    image[v] = low.bit_length() - 1
                    slots ^= low
            keys.append(key_of(image))
        best[used] = min(keys)

    _search(index, plan, least_key)
    found = [
        Embedding(
            kind,
            tuple(key[i] for i in plan.vertex_at),
            tuple(key[i] for i in plan.edge_at),
        )
        for key in best.values()
    ]
    return sorted(found, key=lambda e: e.edge_indices)


def _masks(inc: list[int], embeddings) -> tuple[int, int, int]:
    """The copies' vertex mask ``vmask``, the edge mask ``touch`` of the host
    edges meeting those vertices (``inc`` is ``host.incidence_masks()``) and
    the edge mask ``own`` of the copies' own edges: E*(X) is ``touch & ~own``.
    """
    vmask = own = touch = 0
    for emb in embeddings:
        vmask |= vertex_mask(emb.vertex_map)
        own |= vertex_mask(emb.edge_indices)
    for v in members(vmask):
        touch |= inc[v]
    return vmask, touch, own


def estar(host: Hypergraph, x: SpecialSet) -> frozenset[int]:
    """Host edge indices outside the packing that intersect its vertices."""
    _, touch, own = _masks(host.incidence_masks(), x.embeddings)
    return frozenset(members(touch & ~own))


def defic_of_set(host: Hypergraph, x: SpecialSet) -> int:
    """10|X_10| + 8|X_4| + 5|X_14| + 4|X_11| + |X_21| - 13|E*(X)|."""
    weight = sum(DEFIC_WEIGHT[order_class(emb.kind)] for emb in x.embeddings)
    return weight - 13 * len(estar(host, x))


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

    Branch and bound over disjoint embedding selections.  A node carries its
    packing X as ``(vmask, touch, own, weight)`` (see :func:`_masks`), so
    defic(X) is ``weight - 13 |touch & ~own|``.  The bound adds to that the
    weights of the later candidates vertex-disjoint from X.  None of those
    can absorb an E*(X) edge: every edge of an edge-induced copy lies inside
    its vertex set.  Ties on the value break
    toward the lexicographically least edge-index footprint.  The value is
    never below 0 (the empty set is admissible).  If given, ``visitor`` is
    called once on every special set the search forms, in search order; the
    first is the empty set, at the root.
    """
    if host.n > guard_n:
        raise GuardExceeded(f"n={host.n} exceeds deficiency guard {guard_n}")
    if not is_linear(host):
        raise HypergraphError("deficiency is defined over linear hosts here")

    cands = _candidate_embeddings(host)
    inc = host.incidence_masks()
    masks = [_masks(inc, (emb,)) for emb in cands]
    weights = [DEFIC_WEIGHT[order_class(emb.kind)] for emb in cands]

    best_value, best_chosen, best_own = 0, (), 0

    def dfs(idx: int, chosen: tuple, vmask: int, touch: int, own: int, weight: int) -> None:
        nonlocal best_value, best_chosen, best_own
        value = weight - 13 * (touch & ~own).bit_count()
        if visitor:
            visitor(SpecialSet(tuple(cands[i] for i in chosen)))
        if value > best_value or (
            value == best_value and members(own) < members(best_own)
        ):
            best_value, best_chosen, best_own = value, chosen, own
        compatible = [j for j in range(idx, len(cands)) if not masks[j][0] & vmask]
        if not compatible or value + sum(weights[j] for j in compatible) < best_value:
            return
        for j in compatible:
            vm, tm, om = masks[j]
            dfs(j + 1, chosen + (j,), vmask | vm, touch | tm, own | om, weight + weights[j])

    dfs(0, (), 0, 0, 0, 0)
    return best_value, SpecialSet(tuple(cands[i] for i in best_chosen))


def check_key_theorem(host: Hypergraph) -> bool:
    """45 tau(H) <= 6 n(H) + 13 m(H) + defic(H) for 4-uniform linear, max deg 3."""
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
