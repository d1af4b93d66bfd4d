"""Exhaustive and set-based reference computations on graphs and
hypergraphs, and frozen copies of replaced library routines, used only as
oracles by the tests."""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from linhyp.catalog import NAMES, SHAPES, special
from linhyp.core import Graph, Hypergraph, HypergraphError
from linhyp.deficiency import SpecialSet, deficiency, estar
from linhyp.matching import Matching, max_matching_general
from linhyp.solver import GuardExceeded


def max_matching_bruteforce(g: Graph, guard_m: int = 60) -> int:
    """Exhaustive matching size over edge subsets.

    Sizes increase until none is feasible; any matching of size s+1 contains
    one of size s, so the first gap is conclusive.
    """
    if g.m > guard_m:
        raise GuardExceeded(f"m={g.m} exceeds brute-force guard {guard_m}")
    best = 0
    for size in range(1, g.n // 2 + 1):
        found = False
        for sub in combinations(g.edges, size):
            verts = [v for e in sub for v in e]
            if len(set(verts)) == 2 * size:
                found = True
                break
        if not found:
            break
        best = size
    return best


def components_union_find(h: Hypergraph | Graph) -> list[set[int]]:
    """Connected components as vertex sets, ordered by smallest member, by
    union-find with path halving: the library's routine before it ran on
    edge-mask merges, kept as its reference."""
    parent = list(range(h.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in h.edges:
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for v in range(h.n):
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None if the graph is a forest."""
    best: Optional[int] = None
    adj = g.adj
    for s in range(g.n):
        dist = {s: 0}
        par = {s: -1}
        queue = [s]
        while queue:
            nxt = []
            for v in queue:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        par[w] = v
                        nxt.append(w)
                    elif w != par[v]:
                        cyc = dist[v] + dist[w] + 1
                        if best is None or cyc < best:
                            best = cyc
            queue = nxt
    return best


def gamma_t_bruteforce(g: Graph, guard_n: int = 16) -> int:
    """Total domination number by a scan of vertex subsets in size order."""
    if g.n > guard_n:
        raise GuardExceeded(f"n={g.n} exceeds brute-force guard {guard_n}")
    adj = [set(nb) for nb in g.adj]
    if any(not nb for nb in adj):
        raise HypergraphError("total domination undefined with isolated vertices")
    for size in range(1, g.n + 1):
        for cand in combinations(range(g.n), size):
            s = set(cand)
            if all(adj[v] & s for v in range(g.n)):
                return size
    raise AssertionError("unreachable")


def estar_bipartite_graph(host: Hypergraph, x: SpecialSet) -> Graph:
    """The bipartite graph pairing packed copies with the E*(X) edges.

    Left side: one vertex per member of the packing (in order).  Right side:
    one vertex per E*(X) edge (ascending edge index).  An edge joins them
    when the external edge meets that copy.
    """
    ext = sorted(estar(host, x))
    k = len(x.embeddings)
    pairs = []
    for j, ei in enumerate(ext):
        everts = set(host.edges[ei])
        for i, emb in enumerate(x.embeddings):
            if everts & set(emb.vertex_map):
                pairs.append((i, k + j))
    return Graph(k + len(ext), pairs, bipartition=(range(k), range(k, k + len(ext))))


def enumerate_special_sets(host: Hypergraph, guard_n: int = 30) -> list[SpecialSet]:
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


def x_transversal_size(x: SpecialSet) -> int:
    """Minimum size of a set hitting every edge of every member copy."""
    return sum(SHAPES[emb.kind][2] for emb in x.embeddings)


# A frozen copy of the isomorphism search that the individualize-and-refine
# search replaced: three rounds of degree-profile colouring, then a
# backtracking vertex map in a connected expansion order.

def refine_colors(n: int, edges: Sequence[Sequence[int]], rounds: int = 3) -> list[int]:
    # iterated degree-profile refinement: a vertex's color folds in the sorted
    # color multisets of its incident edges
    col = [0] * n
    for _ in range(rounds):
        ekeys = [tuple(sorted(col[v] for v in e)) for e in edges]
        vkeys: list[tuple] = [(col[v],) for v in range(n)]
        for i, e in enumerate(edges):
            for v in e:
                vkeys[v] = vkeys[v] + (ekeys[i],)
        sig = [(k[0], tuple(sorted(k[1:]))) for k in vkeys]
        remap = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [remap[s] for s in sig]
        if new == col:
            break
        col = new
    return col


def iso_backtrack(
    n: int,
    e1: Sequence[Sequence[int]],
    e2: Sequence[Sequence[int]],
) -> Optional[dict[int, int]]:
    c1 = refine_colors(n, e1)
    c2 = refine_colors(n, e2)
    if sorted(c1) != sorted(c2):
        return None
    target: dict[frozenset, int] = {}
    for e in e2:
        target[frozenset(e)] = target.get(frozenset(e), 0) + 1
    inc1: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(e1):
        for v in e:
            inc1[v].append(i)
    inc2: list[list[frozenset]] = [[] for _ in range(n)]
    for e in e2:
        fe = frozenset(e)
        for v in e:
            inc2[v].append(fe)
    # connected expansion order: always extend next to the mapped region,
    # preferring rarer colors, so edges complete (and prune) early
    freq = {c: c1.count(c) for c in set(c1)}
    order: list[int] = []
    placed = [False] * n
    adj1: list[set[int]] = [set() for _ in range(n)]
    for e in e1:
        for v in e:
            adj1[v].update(e)
    while len(order) < n:
        best = None
        for v in range(n):
            if placed[v]:
                continue
            attached = sum(1 for u in adj1[v] if placed[u])
            key = (-attached, freq[c1[v]], v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed[best[1]] = True
    mapping: dict[int, int] = {}
    used = [False] * n

    def consistent(v: int) -> bool:
        w = mapping[v]
        for i in inc1[v]:
            e = e1[i]
            img = {mapping[u] for u in e if u in mapping}
            if len(img) == len(e):
                if frozenset(img) not in target:
                    return False
            else:
                # a partially mapped edge must still fit inside some edge at w
                if not any(img <= fe for fe in inc2[w]):
                    return False
        return True

    def bt(i: int) -> bool:
        if i == n:
            got: dict[frozenset, int] = {}
            for e in e1:
                key = frozenset(mapping[u] for u in e)
                got[key] = got.get(key, 0) + 1
            return got == target
        v = order[i]
        for w in range(n):
            if used[w] or c2[w] != c1[v]:
                continue
            mapping[v] = w
            used[w] = True
            if consistent(v) and bt(i + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    if bt(0):
        return dict(mapping)
    return None


# A frozen copy of the blossom search before its per-root state was shared:
# every unmatched root allocated fresh parent, base and in_queue lists, and
# every blossom scanned all n vertices.  Quadratic on sparse graphs, but the
# pairs it returns are the contract.

def max_matching_general_per_root(g: Graph) -> tuple[tuple[int, int], ...]:
    n, adj = g.n, g.adj
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    parent = [-1] * n
    base = list(range(n))

    def find_lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(in_blossom: list[bool], v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        nonlocal base, parent
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        queue = [root]
        in_queue[root] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    b = find_lca(v, w)
                    in_blossom = [False] * n
                    mark_path(in_blossom, v, b, w)
                    mark_path(in_blossom, w, b, v)
                    for u in range(n):
                        if in_blossom[base[u]]:
                            base[u] = b
                            if not in_queue[u]:
                                in_queue[u] = True
                                queue.append(u)
                elif parent[w] == -1:
                    parent[w] = v
                    if match[w] == -1:
                        return w
                    if not in_queue[match[w]]:
                        queue.append(match[w])
                        in_queue[match[w]] = True
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        w = find_augmenting(v)
        while w != -1:
            pv = parent[w]
            ppv = match[pv]
            match[w] = pv
            match[pv] = w
            w = ppv
    return tuple(sorted((v, match[v]) for v in range(n) if match[v] > v))


# A frozen copy of the bipartite depth-first search that the blossom search
# replaced in max_matching_bipartite and hall_violator (here without its
# greedy start), and of hall_violator as it ran on that search.

def oracle_bipartite(g: Graph) -> Matching:
    """Maximum matching by depth-first augmenting paths from each left vertex
    in increasing order, over neighbours in increasing order, from the empty
    matching."""
    left = sorted(g.bipartition[0])
    adj = g.adj
    nbrs = {v: sorted(adj[v]) for v in left}
    match: dict[int, int] = {}

    for root in left:
        visited: set[int] = set()
        stack = [(root, iter(nbrs[root]))]
        through: list[int] = []
        while stack:
            untried = stack[-1][1]
            for w in untried:
                if w not in visited:
                    break
            else:
                stack.pop()
                if through:
                    through.pop()
                continue
            visited.add(w)
            through.append(w)
            if w in match:
                stack.append((match[w], iter(nbrs[match[w]])))
                continue
            for (u, _), x in zip(stack, through):
                match[u] = x
                match[x] = u
            break
    pairs = sorted((v, match[v]) for v in left if v in match)
    return Matching(tuple(pairs))


def hall_violator_frozen(g: Graph, side: int = 0) -> Optional[frozenset[int]]:
    chosen = sorted(g.bipartition[side])
    view = g if side == 0 else Graph(g.n, g.edges, bipartition=g.bipartition[::-1])
    match = {a: b for a, b in oracle_bipartite(view).pairs}
    match.update({b: a for a, b in match.items()})
    unmatched = [v for v in chosen if v not in match]
    if not unmatched:
        return None
    reach_side = set(unmatched)
    reach_other: set[int] = set()
    frontier = list(unmatched)
    while frontier:
        v = frontier.pop()
        for w in g.adj[v]:
            if w in reach_other:
                continue
            reach_other.add(w)
            back = match.get(w)
            if back is not None and back not in reach_side:
                reach_side.add(back)
                frontier.append(back)
    return frozenset(reach_side)


def oriented_blossom_pairs(g: Graph) -> tuple[tuple[int, int], ...]:
    """The blossom pairs of a bipartite graph, each written (left, right),
    in sorted order: the contract of ``max_matching_bipartite``."""
    left = g.bipartition[0]
    return tuple(sorted(p if p[0] in left else p[::-1] for p in max_matching_general(g).pairs))


# Graph builders and catalog access that only the tests use.

def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, bipartition=(range(a), range(a, a + b)))


def all_specials() -> dict[str, Hypergraph]:
    return {name: special(name) for name in NAMES}
