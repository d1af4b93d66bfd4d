"""Finite fields GF(p^e) and deterministic generators for the named families.

``FiniteField`` works on coefficient tuples of length e over [0, p); the
modulus is the lexicographically smallest monic irreducible polynomial of its
degree (coefficients compared high power first), found by exhaustive testing.
The plane constructions work on integer codes instead: an element's code is
its index in ``FiniteField.elements()``, which is the residue itself for a
prime, and ``field_tables`` tabulates the arithmetic on codes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import (
    ArgumentError,
    Graph,
    Hypergraph,
    complement_hypergraph,
    delete_vertices,
    incidence_graph,
    vertex_mask,
)
from .rng import SplitMix64


class AlgebraError(ValueError):
    """Bad parameter for a field or family constructor."""


# Miller-Rabin on the first 13 primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(p: int) -> bool:
    """Miller-Rabin on ``_MR_BASES`` for an odd p above 41."""
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, e: int) -> int:
    """The integer e-th root of q >= 1, rounded down (Newton's method)."""
    x = 1 << -(-q.bit_length() // e)  # above the root
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, e) with q = p^e and p prime, or None.

    A prime factor up to 41 is found by division.  Otherwise, if q = p^k,
    q has an exact e-th root only for e dividing k, and the root p^(k/e)
    is prime only for e = k; so q is a prime power iff the root at the
    largest exact e is prime.  That root is tested by Miller-Rabin, which
    is exact below ``_MR_LIMIT`` (about 3.3e24); a root at or above it
    raises ``ArgumentError``.
    """
    if q < 2:
        return None
    for p in _MR_BASES:
        if q % p == 0:
            e, rest = 0, q
            while rest % p == 0:
                rest //= p
                e += 1
            return (p, e) if rest == 1 else None
    # every prime factor is at least 43, so e <= log_43 q
    for e in range(q.bit_length() // 5, 0, -1):
        p = _iroot(q, e)
        if p ** e == q:
            break
    if p >= _MR_LIMIT:
        raise ArgumentError(f"cannot decide whether {p} is prime: it is not below {_MR_LIMIT}")
    return (p, e) if _strong_probable_prime(p) else None


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    # coefficients low power first; modulus is monic of degree e
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(e):
                prod[d - e + k] = (prod[d - e + k] - c * modulus[k]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return tuple(out)


def _is_irreducible(coeffs_low: tuple, p: int) -> bool:
    """Check a monic polynomial (low-first coefficients, monic lead) for
    irreducibility by exhaustive trial division over F_p."""
    deg = len(coeffs_low) - 1
    if deg == 1:
        return True
    # no roots
    for x in range(p):
        acc, xp = 0, 1
        for c in coeffs_low:
            acc = (acc + c * xp) % p
            xp = (xp * x) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # trial division by monic polynomials of degree 2..deg//2
    for d in range(2, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            rem = list(coeffs_low)
            while len(rem) >= len(divisor) and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) < len(divisor):
                    break
                lead = rem[-1]
                shift = len(rem) - len(divisor)
                for k, dv in enumerate(divisor):
                    rem[shift + k] = (rem[shift + k] - lead * dv) % p
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) with elements as length-e coefficient tuples (low power first)."""

    p: int
    e: int
    modulus: tuple[int, ...]  # monic, low power first, length e+1

    @property
    def q(self) -> int:
        return self.p**self.e

    def zero(self) -> tuple:
        return (0,) * self.e

    def one(self) -> tuple:
        return (1,) + (0,) * (self.e - 1)

    def elements(self) -> list[tuple]:
        """All q elements in a fixed lexicographic order (high power first)."""
        return [
            tuple(reversed(t))
            for t in itertools.product(range(self.p), repeat=self.e)
        ]

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def inv(self, a: tuple) -> tuple:
        if a == self.zero():
            raise ZeroDivisionError("zero has no inverse")
        # q-2 power via square and multiply
        result = self.one()
        base = a
        k = self.q - 2
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result


@lru_cache(maxsize=None)
def gf(q: int) -> FiniteField:
    """The field of order q = p^e, or raise if q is not a prime power."""
    pe = prime_power(q)
    if pe is None:
        raise AlgebraError(f"{q} is not a prime power")
    p, e = pe
    if e == 1:
        return FiniteField(p, 1, (0, 1))
    # smallest monic irreducible of degree e, coefficients read high to low
    for tail_high in itertools.product(range(p), repeat=e):
        coeffs_low = tuple(reversed(tail_high)) + (1,)
        if _is_irreducible(coeffs_low, p):
            return FiniteField(p, e, coeffs_low)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_tables(q: int) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """GF(q) arithmetic on integer codes: ``(add, mul, neg, inv)``.

    The code of an element is its index in ``gf(q).elements()``, so 0 is zero
    and 1 is one.  ``add`` and ``mul`` are q x q tables, ``neg`` and ``inv``
    are lists; ``inv[0]`` is 0 and stands for no inverse.  Prime powers take
    every entry from the tuple arithmetic of ``FiniteField``.
    """
    field = gf(q)
    codes = range(q)
    if field.e == 1:
        add = [[(a + b) % q for b in codes] for a in codes]
        mul = [[a * b % q for b in codes] for a in codes]
        neg = [-a % q for a in codes]
        inv = [0] + [pow(a, q - 2, q) for a in codes[1:]]
        return add, mul, neg, inv
    elems = field.elements()
    code = {x: i for i, x in enumerate(elems)}
    add = [[code[field.add(a, b)] for b in elems] for a in elems]
    mul = [[code[field.mul(a, b)] for b in elems] for a in elems]
    neg = [code[field.neg(a)] for a in elems]
    inv = [0] + [code[field.inv(a)] for a in elems[1:]]
    return add, mul, neg, inv


def _point_rows(q: int) -> list[list[int]]:
    """Row x lists the ids x*q + y of the points (x, y) of AG(2,q), y in order.

    The lines take their members from these rows, so every line through a
    point holds the same int object and large planes keep one per point.
    """
    ids = list(range(q * q))
    return [ids[x * q:(x + 1) * q] for x in range(q)]


def affine_plane(q: int) -> Hypergraph:
    """AG(2,q) as a q-uniform hypergraph: q^2 points, q^2+q lines.

    Point (x, y) has id x*q + y on the element codes of ``field_tables``.
    """
    if q < 2:
        raise AlgebraError("affine plane needs order >= 2")
    add, mul, _, _ = field_tables(q)
    rows = _point_rows(q)
    lines = []
    for m in range(q):  # y = m x + b
        mx = mul[m]
        for b in range(q):
            plus_b = add[b]
            lines.append([row[plus_b[mx[x]]] for x, row in enumerate(rows)])
    lines += rows  # x = c
    return Hypergraph(q * q, lines)


def projective_plane(q: int) -> Hypergraph:
    """PG(2,q): points are 1-dim subspaces of GF(q)^3, lines 2-dim subspaces.

    A point is written with its first nonzero coordinate one, and on element
    codes (see ``field_tables``) its id is x*q + y for (1, x, y), q^2 + y for
    (0, 1, y) and q^2 + q for (0, 0, 1).  The line dual to a point (a, b, c)
    is enumerated from a basis u, v of the solutions of a x + b y + c z = 0
    whose leading coordinates are u = (1, 0, .), v = (0, 1, .) if c != 0,
    u = (1, ., 0), v = (0, 0, 1) if only b != 0, and u = (0, 1, 0),
    v = (0, 0, 1) otherwise.  Then v and every u + t v already have leading
    coordinate one, so construction costs O(q) per line and stays usable into
    the hundreds.
    """
    add, mul, neg, inv = field_tables(q)
    codes = range(q)
    rows = _point_rows(q)  # the points (1, x, y)
    far = list(range(q * q, q * q + q))  # the points (0, 1, y)
    top = q * q + q  # the point (0, 0, 1)
    duals = [(1, x, y) for x in codes for y in codes]
    duals += [(0, 1, y) for y in codes]
    duals.append((0, 0, 1))
    lines = []
    for a, b, c in duals:  # dual coordinates range over the point classes
        if c:
            c_inv = inv[c]
            u_z, v_z = neg[mul[a][c_inv]], neg[mul[b][c_inv]]
            plus_u, times_v = add[u_z], mul[v_z]  # u + t v = (1, t, u_z + t v_z)
            members = [far[v_z]] + [row[plus_u[times_v[t]]] for t, row in enumerate(rows)]
        elif b:
            members = [top] + rows[neg[mul[a][inv[b]]]]  # u + t v = (1, -a/b, t)
        else:
            members = [top] + far  # u + t v = (0, 1, t)
        lines.append(members)
    return Hypergraph(top + 1, lines)


def affine_residual(q: int, s: int) -> Hypergraph:
    """Delete the first s points of the lexicographically first line of AG(2,q)."""
    if not 1 <= s <= q:
        raise AlgebraError(f"s must lie in [1, {q}]")
    plane = affine_plane(q)
    return delete_vertices(plane, plane.edges[0][:s])


def l_k(k: int) -> Hypergraph:
    """The unique k-uniform 2-regular linear intersecting hypergraph L_k.

    Vertices are the 2-subsets of [k+1]; edge i collects the pairs meeting i.
    """
    if k < 2:
        raise AlgebraError("L_k needs k >= 2")
    pairs = list(itertools.combinations(range(k + 1), 2))
    pair_idx = {pq: i for i, pq in enumerate(pairs)}
    edges = [
        [pair_idx[tuple(sorted((i, j)))] for j in range(k + 1) if j != i]
        for i in range(k + 1)
    ]
    return Hypergraph(len(pairs), edges)


def family_f(i: int) -> Hypergraph:
    """Member F_i of the tight family for the degree-2 bound.

    F_0 is the single 4-edge; F_i adds 12 vertices in three new disjoint
    4-edges plus one linking edge through the lowest-id vertex of degree <= 1
    of F_{i-1} and the lowest-id vertex of each new edge.  The result is
    connected, linear, with maximum degree 2.
    """
    if i < 0:
        raise AlgebraError("family index must be >= 0")
    n = 4
    edges: list[list[int]] = [[0, 1, 2, 3]]
    for _ in range(i):
        deg = [0] * n
        for e in edges:
            for v in e:
                deg[v] += 1
        anchor = min(v for v in range(n) if deg[v] <= 1)
        new_edges = [[n + 4 * j + t for t in range(4)] for j in range(3)]
        link = [anchor] + [e[0] for e in new_edges]
        edges = edges + new_edges + [link]
        n += 12
    return Hypergraph(n, edges)


def random_linear(
    n: int, k: int, max_deg: int, m_target: int, seed: int
) -> Hypergraph:
    """Seeded greedy generator of a k-uniform linear hypergraph with
    maximum degree <= max_deg.

    Each draw takes k distinct vertices from the open pool (the vertices of
    degree below max_deg, in increasing order) with ``SplitMix64.sample``
    and keeps them as an edge unless two of them already share a kept
    edge.  Drawing stops when m_target edges are kept, when the budget of
    200 * max(m_target, 1) draws is spent, or when no k open vertices are
    pairwise unjoined, returning whatever was built.  The last rule never
    changes the host: the generator is local to the call and every further
    draw would be rejected.  It is applied only when the search for such k
    vertices ends within a fixed node budget; otherwise drawing goes on,
    which cannot change the host either.  A draw neither rebuilds the pool
    nor scans the kept edges; it copies the pool and tests k neighbour
    masks.
    """
    if k > n or k < 1 or max_deg < 1 or m_target < 0:
        raise AlgebraError("infeasible parameters")
    if k * m_target > max_deg * n:
        raise AlgebraError("degree budget cannot host that many edges")
    rng = SplitMix64(seed)
    deg = [0] * n
    nbr = [0] * n  # nbr[v]: the vertices sharing a kept edge with v
    pool = list(range(n))
    # An open vertex is joined to at most (max_deg - 1)(k - 1) others, so
    # greedy picking finds k pairwise unjoined open vertices in any pool
    # larger than this; the exact search runs only at or below it, and
    # also ends the loop once fewer than k vertices are open.
    greedy_safe = (k - 1) * ((max_deg - 1) * (k - 1) + 1)
    accepted: list[tuple[int, ...]] = []
    budget = 200 * max(m_target, 1)
    while len(accepted) < m_target and budget > 0:
        budget -= 1
        cand = tuple(sorted(rng.sample(pool, k)))
        mask = vertex_mask(cand)
        if any(nbr[v] & mask for v in cand):
            continue
        accepted.append(cand)
        for v in cand:
            nbr[v] |= mask ^ (1 << v)
            deg[v] += 1
            if deg[v] == max_deg:
                del pool[bisect_left(pool, v)]
        if len(pool) <= greedy_safe and _has_unjoined(vertex_mask(pool), nbr, k) is False:
            break
    return Hypergraph(n, accepted)


# With max_deg = 2 the open vertices form one clique per kept edge, where
# the search is exponential in the number of cliques; past this many nodes
# it gives up.  The largest search in the benchmark builds takes 41 nodes.
_SEARCH_NODES = 1024


def _has_unjoined(cands: int, nbr: list[int], k: int) -> Optional[bool]:
    """Whether the mask ``cands`` holds k >= 1 vertices no two of which are
    joined in ``nbr``, or None if that takes more than ``_SEARCH_NODES``
    search nodes to tell."""
    # stack[-1] holds the candidates for the len(stack)-th vertex, each
    # lower entry those left at its level after the vertices tried there.
    stack = [cands]
    nodes = _SEARCH_NODES
    while stack:
        top = stack[-1]
        if top.bit_count() <= k - len(stack):
            stack.pop()
            continue
        if nodes == 0:
            return None
        nodes -= 1
        low = top & -top
        stack[-1] = top ^ low
        if len(stack) == k:
            return True
        stack.append((top ^ low) & ~nbr[low.bit_length() - 1])
    return False


def heawood() -> Graph:
    """The Heawood graph, as the incidence graph of PG(2,2)."""
    return incidence_graph(projective_plane(2))


def g30() -> Graph:
    """The 4-regular quadrilateral-free bipartite graph on 30 vertices
    (incidence graph of AG(2,4) minus one point)."""
    return incidence_graph(affine_residual(4, 1))


def fano_complement() -> Hypergraph:
    """Complement of the Fano plane: 4-uniform, non-linear, n = m = 7."""
    return complement_hypergraph(projective_plane(2))
