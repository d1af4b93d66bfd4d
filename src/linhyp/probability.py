"""Exact-rational edge-shrinking probabilities, threshold scans, and the
seeded Monte-Carlo sampler for random k-subset edge shrinking.

Everything rational is computed with :class:`fractions.Fraction`; only the
transcendental comparisons drop to double precision (with a relative guard
band of 1e-12 where a strict inequality is asserted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import projective_plane
from .core import ArgumentError, CertificateError, Hypergraph, HypergraphError, is_k_uniform
from .rng import SplitMix64
from .solver import tau

GUARD_BAND = 1e-12


def binom(n: int, r: int) -> int:
    """Exact binomial coefficient; r > n yields 0 by convention."""
    if n < 0 or r < 0:
        raise ArgumentError("binom needs non-negative arguments")
    if r > n:
        return 0
    return math.comb(n, r)


def pr_uncovered(k: int, t: int) -> Fraction:
    """Probability a shrunk k-subset of a 2k-edge avoids t marked vertices."""
    if not 0 <= t <= 2 * k:
        raise ArgumentError(f"t must lie in [0, {2 * k}]")
    return Fraction(binom(2 * k - t, k), binom(2 * k, k))


def pr_transversal(k: int, ts: Sequence[int]) -> Fraction:
    """Product over edges of (1 - pr_uncovered(k, t_i)), exact.

    Valid because each edge is shrunk independently.
    """
    out = Fraction(1)
    for t in ts:
        out *= 1 - pr_uncovered(k, t)
    return out


def balanced_split(total: int, parts: int) -> list[int]:
    """The integer split of ``total`` into ``parts`` parts differing by <= 1,
    larger parts first."""
    q, r = divmod(total, parts)
    return [q + 1] * r + [q] * (parts - r)


def balanced_bound(k: int, n: int, t_size: int) -> Fraction:
    """binom(n, |T|) times the product term at the balanced degree split.

    Split values above 2k are capped there (an edge fully inside T is always
    covered).
    """
    if t_size > n:
        raise ArgumentError("|T| cannot exceed n")
    split = balanced_split(2 * k * t_size, n)
    return binom(n, t_size) * pr_transversal(k, [min(s, 2 * k) for s in split])


def final_bound(k: int, n: int, c: float) -> float:
    """exp(|T| ln n - n / (5 * 2^{s*})) with |T| = floor(c ln(k)/k * n) and
    s* = 2 c ln k; an upper bound for the success probability.

    Once the exponent is beyond float range the bound is ``math.inf`` or
    0.0, by the exponent's sign.  For n beyond float range that sign comes
    from logarithms of the ints: the exponent is positive iff
    ln|T| + ln ln n + ln 5 + s* ln 2 > ln n, to double precision."""
    if k < 2 or n < 2:
        raise ArgumentError("need k >= 2 and n >= 2")
    if not 0 < c < 1 / math.log(4):
        raise ArgumentError("need 0 < c < 1/ln 4")
    rate = c * math.log(k) / k
    s_star = 2 * c * math.log(k)
    try:
        t_size = math.floor(rate * n)
    except OverflowError:  # n itself is no float
        t_size = math.floor(Fraction(rate) * n)
        if not t_size:
            return 0.0
        log_gain = math.log(t_size) + math.log(math.log(n))  # ln(|T| ln n)
        log_loss = math.log(n) - math.log(5) - s_star * math.log(2)  # ln(n / (5 * 2^s*))
        return math.inf if log_gain > log_loss else 0.0
    try:
        return math.exp(t_size * math.log(n) - n / (5 * 2**s_star))
    except OverflowError:
        return math.inf


def check_condition(k: int, c: float, n: int, coefficient: float = 5.0) -> bool:
    """coefficient * c ln(k) ln(n) < k^(1 - c ln 4), double precision.

    A relative guard band keeps representation noise from flipping the
    strict inequality near the boundary.
    """
    if k < 2 or n < 2 or c <= 0 or not coefficient > 0:
        raise ArgumentError("need k >= 2, n >= 2, c > 0, coefficient > 0")
    lhs = coefficient * c * math.log(k) * math.log(n)
    rhs = k ** (1 - c * math.log(4))
    return lhs * (1 + GUARD_BAND) < rhs


@dataclass(frozen=True)
class ThresholdScan:
    threshold: int | None  # least k where the condition holds, None if absent
    window: tuple[int, int]
    non_monotone_at: tuple[int, ...]  # k where True is followed by False


def remark_c(k: int) -> float:
    """The c making (c ln(k)/k) n equal (n+m)/(k+1) when m = n: 2k/((k+1) ln k)."""
    return 2 * k / ((k + 1) * math.log(k))


def threshold_scan(k_lo: int, k_hi: int, coefficient: float = 5.0) -> ThresholdScan:
    """Scan k in [k_lo, k_hi] with n = 4k^2 - 2k + 1 and the derived c.

    Returns the least k where the condition holds plus any monotonicity
    violations found in the window (reported, not assumed away).
    """
    if not 2 <= k_lo <= k_hi:
        raise ArgumentError("need 2 <= k_lo <= k_hi")
    if not coefficient > 0:
        raise ArgumentError("need coefficient > 0")
    results = []
    for k in range(k_lo, k_hi + 1):
        c = remark_c(k)
        n = 4 * k * k - 2 * k + 1
        if not 0 < c < 1 / math.log(4):
            results.append((k, False))  # theorem hypothesis on c fails
            continue
        results.append((k, check_condition(k, c, n, coefficient=coefficient)))
    threshold = next((k for k, ok in results if ok), None)
    violations = tuple(
        results[i][0]
        for i in range(len(results) - 1)
        if results[i][1] and not results[i + 1][1]
    )
    return ThresholdScan(threshold, (k_lo, k_hi), violations)


def envelope_g(k: float) -> float:
    """The exponent envelope (1 + 2 ln k / ln 4) * 2 ln k / (2 ln 4 k - 4 ln k).

    While it stays below ln(a), the loss factor 1/5 in the pointwise bound
    can be replaced by 1/a.
    """
    num = (1 + 2 * math.log(k) / math.log(4)) * 2 * math.log(k)
    den = 2 * math.log(4) * k - 4 * math.log(k)
    return num / den


def coefficient_threshold(coefficient: float, k_hi: int = 20000) -> int | None:
    """Least k such that the envelope stays below ln(coefficient) from k on.

    This is where the reduced coefficients of the relaxed condition come
    from; the outer-inequality scan with the same coefficient lands in a
    completely different range (see threshold_scan), so both views are
    exposed and any mismatch is the caller's to report.
    """
    if not coefficient > 0:
        raise ArgumentError("need coefficient > 0")
    target = math.log(coefficient)
    good_from = None
    for k in range(k_hi, 1, -1):
        if envelope_g(k) < target:
            good_from = k
        else:
            break
    return good_from


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    while b - a > tol:
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
    x = (a + b) / 2
    return x, f(x)


def claim_c3_envelope() -> tuple[float, float]:
    """Maximum and argmax of the exponent envelope
    g(k) = (1 + 2 ln k / ln 4) * 2 ln k / (2 ln 4 * k - 4 ln k) over k > 1.

    The maximum stays below ln 5, which is what the pointwise bound needs.
    """

    argmax, value = _golden_section_max(envelope_g, 1.000001, 100.0)
    if not value < math.log(5):
        raise CertificateError(f"envelope maximum {value} is not below ln 5")
    return value, argmax


def lemma_x2_check(x: float) -> bool:
    """(1 - 1/x)^x < 1/e < (1 - 1/x)^(x-1) for x > 1."""
    if x <= 1:
        raise ArgumentError("need x > 1")
    lo = (1 - 1 / x) ** x
    hi = (1 - 1 / x) ** (x - 1)
    e_inv = math.exp(-1)
    return lo * (1 + GUARD_BAND) < e_inv and e_inv * (1 + GUARD_BAND) < hi


def claim_c4_fcheck(x, y) -> bool:
    """f(x-y) f(x+y) <= f(x)^2 for f(s) = 1 - (1/5)(1/2)^s, 0 <= y <= x.

    Exact rationals when both arguments are integers, doubles otherwise.
    """
    if not 0 <= y <= x:
        raise ArgumentError("need 0 <= y <= x")
    if isinstance(x, int) and isinstance(y, int):

        def f(s: int) -> Fraction:
            return 1 - Fraction(1, 5) * Fraction(1, 2**s)

        return f(x - y) * f(x + y) <= f(x) ** 2

    def g(s: float) -> float:
        return 1 - 0.2 * 0.5**s

    return g(x - y) * g(x + y) <= g(x) ** 2 * (1 + GUARD_BAND)


@dataclass(frozen=True)
class ShrinkConfig:
    k: int
    seed: int


def shrink(h: Hypergraph, config: ShrinkConfig) -> Hypergraph:
    """Replace each 2k-edge by a uniformly random k-subset of it.

    Deterministic: edge i is drawn from the substream seeded with
    ``seed XOR i``.  Vertex and edge counts are unchanged.
    """
    k = config.k
    if not is_k_uniform(h, 2 * k):
        raise HypergraphError(f"shrink with k={k} needs a {2 * k}-uniform hypergraph")
    new_edges = []
    for i, e in enumerate(h.edges):
        rng = SplitMix64(config.seed ^ i)
        new_edges.append(sorted(rng.sample(list(e), k)))
    return Hypergraph(h.n, new_edges)


@dataclass(frozen=True)
class McProfile:
    p: int
    k: int
    trials: int
    seed: int
    tau_min: int
    tau_max: int
    tau_mean: float
    frac_exceeding_bound: float  # fraction with tau > (n+m)/(k+1)
    taus: tuple[int, ...]


def mc_tau_profile(p: int, trials: int, seed: int) -> McProfile:
    """Shrink PG(2,p) to (p+1)/2-uniform instances and solve tau exactly.

    Supported p keep the shrunk instances within easy solver reach.
    """
    if p not in (3, 5, 7):
        raise ArgumentError("supported p: 3, 5, 7")
    if trials < 1:
        raise ArgumentError("need at least one trial")
    plane = projective_plane(p)
    k = (p + 1) // 2
    bound = Fraction(plane.n + plane.m, k + 1)
    taus = []
    exceed = 0
    for t in range(trials):
        inst = shrink(plane, ShrinkConfig(k=k, seed=seed ^ (0x51AB1E * (t + 1))))
        tv = tau(inst).tau
        taus.append(tv)
        if tv > bound:
            exceed += 1
    taus_sorted = tuple(taus)
    return McProfile(
        p=p,
        k=k,
        trials=trials,
        seed=seed,
        tau_min=min(taus),
        tau_max=max(taus),
        tau_mean=sum(taus) / trials,
        frac_exceeding_bound=exceed / trials,
        taus=taus_sorted,
    )
