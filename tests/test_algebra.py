"""Finite fields and family generators."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from linhyp.algebra import (
    AlgebraError,
    affine_plane,
    affine_residual,
    family_f,
    g30,
    _MR_LIMIT,
    _strong_probable_prime,
    gf,
    heawood,
    l_k,
    prime_power,
    projective_plane,
    random_linear,
)
from linhyp.catalog import special
from linhyp.core import (
    ArgumentError,
    hypergraph_isomorphic,
    is_connected,
    is_k_uniform,
    is_linear,
)

from oracles import girth


def oracle_prime_power(q: int):
    """The trial division up to the square root that ``prime_power`` replaced."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        e, rest = 0, q
        while rest % p == 0:
            rest //= p
            e += 1
        return (p, e) if rest == 1 else None
    return (q, 1)  # q itself prime


class TestField:
    def test_gf4_modulus_and_product(self):
        f = gf(4)
        assert f.modulus == (1, 1, 1)  # x^2 + x + 1
        x = (0, 1)
        assert f.mul(x, x) == (1, 1)  # x^2 = x + 1

    def test_gf5_arithmetic(self):
        f = gf(5)
        assert f.mul((2,), (3,)) == (1,)
        assert f.inv((2,)) == (3,)

    def test_non_prime_power_rejected(self):
        with pytest.raises(AlgebraError):
            gf(6)

    def test_prime_power_parsing(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(27) == (3, 3)
        assert prime_power(12) is None
        assert prime_power(13) == (13, 1)
        assert prime_power(43**30) == (43, 30)
        assert prime_power(43**5 * 47) is None
        assert prime_power((43 * 47) ** 5) is None
        assert prime_power(2**200) == (2, 200)

    def test_prime_power_matches_trial_division(self):
        assert all(prime_power(q) == oracle_prime_power(q) for q in range(-2, 10**5))

    def test_prime_power_of_large_primes(self):
        start = time.perf_counter()
        assert prime_power(10**14 + 31) == (10**14 + 31, 1)
        assert prime_power(10**18 + 3) == (10**18 + 3, 1)
        assert prime_power((10**13 + 37) ** 2) == (10**13 + 37, 2)
        # trial division up to the root takes ~10**7 steps on the first, ~10**9 on the second
        assert time.perf_counter() - start < 0.5

    def test_miller_rabin_limit(self):
        # the limit is the least composite that passes all thirteen bases
        assert _MR_LIMIT == 1287836182261 * 2575672364521
        assert _strong_probable_prime(_MR_LIMIT)
        with pytest.raises(ArgumentError):
            prime_power(_MR_LIMIT)
        with pytest.raises(ArgumentError):
            prime_power(2**89 - 1)  # a prime, beyond the exact range

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
    def test_multiplicative_group_cyclic(self, q):
        f = gf(q)
        nonzero = [e for e in f.elements() if e != f.zero()]
        # some element must have multiplicative order exactly q - 1
        def order(a):
            acc, k = a, 1
            while acc != f.one():
                acc = f.mul(acc, a)
                k += 1
            return k

        orders = {order(a) for a in nonzero}
        assert max(orders) == q - 1
        assert all((q - 1) % o == 0 for o in orders)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
    def test_field_inverses(self, q):
        f = gf(q)
        for a in f.elements():
            if a == f.zero():
                continue
            assert f.mul(a, f.inv(a)) == f.one()


class TestAffinePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
    def test_counts_and_axioms(self, q):
        h = affine_plane(q)
        assert (h.n, h.m) == (q * q, q * q + q)
        assert is_k_uniform(h, q)
        assert is_linear(h)
        assert h.degrees() == [q + 1] * (q * q)
        # R1: every point pair on exactly one line
        seen = {}
        for e in h.edges:
            for a, b in itertools.combinations(e, 2):
                seen[(a, b)] = seen.get((a, b), 0) + 1
        assert len(seen) == q * q * (q * q - 1) // 2
        assert set(seen.values()) == {1}

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_parallel_classes(self, q):
        h = affine_plane(q)
        # lines partition into q+1 classes of q mutually disjoint lines
        classes = []
        unused = list(range(h.m))
        while unused:
            head = unused.pop(0)
            cls = [head]
            for other in list(unused):
                if all(
                    not set(h.edges[other]) & set(h.edges[c]) for c in cls
                ):
                    cls.append(other)
                    unused.remove(other)
            classes.append(cls)
        assert len(classes) == q + 1
        assert all(len(c) == q for c in classes)

    def test_order2_is_k4(self):
        h = affine_plane(2)
        assert is_k_uniform(h, 2)
        assert h.degrees() == [3, 3, 3, 3]

    def test_small_order_rejected(self):
        with pytest.raises(AlgebraError):
            affine_plane(1)


class TestProjectivePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_counts_and_line_meetings(self, q):
        h = projective_plane(q)
        n = q * q + q + 1
        assert (h.n, h.m) == (n, n)
        assert is_k_uniform(h, q + 1)
        assert h.degrees() == [q + 1] * n
        for a, b in itertools.combinations(h.edges, 2):
            assert len(set(a) & set(b)) == 1

    def test_fano(self):
        h = projective_plane(2)
        assert (h.n, h.m) == (7, 7)

    def test_moderate_order_scales(self):
        h = projective_plane(31)
        assert (h.n, h.m) == (993, 993)
        assert is_k_uniform(h, 32)
        assert set(h.degrees()) == {32}


class TestResidual:
    @pytest.mark.parametrize(
        "q,s,n,m", [(4, 1, 15, 15), (4, 2, 14, 11), (4, 3, 13, 7), (4, 4, 12, 3), (3, 1, 8, 8), (3, 2, 7, 5)]
    )
    def test_counts(self, q, s, n, m):
        h = affine_residual(q, s)
        assert (h.n, h.m) == (n, m)
        assert is_linear(h)
        assert is_k_uniform(h, q)

    def test_range_check(self):
        with pytest.raises(AlgebraError):
            affine_residual(4, 5)
        with pytest.raises(AlgebraError):
            affine_residual(4, 0)


class TestLk:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_structure(self, k):
        h = l_k(k)
        assert h.n == (k + 1) * k // 2
        assert h.m == k + 1
        assert is_k_uniform(h, k)
        assert is_linear(h)
        assert set(h.degrees()) == {2}
        for a, b in itertools.combinations(h.edges, 2):
            assert len(set(a) & set(b)) == 1

    def test_l2_is_triangle(self):
        h = l_k(2)
        assert (h.n, h.m) == (3, 3)

    def test_l4_is_h10(self):
        assert hypergraph_isomorphic(l_k(4), special("H10"))

    def test_l6_size(self):
        assert (l_k(6).n, l_k(6).m) == (21, 7)

    def test_small_k_rejected(self):
        with pytest.raises(AlgebraError):
            l_k(1)


class TestFamilyF:
    def test_f0_is_h4(self):
        assert hypergraph_isomorphic(family_f(0), special("H4"))

    @pytest.mark.parametrize("i", range(7))
    def test_shape_invariants(self, i):
        h = family_f(i)
        assert (h.n, h.m) == (4 + 12 * i, 1 + 4 * i)
        assert is_k_uniform(h, 4)
        assert is_linear(h)
        assert is_connected(h)
        assert h.max_degree() <= 2
        if i >= 1:
            assert h.max_degree() == 2


class TestRandomLinear:
    def test_deterministic(self):
        a = random_linear(20, 4, 3, 10, seed=1)
        b = random_linear(20, 4, 3, 10, seed=1)
        assert a == b

    def test_structure(self):
        h = random_linear(20, 4, 3, 10, seed=1)
        assert is_linear(h)
        assert is_k_uniform(h, 4)
        assert h.max_degree() <= 3

    def test_forced_single_edge(self):
        h = random_linear(4, 4, 1, 1, seed=99)
        assert hypergraph_isomorphic(h, special("H4"))

    def test_infeasible_rejected(self):
        with pytest.raises(AlgebraError):
            random_linear(4, 4, 1, 2, seed=0)

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_always_valid(self, seed):
        h = random_linear(16, 4, 3, 9, seed)
        assert is_linear(h)
        assert h.max_degree() <= 3


class TestNamedGraphs:
    def test_heawood(self):
        g = heawood()
        assert g.n == 14
        assert set(g.degrees()) == {3}
        assert girth(g) == 6
        assert is_connected(g)

    def test_g30(self):
        g = g30()
        assert g.n == 30
        assert set(g.degrees()) == {4}
        assert girth(g) >= 6  # no quadrilateral
