"""Exact rational machinery, threshold scans, and the seeded sampler."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from linhyp.algebra import projective_plane
from linhyp.core import ArgumentError, Hypergraph, HypergraphError, is_k_uniform
from linhyp.probability import (
    ShrinkConfig,
    balanced_bound,
    balanced_split,
    binom,
    check_condition,
    claim_c3_envelope,
    claim_c4_fcheck,
    coefficient_threshold,
    envelope_g,
    final_bound,
    lemma_x2_check,
    mc_tau_profile,
    pr_transversal,
    pr_uncovered,
    shrink,
    threshold_scan,
)
from linhyp.rng import SplitMix64


class TestBinom:
    def test_small_values(self):
        assert binom(4, 2) == 6
        assert binom(20, 10) == 184756

    def test_over_range_is_zero(self):
        assert binom(3, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ArgumentError):
            binom(-1, 0)

    def test_pascal_identity_grid(self):
        for n in range(1, 24):
            for r in range(1, n + 1):
                assert binom(n, r) == binom(n - 1, r - 1) + binom(n - 1, r)


class TestPrUncovered:
    def test_boundaries(self):
        assert pr_uncovered(2, 0) == 1
        assert pr_uncovered(2, 4) == 0

    def test_half_by_enumeration(self):
        # direct oracle: 2-subsets of a 4-set avoiding one marked vertex
        subsets = list(combinations(range(4), 2))
        avoiding = [s for s in subsets if 0 not in s]
        assert pr_uncovered(2, 1) == Fraction(len(avoiding), len(subsets))

    def test_general_enumeration_oracle(self):
        for k in (2, 3):
            for t in range(2 * k + 1):
                marked = set(range(t))
                subsets = list(combinations(range(2 * k), k))
                avoiding = [s for s in subsets if not marked & set(s)]
                assert pr_uncovered(k, t) == Fraction(len(avoiding), len(subsets))

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            pr_uncovered(2, 5)


class TestPrTransversal:
    def test_full_overlap(self):
        assert pr_transversal(2, [4, 4, 4]) == 1

    def test_quarter(self):
        assert pr_transversal(2, [1, 1]) == Fraction(1, 4)

    def test_uniform_ts_power_form(self):
        for t in range(5):
            assert pr_transversal(2, [t] * 6) == (1 - pr_uncovered(2, t)) ** 6


class TestBalancedBound:
    def test_zero_size(self):
        assert balanced_bound(2, 3, 0) == 0  # every edge uncovered surely

    def test_hand_value(self):
        assert balanced_bound(2, 3, 1) == Fraction(5, 8)

    def test_split(self):
        assert balanced_split(4, 3) == [2, 1, 1]
        assert balanced_split(9, 4) == [3, 2, 2, 2]

    def test_balanced_split_maximizes(self):
        # all integer splits: the balanced one maximizes the exact product
        for k in (2, 3, 4):
            for n in range(1, 5):
                for total in range(0, 9):
                    best = Fraction(-1)
                    for split in _splits(total, n, 2 * k):
                        val = Fraction(1)
                        for s in split:
                            val *= 1 - pr_uncovered(k, s)
                        best = max(best, val)
                    bal = balanced_split(total, n)
                    if any(s > 2 * k for s in bal):
                        continue
                    val = Fraction(1)
                    for s in bal:
                        val *= 1 - pr_uncovered(k, s)
                    assert val == best, (k, n, total)


def _splits(total, parts, cap):
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap) + 1):
        for rest in _splits(total - head, parts - 1, cap):
            yield (head,) + rest


class TestFinalBound:
    def test_below_one_when_exponent_negative(self):
        from linhyp.probability import remark_c

        k = 2754
        n = 4 * k * k - 2 * k + 1
        v = final_bound(k, n, remark_c(k))
        assert 0 < v < 1

    def test_tiny_c(self):
        # |T| = 0 makes the bound exp(-n / 5)
        n = 50
        v = final_bound(2, n, 1e-9)
        assert v == pytest.approx(math.exp(-n / 5), rel=1e-6)

    def test_domain(self):
        with pytest.raises(ArgumentError):
            final_bound(2, 10, 0.9)

    def test_exponent_beyond_float_range(self):
        assert final_bound(1000, 10**9, 0.3) == math.inf

    @pytest.mark.parametrize("n", [10**400, 2**1024, 2**1024 - 1], ids=["1e400", "2^1024", "2^1024-1"])
    @pytest.mark.parametrize("c,want", [(0.3, math.inf), (1e-9, 0.0)])
    def test_n_beyond_float_range(self, n, c, want):
        # |T| > 0 both times; the sign of |T| ln n - n / (5 * 2^s*) decides
        with pytest.raises(OverflowError):
            float(n)
        assert math.floor(Fraction(c * math.log(2) / 2) * n) > 0
        assert final_bound(2, n, c) == want

    def test_empty_t_beyond_float_range(self):
        # |T| = 0 leaves only -n / (5 * 2^s*)
        assert math.floor(Fraction(1e-320 * math.log(2) / 2) * 2**1024) == 0
        assert final_bound(2, 2**1024, 1e-320) == 0.0


class TestCondition:
    def test_tiny_k_false(self):
        assert not check_condition(2, 0.5, 13)

    def test_monotone_in_n(self):
        k, c = 3000, 0.25
        vals = [check_condition(k, c, n) for n in (10**3, 10**5, 10**7, 10**9)]
        for earlier, later in zip(vals, vals[1:]):
            assert earlier or not later  # once false, stays false


class TestThresholdScan:
    def test_main_threshold(self):
        scan = threshold_scan(2700, 2800)
        assert scan.threshold == 2753
        assert scan.non_monotone_at == ()

    def test_threshold_is_sharp(self):
        assert threshold_scan(2740, 2760).threshold == 2753
        assert threshold_scan(2754, 2760).threshold == 2754

    def test_coefficient_envelope_values(self):
        assert coefficient_threshold(2.0) == 23
        assert coefficient_threshold(1.5) == 54

    @pytest.mark.parametrize("coefficient", [0.0, -1.0, math.nan])
    def test_coefficient_must_be_positive(self, coefficient):
        with pytest.raises(ArgumentError):
            coefficient_threshold(coefficient)
        with pytest.raises(ArgumentError):
            check_condition(3000, 0.25, 10**3, coefficient=coefficient)
        # no k of this window meets the hypothesis on c, so the scan itself checks
        with pytest.raises(ArgumentError):
            threshold_scan(2, 5, coefficient=coefficient)

    def test_outer_scan_disagrees_with_envelope(self):
        # the literal outer inequality puts the relaxed thresholds far away;
        # both views are exposed so the mismatch is reportable
        scan = threshold_scan(2, 120, coefficient=2.0)
        assert scan.threshold != 23


class TestEnvelope:
    def test_max_and_argmax(self):
        mx, argmax = claim_c3_envelope()
        assert mx == pytest.approx(1.5037, abs=1e-3)
        assert argmax == pytest.approx(3.753, abs=1e-2)
        assert mx < math.log(5)

    def test_pointwise_bound(self):
        # the shrink-miss probability stays above the dyadic envelope
        for k in range(2, 31):
            smax = int(2 * math.log(k) / math.log(4) + 1)
            for s in range(0, min(smax, 2 * k) + 1):
                assert pr_uncovered(k, s) > Fraction(1, 5 * 2**s), (k, s)

    def test_envelope_decreasing_after_peak(self):
        xs = [5, 10, 50, 100, 1000]
        vals = [envelope_g(x) for x in xs]
        assert vals == sorted(vals, reverse=True)


class TestLemmaX2:
    @pytest.mark.parametrize("x", [1.01, 1.1, 2, 10, 1e3, 1e6])
    def test_grid(self, x):
        assert lemma_x2_check(x)

    def test_domain(self):
        with pytest.raises(ArgumentError):
            lemma_x2_check(1.0)


class TestClaimC4:
    def test_equality_at_zero(self):
        def f(s):
            return 1 - Fraction(1, 5) * Fraction(1, 2**s)

        assert f(2) * f(2) == f(2) ** 2
        assert claim_c4_fcheck(2, 0)

    def test_hand_rationals(self):
        assert Fraction(9, 10) * Fraction(39, 40) <= Fraction(19, 20) ** 2
        assert claim_c4_fcheck(2, 1)

    def test_integer_grid(self):
        for x in range(21):
            for y in range(x + 1):
                assert claim_c4_fcheck(x, y)

    @given(
        st.floats(0, 25, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_float_domain(self, x, frac):
        assert claim_c4_fcheck(x, x * frac)


class TestShrink:
    def test_structure(self):
        plane = projective_plane(3)
        out = shrink(plane, ShrinkConfig(k=2, seed=11))
        assert (out.n, out.m) == (13, 13)
        assert is_k_uniform(out, 2)
        for orig, new in zip(plane.edges, sorted_by_source(plane, out, 11)):
            assert set(new) <= set(orig)

    def test_deterministic(self):
        plane = projective_plane(3)
        a = shrink(plane, ShrinkConfig(k=2, seed=7))
        b = shrink(plane, ShrinkConfig(k=2, seed=7))
        assert a == b

    def test_requires_even_uniformity(self):
        with pytest.raises(HypergraphError):
            shrink(Hypergraph(3, [[0, 1, 2]]), ShrinkConfig(k=2, seed=0))

    def test_subset_distribution(self):
        # over many seeds, each 2-subset of a fixed 4-edge appears with
        # frequency 1/6 within 3 sigma
        h = Hypergraph(4, [[0, 1, 2, 3]])
        counts: dict[tuple, int] = {}
        trials = 10_000
        for seed in range(trials):
            out = shrink(h, ShrinkConfig(k=2, seed=seed))
            counts[out.edges[0]] = counts.get(out.edges[0], 0) + 1
        assert len(counts) == 6
        p = 1 / 6
        sigma = math.sqrt(p * (1 - p) / trials)
        for c in counts.values():
            assert abs(c / trials - p) < 3 * sigma


def sorted_by_source(plane, shrunk, seed):
    # shrunk edges in canonical order may permute; recompute per-edge draws
    out = []
    for i, e in enumerate(plane.edges):
        rng = SplitMix64(seed ^ i)
        out.append(tuple(sorted(rng.sample(list(e), 2))))
    return out


class TestMcProfile:
    def test_bounds_and_determinism(self):
        a = mc_tau_profile(3, 25, seed=5)
        b = mc_tau_profile(3, 25, seed=5)
        assert a == b
        assert 1 <= a.tau_min <= a.tau_max <= 13

    def test_k2_bound_never_exceeded(self):
        prof = mc_tau_profile(3, 40, seed=9)
        assert prof.frac_exceeding_bound == 0.0

    def test_k3_bound_never_exceeded(self):
        # 3-uniform shrinks of the order-5 plane stay within (n+m)/4
        prof = mc_tau_profile(5, 8, seed=4)
        assert prof.frac_exceeding_bound == 0.0

    def test_unsupported_p(self):
        with pytest.raises(ArgumentError):
            mc_tau_profile(4, 1, seed=0)


class TestSplitMix64Arguments:
    def test_randbelow_needs_a_positive_bound(self):
        with pytest.raises(ArgumentError):
            SplitMix64(1).randbelow(0)

    def test_sample_no_larger_than_population(self):
        with pytest.raises(ArgumentError):
            SplitMix64(1).sample([1, 2], 3)
