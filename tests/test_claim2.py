import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    OmegaPrimeEmptyError,
    PositiveSequencePair,
    check_claim2,
    claim2_am_gm_bound,
    omega_partition,
    product_expansion_check,
    random_sequence_pair,
    rng_stream,
    subset_products,
)

positive_entries = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def pair_from_lists(a_tail, b_tail):
    return PositiveSequencePair(
        np.concatenate(([1.0], a_tail)), np.concatenate(([1.0], b_tail))
    )


class TestOmegaPartition:
    def test_n1(self):
        part = omega_partition(1)
        assert part.omega_sets() == [frozenset(), frozenset({1})]
        assert part.omega_prime == []

    def test_n2(self):
        part = omega_partition(2)
        assert set(part.omega_sets()) == {
            frozenset(),
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({2}),
        }
        assert part.omega_prime == []

    def test_n3(self):
        part = omega_partition(3)
        assert set(part.omega_prime_sets()) == {frozenset({2}), frozenset({1, 3})}

    @given(n=st.integers(1, 10))
    @settings(max_examples=10, deadline=None)
    def test_partition_invariants(self, n):
        part = omega_partition(n)
        assert len(part.omega) == 2 * n
        assert len(set(part.omega)) == 2 * n
        assert len(part.omega_prime) == 2**n - 2 * n
        assert sorted(part.omega + part.omega_prime) == list(range(2**n))
        for k in range(1, n + 1):
            member_count = sum(1 for m in part.omega if m >> (k - 1) & 1)
            assert member_count == n

    @pytest.mark.parametrize("n", range(1, 21))
    def test_residual_exponent_by_counting(self, n):
        # every element appears 2^{n-1} - n times across the residual family
        masks = np.arange(1 << n, dtype=np.uint32)
        in_omega = np.zeros(1 << n, dtype=bool)
        in_omega[omega_partition(n).omega] = True
        for k in range(n):
            count = int(np.count_nonzero((masks >> k & 1).astype(bool) & ~in_omega))
            assert count == 2 ** (n - 1) - n

    @pytest.mark.parametrize("n", [0, 21])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            omega_partition(n)


class TestProductExpansion:
    def test_all_ones(self):
        x = np.array([1.0, 1.0])
        assert math.fsum(subset_products(x)) == 4.0
        assert product_expansion_check(x) == 0.0

    def test_zero_boundary(self):
        assert product_expansion_check(np.zeros(5)) == 0.0

    def test_seeded_log_uniform(self):
        rng = rng_stream(14)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=8))
        assert product_expansion_check(x) <= 1e-12

    @given(x=st.lists(positive_entries, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_residual_tiny(self, x):
        assert product_expansion_check(np.array(x)) <= 1e-12

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            product_expansion_check(np.ones(21))

    def test_rejects_a_negative_entry(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            product_expansion_check(np.array([1.0, -1e-300, 2.0]))


class TestCheckClaim2:
    def test_n1_equality(self):
        report = check_claim2(pair_from_lists([2.5], [0.3]))
        assert report.holds
        assert abs(report.slack) <= 1e-15

    @given(
        a1=positive_entries, a2=positive_entries, b1=positive_entries, b2=positive_entries
    )
    @settings(max_examples=60, deadline=None)
    def test_n2_equality(self, a1, a2, b1, b2):
        # (a1 + b1)(a2/a1 + b2/b1) expands to exactly the four right-hand terms
        report = check_claim2(pair_from_lists([a1, a2], [b1, b2]))
        assert abs(report.slack) <= 1e-13

    def test_seeded_log_uniform_holds(self):
        pair = random_sequence_pair(6, 15)
        report = check_claim2(pair)
        assert report.holds
        assert report.slack >= -1e-12

    @pytest.mark.parametrize("n", [1, 6])
    def test_stacked_pair_reports_each_row(self, n):
        seeds = [15, 16, 17]
        addresses = np.array([[*rng_stream(seed).bit_generator.state["state"]["key"], 0] for seed in seeds],
                             dtype=np.uint64)
        reports = check_claim2(random_sequence_pair(n, addresses))
        singles = [check_claim2(random_sequence_pair(n, seed)) for seed in seeds]

        def bits(report):
            return report.slack.hex(), report.holds, report.detail

        assert [bits(r) for r in reports] == [bits(r) for r in singles]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_hold(self, seed, n):
        assert check_claim2(random_sequence_pair(n, seed)).slack >= -1e-12

    def test_substitution_chain_matches_lhs(self):
        # multiplying prod(1 + x_k) with x_k = a_{k-1} b_k / (b_{k-1} a_k) by a_n
        # reproduces the product side exactly
        pair = random_sequence_pair(7, 99)
        a, b = pair.a, pair.b
        n = pair.n
        x = (a[:-1] * b[1:]) / (b[:-1] * a[1:])
        via_substitution = float(a[n]) * float(np.prod(1.0 + x))
        lhs = float(np.prod(a[1:] / a[:-1] + b[1:] / b[:-1]))
        assert abs(via_substitution - lhs) <= 1e-12 * lhs

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        c=st.floats(1.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_joint_scaling(self, seed, n, c):
        pair = random_sequence_pair(n, seed, low=1.0, high=100.0)
        scaled = PositiveSequencePair(
            np.concatenate(([1.0], c * pair.a[1:])),
            np.concatenate(([1.0], c * pair.b[1:])),
        )
        base = check_claim2(pair)
        after = check_claim2(scaled)
        # both sides scale linearly in c, so normalized slack is unchanged
        assert after.slack == pytest.approx(base.slack, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PositiveSequencePair(np.array([1.0, 2.0]), np.array([2.0, 2.0]))
        with pytest.raises(ValueError):
            PositiveSequencePair(np.array([1.0, -2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PositiveSequencePair(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PositiveSequencePair(np.ones((1, 1, 2)), np.ones((1, 1, 2)))

    def test_rejects_non_finite_entries(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="entries must be finite"):
                PositiveSequencePair(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_random_pair_needs_one_step(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            random_sequence_pair(0, 3)


class TestAmGmBound:
    def test_unit_entries_equality(self):
        # equality needs all residual subset products equal; the family mixes
        # subset sizes, so that happens exactly at x_k = 1
        lhs, rhs = claim2_am_gm_bound(np.ones(5))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        lhs, rhs = claim2_am_gm_bound(np.full(5, 3.7))
        assert lhs > rhs

    def test_frozen_n3(self):
        lhs, rhs = claim2_am_gm_bound(np.array([1.0, 2.0, 3.0]))
        assert lhs == pytest.approx(5.0, abs=0)
        assert rhs == pytest.approx(2.0 * math.sqrt(6.0), rel=1e-14)

    def test_seeded_sample(self):
        rng = rng_stream(16)
        x = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=7))
        lhs, rhs = claim2_am_gm_bound(x)
        assert lhs >= rhs - 1e-12 * lhs

    def test_rhs_simplifies_to_sqrt_form(self):
        rng = rng_stream(17)
        for n in (3, 5, 9):
            x = np.exp(rng.uniform(-3.0, 3.0, size=n))
            _, rhs = claim2_am_gm_bound(x)
            simplified = (2**n - 2 * n) * math.sqrt(float(np.prod(x)))
            assert rhs == pytest.approx(simplified, rel=1e-12)

    @given(x=st.lists(positive_entries, min_size=3, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_am_gm_holds(self, x):
        lhs, rhs = claim2_am_gm_bound(np.array(x))
        assert lhs >= rhs - 1e-12 * max(lhs, 1.0)

    def test_empty_residual_family(self):
        with pytest.raises(OmegaPrimeEmptyError):
            claim2_am_gm_bound(np.array([1.0, 2.0]))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="n must be <= 20"):
            claim2_am_gm_bound(np.ones(21))

    def test_rejects_a_zero_entry(self):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            claim2_am_gm_bound(np.array([1.0, 0.0, 2.0]))
