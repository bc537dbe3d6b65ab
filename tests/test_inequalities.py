import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectoria as s
from sectoria import (
    NotAccretiveDissipativeError,
    NotAccretiveError,
    NotPositiveDefiniteError,
    NotSectorialError,
    TrialConfig,
    cli,
)
from oracles import determinant

PI4 = math.pi / 4


def pd_pair(n, seed):
    return s.gen_positive_definite(n, s.child_seed(seed, 0)), s.gen_positive_definite(
        n, s.child_seed(seed, 1)
    )


def sectorial_pair(n, alpha, seed):
    return s.gen_sectorial(n, alpha, s.child_seed(seed, 0)), s.gen_sectorial(
        n, alpha, s.child_seed(seed, 1)
    )


class TestDetSuperadditivity:
    def test_identity_pair(self):
        report = s.check_det_superadditivity(np.eye(2), np.eye(2))
        assert report.holds
        assert report.slack == pytest.approx((4.0 - 2.0) / 4.0)

    def test_equal_operands_homogeneity(self):
        a = s.gen_positive_definite(2, 3)
        report = s.check_det_superadditivity(a, a)
        # det(2A) = 4 det A >= 2 det A
        assert report.holds and report.slack == pytest.approx(0.5, abs=1e-12)

    def test_seeded_pair(self):
        a, b = pd_pair(5, 1)
        assert s.check_det_superadditivity(a, b).slack >= 0.0

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            s.check_det_superadditivity(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            s.check_det_superadditivity(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


class TestHaynsworth:
    def test_n1_reduces_to_superadditivity(self):
        a = np.array([[2.0]])
        b = np.array([[3.0]])
        report = s.check_haynsworth(a, b)
        base = s.check_det_superadditivity(a, b)
        assert report.slack == base.slack

    def test_equal_operands_power_vs_linear(self):
        for n in (1, 2, 3, 4):
            a = s.gen_positive_definite(n, 70 + n)
            report = s.check_haynsworth(a, a)
            levels = s.determinant_bound_levels(a, a)
            det = abs(determinant(a))
            assert levels.lhs == pytest.approx(2.0**n * det, rel=1e-12)
            assert levels.ratio_refined == pytest.approx(2.0 * n * det, rel=1e-12)
            assert report.holds

    def test_seeded_pair(self):
        a, b = pd_pair(4, 2)
        assert s.check_haynsworth(a, b).holds


class TestHartfiel:
    def test_identity_pair_equality(self):
        for n in (2, 3, 5):
            report = s.check_hartfiel(np.eye(n), np.eye(n))
            assert abs(report.slack) <= 1e-14

    def test_n2_equal_operands_equality(self):
        a = s.gen_positive_definite(2, 8)
        assert abs(s.check_hartfiel(a, a).slack) <= 1e-13

    def test_seeded_pair(self):
        a, b = pd_pair(5, 3)
        assert s.check_hartfiel(a, b).holds

    def test_refinement_ladder(self):
        a, b = pd_pair(4, 17)
        levels = s.determinant_bound_levels(a, b)
        assert levels.lhs >= levels.sqrt_refined >= levels.ratio_refined
        assert levels.ratio_refined >= levels.superadditive


def _linear_ratio_sum_rhs(a, b, with_sqrt):
    """(1 + sum b_k/a_k) a_n + (1 + sum a_k/b_k) b_n [+ (2^n - 2n) sqrt(a_n b_n)],
    directly on the sequences a_1..a_n and b_1..b_n."""
    n = len(a)
    head = math.fsum(b[k] / a[k] for k in range(n - 1))
    tail = math.fsum(a[k] / b[k] for k in range(n - 1))
    root = (2**n - 2 * n) * math.sqrt(a[-1] * b[-1]) if with_sqrt else 0.0
    return math.fsum([(1.0 + head) * a[-1], (1.0 + tail) * b[-1], root])


class TestLogRatioSumRhs:
    @pytest.mark.parametrize("with_sqrt", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_linear_formula(self, n, with_sqrt):
        rng = np.random.default_rng(n)
        a, b = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (2, 5, n)))
        got = s.inequalities.log_ratio_sum_rhs_stack(np.log(a[:, -1]), np.log(b / a), with_sqrt)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        expected = [_linear_ratio_sum_rhs(ra.tolist(), rb.tolist(), with_sqrt) for ra, rb in zip(a, b)]
        np.testing.assert_allclose(np.exp(got), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("with_sqrt", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 128])
    @pytest.mark.parametrize("rows", [1, 7, 127])
    def test_each_row_has_the_bits_of_its_stack_of_one(self, rows, n, with_sqrt):
        rng = np.random.default_rng(rows * 1000 + n)
        log_an = rng.normal(0.0, 50.0, rows)
        x = rng.normal(0.0, 5.0, (rows, n))
        got = s.inequalities.log_ratio_sum_rhs_stack(log_an, x, with_sqrt)
        for t in range(rows):
            one = s.inequalities.log_ratio_sum_rhs_stack(log_an[t:t + 1], x[t:t + 1], with_sqrt)
            assert one.tobytes() == got[t:t + 1].tobytes()


class TestSchurPd:
    def test_equal_operands_equality(self):
        a = s.gen_positive_definite(4, 5)
        report = s.check_schur_pd(a, a, 2)
        assert abs(report.slack) <= 1e-13

    def test_block_diagonal_equality(self):
        b = s.gen_positive_definite(2, 1)
        c = s.gen_positive_definite(2, 2)
        a1 = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), c]])
        a2 = np.block([[c, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        report = s.check_schur_pd(a1, a2, 2)
        assert abs(report.slack) <= 1e-13

    def test_seeded_pair(self):
        a, b = pd_pair(4, 4)
        report = s.check_schur_pd(a, b, 2)
        assert report.kind == "loewner" and report.slack >= 0.0


class TestInverseRealPart:
    def test_hermitian_equality(self):
        report = s.check_inverse_real_part(s.gen_positive_definite(3, 9))
        assert abs(report.slack) <= 1e-12

    def test_unit_real_part(self):
        a = np.eye(2) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        report = s.check_inverse_real_part(a)
        # (Re A)^{-1} - Re(A^{-1}) = I - I/2 = I/2
        assert report.slack == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-12)

    def test_seeded_sectorial(self):
        a = s.gen_sectorial(4, math.pi / 3, 5)
        assert s.check_inverse_real_part(a).slack >= -1e-10

    def test_rejects_non_accretive(self):
        with pytest.raises(NotAccretiveError):
            s.check_inverse_real_part(np.array([[-1.0]]))


class TestSchurRealPart:
    def test_hermitian_equality(self):
        report = s.check_schur_real_part(s.gen_positive_definite(4, 11), 2)
        assert abs(report.slack) <= 1e-12

    def test_accretive_dissipative_sample(self):
        a = s.gen_accretive_dissipative(4, 6)
        assert s.check_schur_real_part(a, 2).slack >= -1e-10

    def test_upper_triangular_blocks(self):
        # A21 = 0 and N21 = 0: the complement is A22 itself
        a = np.array([[1.0 + 0.5j, 0.4], [0.0, 1.0 - 0.3j]])
        report = s.check_schur_real_part(a, 1)
        assert report.holds

    def test_rejects_non_accretive(self):
        with pytest.raises(NotAccretiveError):
            s.check_schur_real_part(np.diag([-1.0, 1.0]), 1)


class TestOstrowskiTausskyComplement:
    def test_positive_definite_equality(self):
        report = s.check_ostrowski_taussky_complement(s.gen_positive_definite(3, 7))
        assert abs(report.slack) <= 1e-10

    def test_extremal_scalar_phase(self):
        a = np.exp(1j * math.pi / 5) * np.eye(3)
        report = s.check_ostrowski_taussky_complement(a)
        assert abs(report.slack) <= 1e-12

    def test_seeded_sectorial(self):
        report = s.check_ostrowski_taussky_complement(s.gen_sectorial(5, PI4, 7))
        assert report.holds

    def test_rejects_non_sectorial(self):
        with pytest.raises(NotSectorialError):
            s.check_ostrowski_taussky_complement(np.array([[1j]]))


class TestWeakLogMajorization:
    def test_diagonal_unitary(self):
        a = np.diag(np.exp(1j * np.array([0.3, -0.9, 0.7])))
        report = s.check_weak_log_majorization(a)
        assert report.holds

    def test_positive_definite_equality(self):
        report = s.check_weak_log_majorization(s.gen_positive_definite(4, 8))
        assert abs(report.slack) <= 1e-12

    def test_seeded_sectorial(self):
        report = s.check_weak_log_majorization(s.gen_sectorial(4, math.pi / 3, 8))
        assert report.slack >= -1e-8

    def test_overflowing_partial_products(self):
        # The product of sec(alpha) cos(theta_j) would overflow a double near
        # k = 90; its log partial sums stay below 1e3.
        thetas = np.r_[1.5705, np.full(119, 0.3)]
        report = s.check_weak_log_majorization(np.diag(np.exp(1j * thetas)))
        assert report.holds and report.detail.endswith("min_partial_slack_at_k=1")
        assert report.slack == pytest.approx(1.0 - math.cos(1.5705) / math.cos(0.3), rel=1e-9)


class TestClaim1:
    def test_positive_definite_equality(self):
        report = s.check_claim1(s.gen_positive_definite(4, 12), 2)
        assert abs(report.slack) <= 1e-12

    def test_rotated_accretive_dissipative(self):
        a = np.exp(-1j * PI4) * s.gen_accretive_dissipative(4, 9)
        assert s.check_claim1(a, 2).slack >= -1e-10

    def test_block_diagonal(self):
        b = s.gen_sectorial(2, 0.6, 31)
        c = s.gen_sectorial(2, 0.6, 32)
        a = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), c]])
        assert s.check_claim1(a, 2).holds


class TestMain1:
    def test_alpha_zero_matches_pd_bound(self):
        a, b = pd_pair(4, 21)
        main1 = s.check_main1(a, b, 0.0, 2)
        pd = s.check_schur_pd(a, b, 2)
        assert main1.slack == pytest.approx(pd.slack, abs=1e-10)

    def test_conjugate_pair_matches_claim1(self):
        a = s.gen_sectorial(4, PI4, 10)
        alpha = s.sector_angle(a)
        main1 = s.check_main1(a, a.conj().T, alpha, 2)
        claim1 = s.check_claim1(a, 2)
        # with B = A* both sides double, so the normalized slacks coincide
        assert main1.slack == pytest.approx(claim1.slack, abs=1e-10)
        assert main1.holds

    def test_seeded_pair(self):
        a, b = sectorial_pair(5, math.pi / 3, 10)
        assert s.check_main1(a, b, math.pi / 3, 2).slack >= -1e-8

    def test_rejects_outside_sector(self):
        a, b = sectorial_pair(3, PI4, 11)
        with pytest.raises(NotSectorialError):
            s.check_main1(a, b, 0.1, 1)


class TestSchurWrongsec:
    def test_hermitian_degenerate_equality(self):
        report = s.check_schur_wrongsec(s.gen_positive_definite(4, 13), 2)
        assert abs(report.slack) <= 1e-12

    def test_generic_sectorial_violates(self):
        report = s.check_schur_wrongsec(s.gen_sectorial(2, PI4, 14), 1)
        assert not report.holds

    def test_falsifier_finds_counterexample(self):
        cfg = TrialConfig(seed=0, n=2, alpha=PI4, trials=100)
        report = s.falsify_schur_wrongsec(cfg)
        assert report.slack <= -1e-6
        assert "counterexample" in report.detail

    def test_falsifier_deterministic(self):
        cfg = TrialConfig(seed=7, n=3, alpha=0.5, trials=25, partition=1)
        first = s.falsify_schur_wrongsec(cfg)
        second = s.falsify_schur_wrongsec(cfg)
        assert first == second

    def test_no_counterexample_at_alpha_zero(self):
        cfg = TrialConfig(seed=0, n=2, alpha=0.0, trials=50)
        report = s.falsify_schur_wrongsec(cfg)
        assert report.slack > -1e-6
        assert "no counterexample" in report.detail


class TestDetStep:
    def test_identity_pair_equality(self):
        report = s.check_det_step(np.eye(4), np.eye(4), 0.0, 2)
        assert abs(report.slack) <= 1e-14

    def test_diagonal_pair_matches_direct_ratios(self):
        pa = np.array([0.4, -0.2, 0.3])
        pb = np.array([-0.4, 0.1, 0.2])
        a = np.diag(2.0 * np.exp(1j * pa))
        b = np.diag(0.5 * np.exp(1j * pb))
        alpha = 0.4
        k = 2
        lhs = (1 / math.cos(alpha)) ** 3 * abs(
            np.prod(2.0 * np.exp(1j * pa[: k + 1]) + 0.5 * np.exp(1j * pb[: k + 1]))
            / np.prod(2.0 * np.exp(1j * pa[:k]) + 0.5 * np.exp(1j * pb[:k]))
        )
        rhs = 2.0 + 0.5
        expected = (lhs - rhs) / max(lhs, rhs, 1.0)
        report = s.check_det_step(a, b, alpha, k)
        assert report.slack == pytest.approx(expected, rel=1e-10)

    def test_all_k_seeded(self):
        a, b = sectorial_pair(5, math.pi / 6, 11)
        for k in range(1, 5):
            assert s.check_det_step(a, b, math.pi / 6, k).slack >= -1e-8

    def test_k_out_of_range(self):
        a, b = sectorial_pair(3, 0.2, 12)
        with pytest.raises(ValueError):
            s.check_det_step(a, b, 0.2, 3)


class TestDetStepAllK:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_k_is_the_worst_single_k(self, seed):
        n = 7
        a, b = sectorial_pair(n, 0.6, 60 + seed)
        singles = [s.check_det_step(a, b, 0.6, k) for k in range(1, n)]
        worst = min(singles, key=lambda r: r.slack)
        report = s.check_det_step(a, b, 0.6)
        assert report.slack == pytest.approx(worst.slack, abs=1e-12)
        step = re.compile(r"\bk=(\d+)")
        assert step.search(report.detail).group(1) == step.search(worst.detail).group(1)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            s.check_det_step(np.eye(1), np.eye(1), 0.0)


class TestMain2:
    def test_identity_pair_equality(self):
        report = s.check_main2(np.eye(3), np.eye(3), 0.0)
        assert abs(report.slack) <= 1e-14

    def test_equal_operands_hold(self):
        a = s.gen_sectorial(3, 0.9, 30)
        report = s.check_main2(a, a, 0.9)
        assert report.holds

    def test_seeded_pair(self):
        a, b = sectorial_pair(4, PI4, 12)
        assert s.check_main2(a, b, PI4).slack >= -1e-8

    def test_alpha_zero_equals_hartfiel(self):
        for seed in range(5):
            a, b = pd_pair(4, 50 + seed)
            main2 = s.check_main2(a, b, 0.0)
            hart = s.check_hartfiel(a, b)
            assert abs(main2.slack - hart.slack) <= 1e-12

    def test_rejects_outside_sector(self):
        a, b = sectorial_pair(3, 0.9, 13)
        with pytest.raises(NotSectorialError):
            s.check_main2(a, b, 0.2)


class TestCorollaryAd:
    def test_constant_is_sec_power(self):
        # 2^{3n/2 - 1} agrees with sec(pi/4)^{3n - 2}
        for n in range(1, 11):
            expected = 2.0 ** (1.5 * n - 1.0)
            sec_power = (1.0 / math.cos(PI4)) ** (3 * n - 2)
            assert abs(sec_power - expected) <= 1e-13 * expected

    def test_scalar_multiple_closed_form(self):
        n = 3
        a = (1.0 + 1.0j) * np.eye(n)
        report = s.check_corollary_ad(a, a)
        lhs = 2.0 ** (1.5 * n - 1.0) * abs(np.linalg.det(2.0 * a))
        rhs = 2.0**1.5 * n * 2.0 + (2.0**n - 2.0 * n) * 2.0 ** (n / 2.0)
        # lhs = 2^{3n-1}, rhs = 2^{3n/2}
        assert lhs == pytest.approx(2.0 ** (3 * n - 1))
        assert report.slack == pytest.approx((lhs - 2.0 ** (1.5 * n)) / lhs, rel=1e-12)

    def test_seeded_pair(self):
        a = s.gen_accretive_dissipative(3, s.child_seed(13, 0))
        b = s.gen_accretive_dissipative(3, s.child_seed(13, 1))
        assert s.check_corollary_ad(a, b).holds

    def test_rejects_non_accretive_dissipative(self):
        with pytest.raises(NotAccretiveDissipativeError):
            s.check_corollary_ad(np.eye(2), np.eye(2) + 1j * np.eye(2))


class TestReportContract:
    def test_holds_iff_slack_above_tolerance(self):
        a, b = sectorial_pair(3, PI4, 40)
        for report in (
            s.check_main2(a, b, PI4),
            s.check_schur_wrongsec(s.gen_sectorial(2, PI4, 41), 1),
        ):
            assert report.holds == (report.slack >= -report.tol)

    def test_dict_round_trip(self):
        import json

        report = s.check_main2(*sectorial_pair(3, 0.5, 42), 0.5)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["name"] == "main2"
        assert set(doc) == {"name", "kind", "slack", "holds", "tol", "detail"}

    @given(seed=st.integers(0, 2**31), alpha_hi=st.floats(0.9, 1.4))
    @settings(max_examples=20, deadline=None)
    def test_alpha_monotonicity(self, seed, alpha_hi):
        # widening the declared sector only helps: sec powers grow with alpha
        a, b = sectorial_pair(3, 0.8, seed)
        low = s.check_main2(a, b, 0.8)
        high = s.check_main2(a, b, alpha_hi)
        assert high.slack >= low.slack - 1e-12
        assert not low.holds or high.holds


SCALES = (1e-150, 1e-3, 1.0, 1e3, 1e150)
# name -> (operands at n = 6, check); each check is homogeneous in the
# operands, so its slack must not depend on a common factor c.
SCALAR_CHECKS = {
    "det-superadditivity": (lambda: pd_pair(6, 70), s.check_det_superadditivity),
    "haynsworth": (lambda: pd_pair(6, 71), s.check_haynsworth),
    "hartfiel": (lambda: pd_pair(6, 72), s.check_hartfiel),
    "main2": (lambda: sectorial_pair(6, 0.6, 73), lambda a, b: s.check_main2(a, b, 0.6)),
    "det-step": (lambda: sectorial_pair(6, 0.6, 74), lambda a, b: s.check_det_step(a, b, 0.6)),
    "corollary-ad": (
        lambda: (
            s.gen_accretive_dissipative(6, s.child_seed(75, 0)),
            s.gen_accretive_dissipative(6, s.child_seed(75, 1)),
        ),
        s.check_corollary_ad,
    ),
    "lemma-2-6": (lambda: (s.gen_sectorial(6, 0.6, 76),), s.check_ostrowski_taussky_complement),
    "weak-log-major": (lambda: (s.gen_sectorial(6, 0.6, 77),), s.check_weak_log_majorization),
}


class TestScalarSlack:
    @pytest.mark.parametrize("name", list(SCALAR_CHECKS))
    def test_scale_free(self, name):
        operands, check = SCALAR_CHECKS[name]
        ops = operands()
        base = check(*ops).slack
        for c in SCALES:
            assert check(*(c * m for m in ops)).slack == pytest.approx(base, abs=1e-12), c

    @pytest.mark.parametrize("name", list(SCALAR_CHECKS))
    def test_detail_names_both_sides(self, name):
        operands, check = SCALAR_CHECKS[name]
        detail = check(*operands()).detail
        assert re.search(r"(^| )(log_)?lhs=", detail) and re.search(r"(^| )(log_)?rhs=", detail), detail

    def test_small_sides_are_not_floored(self):
        # both sides below 1: a false inequality must not pass through a floor
        report = s.scalar_report("x", math.log(0.5), math.log(0.6), 1e-8)
        assert report.slack == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert not report.holds

    def test_detail_never_raises(self):
        report = s.scalar_report("x", 1e6, -1e6, 1e-8)
        assert report.slack == 1.0 and report.holds
        assert "log_lhs=1.000000000000e+06" in report.detail
        assert "log_rhs=-1.000000000000e+06" in report.detail
        report = s.scalar_report("x", math.nan, 0.0, 1e-8)
        assert math.isnan(report.slack) and not report.holds
        assert "lhs=nan" in report.detail

    def test_overflowing_bounds_hold_at_n256(self):
        n = 256
        p, q = pd_pair(n, 80)
        a, b = sectorial_pair(n, PI4, 81)
        c = s.gen_accretive_dissipative(n, s.child_seed(82, 0))
        d = s.gen_accretive_dissipative(n, s.child_seed(82, 1))
        for report in (
            s.check_main2(a, b, PI4),
            s.check_hartfiel(p, q),
            s.check_haynsworth(p, q),
            s.check_corollary_ad(c, d),
        ):
            assert math.isfinite(report.slack) and report.holds, report.name
            assert "log_lhs=" in report.detail
        # the public ladder reports a level beyond the float range as inf
        assert s.determinant_bound_levels(p, q).lhs == math.inf


def _pd(n, seed):
    return s.gen_positive_definite(n, seed)


def _sectorial(n, seed):
    return s.gen_sectorial(n, 0.6, seed)


# name -> (check, operand generator, operand count, the arguments after the operands)
MATRIX_CHECKS = {
    "det-superadditivity": (s.check_det_superadditivity, _pd, 2, ()),
    "haynsworth": (s.check_haynsworth, _pd, 2, ()),
    "hartfiel": (s.check_hartfiel, _pd, 2, ()),
    "schur-pd": (s.check_schur_pd, _pd, 2, (2,)),
    "lemma-2-4": (s.check_inverse_real_part, _sectorial, 1, ()),
    "lemma-2-5": (s.check_schur_real_part, _sectorial, 1, (2,)),
    "lemma-2-6": (s.check_ostrowski_taussky_complement, _sectorial, 1, ()),
    "weak-log-major": (s.check_weak_log_majorization, _sectorial, 1, ()),
    "claim1": (s.check_claim1, _sectorial, 1, (2,)),
    "main1": (s.check_main1, _sectorial, 2, (0.6, 2)),
    "main2": (s.check_main2, _sectorial, 2, (0.6,)),
    "det-step": (s.check_det_step, _sectorial, 2, (0.6,)),
    "corollary-ad": (s.check_corollary_ad, s.gen_accretive_dissipative, 2, ()),
    "schur-wrongsec": (s.check_schur_wrongsec, _sectorial, 1, (2,)),
}


def assert_invalid_stack_raises_what_its_matrix_raises(fn, gen, count, rest):
    """A stack whose matrix 1 has a non-finite entry in its last operand, and
    stacks of 3-by-4 matrices, raise the class and text of matrix 1 alone."""
    clean = [np.stack([gen(4, s.child_seed(92, t, k)) for t in range(3)]) for k in range(count)]
    non_finite = [m.copy() for m in clean]
    non_finite[-1][1, 2, 0] = np.nan
    for stacks in (non_finite, [m[:, :3] for m in clean]):
        with pytest.raises(ValueError) as alone:
            fn(*(m[1] for m in stacks), *rest)
        with pytest.raises(ValueError) as stacked:
            fn(*stacks, *rest)
        assert (type(stacked.value), str(stacked.value)) == (type(alone.value), str(alone.value))


class TestStackedContract:
    """Every matrix check takes one matrix per operand or a (T, n, n) stack."""

    def test_table_covers_every_matrix_check(self):
        names = {name for name, check in cli.CHECKS.items() if check.family != "sequence"}
        assert set(MATRIX_CHECKS) == names

    @pytest.mark.parametrize("name", list(MATRIX_CHECKS))
    def test_stack_gives_the_per_matrix_reports(self, name):
        check, gen, count, rest = MATRIX_CHECKS[name]
        operands = [[gen(4, s.child_seed(90, t, k)) for t in range(3)] for k in range(count)]
        stacked = check(*(np.stack(ops) for ops in operands), *rest)
        assert isinstance(stacked, list) and len(stacked) == 3
        singles = [check(*(ops[t] for ops in operands), *rest) for t in range(3)]
        assert all(isinstance(r, s.InequalityReport) for r in singles)
        listed = check(*operands, *rest)  # a stack given as a list of matrices

        def bits(r):
            return r.slack.hex(), r.holds, r.detail

        assert [bits(r) for r in stacked] == [bits(r) for r in singles] == [bits(r) for r in listed]

    @pytest.mark.parametrize("name", list(MATRIX_CHECKS))
    def test_invalid_stack_raises_what_its_matrix_raises(self, name):
        assert_invalid_stack_raises_what_its_matrix_raises(*MATRIX_CHECKS[name])

    @pytest.mark.parametrize("name", list(MATRIX_CHECKS))
    def test_operands_are_validated_once(self, name, monkeypatch):
        # by the check itself, not again by the kernels that it calls
        check, gen, count, rest = MATRIX_CHECKS[name]
        validated = []

        def counted(m):
            validated.append(m.shape)
            return as_square_stack(m)

        as_square_stack = s.linalg._as_square_stack
        monkeypatch.setattr(s.linalg, "_as_square_stack", counted)
        operands = [gen(4, s.child_seed(93, k)) for k in range(count)]
        check(*operands, *rest)
        assert validated == []
        check(*(np.stack([m] * 3) for m in operands), *rest)
        assert validated == [(3, 4, 4)] * count

    @pytest.mark.parametrize("name", [n for n, (_, _, count, _) in MATRIX_CHECKS.items() if count == 2])
    def test_matrix_with_stack_is_a_shape_error(self, name):
        check, gen, _, rest = MATRIX_CHECKS[name]
        a = gen(4, 1)
        stack = np.stack([gen(4, 2)] * 3)
        with pytest.raises(ValueError):
            check(a, stack, *rest)
        with pytest.raises(ValueError, match="all matrices or all"):
            check(stack, a, *rest)

    @pytest.mark.parametrize("lengths", [(1, 3), (3, 1)])
    @pytest.mark.parametrize("name", [n for n, (_, _, count, _) in MATRIX_CHECKS.items() if count == 2])
    def test_stacks_of_different_lengths_are_an_error(self, name, lengths):
        check, gen, _, rest = MATRIX_CHECKS[name]
        a, b = (np.stack([gen(4, s.child_seed(91, t, k)) for t in range(length)])
                for k, length in enumerate(lengths))
        with pytest.raises(ValueError, match=f"differ in length: {lengths[0]} and {lengths[1]}"):
            check(a, b, *rest)


def _sector_mix(n, seed):
    # angle 0.2 or 0.6 by the seed's parity: the 3-stacks below mix members
    # and non-members of the sector of half-angle 0.4
    return s.gen_sectorial(n, 0.6 if seed % 2 else 0.2, seed)


# layer.name -> (kernel, operand generator, operand count, the arguments after the operands)
KERNELS = {
    "linalg.cartesian_split": (s.linalg.cartesian_split, _sectorial, 1, ()),
    "linalg.as_hermitian": (s.linalg.as_hermitian, _pd, 1, ()),
    "linalg.accretive_parts": (s.linalg.accretive_parts, _sectorial, 1, ()),
    "linalg.log_abs_determinant": (s.linalg.log_abs_determinant, _sectorial, 1, ()),
    "linalg.log_abs_leading_minors": (s.linalg.log_abs_leading_minors, _sectorial, 1, ()),
    "sector.in_sector": (s.sector.in_sector, _sector_mix, 1, (0.4,)),
    "sector.sectorial_decompose": (s.sector.sectorial_decompose, _sectorial, 1, ()),
    "sector.sector_angle": (s.sector.sector_angle, _sectorial, 1, ()),
    "sector.sectorial_thetas": (s.sector.sectorial_thetas, _sectorial, 1, ()),
    "schur.schur_complement": (s.schur.schur_complement, _sectorial, 1, (2,)),
    "inequalities.determinant_bound_levels": (s.inequalities.determinant_bound_levels, _pd, 2, ()),
    "inequalities.log_minor_ratios": (s.inequalities.log_minor_ratios, _sectorial, 2, ()),
}


def _bits(x):
    """The exact content of a kernel's result, field by field."""
    if dataclasses.is_dataclass(x):
        x = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(_bits(field) for field in x)
    if x is None:
        return None
    v = np.asarray(x)
    return v.dtype.str, v.shape, v.tobytes()


def _entry(result, t):
    """Matrix t's part of a kernel's result on a stack."""
    if isinstance(result, tuple):
        return result._make(field[t] for field in result)
    return result[t]


class TestKernelContract:
    """Every kernel that ``linalg.matrix_or_stack`` dispatches takes one matrix
    per operand or a (T, n, n) stack, with the same bits for each matrix."""

    def test_table_covers_every_dispatched_function(self):
        found = {
            f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
            for mod in (s.linalg, s.sector, s.schur, s.inequalities)
            for name, fn in vars(mod).items()
            if not name.startswith("_") and hasattr(fn, "__wrapped__")
            and getattr(fn, "__module__", None) == mod.__name__
        }
        checks = {f"inequalities.{check.__name__}" for check, *_ in MATRIX_CHECKS.values()}
        assert found == set(KERNELS) | checks

    @pytest.mark.parametrize("n", [4, 40])  # 40 is past linalg._ELIMINATION_BLOCK
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_stack_gives_the_per_matrix_results(self, name, n):
        kernel, gen, count, rest = KERNELS[name]
        operands = [[gen(n, s.child_seed(90, t, k)) for t in range(3)] for k in range(count)]
        stacked = kernel(*(np.stack(ops) for ops in operands), *rest)
        singles = [kernel(*(ops[t] for ops in operands), *rest) for t in range(3)]
        listed = kernel(*operands, *rest)  # a stack given as a list of matrices
        assert ([_bits(_entry(stacked, t)) for t in range(3)] == [_bits(r) for r in singles]
                == [_bits(_entry(listed, t)) for t in range(3)])
        if isinstance(singles[0], tuple):  # one named tuple of per-matrix fields, not T tuples
            assert type(stacked) is type(singles[0]) and all(len(field) == 3 for field in stacked)

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_invalid_stack_raises_what_its_matrix_raises(self, name):
        assert_invalid_stack_raises_what_its_matrix_raises(*KERNELS[name])

    @pytest.mark.parametrize("name", [*KERNELS, *MATRIX_CHECKS])
    def test_empty_stack_is_a_value_error(self, name):
        kernel, gen, count, rest = KERNELS.get(name) or MATRIX_CHECKS[name]
        empty = np.empty((0, 4, 4), dtype=np.complex128)
        with pytest.raises(ValueError, match="^expected a stack of at least one matrix, got an empty stack$"):
            kernel(*[empty] * count, *rest)

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_neither_matrix_nor_stack_is_a_shape_error(self, name):
        kernel, gen, count, rest = KERNELS[name]
        odd = np.stack([gen(4, 1)] * 2)[None]
        with pytest.raises(ValueError, match="expected a square matrix"):
            kernel(*[odd] * count, *rest)
        if count == 2:
            stack = np.stack([gen(4, 2)] * 3)
            with pytest.raises(ValueError):
                kernel(gen(4, 1), stack, *rest)
            with pytest.raises(ValueError, match="all matrices or all"):
                kernel(stack, gen(4, 1), *rest)


# Factors at which the squares of the operands' entries overflow (1e160,
# 1e200) or underflow (1e-160, 1e-200) a float.
EXTREME_SCALES = (1e-200, 1e-160, 1e160, 1e200)


def _scaled(name, c):
    """The verdicts and the values of ``name`` on seeded operands at n = 4
    times c; a value that scales with c is divided by it."""
    if name in MATRIX_CHECKS:
        check, gen, count, rest = MATRIX_CHECKS[name]
        report = check(*(c * gen(4, s.child_seed(94, k)) for k in range(count)), *rest)
        return [report.holds], [report.slack]
    a = c * _sectorial(4, s.child_seed(94, 0))  # a sector angle of 0.6
    if name == "in_sector":
        inside, outside = s.in_sector(a, 0.6), s.in_sector(a, 0.5)
        return [inside.inside, outside.inside, outside.witness.rotation], []
    if name == "sector_angle":
        return [], [s.sector_angle(a)]
    return [], list((s.schur_complement(a, 2) / c).ravel())


@pytest.mark.parametrize("c", EXTREME_SCALES)
@pytest.mark.parametrize("name", [*MATRIX_CHECKS, "in_sector", "sector_angle", "schur_complement"])
def test_scale_free_across_the_float_range(name, c):
    # Every tolerance is relative to a Frobenius norm, so A -> cA moves no
    # verdict, and no value beyond the rounding of c * A, anywhere in the
    # float range.  A slack is relative to its sides already, and may sit
    # near 0, so it is held to 1e-12 absolute (rounding c * A moves a slack
    # by about 1e-17, at c = 3 as at 1e200); the angle and the complement's
    # entries, of order one here, to 1e-12 relative as well.
    verdicts, values = _scaled(name, c)
    base_verdicts, base_values = _scaled(name, 1.0)
    assert verdicts == base_verdicts
    np.testing.assert_allclose(values, base_values, rtol=1e-12, atol=1e-12)
