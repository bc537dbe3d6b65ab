import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sectoria as s
import sectoria.linalg
from sectoria import (
    SingularMatrixError,
    cartesian_split,
    complex_gaussian,
    frobenius,
    inverse,
    rng_stream,
    solve,
)
from sectoria.linalg import as_hermitian, hermitian_eigen_stack, log_abs_determinant, log_abs_leading_minors
from oracles import determinant, eigenvalues_by_charpoly


def random_matrix(n, seed):
    return complex_gaussian(n, rng_stream(seed))


def random_hermitian(n, seed):
    g = random_matrix(n, seed)
    return (g + g.conj().T) / 2.0


class TestCartesianSplit:
    def test_hermitian_input_has_zero_imag_part(self):
        re, im = cartesian_split(np.eye(2))
        np.testing.assert_array_equal(re, np.eye(2))
        np.testing.assert_array_equal(im, np.zeros((2, 2)))

    def test_skew_hermitian_input(self):
        re, im = cartesian_split(np.array([[1j]]))
        np.testing.assert_array_equal(re, np.array([[0.0]]))
        np.testing.assert_array_equal(im, np.array([[1.0]]))

    def test_frozen_2x2(self):
        a = np.array([[1 + 2j, 3.0], [-3.0, 1 - 2j]])
        re, im = cartesian_split(a)
        np.testing.assert_allclose(re, np.eye(2), atol=0)
        np.testing.assert_allclose(im, np.array([[2.0, -3j], [3j, -2.0]]), atol=0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_recombine_reproduces_input(self, seed, n):
        a = random_matrix(n, seed)
        re, im = cartesian_split(a)
        assert frobenius(re - re.conj().T) <= 1e-13 * frobenius(a)
        assert frobenius(im - im.conj().T) <= 1e-13 * frobenius(a)
        assert frobenius(re + 1j * im - a) <= 1e-14 * frobenius(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            cartesian_split(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cartesian_split(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestHermitianEigen:
    """``hermitian_eigen_stack``, the eigensolver of ``sectorial_decompose``,
    and ``as_hermitian``, the guard that Hermitian inputs pass first."""

    @staticmethod
    def eigen(h):
        w, v = hermitian_eigen_stack(as_hermitian(h)[None])
        return w[0], v[0]

    def test_diagonal(self):
        w, _ = self.eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=0)

    def test_symmetric_swap(self):
        w, _ = self.eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)

    def test_matches_charpoly_oracle(self):
        h = random_hermitian(5, 42)
        w, _ = self.eigen(h)
        np.testing.assert_allclose(w, eigenvalues_by_charpoly(h), atol=1e-9)

    def test_contracts_over_1000_seeded_matrices(self):
        from sectoria.linalg import EIGEN_RTOL

        for n in range(1, 13):
            stack = np.stack([random_hermitian(n, 90_000 + i) for i in range(n - 1, 1000, 12)])
            ws, vs = hermitian_eigen_stack(stack)
            for h, w, v in zip(stack, ws, vs):
                scale = max(frobenius(h), 1e-300)
                assert frobenius(h @ v - v * w) <= EIGEN_RTOL * scale
                assert frobenius(v.conj().T @ v - np.eye(n)) <= EIGEN_RTOL
                assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="^input is not Hermitian within tolerance$"):
            as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(np.eye(3)), np.eye(3), atol=0)

    def test_diagonal(self):
        np.testing.assert_allclose(
            inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=0
        )

    def test_unit_triangular(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(inverse(a), [[1.0, -1.0], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(a @ inverse(a), np.eye(2), atol=1e-15)

    def test_residual_bound(self):
        for seed in range(25):
            a = random_matrix(6, 7000 + seed)
            sv = np.linalg.svd(a, compute_uv=False)
            cond = sv[0] / sv[-1]
            if cond >= 1e6:
                continue
            res = frobenius(a @ inverse(a) - np.eye(6))
            assert res <= 1e-10 * cond

    def test_involution_for_well_conditioned(self):
        for seed in range(25):
            a = random_matrix(5, 8000 + seed)
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[0] / sv[-1] >= 1e6:
                continue
            assert frobenius(inverse(inverse(a)) - a) <= 1e-8 * frobenius(a)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_solve_matches_inverse(self):
        a = random_matrix(4, 11)
        b = random_matrix(4, 12)
        np.testing.assert_allclose(solve(a, b), inverse(a) @ b, atol=1e-12)


def gaussian_stack(t, n, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t, n, k)) + 1j * rng.standard_normal((t, n, k))


class TestSolveStackRoutes:
    """A small stack is solved as one batch, any other one matrix at a time;
    both routes give every matrix the bits of ``solve``."""

    LIMIT = sectoria.linalg.BATCHED_SOLVE_MAX_ORDER

    @staticmethod
    def per_matrix(a, b):
        return np.stack([solve(a[t], b[t]) for t in range(len(a))])

    @staticmethod
    def batched(a, b):
        return len(a) > 1 and a.shape[-1] <= TestSolveStackRoutes.LIMIT and b.shape[-1] > 1

    @pytest.fixture
    def route(self, monkeypatch):
        """Solve a stack through ``solve_stack``, recording whether it called ``solve``."""
        calls = []

        def counted(a, b):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(sectoria.linalg, "solve", counted)

        def run(a, b):
            calls.clear()
            out = sectoria.linalg.solve_stack(a, b)
            return out, not calls

        return run

    @pytest.mark.parametrize("t", [2, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 15, 16, 20])
    @pytest.mark.parametrize("k", [1, 2, 5, "eye"])
    def test_equals_per_matrix_solve(self, route, t, n, k):
        a = gaussian_stack(t, n, n, 100 * n + t)
        b = (np.broadcast_to(np.eye(n), a.shape) if k == "eye"
             else gaussian_stack(t, n, k, 100 * n + t + 1))
        out, batched = route(a, b)
        assert batched == self.batched(a, b)
        assert out.tobytes() == self.per_matrix(a, b).tobytes()
        # column-major matrices, as LAPACK returns them, on both routes
        assert all(m.flags.f_contiguous for m in out)

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_real_stack_is_solved_in_complex_arithmetic(self, route, n):
        a = gaussian_stack(64, n, n, n).real
        b = gaussian_stack(64, n, 3, n + 1).real
        out, batched = route(a, b)
        assert batched and out.dtype == np.complex128
        assert out.tobytes() == self.per_matrix(a, b).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 63])
    def test_singular_matrix_raises_what_solve_raises(self, route, k):
        a = gaussian_stack(64, 3, 3, 7)
        a[k, :, 0] = 2.0 * a[k, :, 1]
        with pytest.raises(SingularMatrixError) as expected:
            solve(a[k], a[k])
        with pytest.raises(SingularMatrixError) as raised:
            route(a, gaussian_stack(64, 3, 2, 8))
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("n", [2, 3, 6, 15])
    def test_determinant_bound_never_passes_a_failing_pivot(self, n, route):
        # sigma_min = 10**-e sigma_max takes the matrices across both the
        # determinant bound and the pivot threshold 1e-13 ||A||_F.
        exponents = np.arange(0.0, 18.0, 0.5)
        shown, nonsingular = 0, 0
        for i, e in enumerate(exponents):
            q1, q2 = (np.linalg.qr(m)[0] for m in gaussian_stack(2, n, n, 1000 * n + i))
            sigma = np.linspace(2.0, 0.5, n)
            sigma[-1] = 10.0 ** -e
            stack = np.stack([np.eye(n), (q1 * sigma) @ q2.conj().T])
            b = gaussian_stack(2, n, 2, i)
            try:
                sectoria.linalg._lu_factor(stack[1])
            except SingularMatrixError:
                assert not sectoria.linalg._pivots_pass(stack)
                with pytest.raises(SingularMatrixError):
                    route(stack, b)
                continue
            nonsingular += 1
            out, batched = route(stack, b)
            assert batched == sectoria.linalg._pivots_pass(stack)
            shown += batched
            assert out.tobytes() == self.per_matrix(stack, b).tobytes()
        # the bound shows some nonsingular matrices and leaves the others to
        # the per-matrix loop, which rejects some
        assert 0 < shown < nonsingular < len(exponents)

    def test_non_finite_stack_raises_the_first_failure(self, route):
        a = gaussian_stack(64, 3, 3, 9)
        b = gaussian_stack(64, 3, 2, 10)
        a[5, 1, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            route(a, b)
        a[2] = 0.0  # a singular matrix before the non-finite one raises first
        with pytest.raises(SingularMatrixError):
            route(a, b)


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_phases_cancel(self):
        a = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        assert determinant(a) == pytest.approx(1.0, abs=1e-15)

    def test_2x2_formula(self):
        assert determinant(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)

    def test_singular_input_gives_zero(self):
        assert abs(determinant(np.array([[1.0, 1.0], [1.0, 1.0]]))) <= 1e-15

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, seed, n):
        a = random_matrix(n, seed)
        b = random_matrix(n, seed + 1)
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)


class TestPrincipalAbsMinors:
    def test_triangular(self):
        a = np.array([[2.0, 5.0, 1.0], [0.0, -3.0, 7.0], [0.0, 0.0, 0.5]])
        np.testing.assert_allclose(
            log_abs_leading_minors(a), np.log([2.0, 6.0, 3.0]), rtol=0.0, atol=1e-15
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_one_determinant_per_block(self, seed):
        a = random_matrix(6, seed)
        expected = [abs(determinant(a[:k, :k])) for k in range(1, 7)]
        np.testing.assert_allclose(np.exp(log_abs_leading_minors(a)), expected, rtol=1e-12)


FAMILIES = {
    "pd": lambda n, seed: s.gen_positive_definite(n, seed),
    "sectorial": lambda n, seed: s.gen_sectorial(n, math.pi / 4, seed),
    "ad": lambda n, seed: s.gen_accretive_dissipative(n, seed),
}


def assert_minors_match_slogdet(a):
    n = a.shape[0]
    expected = np.array([np.linalg.slogdet(a[:k, :k])[1] for k in range(1, n + 1)])
    # |expm1(difference of logs)| is the relative error of the minor
    assert np.max(np.abs(np.expm1(log_abs_leading_minors(a) - expected))) <= 1e-12


class TestLogAbsLeadingMinors:
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("n", [2, 6, 32])
    def test_matches_slogdet_per_block(self, family, n):
        for t in range(10):
            assert_minors_match_slogdet(FAMILIES[family](n, s.child_seed(31, n, t)))

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("n", [5, 6, 13])
    def test_blocked_elimination(self, family, n, monkeypatch):
        # blocks of order <= 2 force the split-and-couple path at every level
        monkeypatch.setattr(sectoria.linalg, "_ELIMINATION_BLOCK", 2)
        for t in range(5):
            assert_minors_match_slogdet(FAMILIES[family](n, s.child_seed(32, n, t)))

    def test_blocked_at_default_block_size(self):
        assert_minors_match_slogdet(s.gen_positive_definite(80, 33))

    def test_last_entry_is_the_full_determinant(self):
        a = s.gen_sectorial(8, 0.9, 5)
        assert log_abs_leading_minors(a)[-1] == pytest.approx(log_abs_determinant(a), abs=1e-12)

    def test_input_not_mutated(self):
        a = random_matrix(4, 9)
        before = a.copy()
        log_abs_leading_minors(a)
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.0, 1.0], [1.0, 1.0]]),  # A_1 = 0
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # A_2 singular
            np.zeros((3, 3)),
        ],
    )
    def test_singular_leading_block_raises(self, a):
        with pytest.raises(SingularMatrixError):
            log_abs_leading_minors(a)

    def test_singular_block_past_the_first_split_raises(self):
        a = np.eye(80)
        a[50, :51] = a[49, :51]  # A_51 has two equal rows
        with pytest.raises(SingularMatrixError):
            log_abs_leading_minors(a)

    def test_scale_free_up_to_the_log_shift(self):
        a = s.gen_sectorial(6, 0.7, 3)
        for c in (1e-150, 1e150):
            shift = np.arange(1, 7) * math.log(c)
            np.testing.assert_allclose(
                log_abs_leading_minors(c * a), log_abs_leading_minors(a) + shift, rtol=1e-13
            )


class TestLogAbsDeterminant:
    def test_matches_slogdet(self):
        a = random_matrix(7, 3)
        assert log_abs_determinant(a) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-13)

    def test_no_overflow(self):
        assert log_abs_determinant(1e200 * np.eye(4)) == pytest.approx(4 * 200 * math.log(10))

    def test_singular_is_minus_infinity(self):
        assert log_abs_determinant(np.zeros((2, 2))) == -math.inf
