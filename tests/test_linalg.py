import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
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
from sectoria.linalg import (PD_RTOL, PIVOT_RTOL, as_hermitian, log_abs_determinant, log_abs_leading_minors,
                             positive_definite_stack)
from oracles import determinant, eigenvalues_by_charpoly


def random_matrix(n, seed):
    return complex_gaussian(n, rng_stream(seed))


class TestFrobenius:
    @pytest.mark.parametrize("bad, norm", [(np.inf, math.inf), (complex(0.0, -np.inf), math.inf), (np.nan, math.nan),
                                           (complex(np.inf, np.nan), math.nan)])
    def test_non_finite_entry_without_a_warning(self, bad, norm):
        # A complex infinite entry once gave NaN: the rescaling divided it by 1.
        a = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frobenius(a)
            finite = [np.eye(2), 1e200 * random_matrix(2, 1), 1e-200 * random_matrix(2, 2), random_matrix(2, 3)]
            rows = np.stack([a, *finite, a]).reshape(6, -1)
            stacked = sectoria.linalg.frobenius_stack(rows)
        assert np.array_equal([got, stacked[0], stacked[-1]], [norm] * 3, equal_nan=True)
        # The finite rows keep the bits that they have without the others.
        assert stacked[1:-1].tobytes() == sectoria.linalg.frobenius_stack(rows[1:-1]).tobytes()
        assert stacked[1:-1].tolist() == [frobenius(m) for m in finite]

    @pytest.mark.parametrize("exponent", [-322, -320, -315, -310, -308, -305, -300])
    def test_subnormal_largest_entry_without_a_warning(self, exponent):
        # The rescaling divides each part of a complex matrix by the real
        # scale: a complex division would take 1 / scale, which overflows
        # where the largest entry is subnormal, and give NaN.  The norm is
        # within a few eps, or one subnormal step, of the exact norm of the
        # stored entries, as a real matrix's is.  The exact norm is taken
        # of the squares' exact sum scaled by 4^1100, then scaled back.
        c = 10.0 ** exponent
        real = c * np.array([[1.0, -3.0], [0.5, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (real, real.astype(complex), 1j * real, real + 1j * real[::-1]):
                squares = sum(Fraction(x) ** 2 for x in np.concatenate([a.real, a.imag]).ravel())
                exact = math.ldexp(math.sqrt(squares * 4**1100), -1100)
                assert exact > 0.0
                assert abs(frobenius(a) - exact) <= 4 * np.finfo(float).eps * exact + np.finfo(float).smallest_subnormal
            assert s.in_sector(c * np.eye(2), 0.5)
            assert not s.in_sector(-c * np.eye(2), 0.5)

    def test_direct_norms_keep_their_bits(self):
        # Norms inside _DIRECT_NORMS are summed as they are, and complex
        # norms just outside keep each part's division by the real scale.
        low, high = sectoria.linalg._DIRECT_NORMS
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
        for c in (2 * low, 1.0, high / 20):
            f = sectoria.linalg.frobenius_stack(c * x)
            assert f.tolist() == [float(np.linalg.norm(m)) for m in c * x]
        for c in (low / 20, 2 * high):
            v = (c * x).reshape(64, -1)
            big = np.abs(v).max(axis=-1)
            re, im = v.real / big[:, None], v.imag / big[:, None]
            expected = big * np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
            np.testing.assert_allclose(sectoria.linalg.frobenius_stack(c * x), expected, rtol=2 * np.finfo(float).eps)


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
    """The Hermitian eigenproblem of ``sectorial_decompose``, and
    ``as_hermitian``, the guard that Hermitian inputs pass first."""

    def test_matches_charpoly_oracle(self):
        # tan(theta_j) are the eigenvalues of L^{-1} K L^{-*}, with H = L L*,
        # which is similar to H^{-1} K for A = H + iK.
        for seed in range(5):
            a = s.gen_sectorial(5, 1.0, seed)
            re, im = cartesian_split(a)
            expected = eigenvalues_by_charpoly(np.linalg.inv(re) @ im)
            tans = np.sort(np.tan(s.sectorial_decompose(a).thetas))
            np.testing.assert_allclose(tans, expected, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="^input is not Hermitian within tolerance$"):
            as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def planted_hermitian(n: int, delta: float, seed: int, c: float) -> np.ndarray:
    """c U diag(z) U*, exactly Hermitian, with least eigenvalue z_1 =
    PD_RTOL (1 + delta) ||z||, up to rounding, and the others in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rest = rng.uniform(0.5, 2.0, size=n - 1)
    r = PD_RTOL * (1 + delta)
    z = np.concatenate(([r * np.linalg.norm(rest) / math.sqrt(1 - r * r)], rest))
    h = (u * z) @ u.conj().T
    return c * ((h + h.conj().T) / 2)


def eigvalsh_clears(h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(h)[:, 0] > PD_RTOL * scale


class TestCholeskyCertificate:
    """``linalg._cholesky_clears`` may say yes only where ``eigvalsh`` would:
    ``positive_definite_stack``, ``in_sector`` and the generators' factor
    screen keep every verdict that the eigensolve gives."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_numpy_raises_for_a_stack_with_one_matrix_that_fails(self, n):
        # The certificate relies on this: a failing matrix anywhere in the
        # stack raises LinAlgError, rather than leaving NaN in its factor.
        for bad in (-np.eye(n), np.zeros((n, n)), np.diag([1.0] * (n - 1) + [-1e-300])):
            for k in range(3):
                stack = np.stack([np.eye(n, dtype=complex)] * 3)
                stack[k] = bad
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(stack)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 64, 128])
    def test_never_clears_what_eigvalsh_rejects(self, n):
        deltas = [-0.9, -0.5, -0.1, -1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 10, 100, 1e3]
        cleared = 0
        for c in (1e-200, 1.0, 1e200):
            for seed in range(3):
                if n == 1:  # a 1-by-1 matrix is its own least eigenvalue
                    stack = c * np.array([[[-1.0]], [[0.0]], [[1.0]]], dtype=complex)
                else:
                    stack = np.stack([planted_hermitian(n, delta, seed, c) for delta in deltas])
                scale = sectoria.linalg.frobenius_stack(stack)
                expected = eigvalsh_clears(stack, scale)
                for h, norm, passes in zip(stack, scale, expected):
                    # The certificate shifts the buffer it is handed: a copy.
                    if sectoria.linalg._cholesky_clears(h[None].copy(), PD_RTOL * norm, norm):
                        assert passes
                        cleared += 1
                assert positive_definite_stack(stack, scale) == expected.all()
                assert positive_definite_stack(stack[expected], scale[expected])
                # A planted gap of 1e3 PD_RTOL clears at every order.
                assert sectoria.linalg._cholesky_clears(stack[-1:].copy(), PD_RTOL * scale[-1:], scale[-1:])
        assert cleared >= 9 * (1 if n == 1 else 3)

    @given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(-1e-2, 1e3), exponent=st.floats(-200.0, 200.0))
    @settings(max_examples=150, deadline=None)
    def test_never_clears_what_eigvalsh_rejects_at_any_scale(self, n, seed, delta, exponent):
        h = planted_hermitian(n, delta, seed, 10.0 ** exponent)[None]
        scale = sectoria.linalg.frobenius_stack(h)
        if sectoria.linalg._cholesky_clears(h.copy(), PD_RTOL * scale, scale):
            assert eigvalsh_clears(h, scale)[0]

    def test_a_non_finite_pivot_clears_nothing(self):
        # numpy's LAPACK may pass a NaN pivot without raising; the certificate
        # rejects it, and an infinite floor or norm, all the same.
        h = np.eye(3, dtype=complex)[None]
        for floor, norm in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
            assert not sectoria.linalg._cholesky_clears(h.copy(), floor, norm)
        assert sectoria.linalg._cholesky_clears(h.copy(), 0.5, math.sqrt(3))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_shifts_what_it_is_handed_and_copies_only_a_strided_stack(self, n):
        # I clears a floor of 0.5 and fails one of 1: only the shift tells
        # them apart, so a certificate that dropped the shift would clear
        # both.  A C-contiguous stack is shifted in place; any other is
        # shifted in a contiguous copy and left as it was.
        norm = math.sqrt(n)
        stack = np.stack([np.eye(n, dtype=complex)] * 6)
        assert sectoria.linalg._cholesky_clears(stack.copy(), 0.5, norm)
        buffer = stack.copy()
        assert not sectoria.linalg._cholesky_clears(buffer, 1.0, norm)
        assert (np.diagonal(buffer, axis1=1, axis2=2).real < 0).all()
        views = [stack[::2], stack.swapaxes(1, 2), np.stack([stack, stack], axis=1)[:, 0]]
        for view in views:
            assert not view.flags.c_contiguous
            before = view.tobytes()
            assert not sectoria.linalg._cholesky_clears(view, 1.0, norm)
            assert view.tobytes() == before
            assert sectoria.linalg._cholesky_clears(view.copy(), 0.5, norm)


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


def numpy_solve(a, b):
    """numpy's gesv on one matrix, column-major: the reference bits of ``solve``."""
    return np.asfortranarray(np.linalg.solve(a + 0j, b + 0j))


def per_matrix(a, b):
    return np.stack([numpy_solve(a[t], b[t]) for t in range(len(a))])


@pytest.fixture
def route(monkeypatch):
    """Solve a stack through ``solve_stack``, counting its ``solve`` calls."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return solve(a, b)

    monkeypatch.setattr(sectoria.linalg, "solve", counted)

    def run(a, b):
        calls.clear()
        return sectoria.linalg.solve_stack(a, b), len(calls)

    return run


class TestSolveStack:
    """``solve_stack`` gives each matrix of a stack the bits of one
    ``np.linalg.solve`` of that matrix alone, column-major, as ``solve``
    does; a stack of one is one ``solve`` call, a longer one none."""

    @pytest.mark.parametrize("t", [1, 2, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 15, 16, 20])
    @pytest.mark.parametrize("k", [1, 2, 5, "eye"])
    def test_equals_per_matrix_solve(self, route, t, n, k):
        a = gaussian_stack(t, n, n, 100 * n + t)
        b = (np.broadcast_to(np.eye(n), a.shape) if k == "eye"
             else gaussian_stack(t, n, k, 100 * n + t + 1))
        out, calls = route(a, b)
        assert calls == (t == 1)
        assert out.dtype == np.complex128 and all(m.flags.f_contiguous for m in out)
        assert out.tobytes() == per_matrix(a, b).tobytes()

    @pytest.mark.parametrize("accretive", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 15, 16, 20])
    @pytest.mark.parametrize("k", [1, 2, 5, "eye"])
    def test_solve_is_numpy_gesv_column_major(self, accretive, n, k):
        # An accretive matrix is cleared by the Cholesky certificate, a
        # Gaussian one by the SVD; the solve is the same either way.
        a = gaussian_stack(1, n, n, 300 + n)[0]
        if accretive:
            a += 2 * np.linalg.norm(a, 2) * np.eye(n)
        b = np.eye(n) if k == "eye" else gaussian_stack(1, n, k, 301 + n)[0]
        out = solve(a, b)
        assert out.dtype == np.complex128 and out.flags.f_contiguous
        assert out.tobytes() == np.linalg.solve(a, b).tobytes()

    def test_one_dimensional_right_hand_side(self):
        a = gaussian_stack(1, 4, 4, 5)[0]
        b = gaussian_stack(1, 4, 1, 6)[0, :, 0]
        out = solve(a, b)
        assert out.shape == (4,) and out.tobytes() == np.linalg.solve(a, b).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_real_stack_is_solved_in_complex_arithmetic(self, route, n):
        a = gaussian_stack(64, n, n, n).real
        b = gaussian_stack(64, n, 3, n + 1).real
        out, calls = route(a, b)
        assert not calls and out.dtype == np.complex128
        assert out.tobytes() == per_matrix(a, b).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 63])
    def test_singular_matrix_raises_what_solve_raises(self, route, k):
        a = gaussian_stack(64, 3, 3, 7)
        a[k, :, 0] = 2.0 * a[k, :, 1]
        with pytest.raises(SingularMatrixError) as expected:
            solve(a[k], a[k])
        with pytest.raises(SingularMatrixError) as raised:
            route(a, gaussian_stack(64, 3, 2, 8))
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == ("least singular value below 1e-13 * ||A||_F; "
                                     "matrix is numerically singular")

    def test_non_finite_stack_raises_the_first_failure(self, route):
        a = gaussian_stack(64, 3, 3, 9)
        b = gaussian_stack(64, 3, 2, 10)
        a[5, 1, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            route(a, b)
        a[7] = 0.0  # a singular matrix after the non-finite one leaves it first
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            route(a, b)
        a[2] = 0.0  # a singular matrix before the non-finite one raises first
        with pytest.raises(SingularMatrixError):
            route(a, b)
        a[2, 0, 0] = np.inf  # and a non-finite one before it, first again
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            route(a, b)


def planted_singular_values(n, e, seed, kind):
    """An n-by-n matrix with singular values 2 .. 0.5 and a least one of
    10^-e.  An accretive one is normal, U diag(d) U* with |d_j| those values
    and |arg d_j| <= 1.2, so its Hermitian part is positive definite; an
    indefinite one is Q1 diag(sigma) Q2* and its diagonal entries' real
    parts have both signs."""
    sigma = np.linspace(2.0, 0.5, n)
    sigma[-1] = 10.0 ** -e
    q1, q2 = (np.linalg.qr(m)[0] for m in gaussian_stack(2, n, n, seed))
    if kind == "accretive":
        phases = np.exp(1j * np.random.default_rng(seed).uniform(-1.2, 1.2, n))
        return (q1 * (sigma * phases)) @ q1.conj().T
    a = (q1 * sigma) @ q2.conj().T
    a[0] *= -np.copysign(1.0, a[0, 0].real)
    a[1] *= np.copysign(1.0, a[1, 1].real)
    return a


class TestSingularValueRule:
    """A matrix is numerically singular, and ``solve`` and ``solve_stack``
    raise, exactly when ``np.linalg.svd`` puts sigma_min(A) below
    ``PIVOT_RTOL * ||A||_F``.  The Cholesky certificate of the Hermitian
    part settles accretive matrices well inside that range without the SVD."""

    @pytest.mark.parametrize("largest", [None, 2e-162])
    @pytest.mark.parametrize("kind", ["accretive", "indefinite"])
    @pytest.mark.parametrize("n", [2, 3, 6, 15])
    def test_raises_exactly_below_the_threshold(self, monkeypatch, route, n, kind, largest):
        # sigma_min = 10^-e sigma_max takes the matrices across the
        # threshold.  Each goes through solve alone and through solve_stack
        # beside the identity.  Scaled so that its largest entry is 2e-162,
        # a matrix keeps that entry's square, a subnormal, and loses most
        # other squares to 0; its norm is then summed again.
        svd = np.linalg.svd
        svds = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: svds.append(1) or svd(*args, **kw))
        verdicts, certified = [], 0
        for i, e in enumerate(np.arange(0.0, 18.0, 0.25)):
            a = planted_singular_values(n, e, 1000 * n + i, kind)
            if largest is not None:
                a *= largest / np.abs(a).max()
            stack = np.stack([np.eye(n) * np.abs(a).max(), a])
            b = gaussian_stack(2, n, 2, i)
            singular = svd(a, compute_uv=False)[-1] < PIVOT_RTOL * frobenius(a)
            svds.clear()
            if singular:
                with pytest.raises(SingularMatrixError):
                    solve(a, b[1])
                with pytest.raises(SingularMatrixError):
                    route(stack, b)
            else:
                assert solve(a, b[1]).tobytes() == numpy_solve(a, b[1]).tobytes()
                assert route(stack, b)[0].tobytes() == per_matrix(stack, b).tobytes()
            assert len(svds) in (0, 2)
            certified += not svds
            verdicts.append(singular)
        # both verdicts occur, in one run from nonsingular to singular
        assert verdicts == sorted(verdicts) and 0 < sum(verdicts) < len(verdicts)
        if kind == "indefinite":
            assert certified == 0
        else:
            assert certified >= len(verdicts) - sum(verdicts) - 3


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
    @pytest.mark.parametrize("n", [2, 6, 32, 40])
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

    def test_split_solves_skip_the_singular_value_test(self, monkeypatch):
        # A11 has passed the pivot test before A/A11 is formed.
        a = s.gen_sectorial(80, 0.9, 34)
        expected = log_abs_leading_minors(a)
        monkeypatch.setattr(sectoria.linalg, "_require_invertible", None)
        assert log_abs_leading_minors(a).tobytes() == expected.tobytes()

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
