import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    NotAccretiveError,
    SingularBlockError,
    SingularLeadingBlockError,
    cartesian_schur_identity,
    cartesian_split,
    frobenius,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    inverse,
    inverse_block_identity,
    real_inverse_identity,
    schur_complement,
    solve,
)
from sectoria import linalg
from sectoria.linalg import as_hermitian
from oracles import determinant


class TestSchurComplement:
    def test_identity(self):
        np.testing.assert_array_equal(schur_complement(np.eye(4), 2), np.eye(2))

    def test_frozen_2x2(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(schur_complement(a, 1), [[2.0]], atol=1e-15)

    def test_block_diagonal_returns_trailing_block(self):
        b = gen_positive_definite(2, 1)
        c = gen_positive_definite(3, 2)
        a = np.block([[b, np.zeros((2, 3))], [np.zeros((3, 2)), c]])
        np.testing.assert_allclose(schur_complement(a, 2), c, atol=1e-14)

    def test_singular_leading_block(self):
        with pytest.raises(SingularLeadingBlockError):
            schur_complement(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)

    @pytest.mark.parametrize("t", [2, 64])
    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 6, 16, 24)
                                      for p in sorted({1, n // 2, n - 1})])
    def test_stack_equals_each_matrix(self, n, p, t):
        # A stack's leading blocks are solved as one batch, and each
        # complement keeps the bits it has alone.
        a = np.stack([gen_sectorial(n, 0.9, 1000 * n + i) for i in range(t)])
        stacked = schur_complement(a, p)
        assert stacked.tobytes() == np.stack([schur_complement(m, p) for m in a]).tobytes()

    def test_singular_leading_block_in_a_stack(self):
        a = np.stack([gen_sectorial(6, 0.9, i) for i in range(64)])
        a[40, :3, :3] = 0.0
        with pytest.raises(SingularLeadingBlockError,
                           match=r"^leading 3-by-3 block is numerically singular$"):
            schur_complement(a, 3)

    @pytest.mark.parametrize("p", [0, 4, -1])
    def test_partition_out_of_range(self, p):
        with pytest.raises(ValueError):
            schur_complement(np.eye(4), p)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_determinant_quotient(self, seed, n):
        a = gen_sectorial(n, 0.9, seed)
        p = max(n // 2, 1)
        lhs = determinant(a)
        rhs = determinant(a[:p, :p]) * determinant(schur_complement(a, p))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


class TestInverseBlockIdentity:
    def test_diagonal(self):
        assert inverse_block_identity(np.diag([2.0, 3.0]), 1) <= 1e-15

    def test_identity_any_partition(self):
        for p in (1, 2, 3):
            assert inverse_block_identity(np.eye(4), p) <= 1e-15

    def test_sectorial_sample(self):
        a = gen_sectorial(4, math.pi / 4, 5)
        assert inverse_block_identity(a, 2) <= 1e-9


class TestCartesianSchurIdentity:
    def test_accretive_dissipative_sample(self):
        a = gen_accretive_dissipative(4, 9)
        parts = cartesian_schur_identity(a, 2)
        assert parts.residual <= 1e-9 * frobenius(a)

    def test_unit_imaginary_part(self):
        h = gen_positive_definite(4, 4)
        a = h + 1j * np.eye(4)
        parts = cartesian_schur_identity(a, 2)
        assert parts.residual <= 1e-9 * frobenius(a)
        # N21 = 0, so the cross factor collapses to M21 M11^{-1}
        expected_y = h[2:, :2] @ inverse(h[:2, :2])
        np.testing.assert_allclose(parts.y_factor, expected_y, atol=1e-12)

    def test_correction_real_part_psd(self):
        for seed in range(5):
            a = gen_accretive_dissipative(5, 40 + seed)
            parts = cartesian_schur_identity(a, 2)
            re_corr = cartesian_split(parts.correction).re
            assert np.linalg.eigvalsh(as_hermitian(re_corr))[0] >= -1e-10 * max(
                frobenius(parts.correction), 1.0
            )

    def test_singular_imaginary_block(self):
        # Im A has a zero leading block
        a = np.array([[1.0, 1j], [1j, 1.0 + 1j]])
        with pytest.raises(SingularBlockError, match="leading block of the imaginary part is singular"):
            cartesian_schur_identity(a, 1)

    def test_rejects_non_accretive(self):
        with pytest.raises(NotAccretiveError):
            cartesian_schur_identity(np.diag([-1.0 + 1j, 1.0 + 1j]), 1)


class TestRealInverseIdentity:
    def test_sectorial_samples(self):
        for seed in range(5):
            a = gen_sectorial(4, math.pi / 3, 60 + seed)
            assert real_inverse_identity(a) <= 1e-9

    def test_hermitian_input_exact(self):
        assert real_inverse_identity(gen_positive_definite(3, 6)) <= 1e-12

    def test_rejects_non_accretive(self):
        with pytest.raises(NotAccretiveError):
            real_inverse_identity(np.array([[-2.0]]))


class TestIdentitiesTestEachBlockOnce:
    """Re A positive definite makes A, Re A, A11 and (Re A)11 invertible, so
    the identities solve them untested, with the bits of the tested public
    route; they test (Im A)11, M11^{-1} - i N11^{-1} and Re A + Im A (Re
    A)^{-1} Im A, whose norm ||A||_F does not bound."""

    @pytest.fixture
    def tested(self, monkeypatch):
        blocks = []
        require_invertible = linalg._require_invertible

        def counted(m):
            blocks.append(m.copy())
            return require_invertible(m)

        monkeypatch.setattr(linalg, "_require_invertible", counted)
        return blocks

    @staticmethod
    def samples(n):
        return [gen_accretive_dissipative(n, 70 + n), gen_sectorial(n, math.pi / 3, 80 + n)]

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_cartesian_schur_identity(self, n, tested):
        p = n // 2
        for a in self.samples(n):
            re, im = cartesian_split(a)
            m11_inv, n11_inv = inverse(re[:p, :p]), inverse(im[:p, :p])
            expected = [schur_complement(re, p), schur_complement(im, p),
                        re[p:, :p] @ m11_inv - im[p:, :p] @ n11_inv]
            direct = schur_complement(a, p)
            tested.clear()
            parts = cartesian_schur_identity(a, p)
            assert len(tested) == 2
            np.testing.assert_array_equal(tested[0][0], im[:p, :p])
            np.testing.assert_array_equal(tested[1][0], m11_inv - 1j * n11_inv)
            for got, want in zip((parts.m_part, parts.n_part, parts.y_factor), expected):
                assert got.tobytes() == want.tobytes()
            assert parts.residual == frobenius(parts.m_part + 1j * parts.n_part + parts.correction - direct)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_real_inverse_identity(self, n, tested):
        for a in self.samples(n):
            re, im = cartesian_split(a)
            inv_a = inverse(a)
            middle = re + im @ solve(re, im)
            expected = frobenius(cartesian_split(inv_a).re - inverse(middle)) / frobenius(inv_a)
            tested.clear()
            assert real_inverse_identity(a) == expected
            assert len(tested) == 1
            np.testing.assert_array_equal(tested[0][0], middle)
