import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    NotSectorialError,
    complex_gaussian,
    frobenius,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    gen_sectorial_planted,
    in_sector,
    inverse,
    numerical_range_boundary,
    rng_stream,
    schur_complement,
    sector_angle,
    sector_angle_bisect,
    sectorial_decompose,
)
from sectoria.cli import FAMILIES
from sectoria.generators import TrialConfig
from oracles import numerical_range_samples


class TestInSector:
    def test_positive_definite_in_any_sector(self):
        a = gen_positive_definite(3, 0)
        for alpha in (0.0, math.pi / 6, math.pi / 3):
            assert in_sector(a, alpha, 1e-9)

    def test_scalar_outside_narrower_sector(self):
        a = np.array([[np.exp(1j * math.pi / 3)]])
        res = in_sector(a, math.pi / 4, 1e-9)
        assert not res
        assert res.witness is not None
        assert res.witness.eigenvalue < 0
        # the witness point is the numerical-range point that leaves the sector
        assert abs(np.angle(res.witness.point)) > math.pi / 4

    def test_stack_gives_each_matrix_its_own_membership(self):
        # Inside; outside at each of the two rotated half-planes; and inside
        # both of them but with a singular real part.
        wide = gen_sectorial(4, 1.2, 2)
        stack = np.stack([gen_sectorial(4, 0.5, 1), wide, wide.conj(), np.diag([1.0, 0.0, 0.0, 0.0])])
        stacked = in_sector(stack, 0.6, 1e-9)
        singles = [in_sector(m, 0.6, 1e-9) for m in stack]
        assert [bool(r) for r in stacked] == [True, False, False, False]
        assert len({r.witness.rotation for r in singles[1:]}) == 3
        for res, one in zip(stacked, singles):
            assert bool(res) == bool(one)
            if one.witness is None:
                assert res.witness is None
                continue
            w, v = res.witness, one.witness
            assert (w.rotation, w.eigenvalue.hex(), w.point) == (v.rotation, v.eigenvalue.hex(), v.point)
            np.testing.assert_array_equal(w.vector, v.vector)

    def test_disk_touching_imaginary_axis(self):
        # W(A) is the unit disk centered at 1, tangent to Re z = 0
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert not in_sector(a, math.pi / 3, 1e-9)
        # sampling oracle: some unit vector already exceeds the 60 degree opening
        args = np.abs(np.angle(numerical_range_samples(a, 20000, seed=5)))
        assert args.max() > math.pi / 3

    def test_zero_matrix_excluded(self):
        assert not in_sector(np.zeros((2, 2)), 0.3, 1e-9)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            in_sector(np.eye(2), math.pi / 2)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        alpha=st.floats(0.0, 1.4),
    )
    @settings(max_examples=40, deadline=None)
    def test_congruence_preserves_cone(self, seed, n, alpha):
        # x* X Z X* x is a positive combination of the e^{i theta_j}
        rng = rng_stream(seed)
        x = complex_gaussian(n, rng)
        thetas = rng.uniform(-alpha, alpha, size=n)
        a = (x * np.exp(1j * thetas)) @ x.conj().T
        if np.linalg.svd(x, compute_uv=False)[-1] < 1e-6:
            return
        assert in_sector(a, min(alpha + 1e-9, math.pi / 2 - 1e-12), 1e-9)


class TestSectorialDecompose:
    def test_identity(self):
        dec = sectorial_decompose(np.eye(3))
        np.testing.assert_allclose(dec.thetas, np.zeros(3), atol=0)
        np.testing.assert_allclose(dec.x @ dec.x.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_phases_recovered(self):
        a = np.diag([np.exp(1j * math.pi / 6), np.exp(-1j * math.pi / 4)])
        dec = sectorial_decompose(a)
        np.testing.assert_allclose(dec.thetas, [math.pi / 6, -math.pi / 4], atol=1e-12)

    def test_planted_multiset_recovered(self):
        a, planted = gen_sectorial_planted(4, math.pi / 4, 3)
        dec = sectorial_decompose(a)
        np.testing.assert_allclose(dec.thetas, planted, atol=1e-8)

    def test_reconstruction_contract(self):
        for seed in range(10):
            a = gen_sectorial(5, 1.1, seed)
            dec = sectorial_decompose(a)
            assert frobenius(dec.reconstruct() - a) <= 1e-9 * frobenius(a)
            assert np.all(np.abs(dec.thetas) < math.pi / 2)
            assert dec.angle <= sector_angle(a) + 1e-9

    def test_decompose_twice_same_multiset(self):
        a = gen_sectorial(5, 0.9, 21)
        first = sectorial_decompose(a)
        second = sectorial_decompose(first.reconstruct())
        np.testing.assert_allclose(first.thetas, second.thetas, atol=1e-8)

    def test_ill_conditioned_real_part(self):
        # Trial 22 of this weak-log-major suite: cond(Re A) is about 1.3e7, and
        # the rounding of H^{-1/2} K H^{-1/2} broke the 1e-10 input guard.
        c = TrialConfig(seed=933685295028113377, n=6, alpha=0.785, trials=75)
        (a,), _ = FAMILIES["single"](c, 22, 23)
        assert np.linalg.cond(a + a.conj().T) > 1e7
        dec = sectorial_decompose(a)
        assert np.all(np.abs(dec.thetas) < math.pi / 2)
        assert frobenius(dec.reconstruct() - a) <= 1e-10 * frobenius(a)

    def test_rejects_non_accretive(self):
        with pytest.raises(NotSectorialError):
            sectorial_decompose(np.array([[-1.0]]))
        with pytest.raises(NotSectorialError):
            sectorial_decompose(np.array([[1j]]))

    def test_stack_names_its_first_failing_matrix(self):
        middle = np.diag([2.0, 1.0, -0.5])
        stack = np.stack([gen_sectorial(3, 0.5, 1), middle, np.diag([1.0, 1.0, -3.0])]).astype(complex)
        with pytest.raises(NotSectorialError) as alone:
            sectorial_decompose(middle)
        with pytest.raises(NotSectorialError) as stacked:
            sectorial_decompose(stack)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "real part is not positive definite (min eigenvalue -5.000e-01)"


class TestSectorAngle:
    def test_positive_definite_angle_zero(self):
        assert sector_angle(gen_positive_definite(4, 8)) <= 1e-12

    def test_rotated_accretive_dissipative(self):
        for seed in range(5):
            a = gen_accretive_dissipative(4, seed)
            rotated = np.exp(-1j * math.pi / 4) * a
            assert sector_angle(rotated) <= math.pi / 4 + 1e-9

    def test_agrees_with_bisection_oracle(self):
        for seed in (17, 18, 19):
            a = gen_sectorial(4, 0.6, seed)
            assert abs(sector_angle(a) - sector_angle_bisect(a)) <= 1e-8

    def test_bisection_on_positive_definite(self):
        assert sector_angle_bisect(gen_positive_definite(3, 2)) == 0.0

    def test_bisection_rejects_non_sectorial(self):
        with pytest.raises(NotSectorialError):
            sector_angle_bisect(np.array([[-1.0]]))


class TestSectorInheritance:
    def test_schur_complement_stays_in_sector(self):
        for seed in range(5):
            a = gen_sectorial(5, 0.8, 100 + seed)
            parent = sector_angle(a)
            for p in range(1, 5):
                assert sector_angle(schur_complement(a, p)) <= parent + 1e-8

    def test_inverse_stays_in_sector(self):
        for seed in range(5):
            a = gen_sectorial(4, 0.7, 200 + seed)
            assert sector_angle(inverse(a)) <= sector_angle(a) + 1e-8

    def test_principal_submatrices_stay_in_sector(self):
        for seed in range(5):
            a = gen_sectorial(5, 0.9, 300 + seed)
            parent = sector_angle(a)
            for k in range(1, 6):
                assert sector_angle(a[:k, :k]) <= parent + 1e-8


class TestNumericalRangeBoundary:
    def test_identity_collapses_to_one(self):
        pts = numerical_range_boundary(np.eye(3), 8)
        np.testing.assert_allclose(pts, np.ones(8), atol=1e-12)

    def test_normal_matrix_interval(self):
        pts = numerical_range_boundary(np.diag([1.0, 2.0]), 360)
        assert np.all(np.abs(pts.imag) <= 1e-12)
        assert np.all(pts.real >= 1.0 - 1e-12)
        assert np.all(pts.real <= 2.0 + 1e-12)

    def test_shift_matrix_unit_circle(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        pts = numerical_range_boundary(a, 360)
        np.testing.assert_allclose(np.abs(pts), np.ones(360), atol=1e-12)
        # sampling oracle: interior points stay inside, and nearly fill the disk
        samples = numerical_range_samples(a, 20000, seed=11)
        assert np.abs(samples).max() <= 1.0 + 1e-12
        assert np.abs(samples).max() > 0.95

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            numerical_range_boundary(np.eye(2), 2)
