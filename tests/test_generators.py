import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    TrialConfig,
    child_seed,
    frobenius,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    gen_sectorial_planted,
    hermitian_eigenvalues,
    in_sector,
    sector_angle,
)


class TestDeterminism:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: gen_positive_definite(5, s),
            lambda s: gen_sectorial(5, 0.9, s),
            lambda s: gen_accretive_dissipative(5, s),
        ],
    )
    def test_bit_identical_across_calls(self, make):
        np.testing.assert_array_equal(make(12345), make(12345))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_positive_definite(4, 1), gen_positive_definite(4, 2))

    def test_child_seed_deterministic_and_distinct(self):
        assert child_seed(7, 3) == child_seed(7, 3)
        assert child_seed(7, 3) != child_seed(7, 4)
        assert child_seed(7, 3, 0) != child_seed(7, 3, 1)


class TestPositiveDefinite:
    def test_min_eigenvalue_floor(self):
        for seed in range(20):
            h = gen_positive_definite(4, seed)
            assert hermitian_eigenvalues(h)[0] >= 0.09

    def test_determinant_real_positive(self):
        from oracles import determinant

        d = determinant(gen_positive_definite(5, 3))
        assert abs(d.imag) <= 1e-10 * abs(d)
        assert d.real > 0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_inside_zero_sector(self, seed, n):
        assert in_sector(gen_positive_definite(n, seed), 0.0, 1e-9)


class TestSectorial:
    def test_alpha_zero_gives_hermitian_pd(self):
        a = gen_sectorial(4, 0.0, 5)
        assert frobenius(a - a.conj().T) <= 1e-14 * frobenius(a)
        assert hermitian_eigenvalues((a + a.conj().T) / 2)[0] > 0

    def test_angle_attained(self):
        for seed in range(10):
            a = gen_sectorial(4, math.pi / 4, seed)
            assert sector_angle(a) == pytest.approx(math.pi / 4, abs=1e-8)

    def test_planted_angles_sorted_with_max_alpha(self):
        a, thetas = gen_sectorial_planted(6, 0.8, 9)
        assert np.all(np.diff(thetas) <= 0)
        assert thetas[0] == pytest.approx(0.8, abs=0)
        assert np.all(np.abs(thetas) <= 0.8)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        alpha=st.floats(0.0, math.pi / 2 - 0.011),
    )
    @settings(max_examples=40, deadline=None)
    def test_membership_at_target_angle(self, seed, n, alpha):
        assert in_sector(gen_sectorial(n, alpha, seed), alpha, 1e-9)

    def test_rejects_angle_near_half_pi(self):
        with pytest.raises(ValueError):
            gen_sectorial(3, math.pi / 2 - 0.001, 0)


class TestAccretiveDissipative:
    def test_both_parts_positive_definite(self):
        a = gen_accretive_dissipative(4, 13)
        re = (a + a.conj().T) / 2
        im = (a - a.conj().T) / 2j
        assert hermitian_eigenvalues(re)[0] > 0
        assert hermitian_eigenvalues(im)[0] > 0

    def test_rotation_lands_in_quarter_sector(self):
        for seed in range(10):
            a = gen_accretive_dissipative(3, seed)
            rotated = np.exp(-1j * math.pi / 4) * a
            assert in_sector(rotated, math.pi / 4, 1e-9)

    def test_sector_angle_defined(self):
        angle = sector_angle(gen_accretive_dissipative(4, 2))
        assert 0.0 <= angle < math.pi / 2


class TestTrialConfig:
    def test_valid(self):
        cfg = TrialConfig(seed=0, n=4, alpha=0.5, trials=10, partition=2)
        assert cfg.partition == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=0, n=0),
            dict(seed=0, n=2, trials=0),
            dict(seed=0, n=2, alpha=math.pi / 2),
            dict(seed=0, n=2, alpha=-0.1),
            dict(seed=0, n=2, partition=2),
            dict(seed=0, n=2, partition=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs)
