import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    TrialConfig,
    child_seed,
    random_sequence_pair,
    rng_stream,
    frobenius,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    gen_sectorial_planted,
    in_sector,
    sector_angle,
)
from sectoria import generators
from sectoria.linalg import as_hermitian


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
            assert np.linalg.eigvalsh(as_hermitian(h))[0] >= 0.09

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
        assert np.linalg.eigvalsh(as_hermitian((a + a.conj().T) / 2))[0] > 0

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
        assert np.linalg.eigvalsh(as_hermitian(re))[0] > 0
        assert np.linalg.eigvalsh(as_hermitian(im))[0] > 0

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
            dict(seed=-1, n=2),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs)


def reference_key(seed: int, *path: int) -> list[int]:
    """The Philox key of numpy's own generator for substream ``path`` of ``seed``."""
    return rng_stream(seed, *path).bit_generator.state["state"]["key"].tolist()


SUITE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130 + 9]


class TestBulkSubstreams:
    """``trial_keys`` against numpy's ``SeedSequence``, trial by trial."""

    @pytest.mark.parametrize("seed", SUITE_SEEDS)
    @pytest.mark.parametrize("paths", [((),), ((0,), (1,))])
    def test_trial_keys_match_seed_sequence(self, seed, paths):
        # 25 trials: three chunks of a suite at n = 40.
        keys = generators.trial_keys(seed, 0, 25, paths)
        assert keys.shape == (25, len(paths), 2) and keys.dtype == np.uint64
        for i in range(25):
            for p, path in enumerate(paths):
                assert keys[i, p].tolist() == reference_key(child_seed(seed, i, *path))

    @pytest.mark.parametrize("seed", SUITE_SEEDS)
    def test_nested_keys_match_seed_sequence(self, seed):
        keys = generators.trial_keys(seed, 3, 9, ((0,), (1,)), nested=2)
        assert keys.shape == (6, 2, 2, 2)
        for i in range(3, 9):
            for k in (0, 1):
                for j in (0, 1):
                    expected = reference_key(child_seed(child_seed(seed, i, k), j))
                    assert keys[i - 3, k, j].tolist() == expected

    def test_trial_index_past_32_bits(self):
        # From 2**32 on a trial index is two entropy words, not one.
        lo = 2**32 - 2
        keys = generators.trial_keys(7, lo, lo + 4, ((1,),))
        for t in range(4):
            assert keys[t, 0].tolist() == reference_key(child_seed(7, lo + t, 1))

    def test_seeds_below_32_bits_hash_as_one_word(self):
        # numpy hashes a seed below 2**32 as one entropy word, the helper as
        # two with a zero high word; both leave the same pool.
        seeds = np.array([0, 1, 622_951, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        keys = generators._generate(generators._pool(generators._seed_words(seeds)), 2)
        assert keys.tolist() == [reference_key(int(x)) for x in seeds]

    def test_reset_state_is_a_fresh_philox(self):
        key = generators.trial_keys(5, 0, 1)[0, 0].tolist()
        fresh = rng_stream(child_seed(5, 0)).bit_generator.state
        state = generators._stream(key).bit_generator.state
        assert state.keys() == fresh.keys()
        for field in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert state[field] == fresh[field]
        for field in ("counter", "key"):
            np.testing.assert_array_equal(state["state"][field], fresh["state"][field])
        np.testing.assert_array_equal(state["buffer"], fresh["buffer"])

    @pytest.mark.parametrize("n", [3, 6])
    def test_reset_stream_draws_numpys_bits(self, n):
        # At n = 3 the 18 Gaussian uniforms leave two of the four words of a
        # Philox block unused, and the angle draw starts with them.
        rng = rng_stream(child_seed(9, 4, 1))
        expected = (rng.random((2, n, n)), rng.uniform(-0.785, 0.785, size=n))
        # A stream used before must not leak into the reset one.
        generators._stream([1, 2]).random(5)
        reset = generators._stream(generators.trial_keys(9, 4, 5, ((1,),))[0, 0].tolist())
        np.testing.assert_array_equal(reset.random((2, n, n)), expected[0])
        np.testing.assert_array_equal(reset.uniform(-0.785, 0.785, size=n), expected[1])

    def test_negative_seeds_raise_value_error(self):
        for make in (
            lambda: child_seed(-1, 0),
            lambda: gen_positive_definite(3, -1),
            lambda: gen_sectorial(3, 0.5, -1),
            lambda: gen_accretive_dissipative(3, -1),
            lambda: random_sequence_pair(3, -1),
            lambda: generators.trial_keys(-1, 0, 2),
        ):
            with pytest.raises(ValueError):
                make()
