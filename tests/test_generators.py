import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    PositiveSequencePair,
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
from sectoria.generators import stream_key, trial_addresses
from sectoria.linalg import adjoint, as_hermitian
from oracles import philox


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


def planted_factor(n: int, sigma_min: float, seed: int) -> np.ndarray:
    """A complex Gaussian factor with its smallest singular value set to sigma_min."""
    u, sigma, vh = np.linalg.svd(generators.complex_gaussian(n, rng_stream(seed)))
    sigma[-1] = sigma_min
    return (u * sigma) @ vh


class TestFactorScreen:
    """The certificate in ``_near_singular`` keeps the SVD's redraw decision."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 64, 128])
    def test_planted_factors_get_the_svd_decision(self, n):
        floor = generators.MIN_FACTOR_SIGMA
        levels = [f * (1 + d) for f in (floor, 2 * floor) for d in (-1e-2, -1e-6, 0.0, 1e-6, 1e-2)]
        x = np.stack([planted_factor(n, level, seed) for level in levels for seed in range(2)])
        near = np.linalg.svd(x, compute_uv=False)[:, -1] < floor
        assert 0 < near.sum() < len(x)
        np.testing.assert_array_equal(generators._near_singular(x), near)
        for factor, expected in zip(x, near):
            assert generators._near_singular(factor[None])[0] == expected
        # Factors far enough from singular are cleared with no SVD.
        clear = np.stack([planted_factor(n, 4 * floor, seed) for seed in range(2)])
        assert generators._cholesky_clears(adjoint(clear) @ clear, (2 * floor) ** 2,
                                           generators.frobenius_stack(clear) ** 2)
        assert not generators._near_singular(clear).any()


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


# Each seeded draw at n = 3.  Every one takes one address (key0, key1, i).
SEEDED = {
    "gen_positive_definite": lambda seed: gen_positive_definite(3, seed),
    "gen_sectorial_planted": lambda seed: gen_sectorial_planted(3, 0.785, seed),
    "gen_sectorial": lambda seed: gen_sectorial(3, 0.785, seed),
    "gen_accretive_dissipative": lambda seed: gen_accretive_dissipative(3, seed),
    "random_sequence_pair": lambda seed: random_sequence_pair(3, seed),
}


def arrays(draw):
    """The arrays of a draw: a matrix, a matrix and its angles, or a pair's a and b."""
    if isinstance(draw, PositiveSequencePair):
        return draw.a, draw.b
    return draw if isinstance(draw, tuple) else (draw,)


class TestAddresses:
    """Trial i of a key draws at a fixed counter offset of the key's stream."""

    @pytest.mark.parametrize("name", list(SEEDED))
    def test_trial_alone_equals_its_row_of_a_chunk(self, name):
        # Trials 4 and 5 lie on both sides of a chunk boundary, and so do
        # 2**40 - 1 and 2**40, whose counter offsets pass 2**32.
        draw = SEEDED[name]
        key = stream_key(2**64 + 5, 1)
        for lo, hi in ((0, 5), (5, 9), (2**40 - 2, 2**40), (2**40, 2**40 + 2)):
            chunk = arrays(draw(trial_addresses(key, lo, hi)))
            for i in range(lo, hi):
                alone = arrays(draw(trial_addresses(key, i, i + 1)))
                assert len(chunk) == len(alone)
                for rows, expected in zip(chunk, alone):
                    assert rows[i - lo].tobytes() == expected[0].tobytes()

    def test_set_state_is_a_fresh_philox(self):
        key = stream_key(5, 0)
        fresh = np.random.Philox(key=key, counter=7 + (3 << 64)).state
        state = generators._stream(key.tolist(), (7, 3, 0, 0)).bit_generator.state
        assert state.keys() == fresh.keys()
        for field in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert state[field] == fresh[field]
        for field in ("counter", "key"):
            np.testing.assert_array_equal(state["state"][field], fresh["state"][field])
        np.testing.assert_array_equal(state["buffer"], fresh["buffer"])

    @pytest.mark.parametrize("n", [3, 6])
    def test_set_stream_draws_numpys_bits(self, n):
        # At n = 3 the 18 Gaussian uniforms leave two of the four words of a
        # Philox block unused, and the angle draw starts with them.
        key = stream_key(9, 1)
        rng = philox(key, 4 * 17)
        expected = (rng.random((2, n, n)), rng.uniform(-0.785, 0.785, size=n))
        # A stream used before must not leak into the one set after it.
        generators._stream((1, 2), (3, 0, 0, 0)).random(5)
        reset = generators._stream(key.tolist(), (4 * 17, 0, 0, 0))
        np.testing.assert_array_equal(reset.random((2, n, n)), expected[0])
        np.testing.assert_array_equal(reset.uniform(-0.785, 0.785, size=n), expected[1])

    def test_negative_seeds_raise_value_error(self):
        for make in (
            lambda: child_seed(-1, 0),
            lambda: stream_key(-1),
            lambda: stream_key(0, -1),
            lambda: gen_positive_definite(3, -1),
            lambda: gen_sectorial(3, 0.5, -1),
            lambda: gen_accretive_dissipative(3, -1),
            lambda: random_sequence_pair(3, -1),
        ):
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("seed", [3.7, 2.0, True, np.float64(1.0), np.bool_(False)])
    def test_float_and_bool_seeds_raise_type_error(self, seed):
        # Truncating would silently draw the stream of another seed.
        for make in (
            lambda: child_seed(seed, 0),
            lambda: child_seed(2, seed),
            lambda: rng_stream(seed),
            lambda: stream_key(seed),
            lambda: stream_key(2, seed),
            lambda: gen_positive_definite(3, seed),
            lambda: gen_sectorial(3, 0.5, seed),
            lambda: gen_accretive_dissipative(3, seed),
            lambda: random_sequence_pair(3, seed),
            lambda: TrialConfig(seed=seed, n=3),
        ):
            with pytest.raises(TypeError):
                make()
        # numpy integers are ints, and draw the same streams
        np.testing.assert_array_equal(gen_sectorial(3, 0.5, np.uint64(3)), gen_sectorial(3, 0.5, 3))
        assert child_seed(np.int64(3), np.uint8(1)) == child_seed(3, 1)


class TestAddressStacks:
    """Each seeded draw takes an int seed or a (T, 3) uint64 stack of addresses."""

    @pytest.mark.parametrize("name", list(SEEDED))
    def test_int_seed_is_its_address(self, name):
        draw = SEEDED[name]
        seeds = [3, 4, 2**64 + 5]
        addresses = np.array([[*stream_key(seed), 0] for seed in seeds], dtype=np.uint64)
        assert addresses.shape == (3, 3)
        stacked = arrays(draw(addresses))
        for t, seed in enumerate(seeds):
            one = arrays(draw(seed))
            assert len(stacked) == len(one)
            for rows, expected in zip(stacked, one):
                assert rows.shape[1:] == expected.shape
                assert rows[t].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", list(SEEDED))
    @pytest.mark.parametrize("bad", [
        np.ones((4, 3), dtype=np.int64),
        np.ones((4, 3), dtype=float),
        np.ones((4, 2), dtype=np.uint64),  # keys with no trial index
        np.ones(3, dtype=np.uint64),  # one draw's address, no stack axis
        np.ones((4, 3, 1), dtype=np.uint64),
        np.ones((4, 2, 3), dtype=np.uint64),  # two addresses per draw
    ], ids=["int64", "float", "keys-only", "unstacked", "extra-axis", "two-per-draw"])
    def test_bad_address_stack_raises_value_error(self, name, bad):
        with pytest.raises(ValueError, match=r"stack of addresses .* of shape \(T, 3\)"):
            SEEDED[name](bad)
