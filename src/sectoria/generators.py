"""Seeded random matrix families on platform-stable streams.

All randomness flows through the Philox counter-based generator keyed by a
``SeedSequence`` spawn path, so any (seed, path) pair addresses an
independent stream and per-trial generation is order independent.
Gaussian entries are produced by an explicit Box-Muller transform of the
uniform stream, keeping the bit stream fully specified.

``rng_stream`` and ``child_seed`` are the reference: numpy's own
``SeedSequence`` and ``Philox``.  A Philox stream is named by its key, so
each ``gen_*`` takes an int seed or a uint64 stack of T keys, and an int
seed is the stack of the one key of ``rng_stream(seed)``.  A suite derives
the Philox key of every trial's stream at once with ``trial_keys``, numpy's
``SeedSequence`` hash run over all trials in a few array passes, and a
``gen_*`` draws every trial of a key stack through one reused generator,
reset to the trial's key: the state a fresh ``Philox`` with that key starts
in.  It then runs the arithmetic once over the (T, n, n) stack, and for an
int seed returns entry 0 of the stack of one.

A sectorial draw redraws a Gaussian factor X whose smallest singular value
is below ``MIN_FACTOR_SIGMA``, as the SVD decides, unless a Cholesky
certificate of the whole stack's Gram matrices clears it (``_near_singular``).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import _cholesky_clears, adjoint, frobenius_stack, multiply_unfused

# Generators refuse target angles this close to the half-plane boundary.
ALPHA_GUARD = math.pi / 2 - 0.01
# Complex Gaussian factors are resampled below this smallest singular value.
MIN_FACTOR_SIGMA = 1e-3

# numpy's SeedSequence (NEP 19) hash on uint32 words: the start and step of
# the multiplier that its hashmix and its generate_state each evolve, the
# multipliers of its mix, and its xorshift.  Its pool holds four words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.array([0xCA01F9DD], dtype=np.uint32)
_MIX_MULT_R = np.array([0x4973F715], dtype=np.uint32)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# The pool words each pool word is mixed into, in the order of numpy's loop.
_OTHER_WORDS = [np.array([d for d in range(4) if d != s]) for s in range(4)]

_THREAD = threading.local()


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of one reproducible randomized suite."""

    seed: int
    n: int
    alpha: float = 0.0
    trials: int = 1
    partition: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.alpha < ALPHA_GUARD:
            raise ValueError(f"alpha must lie in [0, {ALPHA_GUARD:.6f})")
        if self.partition is not None and not 1 <= self.partition <= self.n - 1:
            raise ValueError("partition must satisfy 1 <= p <= n - 1")
        if _integer(self.seed) < 0:
            raise ValueError("seed must be >= 0")


def _integer(value) -> int:
    """A seed or a substream path entry as an int; a float or a bool raises
    TypeError, as a float does in numpy's ``SeedSequence``, not truncated."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"seeds and substream paths must be integers, got {value!r}")
    return operator.index(value)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for substream ``path`` of ``seed``."""
    ss = np.random.SeedSequence(entropy=_integer(seed), spawn_key=tuple(_integer(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path: int) -> int:
    """Derive a fresh 64-bit seed addressing substream ``path`` of ``seed``."""
    ss = np.random.SeedSequence(entropy=_integer(seed), spawn_key=tuple(_integer(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def stream_key(seed: int) -> np.ndarray:
    """The Philox key of ``rng_stream(seed)``, shape (2,) uint64."""
    return np.random.SeedSequence(_integer(seed)).generate_state(2, np.uint64)


@functools.lru_cache(maxsize=16)
def _multipliers(init: int, mult: int, steps: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k = 0..steps: the multiplier before
    and after each of ``steps`` successive hash steps."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """numpy's hash step along the last axis: step k xors in ``mult[k]``,
    multiplies by ``mult[k + 1]`` and xorshifts."""
    value = value ^ mult[:-1]
    value *= mult[1:]
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of pool words ``x`` with hashed words ``y``."""
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def _absorb(pool: np.ndarray, words: np.ndarray, steps: int) -> np.ndarray:
    """Mix the entropy words (T, W) beyond the pool's first four into the
    pools (T, 4), after ``steps`` hash steps: each word is hashed into every
    pool word in turn."""
    mult = _multipliers(_INIT_A, _MULT_A, steps + 4 * words.shape[1])[steps:]
    for k in range(words.shape[1]):
        pool = _mix(pool, _hashmix(words[:, k, None], mult[4 * k:4 * k + 5]))
    return pool


def _pool(entropy: np.ndarray) -> np.ndarray:
    """The mixed pool of ``SeedSequence`` for each row of entropy words
    (T, W <= 4) uint32.  A row shorter than the pool runs the hash out on
    zeros, which is what zero-padding it to four words does."""
    head = np.zeros((len(entropy), 4), dtype=np.uint32)
    head[:, :entropy.shape[1]] = entropy
    mult = _multipliers(_INIT_A, _MULT_A, 16)
    pool = _hashmix(head, mult[:5])
    for src, dst in enumerate(_OTHER_WORDS):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], mult[4 + 3 * src:8 + 3 * src]))
    return pool


def _generate(pool: np.ndarray, count: int) -> np.ndarray:
    """``generate_state(count, uint64)`` of each pool (T, 4): shape (T, count)."""
    words = _hashmix(pool[:, np.arange(2 * count) % 4], _multipliers(_INIT_B, _MULT_B, 2 * count))
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """The little-endian 32-bit entropy words (T, 2) of 64-bit seeds."""
    return np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2)


def trial_keys(seed: int, lo: int, hi: int, paths=((),)) -> np.ndarray:
    """The Philox keys of the streams of trials lo..hi-1 of a suite seed.

    Entry ``[i - lo, p]`` is the key of ``rng_stream(child_seed(seed, i,
    *paths[p]))``, shape (hi - lo, len(paths), 2).  The paths must share one
    length.  The keys are bit for bit numpy's: the pool of the suite seed
    comes from its ``SeedSequence``, and the spawn keys, the child seeds and
    the keys are hashed for all trials at once.
    """
    for entry in (_integer(p) for path in paths for p in path):
        if not 0 <= entry <= _MASK32:  # the hash takes one 32-bit word per entry
            raise ValueError(f"substream path entries must lie in [0, 2**32), got {entry}")
    if lo < 2**32 < hi:
        return np.concatenate([trial_keys(seed, lo, 2**32, paths), trial_keys(seed, 2**32, hi, paths)])
    # The seed's words, zero-padded to the pool size, come first and leave
    # the pool of the seed's own SeedSequence, after four hash steps to fill
    # it, twelve to mix it and four per word past the fourth.
    seed = _integer(seed)
    root = np.random.SeedSequence(seed)
    steps = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - 4)
    index = np.arange(lo, hi, dtype=np.uint64)
    # A trial index is one entropy word below 2**32 and two from there on.
    index_words = [index & _MASK32, index >> 32][:1 if hi <= 2**32 else 2]
    spawn = np.empty((len(index), len(paths), len(index_words) + len(paths[0])), dtype=np.uint32)
    for k, word in enumerate(index_words):
        spawn[:, :, k] = word[:, None]
    spawn[:, :, len(index_words):] = paths
    rows = spawn.reshape(-1, spawn.shape[-1])
    seeds = _generate(_absorb(np.broadcast_to(root.pool, (len(rows), 4)), rows, steps), 1)[:, 0]
    return _generate(_pool(_seed_words(seeds)), 2).reshape(len(index), len(paths), 2)


def _stream(key) -> np.random.Generator:
    """This thread's generator, reset to the start of the Philox stream with
    ``key`` (two ints): the state a fresh ``Philox`` keyed so starts in.
    The reset sets every field of the state, so no draw sees another's."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Complex Gaussians from per-trial uniforms (T, 2, ...): radius from
    ``u[:, 0]``, phase from ``u[:, 1]``.  Each half goes in contiguous (a
    copy only when T > 1), since numpy may take another loop, and so round
    differently, on strided input."""
    u1, u2 = np.ascontiguousarray(u[:, 0]), np.ascontiguousarray(u[:, 1])
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    phase = 2.0 * np.pi * u2
    return radius * np.cos(phase) + 1j * (radius * np.sin(phase))


def complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """n-by-n matrix of independent entries with N(0,1) real and imaginary parts."""
    return _box_muller(rng.random((1, 2, n, n)))[0]


def _seed_keys(seed) -> tuple[np.ndarray, bool]:
    """The stack of Philox keys that ``seed`` names, and whether it is one int:
    an int seed is the stack (1, 2) of the key of ``rng_stream(seed)``, and
    anything else must be a uint64 stack of T keys, shape (T, 2)."""
    if np.ndim(seed) == 0:
        return stream_key(seed)[None], True
    keys = np.asarray(seed)
    if keys.dtype != np.uint64 or keys.shape[1:] != (2,):
        raise ValueError(f"expected an int seed or a uint64 stack of Philox keys of shape (T, 2), got {keys.dtype} {keys.shape}")
    return keys, False


def _uniforms(keys: np.ndarray, shape: tuple) -> np.ndarray:
    """The first uniforms of each key's stream, shape (T, *shape)."""
    u = np.empty((len(keys), *shape))
    for key, out in zip(keys.tolist(), u):
        _stream(key).random(out=out)
    return u


def _positive_definite(u: np.ndarray) -> np.ndarray:
    """G G* + 0.1 I, symmetrized, for the Gaussians G of uniforms (T, 2, n, n)."""
    g = _box_muller(u)
    h = g @ adjoint(g) + 0.1 * np.eye(u.shape[-1])
    return (h + adjoint(h)) / 2.0


def gen_positive_definite(n: int, seed) -> np.ndarray:
    """Random Hermitian positive definite matrix G G* + 0.1 I; for a (T, 2)
    uint64 stack of Philox keys as ``seed``, the (T, n, n) stack of its draws."""
    keys, one = _seed_keys(seed)
    h = _positive_definite(_uniforms(keys, (2, n, n)))
    return h[0] if one else h


def _near_singular(x: np.ndarray) -> np.ndarray:
    """For each factor of a (T, n, n) stack: is its smallest singular value
    below ``MIN_FACTOR_SIGMA``?  The SVD decides, unless the Cholesky
    certificate puts every sigma_min(X)^2 = lambda_min(X* X) above (2
    ``MIN_FACTOR_SIGMA``)^2.  Its norm ||X||_F^2 also bounds the Gram's
    rounding, gamma_n ||X||_F^2; the factor 2 covers the SVD's."""
    if _cholesky_clears(adjoint(x) @ x, (2 * MIN_FACTOR_SIGMA) ** 2, frobenius_stack(x) ** 2):
        return np.zeros(len(x), dtype=bool)
    return np.linalg.svd(x, compute_uv=False)[:, -1] < MIN_FACTOR_SIGMA


def gen_sectorial_planted(n: int, alpha: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random sectorial sample together with its planted angle vector.

    Builds X diag(exp(i theta_j)) X* from a complex Gaussian X (resampled
    while its smallest singular value is below ``MIN_FACTOR_SIGMA``) and
    angles drawn uniformly from [-alpha, alpha] with theta_1 pinned to
    alpha so the nominal angle is attained.  Returns the matrix and the
    planted angles sorted descending; for a (T, 2) uint64 stack of Philox
    keys as ``seed``, the (T, n, n) and (T, n) stacks of its draws.
    """
    if not 0.0 <= alpha < ALPHA_GUARD:
        raise ValueError(f"alpha must lie in [0, {ALPHA_GUARD:.6f})")
    keys, one = _seed_keys(seed)
    u = np.empty((len(keys), 2, n, n))
    thetas = np.empty((len(keys), n))
    for key, out, theta in zip(keys.tolist(), u, thetas):
        rng = _stream(key)
        rng.random(out=out)
        theta[:] = rng.uniform(-alpha, alpha, size=n)
    x = _box_muller(u)
    # A trial whose factor is too close to singular replays its stream from
    # the key and redraws; its angles follow the draw it keeps.
    flagged = _near_singular(x)
    for t in np.flatnonzero(flagged) if flagged.any() else ():
        rng = _stream(keys[t].tolist())
        rng.random(out=u[t])  # the first draw, already transformed in x[t]
        while _near_singular(x[t, None])[0]:
            x[t] = complex_gaussian(n, rng)
        thetas[t] = rng.uniform(-alpha, alpha, size=n)
    thetas[:, 0] = alpha
    phases = np.exp(1j * thetas)[:, None, :]
    # For n = 1 numpy's one-element broadcast product is unfused.
    scaled = multiply_unfused(x, phases) if n == 1 else x * phases
    a = scaled @ adjoint(x)
    thetas = np.sort(thetas, axis=-1)[:, ::-1]
    return (a[0], thetas[0]) if one else (a, thetas)


def gen_sectorial(n: int, alpha: float, seed) -> np.ndarray:
    """Random matrix whose numerical range attains sector half-angle alpha;
    ``seed`` is an int or a (T, 2) uint64 stack of Philox keys."""
    return gen_sectorial_planted(n, alpha, seed)[0]


def gen_accretive_dissipative(n: int, seed) -> np.ndarray:
    """Random H + iK, with H and K drawn as ``gen_positive_definite`` draws,
    one after the other, from the one stream of ``seed``; for a (T, 2)
    uint64 stack of Philox keys, the (T, n, n) stack of its draws."""
    keys, one = _seed_keys(seed)
    u = _uniforms(keys, (2, 2, n, n))
    m = _positive_definite(u[:, 0]) + 1j * _positive_definite(u[:, 1])
    return m[0] if one else m
