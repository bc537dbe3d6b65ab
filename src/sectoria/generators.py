"""Seeded random matrix families on platform-stable streams.

All randomness flows through the Philox counter-based generator.  A draw
is named by its address: a Philox key and a trial index i.  A draw takes L
uniforms, and trial i reads them from the key's stream at counter block
i * ceil(L / 4), since Philox4x64 yields four words per counter; so each
trial's uniforms lie contiguously at a fixed offset, and any trial can be
drawn alone.  Gaussian entries are produced by an explicit Box-Muller
transform of the uniforms, keeping the bit stream fully specified.

``rng_stream``, ``child_seed`` and ``stream_key`` are numpy's own
``SeedSequence`` and ``Philox``.  Each ``gen_*`` takes an int seed or a
uint64 stack of T addresses (key0, key1, i), shape (T, 3), and an int seed
is the address (``stream_key(seed)``, 0): the start of the stream of
``rng_stream(seed)``.  A suite takes one key per operand k, ``stream_key(seed,
k)``, and gives trial i of operand k the address (that key, i).  A ``gen_*``
draws every trial of a stack through one reused generator, set to the
trial's key and counter, then runs the arithmetic once over the (T, n, n)
stack, and for an int seed returns entry 0 of the stack of one.

A sectorial draw redraws a Gaussian factor X whose smallest singular value
is below ``MIN_FACTOR_SIGMA``, as the SVD decides, unless a Cholesky
certificate of the whole stack's Gram matrices clears it (``_near_singular``).
Trial i's redraw reads its key's stream from counter word 1 = i + 1, which
no first draw reaches.
"""

from __future__ import annotations

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


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    """numpy's ``SeedSequence`` for substream ``path`` of ``seed``."""
    return np.random.SeedSequence(entropy=_integer(seed), spawn_key=tuple(_integer(p) for p in path))


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for substream ``path`` of ``seed``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a fresh 64-bit seed addressing substream ``path`` of ``seed``."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def stream_key(seed: int, *path: int) -> np.ndarray:
    """The Philox key of ``rng_stream(seed, *path)``, shape (2,) uint64."""
    return _seed_sequence(seed, path).generate_state(2, np.uint64)


def trial_addresses(key, lo: int, hi: int) -> np.ndarray:
    """The addresses (key, i) of trials i = lo..hi-1 of the stream with
    Philox ``key`` (two ints), shape (hi - lo, 3) uint64."""
    addresses = np.empty((hi - lo, 3), dtype=np.uint64)
    addresses[:, :2] = key
    addresses[:, 2] = np.arange(lo, hi, dtype=np.uint64)
    return addresses


def _stream(key, counter) -> np.random.Generator:
    """This thread's generator, set to the Philox stream with ``key`` (two
    ints) at ``counter`` (four ints, least significant first): the state a
    fresh ``Philox(key=key, counter=counter)`` starts in.  Its next draw
    starts with the block of counter + 1.  Setting the state sets every
    field, so no draw sees another's."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
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


def _uniforms(seed, size: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ``size`` uniforms of each trial that ``seed`` names, shape (T,
    size), with its addresses and whether it is one int.  An int seed is the
    stack (1, 3) of the address (``stream_key(seed)``, 0); anything else
    must be a uint64 stack of T addresses, shape (T, 3).  Trial i of a key
    reads its stream from counter block i * ceil(size / 4) on."""
    one = np.ndim(seed) == 0
    addresses = trial_addresses(stream_key(seed), 0, 1) if one else np.asarray(seed)
    if addresses.dtype != np.uint64 or addresses.shape[1:] != (3,):
        raise ValueError("expected an int seed or a uint64 stack of addresses (key0, key1, trial index)"
                         f" of shape (T, 3), got {addresses.dtype} {addresses.shape}")
    blocks = -(-size // 4)
    u = np.empty((len(addresses), size))
    for (k0, k1, i), out in zip(addresses.tolist(), u):
        _stream((k0, k1), (i * blocks, 0, 0, 0)).random(out=out)
    return u, addresses, one


def _positive_definite(u: np.ndarray) -> np.ndarray:
    """G G* + 0.1 I, symmetrized, for the Gaussians G of uniforms (T, 2, n, n)."""
    g = _box_muller(u)
    h = g @ adjoint(g) + 0.1 * np.eye(u.shape[-1])
    return (h + adjoint(h)) / 2.0


def gen_positive_definite(n: int, seed) -> np.ndarray:
    """Random Hermitian positive definite matrix G G* + 0.1 I; for a (T, 3)
    uint64 stack of addresses as ``seed``, the (T, n, n) stack of its draws."""
    u, _, one = _uniforms(seed, 2 * n * n)
    h = _positive_definite(u.reshape(-1, 2, n, n))
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
    planted angles sorted descending; for a (T, 3) uint64 stack of
    addresses as ``seed``, the (T, n, n) and (T, n) stacks of its draws.
    """
    if not 0.0 <= alpha < ALPHA_GUARD:
        raise ValueError(f"alpha must lie in [0, {ALPHA_GUARD:.6f})")
    u, addresses, one = _uniforms(seed, 2 * n * n + n)
    x = _box_muller(u[:, :2 * n * n].reshape(-1, 2, n, n))
    # numpy's uniform(-alpha, alpha) on the same uniforms, bit for bit
    thetas = -alpha + (2 * alpha) * u[:, 2 * n * n:]
    # A trial whose factor is too close to singular redraws from its own
    # redraw stream; its angles follow the draw it keeps.
    flagged = _near_singular(x)
    for t in np.flatnonzero(flagged) if flagged.any() else ():
        k0, k1, i = addresses[t].tolist()
        rng = _stream((k0, k1), (0, i + 1, 0, 0))
        x[t] = complex_gaussian(n, rng)
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
    ``seed`` is an int or a (T, 3) uint64 stack of addresses."""
    return gen_sectorial_planted(n, alpha, seed)[0]


def gen_accretive_dissipative(n: int, seed) -> np.ndarray:
    """Random H + iK, with H and K drawn as ``gen_positive_definite`` draws,
    one after the other, from the one address of ``seed``; for a (T, 3)
    uint64 stack of addresses, the (T, n, n) stack of its draws."""
    u, _, one = _uniforms(seed, 4 * n * n)
    u = u.reshape(-1, 2, 2, n, n)
    m = _positive_definite(u[:, 0]) + 1j * _positive_definite(u[:, 1])
    return m[0] if one else m
