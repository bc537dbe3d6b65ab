"""Seeded random matrix families with platform-stable substreams.

All randomness flows through the Philox counter-based generator keyed by a
``SeedSequence`` spawn path, so any (seed, path) pair addresses an
independent stream and per-trial generation is order independent.
Gaussian entries are produced by an explicit Box-Muller transform of the
uniform stream, keeping the bit stream fully specified.

Each ``gen_*_stack`` draws one matrix per seed, each trial from its own
stream, and runs the arithmetic once over the (T, n, n) stack; ``gen_*`` is
the same code for one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, multiply_unfused

# Generators refuse target angles this close to the half-plane boundary.
ALPHA_GUARD = math.pi / 2 - 0.01
# Complex Gaussian factors are resampled below this smallest singular value.
MIN_FACTOR_SIGMA = 1e-3


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


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for substream ``path`` of ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path: int) -> int:
    """Derive a fresh 64-bit seed addressing substream ``path`` of ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _gaussian_stack(n: int, rngs) -> np.ndarray:
    """One n-by-n complex Gaussian draw from each generator, stacked: the raw
    uniforms come from each trial's own stream, the transform runs once."""
    u1 = np.empty((len(rngs), n, n))
    u2 = np.empty((len(rngs), n, n))
    for rng, out1, out2 in zip(rngs, u1, u2):
        rng.random(out=out1)
        rng.random(out=out2)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    phase = 2.0 * np.pi * u2
    return radius * np.cos(phase) + 1j * (radius * np.sin(phase))


def complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """n-by-n matrix of independent entries with N(0,1) real and imaginary parts."""
    return _gaussian_stack(n, [rng])[0]


def gen_positive_definite_stack(n: int, seeds) -> np.ndarray:
    """``gen_positive_definite(n, seed)`` for each seed, stacked."""
    g = _gaussian_stack(n, [rng_stream(seed) for seed in seeds])
    h = g @ adjoint(g) + 0.1 * np.eye(n)
    return (h + adjoint(h)) / 2.0


def gen_positive_definite(n: int, seed: int) -> np.ndarray:
    """Random Hermitian positive definite matrix G G* + 0.1 I."""
    return gen_positive_definite_stack(n, [seed])[0]


def _smallest_singular_values(x: np.ndarray) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False)[..., -1]


def gen_sectorial_planted_stack(n: int, alpha: float, seeds) -> tuple[np.ndarray, np.ndarray]:
    """``gen_sectorial_planted(n, alpha, seed)`` for each seed: the matrices,
    shape (T, n, n), and the planted angles, shape (T, n)."""
    if not 0.0 <= alpha < ALPHA_GUARD:
        raise ValueError(f"alpha must lie in [0, {ALPHA_GUARD:.6f})")
    rngs = [rng_stream(seed) for seed in seeds]
    x = _gaussian_stack(n, rngs)
    # A trial whose factor is too close to singular redraws from its own stream.
    flagged = _smallest_singular_values(x) < MIN_FACTOR_SIGMA
    for t in np.flatnonzero(flagged) if flagged.any() else ():
        while _smallest_singular_values(x[t]) < MIN_FACTOR_SIGMA:
            x[t] = _gaussian_stack(n, rngs[t:t + 1])[0]
    thetas = np.empty((len(rngs), n))
    for rng, out in zip(rngs, thetas):
        out[:] = rng.uniform(-alpha, alpha, size=n)
    thetas[:, 0] = alpha
    phases = np.exp(1j * thetas)[:, None, :]
    # For n = 1 numpy's one-element broadcast product is unfused.
    scaled = multiply_unfused(x, phases) if n == 1 else x * phases
    a = scaled @ adjoint(x)
    return a, np.sort(thetas, axis=-1)[:, ::-1]


def gen_sectorial_planted(n: int, alpha: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random sectorial sample together with its planted angle vector.

    Builds X diag(exp(i theta_j)) X* from a complex Gaussian X (resampled
    while its smallest singular value is below ``MIN_FACTOR_SIGMA``) and
    angles drawn uniformly from [-alpha, alpha] with theta_1 pinned to
    alpha so the nominal angle is attained.  Returns the matrix and the
    planted angles sorted descending.
    """
    a, thetas = gen_sectorial_planted_stack(n, alpha, [seed])
    return a[0], thetas[0]


def gen_sectorial_stack(n: int, alpha: float, seeds) -> np.ndarray:
    """``gen_sectorial(n, alpha, seed)`` for each seed, stacked."""
    return gen_sectorial_planted_stack(n, alpha, seeds)[0]


def gen_sectorial(n: int, alpha: float, seed: int) -> np.ndarray:
    """Random matrix whose numerical range attains sector half-angle alpha."""
    return gen_sectorial_stack(n, alpha, [seed])[0]


def gen_accretive_dissipative_stack(n: int, seeds) -> np.ndarray:
    """``gen_accretive_dissipative(n, seed)`` for each seed, stacked."""
    h = gen_positive_definite_stack(n, [child_seed(seed, 0) for seed in seeds])
    k = gen_positive_definite_stack(n, [child_seed(seed, 1) for seed in seeds])
    return h + 1j * k


def gen_accretive_dissipative(n: int, seed: int) -> np.ndarray:
    """Random H + iK with H, K independent positive definite draws."""
    return gen_accretive_dissipative_stack(n, [seed])[0]
