"""Independent oracles used by the tests to cross-check library routes."""

import math
import warnings

import numpy as np
import scipy.linalg

from sectoria.linalg import PD_RTOL


def seed_key(seed: int, *path: int) -> np.ndarray:
    """The Philox key of numpy's SeedSequence(seed, spawn_key=path), shape
    (2,) uint64: with path (k,), that of a suite's operand k."""
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


def philox(key, counter: int) -> np.random.Generator:
    """A fresh numpy Philox generator with ``key`` at ``counter``: its first
    draw starts with the block of counter + 1."""
    return np.random.Generator(np.random.Philox(key=np.asarray(key, dtype=np.uint64), counter=counter))


def trial_offset(i: int, size: int) -> int:
    """Trial i's counter offset for a draw of ``size`` uniforms: i whole
    Philox blocks of four words per trial, ceil(size / 4)."""
    return i * -(-size // 4)


def determinant(a) -> complex:
    """det(A) as the signed product of the pivots of scipy's pivoted LU
    (0-ish for singular input)."""
    m = np.asarray(a, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    swaps = int(np.sum(piv != np.arange(m.shape[0])))
    sign = -1.0 if swaps % 2 else 1.0
    return complex(sign * np.prod(np.diag(lu)))


def charpoly_coefficients(h) -> np.ndarray:
    """Coefficients of det(lambda I - H) by the Faddeev-LeVerrier recursion,
    leading coefficient first.  Uses only matrix products and traces."""
    m = np.asarray(h, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.zeros_like(m)
    for k in range(1, n + 1):
        aux = m @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ aux) / k
    return coeffs


def eigenvalues_by_charpoly(h) -> np.ndarray:
    """Companion-matrix roots of the characteristic polynomial, ascending
    real parts.  Independent of any Hermitian eigensolver path."""
    roots = np.roots(charpoly_coefficients(h))
    return np.sort(roots.real)


def numerical_range_samples(a, count: int, seed: int) -> np.ndarray:
    """Numerical-range points x* A x for random unit vectors x."""
    rng = np.random.default_rng(seed)
    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    x = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.einsum("ti,ij,tj->t", x.conj(), m, x)


def in_sector_reference(a, alpha: float, tol: float):
    """Sector membership by three eigensolves, one per test and none
    skipped: the least eigenvalue of Re(e^{i beta} A) is at least
    -tol ||A||_F for beta = pi/2 - alpha, then for beta = alpha - pi/2, and
    that of Re A is above PD_RTOL ||A||_F.  Returns (inside, witness), the
    witness of the first failing test being (beta, eigenvalue, vector,
    point) from a full eigendecomposition of its rotated part."""
    m = np.asarray(a, dtype=complex)
    # A float: -inf * 0.0 is NaN with no warning.  np.linalg.norm sums the
    # squares of the entries, which over- or underflow far from 1; there it
    # is taken of A over its largest entry.
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(m))
    big = float(np.abs(m).max())
    if big and not 1e-150 < scale < 1e150:
        scale = big * float(np.linalg.norm(m / big))
    for beta in (math.pi / 2 - alpha, alpha - math.pi / 2, 0.0):
        w = complex(math.cos(beta), math.sin(beta))
        h = (w * m + np.conj(w) * m.conj().T) / 2.0
        lowest = np.linalg.eigvalsh(h)[0]
        if lowest < -tol * scale if beta else not lowest > PD_RTOL * scale:
            values, vectors = np.linalg.eigh(h)
            x = vectors[:, 0]
            return False, (beta, float(values[0]), x, complex(x.conj() @ m @ x))
    return True, None
