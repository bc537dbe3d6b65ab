"""Dense complex matrix kernel.

Every operation is a pure function of its inputs and never mutates its
arguments.  All tolerances are relative to the Frobenius norm, so the
contracts are invariant under the rescaling A -> c*A.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NotConvergedError, NotPositiveDefiniteError, SingularMatrixError

# Pivot magnitudes below PIVOT_RTOL * ||A||_F count as singular.
PIVOT_RTOL = 1e-13
# Residual / orthonormality contract of the Hermitian eigensolver.
EIGEN_RTOL = 1e-11
# How far from exact symmetry a "Hermitian" input may be.
HERMITIAN_RTOL = 1e-10
# A Hermitian matrix counts as positive definite when its minimum eigenvalue
# exceeds PD_RTOL times the reference scale.
PD_RTOL = 1e-12


def as_square_matrix(a) -> np.ndarray:
    """Coerce ``a`` to an n-by-n complex128 array, validating shape and finiteness."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


class CartesianPair(NamedTuple):
    """Hermitian halves of the split A = re + 1j*im."""

    re: np.ndarray
    im: np.ndarray


def cartesian_split(a) -> CartesianPair:
    """Return ((A + A*)/2, (A - A*)/(2i)); both parts are exactly Hermitian."""
    m = as_square_matrix(a)
    mh = m.conj().T
    return CartesianPair((m + mh) / 2.0, (m - mh) / 2.0j)


class HermitianEigenResult(NamedTuple):
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_hermitian(h) -> np.ndarray:
    """Symmetrize H to (H + H*)/2 after checking that it deviates from exact
    symmetry by at most ``HERMITIAN_RTOL * ||H||_F``."""
    m = as_square_matrix(h)
    if frobenius(m - m.conj().T) > HERMITIAN_RTOL * max(frobenius(m), np.finfo(float).tiny):
        raise ValueError("input is not Hermitian within tolerance")
    return (m + m.conj().T) / 2.0


def is_positive_definite(h: np.ndarray, scale: float) -> bool:
    """Does the exactly Hermitian ``h`` have minimum eigenvalue above
    ``PD_RTOL * scale``?"""
    return float(np.linalg.eigvalsh(h)[0]) > PD_RTOL * scale


def hermitian_eigen(h) -> HermitianEigenResult:
    """Eigendecomposition H = V diag(w) V* of a Hermitian matrix.

    The input may deviate from exact symmetry by at most
    ``HERMITIAN_RTOL * ||H||_F``; it is symmetrized before factoring.
    """
    sym = as_hermitian(h)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NotConvergedError(str(exc)) from exc
    return HermitianEigenResult(w, v)


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    sym = as_hermitian(h)
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NotConvergedError(str(exc)) from exc


def _require_pivot(pivot_abs: float, scale: float) -> None:
    """Reject a pivot magnitude below ``PIVOT_RTOL * ||A||_F`` (or NaN)."""
    if scale == 0.0 or not pivot_abs >= PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot below {PIVOT_RTOL:g} * ||A||_F; matrix is numerically singular"
        )


def _lu_factor(m: np.ndarray):
    """LU with partial pivoting; rejects pivots below the relative threshold."""
    scale = frobenius(m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    _require_pivot(float(np.min(np.abs(np.diag(lu)))), scale)
    return lu, piv


def solve(a, b) -> np.ndarray:
    """Solve A X = B via LU with partial pivoting."""
    m = as_square_matrix(a)
    lu, piv = _lu_factor(m)
    rhs = np.asarray(b, dtype=np.complex128)
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def inverse(a) -> np.ndarray:
    """Inverse of A via LU with partial pivoting."""
    m = as_square_matrix(a)
    lu, piv = _lu_factor(m)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return scipy.linalg.lu_solve((lu, piv), eye, check_finite=False)


def determinant(a) -> complex:
    """det(A) as the signed product of LU pivots (0-ish for singular input)."""
    m = as_square_matrix(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    swaps = int(np.sum(piv != np.arange(m.shape[0])))
    sign = -1.0 if swaps % 2 else 1.0
    return complex(sign * np.prod(np.diag(lu)))


def leading_principal_submatrix(a, k: int) -> np.ndarray:
    """Top-left k-by-k block A_k."""
    m = as_square_matrix(a)
    if not 1 <= k <= m.shape[0]:
        raise IndexError(f"k must be in 1..{m.shape[0]}, got {k}")
    return m[:k, :k].copy()


def log_abs_determinant(a) -> float:
    """log|det A| as the sum of log|u_jj| over one pivoted LU (-inf if singular)."""
    return float(np.linalg.slogdet(as_square_matrix(a))[1])


# Blocks up to this order are eliminated one column at a time; a larger one
# is split in two, coupled by two triangular solves and one matrix product.
_ELIMINATION_BLOCK = 32


def _eliminate(u: np.ndarray, scale: float, pivots: np.ndarray) -> None:
    """Overwrite the square view ``u`` with its LU factors without pivoting
    (unit lower L below the diagonal, U on and above it) and store the pivot
    magnitudes |u_jj| in ``pivots``."""
    n = u.shape[0]
    if n <= _ELIMINATION_BLOCK:
        for j in range(n):
            pivots[j] = abs(u[j, j])
            _require_pivot(pivots[j], scale)
            column = u[j + 1:, j]
            column /= u[j, j]
            u[j + 1:, j + 1:] -= np.multiply.outer(column, u[j, j + 1:])
        return
    h = n // 2
    _eliminate(u[:h, :h], scale, pivots[:h])
    u[:h, h:] = scipy.linalg.solve_triangular(
        u[:h, :h], u[:h, h:], lower=True, unit_diagonal=True, check_finite=False
    )
    u[h:, :h] = scipy.linalg.solve_triangular(
        u[:h, :h], u[h:, :h].T, trans="T", check_finite=False
    ).T
    u[h:, h:] -= u[h:, :h] @ u[:h, h:]
    _eliminate(u[h:, h:], scale, pivots[h:])


def log_abs_leading_minors(a) -> np.ndarray:
    """log|det A_k| for k = 1..n from one elimination without pivoting.

    Without row exchanges the k-th pivot is the scalar Schur complement
    det A_k / det A_{k-1}, so the logs of the pivot magnitudes sum to the
    leading minors.  Elimination without pivoting is stable when Re A is
    positive definite (Golub & Van Loan, Matrix Computations, 4.4); a pivot
    below ``PIVOT_RTOL * ||A||_F`` raises :class:`SingularMatrixError`.
    """
    u = as_square_matrix(a)  # a fresh copy, eliminated in place
    pivots = np.empty(u.shape[0])
    _eliminate(u, frobenius(u), pivots)
    return np.cumsum(np.log(pivots))


def hermitian_sqrt(h) -> np.ndarray:
    """Principal square root of a Hermitian positive definite matrix."""
    w, v = hermitian_eigen(h)
    if float(w[0]) <= 0.0:
        raise NotPositiveDefiniteError(
            f"minimum eigenvalue {w[0]:.3e} is not positive"
        )
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def singular_values(a) -> np.ndarray:
    """Singular values of A in descending order."""
    m = as_square_matrix(a)
    return np.linalg.svd(m, compute_uv=False)
