"""Conformal 2-by-2 block partitions, Schur complements, and block identities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    SingularBlockError,
    SingularLeadingBlockError,
    SingularMatrixError,
)


def validate_partition(n: int, p: int) -> int:
    p = int(p)
    if not 1 <= p <= n - 1:
        raise ValueError(f"partition must satisfy 1 <= p <= {n - 1}, got {p}")
    return p


@linalg.matrix_or_stack(1)
def schur_complement(m, p: int) -> np.ndarray:
    """A22 - A21 A11^{-1} A12, computed by an LU solve against A12."""
    p = validate_partition(m.shape[-1], p)
    try:
        return linalg._schur_complement_stack(m, p)
    except SingularMatrixError as exc:
        raise SingularLeadingBlockError(
            f"leading {p}-by-{p} block is numerically singular"
        ) from exc


def inverse_block_identity(a, p: int) -> float:
    """Relative residual of inv(A/A11) against the trailing block of inv(A).

    Returns ||inv(A/A11) - (A^{-1})_22||_F / ||A^{-1}||_F.
    """
    m = linalg.as_square_matrix(a)
    p = validate_partition(m.shape[0], p)
    inv_a = linalg.inverse(m)
    lhs = linalg.inverse(schur_complement(m, p))
    return linalg.frobenius(lhs - inv_a[p:, p:]) / linalg.frobenius(inv_a)


@dataclass(frozen=True)
class CartesianSchurParts:
    """Pieces of A/A11 = M/M11 + i (N/N11) + Y (M11^{-1} - i N11^{-1})^{-1} Y*
    for the Cartesian split A = M + iN, with Y = M21 M11^{-1} - N21 N11^{-1}."""

    m_part: np.ndarray
    n_part: np.ndarray
    y_factor: np.ndarray
    correction: np.ndarray
    residual: float  # ||m_part + i n_part + correction - A/A11||_F


def _block_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """inv(m), or SingularBlockError naming ``what`` where m is singular."""
    try:
        return linalg.inverse(m)
    except SingularMatrixError as exc:
        raise SingularBlockError(f"{what} is singular") from exc


def cartesian_schur_identity(a, p: int) -> CartesianSchurParts:
    """Evaluate the Cartesian-split form of the Schur complement.

    Requires Re A positive definite and both M11 = (Re A)_11 and
    N11 = (Im A)_11 nonsingular; a singular block is reported rather than
    regularized.
    """
    m = linalg.as_square_matrix(a)
    p = validate_partition(m.shape[0], p)
    re, im = linalg.accretive_parts(m)

    m11_inv = _block_inverse(re[:p, :p], "leading block of the real part")
    n11_inv = _block_inverse(im[:p, :p], "leading block of the imaginary part")
    y = re[p:, :p] @ m11_inv - im[p:, :p] @ n11_inv
    middle = _block_inverse(m11_inv - 1j * n11_inv, "M11^{-1} - i N11^{-1}")
    correction = y @ middle @ y.conj().T

    m_part = schur_complement(re, p)
    try:
        n_part = schur_complement(im, p)
    except SingularLeadingBlockError as exc:
        raise SingularBlockError(str(exc)) from exc
    direct = schur_complement(m, p)
    residual = linalg.frobenius(m_part + 1j * n_part + correction - direct)
    return CartesianSchurParts(m_part, n_part, y, correction, residual)


def real_inverse_identity(a) -> float:
    """Relative residual of Re(A^{-1}) against
    (Re A + Im A (Re A)^{-1} Im A)^{-1}, for Re A positive definite.

    Returns the gap in Frobenius norm divided by ||A^{-1}||_F.
    """
    m = linalg.as_square_matrix(a)
    re, im = linalg.accretive_parts(m)
    inv_a = linalg.inverse(m)
    lhs = linalg.cartesian_split(inv_a).re
    rhs = linalg.inverse(re + im @ linalg.solve(re, im))
    return linalg.frobenius(lhs - rhs) / linalg.frobenius(inv_a)
