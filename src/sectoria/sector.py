"""Sector membership, the canonical congruence decomposition, and the
boundary of the numerical range."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import NotSectorialError

# Default slack granted to boundary eigenvalues in membership tests.
MEMBERSHIP_TOL = 1e-9
# The membership tolerance and the halvings of sector_angle_bisect.
BISECT_TOL = 1e-13
BISECT_ITERS = 60


def validate_sector_angle(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 <= a < math.pi / 2:
        raise ValueError(f"sector half-angle must lie in [0, pi/2), got {alpha}")
    return a


def _rotated_real_part(m: np.ndarray, mh: np.ndarray, beta: float) -> np.ndarray:
    """Hermitian part of e^{i beta} A, (e^{i beta} A + e^{-i beta} A*)/2, with mh = A*."""
    w = complex(math.cos(beta), math.sin(beta))
    return (w * m + np.conj(w) * mh) / 2.0


@dataclass(frozen=True)
class SectorWitness:
    """Certificate that some unit vector leaves the sector."""

    rotation: float        # half-plane direction beta whose test failed
    eigenvalue: float      # offending eigenvalue of the rotated real part
    vector: np.ndarray     # corresponding unit eigenvector x
    point: complex         # x* A x, a numerical-range point outside the sector


@dataclass(frozen=True)
class SectorMembership:
    inside: bool
    witness: SectorWitness | None = None

    def __bool__(self) -> bool:
        return self.inside


def _witness(m: np.ndarray, h: np.ndarray, beta: float) -> SectorWitness:
    w, v = np.linalg.eigh(h)
    x = v[:, 0]
    return SectorWitness(beta, float(w[0]), x, complex(x.conj() @ m @ x))


def _rotations(alpha: float) -> tuple[float, float, float]:
    """The rotations beta of in_sector's three tests, in their order."""
    return (math.pi / 2 - alpha, alpha - math.pi / 2, 0.0)


def _first_failures(m: np.ndarray, alpha: float, tol: float, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts Re(e^{i beta} A) of in_sector's tests of each matrix of a
    stack, shape (3, T, n, n), and the index of each matrix's first failing
    test, 3 where all pass; ``scale`` holds ||A||_F.  One Cholesky
    certificate of the 3T parts answers for a stack inside the sector; any
    other takes one ``eigvalsh`` of the same parts, which applies the tests."""
    mh = linalg.adjoint(m)
    h = np.stack([_rotated_real_part(m, mh, beta) for beta in _rotations(alpha)])
    parts = h.reshape(-1, *m.shape[1:])
    # For tol = inf and A = 0 the floor -tol * ||A||_F is NaN, which every
    # eigenvalue passes, as it passes -inf.
    with np.errstate(invalid="ignore"):
        floors = np.array([[-tol], [-tol], [linalg.PD_RTOL]]) * scale
    if linalg._cholesky_clears(parts, floors, scale):
        return h, np.full(len(m), 3)
    lowest = np.linalg.eigvalsh(parts)[:, 0].reshape(3, -1)
    fails = np.concatenate([lowest[:2] < floors[:2], ~(lowest[2:] > floors[2:]), np.ones((1, len(m)), dtype=bool)])
    return h, np.argmax(fails, axis=0)


@linalg.matrix_or_stack(1)
def in_sector(m, alpha: float, tol: float = MEMBERSHIP_TOL) -> SectorMembership | list[SectorMembership]:
    """Does the numerical range of ``m`` lie in the sector of half-angle alpha?

    Membership holds when min-eig(Re(e^{i beta} A)) >= -tol * ||A||_F for
    both beta = +-(pi/2 - alpha) and the plain real part is strictly
    positive definite, its minimum eigenvalue above ``linalg.PD_RTOL *
    ||A||_F`` (the sector excludes the imaginary axis).  On failure the
    violating eigenpair of the first failing test, in that order, is
    returned as a witness.  For a (T, n, n) stack the result is the list of
    the T memberships.
    """
    alpha = validate_sector_angle(alpha)
    h, first = _first_failures(m, alpha, tol, linalg.frobenius_stack(m))
    return [SectorMembership(True) if j == 3 else SectorMembership(False, _witness(m[k], h[j, k], _rotations(alpha)[j]))
            for k, j in enumerate(first.tolist())]


def half_angle(thetas: np.ndarray) -> np.ndarray:
    """max_j |theta_j| of each row of angles: the half-angle of the
    smallest sector that contains W(A)."""
    return np.max(np.abs(thetas), axis=-1)


class SectorialDecomposition(NamedTuple):
    """Invertible factor X and angles theta with A = X diag(e^{i theta}) X*,
    of a matrix, or of each matrix of a stack: X of shape (T, n, n) and the
    angles (T, n).  ``angle`` and ``reconstruct`` answer per matrix."""

    x: np.ndarray
    thetas: np.ndarray  # sorted descending, |theta_j| < pi/2

    @property
    def angle(self) -> float | np.ndarray:
        """``half_angle`` of the thetas: a float for a matrix, an array of T
        for a stack."""
        angle = half_angle(self.thetas)
        return float(angle) if self.thetas.ndim == 1 else angle

    def reconstruct(self) -> np.ndarray:
        return (self.x * np.exp(1j * self.thetas)[..., None, :]) @ linalg.adjoint(self.x)


def _congruence(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cholesky factor L of H = Re A, C = L^{-1} K L^{-*} with K = Im A,
    and the angles theta = atan(eig C), sorted descending, of each matrix of
    a validated stack.

    H must be positive definite, its least eigenvalue above ``PD_RTOL *
    ||A||_F``.  A = L (I + iC) L*, and C = U diag(tan theta) U* is Hermitian
    by construction; only rounding breaks its symmetry, so it is symmetrized
    rather than tested.  The angles take ``eigvalsh`` alone.
    """
    re, im = linalg.cartesian_split(m)
    scale = linalg.frobenius_stack(m)
    if not linalg.positive_definite_stack(re, scale):
        lowest = np.linalg.eigvalsh(re)[:, 0]
        fails = ~(lowest > linalg.PD_RTOL * scale)
        raise NotSectorialError(
            f"real part is not positive definite (min eigenvalue {lowest[np.argmax(fails)]:.3e})"
        )
    return _congruence_of_parts(re, im)


def _congruence_of_parts(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_congruence`` from the Cartesian parts of a stack whose real part
    has been shown positive definite, as ``linalg.accretive_parts`` shows it."""
    factor = np.linalg.cholesky(re)
    factor_inv = np.linalg.inv(factor)
    c = factor_inv @ im @ linalg.adjoint(factor_inv)
    c = (c + linalg.adjoint(c)) / 2.0
    return factor, c, np.arctan(np.linalg.eigvalsh(c))[:, ::-1].copy()


@linalg.matrix_or_stack(1)
def sectorial_thetas(m) -> np.ndarray:
    """The angles theta_j of A = X diag(e^{i theta_j}) X*, sorted
    descending, without X: shape (n,) for a matrix, (T, n) for a stack."""
    return _congruence(m)[2]


@linalg.matrix_or_stack(1)
def sectorial_decompose(m) -> SectorialDecomposition:
    """Canonical congruence diagonalization A = X diag(e^{i theta_j}) X*.

    With Re A = L L* (required positive definite) and C = L^{-1} Im(A)
    L^{-*} = U diag(tan theta) U*, the angles are those of
    ``sectorial_thetas`` and X = L U diag(cos theta)^{-1/2}: the diagonal
    unitary carries all the phase and X Z X* reproduces A.  The ``eigh`` of
    C gives U only; its columns, in ascending order of eigenvalue, are
    reversed to match the thetas.
    """
    factor, c, thetas = _congruence(m)
    u = np.linalg.eigh(c)[1][:, :, ::-1]
    return SectorialDecomposition((factor @ u) / np.sqrt(np.cos(thetas))[:, None, :], thetas)


@linalg.matrix_or_stack(1)
def sector_angle(m) -> float | list[float]:
    """Half-angle of the smallest sector containing W(A), the ``half_angle``
    of ``sectorial_thetas``; a list of T for a stack."""
    return [float(a) for a in half_angle(sectorial_thetas(m))]


def sector_angle_bisect(a) -> float:
    """Bisection of ``in_sector`` over [0, pi/2); independent of the
    decomposition route."""
    m = linalg.as_square_matrix(a)[None]
    scale = linalg.frobenius_stack(m)

    def inside(alpha: float) -> bool:
        # in_sector's verdict, without the witness that it would build
        return _first_failures(m, alpha, BISECT_TOL, scale)[1][0] == 3

    hi = math.pi / 2 - 1e-12
    if not inside(hi):
        raise NotSectorialError("no admissible sector half-angle below pi/2")
    lo = 0.0
    if inside(lo):
        return 0.0
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def numerical_range_boundary(a, m_points: int) -> np.ndarray:
    """Boundary points of W(A) by the support-function construction.

    For each direction phi_t = 2 pi t / m the top eigenvector v of
    Re(e^{-i phi_t} A) supports the numerical range, and v* A v is the
    matching boundary point.
    """
    mat = linalg.as_square_matrix(a)
    if m_points < 3:
        raise ValueError("at least 3 boundary points are required")
    points = np.empty(m_points, dtype=np.complex128)
    mh = linalg.adjoint(mat)
    for t in range(m_points):
        phi = 2.0 * math.pi * t / m_points
        _, v = np.linalg.eigh(_rotated_real_part(mat, mh, -phi))
        top = v[:, -1]
        points[t] = top.conj() @ mat @ top
    return points
