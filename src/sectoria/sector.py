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


def validate_sector_angle(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 <= a < math.pi / 2:
        raise ValueError(f"sector half-angle must lie in [0, pi/2), got {alpha}")
    return a


def _rotated_real_part(m: np.ndarray, beta: float) -> np.ndarray:
    """Hermitian part of e^{i beta} A, i.e. (e^{i beta} A + e^{-i beta} A*)/2."""
    w = complex(math.cos(beta), math.sin(beta))
    return (w * m + np.conj(w) * linalg.adjoint(m)) / 2.0


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


@linalg.matrix_or_stack(1)
def in_sector(m, alpha: float, tol: float = MEMBERSHIP_TOL) -> SectorMembership | list[SectorMembership]:
    """Does the numerical range of ``m`` lie in the sector of half-angle alpha?

    Membership holds when min-eig(Re(e^{i beta} A)) >= -tol * ||A||_F for
    both beta = +-(pi/2 - alpha) and the plain real part is strictly
    positive definite (the sector excludes the imaginary axis).  On failure
    the violating eigenpair is returned as a witness.  For a (T, n, n) stack
    the result is the list of the T memberships.
    """
    alpha = validate_sector_angle(alpha)
    scale = linalg.frobenius_stack(m)
    floor = -tol * scale
    out = [SectorMembership(True)] * len(m)
    inside = np.ones(len(m), dtype=bool)
    for beta in (math.pi / 2 - alpha, alpha - math.pi / 2, 0.0):
        h = _rotated_real_part(m, beta)
        if beta:
            fails = np.linalg.eigvalsh(h)[:, 0] < floor
        else:  # the real part must be strictly positive definite
            fails = ~linalg.positive_definite_stack(h, scale)
        # A matrix's witness is its first failing rotation, as on its own.
        for k in np.flatnonzero(fails & inside):
            out[k] = SectorMembership(False, _witness(m[k], h[k], beta))
        inside &= ~fails
        if not inside.any():
            break
    return out


class SectorialDecomposition(NamedTuple):
    """Invertible factor X and angles theta with A = X diag(e^{i theta}) X*,
    of a matrix, or of each matrix of a stack: X of shape (T, n, n) and the
    angles (T, n).  ``angle`` and ``reconstruct`` take one matrix's."""

    x: np.ndarray
    thetas: np.ndarray  # sorted descending, |theta_j| < pi/2

    @property
    def angle(self) -> float:
        """max_j |theta_j|, the half-angle of the smallest enclosing sector."""
        return float(np.max(np.abs(self.thetas)))

    def reconstruct(self) -> np.ndarray:
        return (self.x * np.exp(1j * self.thetas)) @ self.x.conj().T


@linalg.matrix_or_stack(1)
def sectorial_decompose(m) -> SectorialDecomposition:
    """Canonical congruence diagonalization A = X diag(e^{i theta_j}) X*.

    With H = Re A (required positive definite) and K = Im A, the angles are
    atan of the eigenvalues of H^{-1/2} K H^{-1/2}; column j of H^{1/2} U is
    rescaled by cos(theta_j)^{-1/2} so the diagonal unitary carries all the
    phase and X Z X* reproduces A.
    """
    re, im = linalg.cartesian_split(m)
    hw, hv = linalg.hermitian_eigen_stack(re)
    fails = hw[:, 0] <= linalg.PD_RTOL * linalg.frobenius_stack(m)
    if fails.any():
        raise NotSectorialError(
            f"real part is not positive definite (min eigenvalue {hw[np.argmax(fails), 0]:.3e})"
        )
    root = (hv * np.sqrt(hw)[:, None, :]) @ linalg.adjoint(hv)
    root_inv = (hv * (1.0 / np.sqrt(hw))[:, None, :]) @ linalg.adjoint(hv)
    # C = H^{-1/2} K H^{-1/2} is Hermitian by construction; only rounding
    # breaks its symmetry, so it is symmetrized rather than tested.
    c = root_inv @ im @ linalg.adjoint(root_inv)
    d, u = linalg.hermitian_eigen_stack((c + linalg.adjoint(c)) / 2.0)
    thetas = np.arctan(d)
    x = (root @ u) / np.sqrt(np.cos(thetas))[:, None, :]
    order = np.argsort(-thetas, axis=-1, kind="stable")
    return SectorialDecomposition(np.take_along_axis(x, order[:, None, :], axis=-1),
                                  np.take_along_axis(thetas, order, axis=-1))


@linalg.matrix_or_stack(1)
def sector_angle(m) -> float | list[float]:
    """Half-angle of the smallest sector containing W(A); a list of T for a stack."""
    return [float(a) for a in np.max(np.abs(sectorial_decompose(m).thetas), axis=-1)]


def sector_angle_bisect(a, tol: float = 1e-13, iters: int = 60) -> float:
    """Bisection of ``in_sector`` over [0, pi/2); independent of the
    decomposition route."""
    m = linalg.as_square_matrix(a)
    hi = math.pi / 2 - 1e-12
    if not in_sector(m, hi, tol):
        raise NotSectorialError("no admissible sector half-angle below pi/2")
    lo = 0.0
    if in_sector(m, lo, tol):
        return 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if in_sector(m, mid, tol):
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
    for t in range(m_points):
        phi = 2.0 * math.pi * t / m_points
        _, v = np.linalg.eigh(_rotated_real_part(mat, -phi))
        top = v[:, -1]
        points[t] = top.conj() @ mat @ top
    return points
