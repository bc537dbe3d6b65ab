"""Sector membership, the canonical congruence decomposition, and the
boundary of the numerical range."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _in_sector(m: np.ndarray, alpha: float, tol: float) -> list[SectorMembership]:
    alpha = validate_sector_angle(alpha)
    scale = linalg.frobenius_stack(m)
    floor = -tol * scale
    out = [SectorMembership(True)] * len(m)
    # A matrix leaves the later tests once one fails, as it does on its own.
    live = np.arange(len(m))
    for beta in (math.pi / 2 - alpha, alpha - math.pi / 2, 0.0):
        h = _rotated_real_part(m, beta)
        if beta:
            fails = np.linalg.eigvalsh(h)[:, 0] < floor
        else:  # the real part must be strictly positive definite
            fails = ~linalg.positive_definite_stack(h, scale)
        if fails.any():
            for k in np.flatnonzero(fails):
                out[live[k]] = SectorMembership(False, _witness(m[k], h[k], beta))
            keep = ~fails
            live, m, scale, floor = live[keep], m[keep], scale[keep], floor[keep]
            if not len(live):
                break
    return out


def in_sector(a, alpha: float, tol: float = MEMBERSHIP_TOL):
    """Does the numerical range of ``a`` lie in the sector of half-angle alpha?

    Membership holds when min-eig(Re(e^{i beta} A)) >= -tol * ||A||_F for
    both beta = +-(pi/2 - alpha) and the plain real part is strictly
    positive definite (the sector excludes the imaginary axis).  On failure
    the violating eigenpair is returned as a witness.  For a (T, n, n) stack
    the result is the list of the T memberships.
    """
    if np.ndim(a) == 3:
        return _in_sector(a, alpha, tol)
    return _in_sector(linalg.as_square_matrix(a)[None], alpha, tol)[0]


@dataclass(frozen=True)
class SectorialDecomposition:
    """Invertible factor X and angles theta with A = X diag(e^{i theta}) X*."""

    x: np.ndarray
    thetas: np.ndarray  # sorted descending, |theta_j| < pi/2

    @property
    def z(self) -> np.ndarray:
        """The diagonal unitary carrying the phases."""
        return np.diag(np.exp(1j * self.thetas))

    @property
    def angle(self) -> float:
        """max_j |theta_j|, the half-angle of the smallest enclosing sector."""
        return float(np.max(np.abs(self.thetas)))

    def reconstruct(self) -> np.ndarray:
        return (self.x * np.exp(1j * self.thetas)) @ self.x.conj().T


def sectorial_decompose_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sectorial_decompose`` of each matrix of a (T, n, n) stack: the
    factors X, shape (T, n, n), and the angles, shape (T, n)."""
    re, im = linalg.cartesian_split_stack(m)
    scale = linalg.frobenius_stack(m)
    hw, hv = linalg.hermitian_eigen_stack(re)
    for low, floor in zip(hw[:, 0], linalg.PD_RTOL * scale):
        if low <= floor:
            raise NotSectorialError(
                f"real part is not positive definite (min eigenvalue {low:.3e})"
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
    return (np.take_along_axis(x, order[:, None, :], axis=-1),
            np.take_along_axis(thetas, order, axis=-1))


def sectorial_decompose(a) -> SectorialDecomposition:
    """Canonical congruence diagonalization A = X diag(e^{i theta_j}) X*.

    With H = Re A (required positive definite) and K = Im A, the angles are
    atan of the eigenvalues of H^{-1/2} K H^{-1/2}; column j of H^{1/2} U is
    rescaled by cos(theta_j)^{-1/2} so the diagonal unitary carries all the
    phase and X Z X* reproduces A.
    """
    x, thetas = sectorial_decompose_stack(linalg.as_square_matrix(a)[None])
    return SectorialDecomposition(x[0], thetas[0])


def sector_angle_stack(m: np.ndarray) -> list[float]:
    """``sector_angle`` of each matrix of a (T, n, n) stack."""
    return [float(a) for a in np.max(np.abs(sectorial_decompose_stack(m)[1]), axis=-1)]


def sector_angle(a) -> float:
    """Half-angle of the smallest sector containing W(A)."""
    return sectorial_decompose(a).angle


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
