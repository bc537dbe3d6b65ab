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


class SectorialDecomposition(NamedTuple):
    """Invertible factor X and angles theta with A = X diag(e^{i theta}) X*,
    of a matrix, or of each matrix of a stack: X of shape (T, n, n) and the
    angles (T, n).  ``angle`` and ``reconstruct`` answer per matrix."""

    x: np.ndarray
    thetas: np.ndarray  # sorted descending, |theta_j| < pi/2

    @property
    def angle(self) -> float | np.ndarray:
        """max_j |theta_j|, the half-angle of the smallest enclosing sector:
        a float for a matrix, an array of T for a stack."""
        angle = np.max(np.abs(self.thetas), axis=-1)
        return float(angle) if self.thetas.ndim == 1 else angle

    def reconstruct(self) -> np.ndarray:
        return (self.x * np.exp(1j * self.thetas)[..., None, :]) @ linalg.adjoint(self.x)


@linalg.matrix_or_stack(1)
def sectorial_decompose(m) -> SectorialDecomposition:
    """Canonical congruence diagonalization A = X diag(e^{i theta_j}) X*.

    With H = Re A (required positive definite) and K = Im A, the angles are
    atan of the eigenvalues of H^{-1/2} K H^{-1/2}; column j of H^{1/2} U is
    rescaled by cos(theta_j)^{-1/2} so the diagonal unitary carries all the
    phase and X Z X* reproduces A.
    """
    re, im = linalg.cartesian_split(m)
    hw, hv = np.linalg.eigh(re)
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
    d, u = np.linalg.eigh((c + linalg.adjoint(c)) / 2.0)
    thetas = np.arctan(d)
    x = (root @ u) / np.sqrt(np.cos(thetas))[:, None, :]
    order = np.argsort(-thetas, axis=-1, kind="stable")
    return SectorialDecomposition(np.take_along_axis(x, order[:, None, :], axis=-1),
                                  np.take_along_axis(thetas, order, axis=-1))


@linalg.matrix_or_stack(1)
def sector_angle(m) -> float | list[float]:
    """Half-angle of the smallest sector containing W(A); a list of T for a stack."""
    return [float(a) for a in sectorial_decompose(m).angle]


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
