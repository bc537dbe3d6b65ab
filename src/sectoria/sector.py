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


def _rotated_parts(m: np.ndarray, betas) -> np.ndarray:
    """Re(e^{i beta} A) of each matrix of the stack ``m`` for each rotation
    beta, shape (len(betas), T, n, n): (P + P*)/2 with P = w A and w = cos
    beta + i sin beta.  P*, formed in one spare buffer, has the bits of
    conj(w) A*, so each part has the bits of (w A + conj(w) A*)/2."""
    parts = np.empty((len(betas), *m.shape), dtype=np.complex128)
    spare = np.empty(m.shape, dtype=np.complex128)
    for part, beta in zip(parts, betas):
        np.multiply(complex(math.cos(beta), math.sin(beta)), m, out=part)
        part += np.conjugate(part, out=spare).swapaxes(-1, -2)
    parts /= 2.0
    return parts


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


# The norms ||A||_F at which every rounding error of _edges_clear is
# relative: none of its entries, products or Cholesky pivots underflows or
# overflows.
_EDGE_NORMS = (2.0**-970, 2.0**970)


def _edges_clear(m: np.ndarray, alpha: float, tol: float, scale: np.ndarray) -> bool:
    """Does every matrix of the stack ``m`` pass all three of in_sector's
    tests, as shown from its two edge parts alone?  ``scale`` holds ||A||_F.

    With beta = pi/2 - alpha and w = cos beta + i sin beta as the rotations
    round them, the edge parts are R+ = Re(w A) and R- = Re(conj(w) A), and
    R+ + R- = 2 cos beta Re A exactly, so by Weyl's inequality
    lambda_min(Re A) >= (lambda_min R+ + lambda_min R-) / (2 cos beta).
    One Cholesky certificate of the 2T parts, shifted in place in the one
    buffer that holds them, clears R+ at its own floor -tol ||A||_F and R-
    at max(-tol, tol + 2 cos beta PD_RTOL + c eps) ||A||_F.  That is at
    least R-'s own floor, and the two floors sum to at least (2 cos beta
    PD_RTOL + c eps) ||A||_F.

    The term c = 10 covers rounding, with u = eps / 2.  Each computed part
    is within (sqrt 5 + 1) u ||A||_F of its exact value, in the Frobenius
    norm: one complex product per entry (Higham, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.5) and one sum.  The computed Re A, (A +
    A*)/2, is within u ||A||_F of the exact one, and 2 cos beta <= 2.  So
    the computed parts sum to 2 cos beta times the computed Re A within 4.3
    eps ||A||_F in the 2-norm.  Rounding the floors costs at most 2 eps
    ||A||_F where |tol| < 1; a larger |tol| never clears R- of a nonzero
    matrix.  That leaves 3.7 eps ||A||_F for the strict inequality.  The
    certificate puts each part's least eigenvalue 6 n^1.5 eps ||A||_F above
    its floor (see ``linalg._cholesky_clears``).  Those two margins cover
    the backward error of ``eigvalsh`` on each part, and on Re A that
    error times 2 cos beta.  So ``eigvalsh`` would pass all three tests.
    False decides nothing.  A stack with a norm outside ``_EDGE_NORMS`` is
    not tried.
    """
    low, high = _EDGE_NORMS
    if not ((scale > low) & (scale < high)).all():
        return False
    beta = math.pi / 2 - alpha
    parts = _rotated_parts(m, (beta, -beta))
    floors = np.array([[-tol], [max(-tol, tol + 2 * math.cos(beta) * linalg.PD_RTOL + 10 * linalg._EPS)]]) * scale
    return linalg._cholesky_clears(parts.reshape(-1, *m.shape[1:]), floors, scale)


def _first_failures(m: np.ndarray, alpha: float, tol: float, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts Re(e^{i beta} A) of in_sector's three tests of each matrix
    of a stack, shape (3, T, n, n), and the index of each matrix's first
    failing test, 3 where all pass; ``scale`` holds ||A||_F.  One
    ``eigvalsh`` of the 3T parts applies the tests.  This is in_sector's
    route where ``_edges_clear`` does not clear, and the only route of
    ``sector_angle_bisect``, an independent oracle whose probes close in on
    the sector's edge, where most would not clear a certificate."""
    h = _rotated_parts(m, _rotations(alpha))
    # For tol = inf and A = 0 the floor -tol * ||A||_F is NaN, which every
    # eigenvalue passes, as it passes -inf.
    with np.errstate(invalid="ignore"):
        floors = np.array([[-tol], [-tol], [linalg.PD_RTOL]]) * scale
    lowest = np.linalg.eigvalsh(h.reshape(-1, *m.shape[1:]))[:, 0].reshape(3, -1)
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

    A stack whose two edge parts clear ``_edges_clear`` is inside, with Re
    A tested by Weyl's bound; any other takes ``_first_failures``, one
    ``eigvalsh`` of the three parts.  Every verdict and witness is that of
    ``eigvalsh`` on the three parts.
    """
    alpha = validate_sector_angle(alpha)
    scale = linalg.frobenius_stack(m)
    if _edges_clear(m, alpha, tol, scale):
        return [SectorMembership(True) for _ in m]
    h, first = _first_failures(m, alpha, tol, scale)
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


def _congruence(parts: linalg.CartesianPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cholesky factor L of H = Re A, C = L^{-1} K L^{-*} with K = Im A,
    and the angles theta = atan(eig C), sorted descending, of each matrix of
    a stack, from its Cartesian parts as ``linalg.accretive_parts`` returns
    them, H shown positive definite; nothing is tested here.

    A = L (I + iC) L*, and C = U diag(tan theta) U* is Hermitian by
    construction; only rounding breaks its symmetry, so it is symmetrized
    rather than tested.  The angles take ``eigvalsh`` alone.
    """
    factor = np.linalg.cholesky(parts.re)
    factor_inv = np.linalg.inv(factor)
    c = factor_inv @ parts.im @ linalg.adjoint(factor_inv)
    c = (c + linalg.adjoint(c)) / 2.0
    return factor, c, np.arctan(np.linalg.eigvalsh(c))[:, ::-1].copy()


@linalg.matrix_or_stack(1)
def sectorial_thetas(m) -> np.ndarray:
    """The angles theta_j of A = X diag(e^{i theta_j}) X*, sorted
    descending, without X: shape (n,) for a matrix, (T, n) for a stack.
    Re A must pass ``linalg.accretive_parts``, whose
    :class:`NotAccretiveError` is a :class:`NotSectorialError`."""
    return _congruence(linalg.accretive_parts(m))[2]


@linalg.matrix_or_stack(1)
def sectorial_decompose(m) -> SectorialDecomposition:
    """Canonical congruence diagonalization A = X diag(e^{i theta_j}) X*.

    With Re A = L L*, shown positive definite by ``linalg.accretive_parts``,
    and C = L^{-1} Im(A) L^{-*} = U diag(tan theta) U*, the angles are those
    of ``sectorial_thetas`` and X = L U diag(cos theta)^{-1/2}: the diagonal
    unitary carries all the phase and X Z X* reproduces A.  The ``eigh`` of
    C gives U only; its columns, in ascending order of eigenvalue, are
    reversed to match the thetas.
    """
    factor, c, thetas = _congruence(linalg.accretive_parts(m))
    u = np.linalg.eigh(c)[1][:, :, ::-1]
    return SectorialDecomposition((factor @ u) / np.sqrt(np.cos(thetas))[:, None, :], thetas)


@linalg.matrix_or_stack(1)
def sector_angle(m) -> float | list[float]:
    """Half-angle of the smallest sector containing W(A), the ``half_angle``
    of ``sectorial_thetas``; a list of T for a stack."""
    return [float(a) for a in half_angle(sectorial_thetas(m))]


def sector_angle_bisect(a) -> float:
    """Bisection of ``in_sector``'s three-part route, ``_first_failures``,
    over [0, pi/2); independent of the decomposition route."""
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
    matching boundary point.  One stacked ``eigh`` solves the parts of a
    chunk of directions, ``linalg.STACK_ENTRIES`` entries at most.
    """
    mat = linalg.as_square_matrix(a)
    if m_points < 3:
        raise ValueError("at least 3 boundary points are required")
    points = np.empty(m_points, dtype=np.complex128)
    betas = [-2.0 * math.pi * t / m_points for t in range(m_points)]
    step = max(1, linalg.STACK_ENTRIES // mat.size)
    for lo in range(0, m_points, step):
        _, v = np.linalg.eigh(_rotated_parts(mat[None], betas[lo:lo + step])[:, 0])
        for t, top in enumerate(v[:, :, -1], lo):
            points[t] = top.conj() @ mat @ top
    return points
