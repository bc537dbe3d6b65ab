"""Dense complex matrix kernel.

Every operation is a pure function of its inputs and never mutates its
arguments.  All tolerances are relative to the Frobenius norm, so the
contracts are invariant under the rescaling A -> c*A.

A function decorated with ``matrix_or_stack`` takes one n-by-n matrix per
operand, or a stack of T matrices of one size, an array of shape (T, n, n),
and gives each matrix of a stack exactly the bits that it gives that matrix
alone: a matrix is evaluated as a stack of one, by the same code.  A
precondition that fails for any matrix of a stack raises, naming the first
such matrix's failure.  Only functions that take stacks alone keep the
``*_stack`` name: helpers of the stacked kernels, the Hermitian eigensolver
``hermitian_eigen_stack``, and the stacked forms of ``frobenius`` and
``solve``.
"""

from __future__ import annotations

import contextvars
import functools
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NotAccretiveError, NotConvergedError, SingularMatrixError

# Pivot magnitudes below PIVOT_RTOL * ||A||_F count as singular.
PIVOT_RTOL = 1e-13
# Residual / orthonormality contract of the Hermitian eigensolver.
EIGEN_RTOL = 1e-11
# How far from exact symmetry a "Hermitian" input may be.
HERMITIAN_RTOL = 1e-10
# A Hermitian matrix counts as positive definite when its minimum eigenvalue
# exceeds PD_RTOL times the reference scale.
PD_RTOL = 1e-12

_TINY = np.finfo(float).tiny
_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _square_and_finite(m: np.ndarray, shape: tuple) -> np.ndarray:
    """``m``, after checking that ``shape``, the shape of its matrices, is
    square and nonempty, and that every entry is finite."""
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square_matrix(a) -> np.ndarray:
    """Coerce ``a`` to an n-by-n complex128 array, validating shape and finiteness."""
    m = np.array(a, dtype=np.complex128, order="C")
    return _square_and_finite(m, m.shape)


def _as_square_stack(a) -> np.ndarray:
    """Coerce ``a`` to a (T, n, n) complex128 stack, copying only to convert,
    and validate it as ``as_square_matrix`` validates each of its matrices."""
    m = np.asarray(a, dtype=np.complex128)
    return _square_and_finite(m, m.shape[1:])


# True while a function decorated by ``matrix_or_stack`` runs on operands
# that it has validated.  The stacks it passes to the decorated functions it
# calls are built from them, so those calls take them as they are.
_VALIDATED = contextvars.ContextVar("validated", default=False)


def _run_validated(kernel, stacks: list, rest: tuple, kwargs: dict):
    token = _VALIDATED.set(True)
    try:
        return kernel(*stacks, *rest, **kwargs)
    finally:
        _VALIDATED.reset(token)


def matrix_or_stack(operands: int):
    """Let a function written for (T, n, n) stacks take one matrix per operand.

    This is the one place that tells a matrix from a stack.  The first of
    the function's leading ``operands`` arguments decides.  A matrix is
    validated by ``as_square_matrix``, as are the other operands, and the
    function runs on their stack of one; the result is entry 0 of what it
    returns, or of each field of a named tuple.  A stack is passed on with
    the other operands, which must be stacks of the same length, each as a
    complex128 array whose matrices pass the same checks, with the same
    messages.  Operands are validated once, by the outermost decorated call.
    """

    def wrap(kernel):
        @functools.wraps(kernel)
        def either(*args, **kwargs):
            rest = args[operands:]
            if np.ndim(args[0]) != 3:
                stacks = [as_square_matrix(m)[None] for m in args[:operands]]
                result = _run_validated(kernel, stacks, rest, kwargs)
                if isinstance(result, tuple):
                    return result._make(field[0] for field in result)
                return result[0]
            if any(np.ndim(m) != 3 for m in args[1:operands]):
                raise ValueError("operands must be all matrices or all (T, n, n) stacks")
            lengths = [len(m) for m in args[:operands]]
            if len(set(lengths)) > 1:
                raise ValueError(f"operand stacks differ in length: {' and '.join(map(str, lengths))}")
            if _VALIDATED.get():
                return kernel(*args, **kwargs)
            return _run_validated(kernel, [_as_square_stack(m) for m in args[:operands]], rest, kwargs)

        return either

    return wrap


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


# Kept beside frobenius_stack: this takes any array, and runs per matrix in the LU of solve.
def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def frobenius_stack(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, in the row-major order of
    ``frobenius`` on a C-ordered matrix: np.linalg.norm sums the strided real
    and imaginary parts of the raveled matrix with two dot products, and
    ``vecdot`` on the strided parts of each raveled row does the same."""
    v = m.reshape(len(m), -1)
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


class CartesianPair(NamedTuple):
    """Hermitian halves of the split A = re + 1j*im."""

    re: np.ndarray
    im: np.ndarray


@matrix_or_stack(1)
def cartesian_split(m) -> CartesianPair:
    """Return ((A + A*)/2, (A - A*)/(2i)); both parts are exactly Hermitian."""
    mh = adjoint(m)
    return CartesianPair((m + mh) / 2.0, (m - mh) / 2.0j)


class HermitianEigenResult(NamedTuple):
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@matrix_or_stack(1)
def as_hermitian(m) -> np.ndarray:
    """Symmetrize H to (H + H*)/2 after checking that it deviates from exact
    symmetry by at most ``HERMITIAN_RTOL * ||H||_F``."""
    limit = HERMITIAN_RTOL * np.maximum(frobenius_stack(m), _TINY)
    if np.any(frobenius_stack(m - adjoint(m)) > limit):
        raise ValueError("input is not Hermitian within tolerance")
    return (m + adjoint(m)) / 2.0


def positive_definite_stack(h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """For each exactly Hermitian matrix of ``h``: is its minimum eigenvalue
    above ``PD_RTOL`` times its entry of ``scale``?"""
    return np.linalg.eigvalsh(h)[:, 0] > PD_RTOL * scale


@matrix_or_stack(1)
def accretive_parts(m) -> CartesianPair:
    """The Cartesian parts (Re A, Im A), after checking that Re A is
    positive definite."""
    parts = cartesian_split(m)
    if not np.all(positive_definite_stack(parts.re, frobenius_stack(m))):
        raise NotAccretiveError("real part of A is not positive definite")
    return parts


def hermitian_eigen_stack(h: np.ndarray) -> HermitianEigenResult:
    """Eigendecomposition H = V diag(w) V* of each exactly Hermitian matrix
    of a stack (eigh reads one triangle)."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NotConvergedError(str(exc)) from exc
    return HermitianEigenResult(w, v)


def _require_pivots(pivot_abs, scale) -> None:
    """Reject a pivot magnitude below ``PIVOT_RTOL * ||A||_F`` (or NaN), and
    any pivot of a zero matrix; elementwise for matching arrays."""
    if not ((pivot_abs >= PIVOT_RTOL * scale) & (scale != 0.0)).all():
        raise SingularMatrixError(
            f"pivot below {PIVOT_RTOL:g} * ||A||_F; matrix is numerically singular"
        )


def _lu_factor(m: np.ndarray):
    """LU with partial pivoting; rejects pivots below the relative threshold."""
    lu, piv, _ = _GETRF(m)
    _require_pivots(np.abs(lu.diagonal()).min(), frobenius(m))
    return lu, piv


# Kept beside solve_stack: perfbench traces each LAPACK solve as one solve call of one matrix.
def solve(a, b) -> np.ndarray:
    """Solve A X = B via LU with partial pivoting."""
    lu, piv = _lu_factor(as_square_matrix(a))
    return _GETRS(lu, piv, np.asarray(b, dtype=np.complex128))[0]


def inverse(a) -> np.ndarray:
    """Inverse of A: ``solve`` against the identity."""
    m = as_square_matrix(a)
    return solve(m, np.eye(m.shape[0], dtype=np.complex128))


def _column_major_stack(shape) -> np.ndarray:
    """An empty (T, r, c) stack whose matrices are column-major, as LAPACK returns them."""
    return np.empty((shape[0], shape[2], shape[1]), dtype=np.complex128).swapaxes(1, 2)


# Stacks of more than one matrix up to this order may be solved as one batch.
# It factors each matrix twice, and above this order that costs more than the
# LAPACK call per matrix that it saves.
BATCHED_SOLVE_MAX_ORDER = 15


def _pivots_pass(m: np.ndarray) -> bool:
    """Does every matrix of a stack pass ``_lu_factor``'s pivot test?

    True only if its determinant shows that each does.  Partial pivoting
    keeps |l_ij| <= sqrt(2), so ||L||_2 <= n, and every pivot of an n-by-n A
    is |u_kk| >= sigma_min(U) >= sigma_min(A) / n.  By the AM-GM inequality
    on the other n - 1 squared singular values, whose sum is at most
    ||A||_F^2, sigma_min(A) >= |det A| (n - 1)^((n-1)/2) / ||A||_F^(n-1).
    A matrix with |det A| (n - 1)^((n-1)/2) >= 2 n PIVOT_RTOL ||A||_F^n
    therefore passes; the factor 2 covers rounding, since the computed
    factors are exact for A plus a perturbation of relative size about
    n eps.  ``slogdet`` factors with ``getrf``, as ``_lu_factor`` does.  A
    zero matrix, or one with a non-finite entry, never shows it: its margin
    below is NaN or -inf.
    """
    n = m.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.linalg.slogdet(m)[1] - n * np.log(frobenius_stack(m))
    return bool((margin >= np.log(2 * n * PIVOT_RTOL) - (n - 1) / 2 * np.log(max(n - 1, 1))).all())


def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve`` for each pair of matrices of two stacks, with ``solve``'s bits.

    A stack of more than one matrix of order up to
    ``BATCHED_SOLVE_MAX_ORDER``, each with at least two right-hand sides and
    each shown by ``_pivots_pass`` to be nonsingular, is solved by one
    ``np.linalg.solve``, whose ``gesv`` is ``getrf`` then ``getrs``.
    (``getrs`` takes another route for a single right-hand side, which
    ``gesv`` does not share.)  Any other stack is solved one matrix at a
    time, so that the first failing matrix raises.
    """
    out = _column_major_stack(b.shape)
    m = np.asarray(a, dtype=np.complex128)
    if len(m) > 1 and m.shape[-1] <= BATCHED_SOLVE_MAX_ORDER and b.shape[-1] > 1 and _pivots_pass(m):
        out[...] = np.linalg.solve(m, b)
        return out
    for t in range(len(m)):
        out[t] = solve(m[t], b[t])
    return out


@matrix_or_stack(1)
def log_abs_determinant(m) -> float | np.ndarray:
    """log|det A| as the sum of log|u_jj| over one pivoted LU (-inf if singular)."""
    return np.linalg.slogdet(m)[1]


def multiply_unfused(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for complex arrays with each part rounded as
    (xr yr - xi yi) + i (xr yi + xi yr) with no fused multiply-add.

    numpy takes this scalar route for a broadcast product with a single
    element, and its SIMD loop, which rounds differently, for longer ones; a
    stack of such single-element products uses this to keep their bits.
    """
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return (xr * yr - xi * yi) + 1j * (xr * yi + xi * yr)


# Blocks up to this order are eliminated one column at a time; a larger one
# is split in two, coupled by two triangular solves and one matrix product.
_ELIMINATION_BLOCK = 32


def _eliminate(u: np.ndarray, scale: np.ndarray, pivots: np.ndarray) -> None:
    """Overwrite each square matrix of the stack view ``u`` with its LU
    factors without pivoting (unit lower L below the diagonal, U on and above
    it) and store the pivot magnitudes |u_jj| in ``pivots``, each at least
    ``PIVOT_RTOL`` times its matrix's entry of ``scale``, the norm ||A||_F.

    A block of order up to ``_ELIMINATION_BLOCK`` is checked once it is
    eliminated, before anything else reads it; a pivot below the threshold
    may leave inf or NaN in that block, which the check then rejects.
    """
    n = u.shape[-1]
    if n <= _ELIMINATION_BLOCK:
        with np.errstate(all="ignore"):
            for j in range(n - 1):
                column = u[:, j + 1:, j]
                column /= u[:, j, j, None]
                row = u[:, j, None, j + 1:]
                if j == n - 2:
                    u[:, j + 1:, j + 1:] -= multiply_unfused(column[:, :, None], row)
                else:
                    u[:, j + 1:, j + 1:] -= column[:, :, None] * row
        diagonal = np.diagonal(u, axis1=1, axis2=2)
        # abs() of a complex scalar, which np.abs of an array does not match
        pivots[:] = np.hypot(diagonal.real, diagonal.imag)
        _require_pivots(pivots, scale[:, None])
        return
    h = n // 2
    _eliminate(u[:, :h, :h], scale, pivots[:, :h])
    for t in range(len(u)):
        u[t, :h, h:] = scipy.linalg.solve_triangular(
            u[t, :h, :h], u[t, :h, h:], lower=True, unit_diagonal=True, check_finite=False
        )
        u[t, h:, :h] = scipy.linalg.solve_triangular(
            u[t, :h, :h], u[t, h:, :h].T, trans="T", check_finite=False
        ).T
    u[:, h:, h:] -= u[:, h:, :h] @ u[:, :h, h:]
    _eliminate(u[:, h:, h:], scale, pivots[:, h:])


@matrix_or_stack(1)
def log_abs_leading_minors(m) -> np.ndarray:
    """log|det A_k| for k = 1..n from one elimination without pivoting.

    Without row exchanges the k-th pivot is the scalar Schur complement
    det A_k / det A_{k-1}, so the logs of the pivot magnitudes sum to the
    leading minors.  Elimination without pivoting is stable when Re A is
    positive definite (Golub & Van Loan, Matrix Computations, 4.4); a pivot
    below ``PIVOT_RTOL * ||A||_F`` raises :class:`SingularMatrixError`.
    """
    u = np.array(m, dtype=np.complex128, order="C")  # a fresh copy, eliminated in place
    pivots = np.empty(u.shape[:2])
    _eliminate(u, frobenius_stack(u), pivots)
    return np.cumsum(np.log(pivots), axis=-1)
