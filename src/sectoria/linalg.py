"""Dense complex matrix kernel.

Every public operation is a pure function of its inputs and never mutates
its arguments (``_cholesky_clears`` shifts the buffers handed to it).  All
tolerances are relative to the Frobenius norm, so the contracts are
invariant under the rescaling A -> c*A.

A function decorated with ``matrix_or_stack`` takes one n-by-n matrix per
operand, or a stack of T matrices of one size, an array of shape (T, n, n),
and gives each matrix of a stack exactly the bits that it gives that matrix
alone: a matrix is evaluated as a stack of one, by the same code.  A
precondition that fails for any matrix of a stack raises, naming the first
such matrix's failure.  Only functions that take stacks alone keep the
``*_stack`` name: helpers of the stacked kernels, ``frobenius_stack``, of
which ``frobenius`` is the stack of one, and the stacked form of ``solve``.
"""

from __future__ import annotations

import contextvars
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import NotAccretiveError, SingularMatrixError

# Pivot magnitudes below PIVOT_RTOL * ||A||_F count as singular.
PIVOT_RTOL = 1e-13
# How far from exact symmetry a "Hermitian" input may be.
HERMITIAN_RTOL = 1e-10
# A Hermitian matrix counts as positive definite when its minimum eigenvalue
# exceeds PD_RTOL times the reference scale.
PD_RTOL = 1e-12
# The most entries of one batched LAPACK call, 256 KiB of complex matrices:
# a chunk of trials' operands, or a chunk of boundary directions' parts.
STACK_ENTRIES = 2**14

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


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
    the other operands, which must be stacks of the same nonzero length, each
    as a complex128 array whose matrices pass the same checks, with the same
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
            if not lengths[0]:
                raise ValueError("expected a stack of at least one matrix, got an empty stack")
            if _VALIDATED.get():
                return kernel(*args, **kwargs)
            return _run_validated(kernel, [_as_square_stack(m) for m in args[:operands]], rest, kwargs)

        return either

    return wrap


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


# A norm in this range is summed from the squares of the entries as they
# are: no square overflows, and those that underflow are too small to count.
_DIRECT_NORMS = (1e-150, 1e150)


def frobenius_stack(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, in the row-major order of
    np.linalg.norm on a C-ordered matrix: np.linalg.norm sums the strided real
    and imaginary parts of the raveled matrix with two dot products, and
    ``vecdot`` on the strided parts of each raveled row does the same.  A
    nonzero matrix with a norm outside ``_DIRECT_NORMS``, where squares may
    overflow or underflow, is summed again from its entries over their
    largest.  A matrix with an infinite entry has the norm inf, and one with
    a NaN entry NaN, as their first sum gives."""
    low, high = _DIRECT_NORMS
    v = m.reshape(len(m), -1)
    with np.errstate(over="ignore"):
        f = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        norms = f.tolist()  # Python's min and max beat numpy's on the few norms of most calls
        if low < min(norms) and max(norms) < high or not v.any():
            return f
        redo = np.flatnonzero(~((f > low) & (f < high)) & ((f != 0.0) | v.any(axis=-1)))
        scale = np.abs(v[redo]).max(axis=-1)
        redo, scale = redo[scale < np.inf], scale[scale < np.inf]
        w = v[redo]
        # Divided as a real view: a complex division takes 1 / scale, which overflows if subnormal.
        np.divide(w.view(w.real.dtype), scale[:, None], out=w.view(w.real.dtype))
        f[redo] = scale * np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
    return f


def frobenius(a) -> float:
    """Frobenius norm of any array: ``frobenius_stack`` on the stack of one
    row of its entries, in memory order, as np.linalg.norm takes them."""
    return float(frobenius_stack(np.ravel(a, order="K")[None])[0])


class CartesianPair(NamedTuple):
    """Hermitian halves of the split A = re + 1j*im."""

    re: np.ndarray
    im: np.ndarray


@matrix_or_stack(1)
def cartesian_split(m) -> CartesianPair:
    """Return ((A + A*)/2, (A - A*)/(2i)); both parts are exactly Hermitian."""
    mh = adjoint(m)
    return CartesianPair((m + mh) / 2.0, (m - mh) / 2.0j)


@matrix_or_stack(1)
def as_hermitian(m) -> np.ndarray:
    """Symmetrize H to (H + H*)/2 after checking that it deviates from exact
    symmetry by at most ``HERMITIAN_RTOL * ||H||_F``."""
    limit = HERMITIAN_RTOL * np.maximum(frobenius_stack(m), _TINY)
    if np.any(frobenius_stack(m - adjoint(m)) > limit):
        raise ValueError("input is not Hermitian within tolerance")
    return (m + adjoint(m)) / 2.0


def _cholesky_clears(h: np.ndarray, floor, norm) -> bool:
    """Would ``eigvalsh`` put the least eigenvalue of every matrix of the
    exactly Hermitian (T, n, n) stack ``h`` above its ``floor``?  ``floor``
    and ``norm``, a bound on ||h||_F, broadcast to one entry per matrix.
    ``h`` is a buffer that the caller hands over: a C-contiguous stack is
    shifted in place, and any other in a copy.

    True only if one ``np.linalg.cholesky`` factors every M = h - (floor +
    margin) I, with margin 8 n^1.5 eps B and B = norm + sqrt(n) |floor| >=
    ||M||_F.  A completed Cholesky gives L L* = M + dM with ||dM||_2 <=
    gamma_{n+1} trace(L L*) <= ~(n+1) sqrt(n) eps ||M||_F (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 10.5); that and the rounding
    of M's diagonal spend 2 n^1.5 eps B of the margin.  The other 6 n^1.5
    eps B covers the backward error of ``eigvalsh``, p(n) eps ||h||_2 with
    p(n) about n, as the callers compare with what it computes.  False
    decides nothing.  numpy raises ``LinAlgError`` if any matrix fails; a
    NaN pivot, which some LAPACK builds pass, leaves a NaN on L's diagonal.
    """
    m = np.ascontiguousarray(h)  # so that the reshape below is a view
    t, n = len(m), m.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        shift = floor + 8 * n**1.5 * _EPS * (norm + math.sqrt(n) * np.abs(floor))
        m.reshape(t, -1)[:, ::n + 1] -= np.reshape(shift, (-1, 1))
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor.reshape(t, -1)[:, ::n + 1]).all())


def positive_definite_stack(h: np.ndarray, scale: np.ndarray) -> bool:
    """Is the least eigenvalue of every exactly Hermitian matrix of ``h``
    above ``PD_RTOL`` times its ``scale``, a bound on its norm?  ``eigvalsh``
    decides what the Cholesky certificate, on a copy, does not clear."""
    floor = PD_RTOL * scale
    return _cholesky_clears(h.copy(), floor, scale) or bool((np.linalg.eigvalsh(h)[:, 0] > floor).all())


@matrix_or_stack(1)
def accretive_parts(m) -> CartesianPair:
    """The Cartesian parts (Re A, Im A), after the package's one test that
    Re A is positive definite, its least eigenvalue above ``PD_RTOL *
    ||A||_F``.  On failure, one ``eigvalsh`` of the real parts names the
    least eigenvalue of the first failing matrix in a
    :class:`NotAccretiveError`."""
    parts = cartesian_split(m)
    scale = frobenius_stack(m)
    if not positive_definite_stack(parts.re, scale):
        lowest = np.linalg.eigvalsh(parts.re)[:, 0]
        fails = ~(lowest > PD_RTOL * scale)
        raise NotAccretiveError(f"real part is not positive definite (min eigenvalue {lowest[np.argmax(fails)]:.3e})")
    return parts


def _require_pivots(pivot_abs, scale) -> None:
    """Reject a pivot magnitude below ``PIVOT_RTOL * ||A||_F`` (or NaN), and
    any pivot of a zero matrix; elementwise for matching arrays."""
    if not ((pivot_abs >= PIVOT_RTOL * scale) & (scale != 0.0)).all():
        raise SingularMatrixError(
            f"pivot below {PIVOT_RTOL:g} * ||A||_F; matrix is numerically singular"
        )


def _require_invertible(m: np.ndarray) -> None:
    """Raise :class:`SingularMatrixError` if a matrix A of the (T, n, n)
    stack ``m`` is zero or ``np.linalg.svd`` puts sigma_min(A) below
    ``PIVOT_RTOL * ||A||_F``, or ``as_square_matrix``'s ``ValueError`` if A
    is not finite; the first failing matrix decides.

    One ``_cholesky_clears`` of the Hermitian parts H = (A + A*)/2 against
    f = PIVOT_RTOL ||A||_F first tries to clear the stack: sigma_min(A) >=
    lambda_min(H), as a unit x has ||Ax|| >= |x*Ax| >= x*Hx.  It clears only
    where lambda_min of the computed H, net of its Cholesky's rounding,
    exceeds f + 6 n^1.5 eps B with B >= ||A||_F.  That margin covers H's own
    rounding, eps ||A||_F, and the SVD's backward error, about n eps ||A||_2,
    so the SVD would clear A too; it decides what the certificate does not.
    The checks' Schur complements, of operands with Re A shown positive
    definite, clear.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # where A is not finite
        norms = frobenius_stack(m)
        floor = PIVOT_RTOL * norms
        if _cholesky_clears((m + adjoint(m)) / 2, floor, norms):
            return
    finite = np.isfinite(m).all(axis=(1, 2))
    sigma_min = np.full(len(m), np.nan)
    sigma_min[finite] = np.linalg.svd(m[finite], compute_uv=False)[:, -1]
    failed = ~((sigma_min >= floor) & (norms != 0.0))
    if failed.any():
        if not finite[failed.argmax()]:
            raise ValueError("matrix entries must be finite")
        raise SingularMatrixError(f"least singular value below {PIVOT_RTOL:g} * ||A||_F; "
                                  "matrix is numerically singular")


# Kept beside solve_stack: perfbench traces each solve of one matrix as one solve call.
def solve(a, b) -> np.ndarray:
    """Solve A X = B by numpy's ``gesv``, LU with partial pivoting, after
    ``_require_invertible``; returned column-major, as LAPACK returns it."""
    m = as_square_matrix(a)
    _require_invertible(m[None])
    return np.asfortranarray(np.linalg.solve(m, np.asarray(b, dtype=np.complex128)))


def inverse(a) -> np.ndarray:
    """Inverse of A: ``solve`` against the identity."""
    m = as_square_matrix(a)
    return solve(m, np.eye(m.shape[0], dtype=np.complex128))


def _gesv_stack(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One batched, untested ``np.linalg.solve``, column-major like ``solve``, with its bits."""
    out = np.empty((len(b), b.shape[2], b.shape[1]), dtype=np.complex128).swapaxes(1, 2)
    out[...] = np.linalg.solve(m, b)
    return out


def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve`` for each pair of matrices of two stacks, with its bits: one
    ``_require_invertible`` of the stack, then one ``_gesv_stack``.  A stack
    of one is one ``solve`` call."""
    m = np.asarray(a, dtype=np.complex128)
    if len(m) == 1:
        return solve(m[0], b[0])[None]
    _require_invertible(m)
    return _gesv_stack(m, b)


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


def _schur_complement_stack(m: np.ndarray, p: int, invertible: bool = False) -> np.ndarray:
    """A22 - A21 A11^{-1} A12 for each matrix of a stack split after row and
    column p, on the row-major blocks that BLAS sees for one matrix; A11 is
    tested by ``solve_stack`` unless the caller has shown it ``invertible``."""
    m = np.ascontiguousarray(m)
    x = (_gesv_stack if invertible else solve_stack)(m[:, :p, :p], m[:, :p, p:])
    return m[:, p:, p:] - m[:, p:, :p] @ x


# Blocks up to this order are eliminated one column at a time; a larger one
# is split in two at its Schur complement.
_ELIMINATION_BLOCK = 32


def _pivot_magnitudes(m: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The pivots |u_jj| of the LU without pivoting of each matrix of a
    stack, each at least ``PIVOT_RTOL`` times its entry of ``scale``.

    A block of order up to ``_ELIMINATION_BLOCK`` is eliminated on a copy
    and checked before anything else reads it; a pivot below the threshold
    may leave inf or NaN there, which the check then rejects.  A larger
    block A has the pivots of its leading half A11, then those of A/A11.
    """
    n = m.shape[-1]
    if n > _ELIMINATION_BLOCK:
        h = n // 2
        leading = _pivot_magnitudes(m[:, :h, :h], scale)  # tested before A/A11 is formed
        trailing = _pivot_magnitudes(_schur_complement_stack(m, h, invertible=True), scale)
        return np.concatenate([leading, trailing], axis=-1)
    u = np.array(m, dtype=np.complex128, order="C")  # a fresh copy, eliminated in place
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
    pivots = np.hypot(diagonal.real, diagonal.imag)
    _require_pivots(pivots, scale[:, None])
    return pivots


@matrix_or_stack(1)
def log_abs_leading_minors(m) -> np.ndarray:
    """log|det A_k| for k = 1..n from one elimination without pivoting.

    Without row exchanges the k-th pivot is the scalar Schur complement
    det A_k / det A_{k-1}, so the logs of the pivot magnitudes sum to the
    leading minors.  Elimination without pivoting is stable when Re A is
    positive definite (Golub & Van Loan, Matrix Computations, 4.4); a pivot
    below ``PIVOT_RTOL * ||A||_F`` raises :class:`SingularMatrixError`.
    """
    return np.cumsum(np.log(_pivot_magnitudes(m, frobenius_stack(m))), axis=-1)
