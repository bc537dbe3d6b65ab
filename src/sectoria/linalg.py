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
    overflow or underflow, is summed again from its entries over their largest."""
    low, high = _DIRECT_NORMS
    v = m.reshape(len(m), -1)
    with np.errstate(over="ignore"):
        f = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        norms = f.tolist()  # Python's min and max beat numpy's on the few norms of most calls
        if low < min(norms) and max(norms) < high or not v.any():
            return f
        redo = ~((f > low) & (f < high)) & ((f != 0.0) | v.any(axis=-1))
        scale = np.abs(v[redo]).max(axis=-1)
        scale[~(scale < np.inf)] = 1.0  # a non-finite row, as it is
        w = v[redo] / scale[:, None]
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
    t, n = len(h), h.shape[-1]
    m = h.copy()
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
    decides what the Cholesky certificate does not clear."""
    floor = PD_RTOL * scale
    return _cholesky_clears(h, floor, scale) or bool((np.linalg.eigvalsh(h)[:, 0] > floor).all())


@matrix_or_stack(1)
def accretive_parts(m) -> CartesianPair:
    """The Cartesian parts (Re A, Im A), after checking that Re A is
    positive definite."""
    parts = cartesian_split(m)
    if not positive_definite_stack(parts.re, frobenius_stack(m)):
        raise NotAccretiveError("real part of A is not positive definite")
    return parts


def _require_pivots(pivot_abs, scale) -> None:
    """Reject a pivot magnitude below ``PIVOT_RTOL * ||A||_F`` (or NaN), and
    any pivot of a zero matrix; elementwise for matching arrays."""
    if not ((pivot_abs >= PIVOT_RTOL * scale) & (scale != 0.0)).all():
        raise SingularMatrixError(
            f"pivot below {PIVOT_RTOL:g} * ||A||_F; matrix is numerically singular"
        )


@functools.cache
def _lapack():
    """SciPy's complex ``getrf`` and ``getrs``.  SciPy is imported on the
    first call, so a run whose solves are all certified never loads it."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _lu_factor(m: np.ndarray):
    """LU with partial pivoting; rejects pivots below the relative threshold."""
    lu, piv, _ = _lapack()[0](m)
    _require_pivots(np.abs(lu.diagonal()).min(), frobenius(m))
    return lu, piv


# Kept beside solve_stack: perfbench traces each solve of one matrix as one solve call.
def solve(a, b) -> np.ndarray:
    """Solve A X = B via LU with partial pivoting, returned column-major, as
    LAPACK returns it.  Where ``_gesv_certified`` allows, numpy's ``gesv``
    solves it; otherwise SciPy's ``getrf`` and ``getrs`` do, and raise."""
    m = as_square_matrix(a)
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim == 2 and _gesv_certified(m[None], b[None]):
        return np.asfortranarray(np.linalg.solve(m, b))
    lu, piv = _lu_factor(m)
    return _lapack()[1](lu, piv, b)[0]


def inverse(a) -> np.ndarray:
    """Inverse of A: ``solve`` against the identity."""
    m = as_square_matrix(a)
    return solve(m, np.eye(m.shape[0], dtype=np.complex128))


def _column_major_stack(shape) -> np.ndarray:
    """An empty (T, r, c) stack whose matrices are column-major, as LAPACK returns them."""
    return np.empty((shape[0], shape[2], shape[1]), dtype=np.complex128).swapaxes(1, 2)


# Above this order a solve that ``_gesv_certified`` clears, which factors
# each matrix twice, costs more than the LAPACK call that it saves.
DET_CERTIFICATE_MAX_ORDER = 15


def _log_sigma_min_bound(log_det, log_norm, n: int):
    """log of a lower bound on sigma_min of an n-by-n matrix A, from
    log|det A| and log ||A||_F: log(|det A| (n - 1)^((n-1)/2) / ||A||_F^(n-1)).

    |det A| is the product of the singular values, so sigma_min(A) is
    |det A| over the product of the other n - 1.  By the AM-GM inequality
    that product is at most (s / (n - 1))^((n-1)/2), where s, the sum of
    their squares, is at most ||A||_F^2; hence the bound.  With log|det A|
    from ``slogdet``, a backward-stable LU, it holds for A plus a relative
    perturbation of about n eps.  The logs may be Python floats or arrays; a
    log of -inf or NaN gives -inf or NaN, which clears no ``bound >= x``.
    """
    return log_det + (n - 1) / 2 * math.log(max(n - 1, 1)) - (n - 1) * log_norm


def _gesv_certified(m: np.ndarray, b: np.ndarray) -> bool:
    """May one ``np.linalg.solve`` solve the (T, n, n) stack ``m`` against
    the (T, n, k) stack ``b`` in place of ``solve``'s ``getrf`` and ``getrs``?

    Yes if n is at most ``DET_CERTIFICATE_MAX_ORDER``, k is at least 2, and
    ``_log_sigma_min_bound`` shows that every matrix passes ``_lu_factor``'s
    pivot test.  ``gesv`` is ``getrf`` then ``getrs``, so it gives their
    bits, but not for one right-hand side, where ``getrs`` takes another
    route.  Partial pivoting keeps |l_ij| <= sqrt(2), so ||L||_2 <= n, and
    every pivot of an n-by-n A is |u_kk| >= sigma_min(U) >= sigma_min(A) / n.
    A matrix whose bound is at least 2 n PIVOT_RTOL ||A||_F therefore
    passes; the factor 2 covers rounding.  ``slogdet`` factors with
    ``getrf``, as ``_lu_factor`` does.

    ||A||_F^2 comes from one plain ``vecdot``.  A square whose norm lies
    outside ``_DIRECT_NORMS``, where ``frobenius_stack`` would sum again, may
    have lost its small terms to underflow, or be inf or NaN; it fails, and
    leaves the matrix to LAPACK.  A stack of one is tested on Python floats,
    which are cheaper there than arrays.
    """
    n = m.shape[-1]
    if n > DET_CERTIFICATE_MAX_ORDER or b.shape[-1] < 2:
        return False
    v = m.reshape(len(m), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.vecdot(v, v).real
    low, high = _DIRECT_NORMS
    least = math.log(2 * n * PIVOT_RTOL)
    if len(m) == 1:
        square = squares.item()
        if not low * low < square < high * high:
            return False
        log_norm = math.log(square) / 2
        return _log_sigma_min_bound(np.linalg.slogdet(m)[1].item(), log_norm, n) - log_norm >= least
    if not ((squares > low * low) & (squares < high * high)).all():
        return False
    log_norms = np.log(squares) / 2
    return bool((_log_sigma_min_bound(np.linalg.slogdet(m)[1], log_norms, n) - log_norms >= least).all())


def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve`` for each pair of matrices of two stacks, with ``solve``'s bits.

    A stack of more than one matrix that ``_gesv_certified`` clears is
    solved by one ``np.linalg.solve``.  Any other stack is solved one matrix
    at a time, so that the first failing matrix raises; a stack of one is
    thus one ``solve`` call.
    """
    out = _column_major_stack(b.shape)
    m = np.asarray(a, dtype=np.complex128)
    if len(m) > 1 and _gesv_certified(m, b):
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


def _schur_complement_stack(m: np.ndarray, p: int) -> np.ndarray:
    """A22 - A21 A11^{-1} A12 for each matrix of a stack split after row and
    column p, on the row-major blocks that BLAS sees for one matrix."""
    m = np.ascontiguousarray(m)
    return m[:, p:, p:] - m[:, p:, :p] @ solve_stack(m[:, :p, :p], m[:, :p, p:])


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
        return np.concatenate([_pivot_magnitudes(m[:, :h, :h], scale),
                               _pivot_magnitudes(_schur_complement_stack(m, h), scale)], axis=-1)
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
