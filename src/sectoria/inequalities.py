"""Signed-slack checkers for the sectorial determinant and Schur-complement
inequality family.

Each checker validates its preconditions, evaluates both sides of one
inequality, and returns an :class:`InequalityReport` whose ``slack`` is
scale-free: scalar checks evaluate (LHS - RHS) / max(LHS, RHS) from log LHS
and log RHS, so products of determinants never overflow; Loewner checks
divide the minimum eigenvalue of LHS - RHS by ||LHS||_F.

Each ``check_NAME`` is written for stacks of T operands, arrays of shape
(T, n, n), and returns the list of T reports.  ``linalg.matrix_or_stack``
lets it take one matrix per operand as well, and then it returns the one
report of their stack of one.  A precondition that fails for any trial of a
stack raises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, schur, sector
from .errors import (
    NotAccretiveDissipativeError,
    NotPositiveDefiniteError,
    NotSectorialError,
)
# Not used here; perfbench/test_perfbench.py traces this binding site.
from .generators import gen_sectorial  # noqa: F401

DEFAULT_TOL = 1e-8
# Loewner differences must be Hermitian to this relative level before
# eigensolving; a violation indicates a checker bug, not a bad input.
HERMITIAN_GUARD = 1e-10
# log of the largest finite float: exp overflows above it.
_LOG_MAX = math.log(sys.float_info.max)
_LOG2 = math.log(2.0)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check with scale-free signed slack."""

    name: str
    kind: str  # "scalar" or "loewner"
    slack: float
    holds: bool
    tol: float
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _format_log(label: str, log_value: float) -> str:
    """``label=value``, or ``log_label=log value`` where the value is out of range."""
    if abs(log_value) > _LOG_MAX:
        return f"log_{label}={log_value:.12e}"
    return f"{label}={math.exp(log_value):.12e}"


def scalar_report(name: str, log_lhs: float, log_rhs: float, tol: float, detail: str = "") -> InequalityReport:
    """Report LHS >= RHS for positive sides given by their logs; ``detail``
    is appended to the two sides.  The slack (LHS - RHS) / max(LHS, RHS)
    increases with d = log LHS - log RHS and is evaluated from d alone."""
    d = float(log_lhs - log_rhs)
    slack = math.copysign(-math.expm1(-abs(d)), d)
    sides = f"{_format_log('lhs', log_lhs)} {_format_log('rhs', log_rhs)}"
    detail = f"{sides} {detail}" if detail else sides
    return InequalityReport(name, "scalar", slack, bool(slack >= -tol), float(tol), detail)


def loewner_reports(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float,
                    details: list[str] | None = None) -> list[InequalityReport]:
    """Report LHS >= RHS in the Loewner order for each pair of (T, n, n)
    stacks; ``details`` replaces the default detail of each report."""
    diff = lhs - rhs
    lhs_fro = linalg.frobenius_stack(lhs)
    scale = np.maximum(lhs_fro, _TINY)
    if np.any(linalg.frobenius_stack(diff - linalg.adjoint(diff)) > HERMITIAN_GUARD * scale):
        raise ValueError(f"{name}: difference matrix is not Hermitian")
    min_eig = np.linalg.eigvalsh((diff + linalg.adjoint(diff)) / 2.0)[:, 0]
    slack = min_eig / scale
    if details is None:
        details = [f"min_eig={e:.6e} lhs_fro={f:.6e}" for e, f in zip(min_eig, lhs_fro)]
    return [
        InequalityReport(name, "loewner", float(x), bool(x >= -tol), float(tol), d)
        for x, d in zip(slack, details)
    ]


# What a check returns: one report for matrices, a list of T for (T, n, n) stacks.
Reports = InequalityReport | list[InequalityReport]


def _require_pd(m: np.ndarray, what: str) -> np.ndarray:
    """Validate a stack of Hermitian positive definite operands; returns them symmetrized."""
    try:
        sym = linalg.as_hermitian(m)
    except ValueError as exc:
        raise NotPositiveDefiniteError(f"{what} must be Hermitian positive definite") from exc
    if not linalg.positive_definite_stack(sym, linalg.frobenius_stack(m)):
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    return sym


def _require_in_sector(m: np.ndarray, alpha: float, what: str) -> None:
    """Require membership at ``sector.MEMBERSHIP_TOL``, whatever the slack
    tolerance of the check."""
    for res in sector.in_sector(m, alpha):
        if not res:
            w = res.witness
            extra = f" (witness point {w.point!r})" if w is not None else ""
            raise NotSectorialError(
                f"{what} is not inside the sector of half-angle {alpha:.6g}{extra}"
            )


def _require_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"operands must share a dimension, got {a.shape[1:]} and {b.shape[1:]}")


def _require_pd_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate stacks of PD operands A and B of one size; returns them symmetrized."""
    ha = _require_pd(a, "A")
    hb = _require_pd(b, "B")
    _require_pair(ha, hb)
    return ha, hb


def _require_sectorial_pair(a: np.ndarray, b: np.ndarray, alpha: float) -> float:
    """Validate alpha, then stacks of A and B in its sector and of one size;
    returns alpha as a float."""
    alpha = sector.validate_sector_angle(alpha)
    _require_in_sector(a, alpha, "A")
    _require_in_sector(b, alpha, "B")
    _require_pair(a, b)
    return alpha


def log_ratio_sum_rhs_stack(log_an, x: np.ndarray, with_sqrt: bool) -> np.ndarray:
    """log of (1 + sum b_k/a_k) a_n + (1 + sum a_k/b_k) b_n, optionally plus
    (2^n - 2n) sqrt(a_n b_n), with the sums over k = 1..n-1, for positive
    sequences a_1..a_n and b_1..b_n given as log a_n (the matching entry of
    ``log_an``) and x_k = log(b_k / a_k) for k = 1..n (a row of ``x``, shape
    (T, n)).  Returns the T logs, each one logsumexp over its row's 2n (or
    2n + 1) terms, so none overflows."""
    n = x.shape[-1]
    head, r = x[:, :-1], x[:, -1:]  # r = log(b_n / a_n)
    # Terms over a_n: 1, b_n/a_n, b_k/a_k, (b_n/a_n)(a_k/b_k) and
    # (2^n - 2n) sqrt(b_n/a_n), where 2^n - 2n vanishes for n <= 2.
    terms = [np.zeros_like(r), r, head, r - head]
    if with_sqrt and n >= 3:
        terms.append(n * _LOG2 + math.log1p(-2.0 * n * 2.0 ** -n) + 0.5 * r)
    terms = np.concatenate(terms, axis=-1)
    top = terms.max(axis=-1)
    return log_an + top + np.log(np.exp(terms - top[:, None]).sum(axis=-1))


class LogMinorRatios(NamedTuple):
    """The leading minors of A and B in the form ``log_ratio_sum_rhs_stack`` takes."""

    log_an: np.ndarray  # log|det A|
    x: np.ndarray       # log|det B_k / det A_k| for k = 1..n


@linalg.matrix_or_stack(2)
def log_minor_ratios(a, b) -> LogMinorRatios:
    """log|det A| and the log ratios of the leading minors of B and A, each
    from one elimination of A and one of B; a minor may lie outside the
    float range."""
    _require_pair(a, b)
    la = linalg.log_abs_leading_minors(a)
    return LogMinorRatios(la[:, -1], linalg.log_abs_leading_minors(b) - la)


class DeterminantBoundLevels(NamedTuple):
    """det(A+B) against its ladder of three lower bounds for a PD pair."""

    lhs: np.ndarray
    superadditive: np.ndarray   # det A + det B
    ratio_refined: np.ndarray   # with the principal-minor ratio sums
    sqrt_refined: np.ndarray    # additionally with the (2^n - 2n) sqrt(det A det B) term


def _log_bound_levels(a: np.ndarray, b: np.ndarray) -> DeterminantBoundLevels:
    """The logs of det(A+B) and of its three lower bounds for each pair of
    stacked PD operands."""
    ha, hb = _require_pd_pair(a, b)
    an, x = log_minor_ratios(ha, hb)
    return DeterminantBoundLevels(
        linalg.log_abs_determinant(ha + hb),
        log_ratio_sum_rhs_stack(an, x[:, -1:], with_sqrt=False),  # det A + det B
        log_ratio_sum_rhs_stack(an, x, with_sqrt=False),
        log_ratio_sum_rhs_stack(an, x, with_sqrt=True),
    )


@linalg.matrix_or_stack(2)
def determinant_bound_levels(a, b) -> DeterminantBoundLevels:
    """Evaluate det(A+B) and its bound ladder for PD operands; a
    level too large for a float is inf."""
    with np.errstate(over="ignore"):
        return DeterminantBoundLevels._make(np.exp(_log_bound_levels(a, b)))


@linalg.matrix_or_stack(2)
def check_det_superadditivity(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """det(A+B) >= det A + det B for Hermitian positive definite A and B."""
    lv = _log_bound_levels(a, b)
    return [scalar_report("det-superadditivity", lhs, rhs, tol) for lhs, rhs in zip(lv.lhs, lv.superadditive)]


@linalg.matrix_or_stack(2)
def check_haynsworth(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """det(A+B) >= (1 + sum det B_k / det A_k) det A
    + (1 + sum det A_k / det B_k) det B for PD operands."""
    lv = _log_bound_levels(a, b)
    return [
        scalar_report("haynsworth", lhs, rhs, tol, f"log_rhs_over_superadditive={rhs - base:.6e}")
        for lhs, rhs, base in zip(lv.lhs, lv.ratio_refined, lv.superadditive)
    ]


@linalg.matrix_or_stack(2)
def check_hartfiel(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """The ratio-sum determinant bound sharpened by (2^n - 2n) sqrt(det A det B)."""
    lv = _log_bound_levels(a, b)
    return [
        scalar_report("hartfiel", lhs, rhs, tol, f"log_rhs_over_ratio_refined={rhs - base:.6e}")
        for lhs, rhs, base in zip(lv.lhs, lv.sqrt_refined, lv.ratio_refined)
    ]


@linalg.matrix_or_stack(2)
def check_schur_pd(a, b, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """(A+B)/(A11+B11) >= A/A11 + B/B11 in the Loewner order for PD A, B."""
    ha, hb = _require_pd_pair(a, b)
    lhs = schur.schur_complement(ha + hb, p)
    rhs = schur.schur_complement(ha, p) + schur.schur_complement(hb, p)
    return loewner_reports("schur-pd", lhs, rhs, tol)


@linalg.matrix_or_stack(1)
def check_inverse_real_part(a, tol: float = DEFAULT_TOL) -> Reports:
    """(Re A)^{-1} >= Re(A^{-1}) when Re A is positive definite."""
    re, _ = linalg.accretive_parts(a)
    inv_re = np.linalg.inv(re)
    lhs = (inv_re + linalg.adjoint(inv_re)) / 2.0
    rhs = linalg.cartesian_split(np.linalg.inv(a)).re
    return loewner_reports("lemma-2-4", lhs, rhs, tol)


@linalg.matrix_or_stack(1)
def check_schur_real_part(a, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """Re(A/A11) >= (Re A)/(Re A11) when Re A is positive definite."""
    lhs, rhs = _real_part_schur_terms(a, p)
    return loewner_reports("lemma-2-5", lhs, rhs, tol)


@linalg.matrix_or_stack(1)
def check_ostrowski_taussky_complement(a, tol: float = DEFAULT_TOL) -> Reports:
    """sec^n(alpha) det(Re A) >= |det A| with alpha the sector angle of A."""
    alphas = sector.sector_angle(a)
    n = a.shape[-1]
    log_det_re = linalg.log_abs_determinant(linalg.cartesian_split(a).re)
    log_det_a = linalg.log_abs_determinant(a)
    return [
        scalar_report("lemma-2-6", -n * math.log(math.cos(alpha)) + float(lre), float(la), tol,
                      f"alpha={alpha:.9f}")
        for alpha, lre, la in zip(alphas, log_det_re, log_det_a)
    ]


@linalg.matrix_or_stack(1)
def check_weak_log_majorization(a, tol: float = DEFAULT_TOL) -> Reports:
    """Partial products of the eigenvalues of sec(alpha) Re Z dominate the
    matching partial products of the singular values of Z, where A = X Z X*
    is the canonical decomposition and alpha its angle.  Z = diag(e^{i theta})
    is unitary, so each singular value is 1, and each partial sum of
    log(sec(alpha) cos theta_j), taken in descending order, is compared with 0."""
    thetas = sector.sectorial_thetas(a)
    alphas = sector.half_angle(thetas)
    ratios = np.sort(np.cos(thetas) / np.cos(alphas)[:, None], axis=-1)[:, ::-1]
    # np.log rounds by memory layout, a stack's differently from one matrix's,
    # so the logs are taken one entry at a time.
    logs = np.array([[math.log(r) for r in row] for row in ratios.tolist()])
    partial = np.cumsum(logs, axis=-1)  # k = 1..n
    worst_k = np.argmin(partial, axis=-1)  # slack increases with the log gap
    return [
        scalar_report("weak-log-major", sums[k], 0.0, tol, f"alpha={alpha:.9f} min_partial_slack_at_k={k + 1}")
        for alpha, sums, k in zip(alphas, partial, worst_k)
    ]


@linalg.matrix_or_stack(1)
def check_claim1(a, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """sec^2(alpha) (Re A)/(Re A11) >= Re(A/A11) with alpha the sector angle of A."""
    rhs, lhs = _real_part_schur_terms(a, p)
    alphas = sector.sector_angle(a)
    sec2 = np.array([(1.0 / math.cos(alpha)) ** 2 for alpha in alphas])
    return loewner_reports("claim1", sec2[:, None, None] * lhs, rhs, tol, [f"alpha={alpha:.9f}" for alpha in alphas])


def _real_part_schur_terms(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Re(A/A11) and the symmetrized (Re A)/(Re A11), the two sides of
    Lemma 2.5, for each stacked operand, after checking that Re A is
    positive definite."""
    re, _ = linalg.accretive_parts(a)
    re_schur = schur.schur_complement(re, p)
    return linalg.cartesian_split(schur.schur_complement(a, p)).re, (re_schur + linalg.adjoint(re_schur)) / 2.0


def real_schur_terms_stack(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Re((A+B)/(A11+B11)) and Re(A/A11) + Re(B/B11), the two sides of the
    uncorrected Schur bound, for each pair of stacked operands."""

    def re_schur(m):
        return linalg.cartesian_split(schur.schur_complement(m, p)).re

    return re_schur(a + b), re_schur(a) + re_schur(b)


@linalg.matrix_or_stack(2)
def check_main1(a, b, alpha: float, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """sec^2(alpha) Re((A+B)/(A11+B11)) >= Re(A/A11) + Re(B/B11) for A, B
    with numerical range in the alpha sector."""
    alpha = _require_sectorial_pair(a, b, alpha)
    sec2 = (1.0 / math.cos(alpha)) ** 2
    lhs, rhs = real_schur_terms_stack(a, b, p)
    return loewner_reports("main1", sec2 * lhs, rhs, tol)


@linalg.matrix_or_stack(1)
def check_schur_wrongsec(a, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """The uncorrected bound Re((A+B)/(A11+B11)) >= Re(A/A11) + Re(B/B11)
    with B = A*; false in general, equality for Hermitian A."""
    linalg.accretive_parts(a)
    lhs, rhs = real_schur_terms_stack(a, linalg.adjoint(a), p)
    return loewner_reports("schur-wrongsec", lhs, rhs, tol)


@linalg.matrix_or_stack(2)
def check_det_step(
    a, b, alpha: float, k: int | None = None, tol: float = DEFAULT_TOL
) -> Reports:
    """sec^3(alpha) |det(A_{k+1}+B_{k+1}) / det(A_k+B_k)|
    >= |det A_{k+1} / det A_k| + |det B_{k+1} / det B_k|.

    With ``k`` None every step k = 1..n-1 is checked and the worst one is
    reported.  Sector membership is tested once, and each of A, B and A+B is
    factored once (only its leading (k+1)-by-(k+1) block for a single k).
    """
    alpha = _require_sectorial_pair(a, b, alpha)
    n = a.shape[-1]
    if k is None:
        if n < 2:
            raise ValueError("det-step needs n >= 2")
        first, size = 1, n
    elif not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    else:
        first, size = k, k + 1

    def log_steps(m):
        """log|det M_{j+1} / det M_j| for j = first..size-1."""
        return np.diff(linalg.log_abs_leading_minors(m[:, :size, :size]), axis=-1)[:, first - 1:]

    log_lhs = -3.0 * math.log(math.cos(alpha)) + log_steps(a + b)
    log_rhs = np.logaddexp(log_steps(a), log_steps(b))
    worst = np.argmin(log_lhs - log_rhs, axis=-1)  # slack increases with the log gap
    return [
        scalar_report("det-step", lhs[w], rhs[w], tol, f"k={first + int(w)}")
        for lhs, rhs, w in zip(log_lhs, log_rhs, worst)
    ]


@linalg.matrix_or_stack(2)
def check_main2(a, b, alpha: float, tol: float = DEFAULT_TOL) -> Reports:
    """sec^{3n-2}(alpha) |det(A+B)| >= the ratio-sum bound on |det A|, |det B|
    plus (2^n - 2n) sqrt(|det A det B|), for A, B in the alpha sector."""
    alpha = _require_sectorial_pair(a, b, alpha)
    n = a.shape[-1]
    log_lhs = -(3 * n - 2) * math.log(math.cos(alpha)) + linalg.log_abs_determinant(a + b)
    log_rhs = log_ratio_sum_rhs_stack(*log_minor_ratios(a, b), with_sqrt=True)
    return [scalar_report("main2", lhs, rhs, tol, f"alpha={alpha:.9f}") for lhs, rhs in zip(log_lhs, log_rhs)]


@linalg.matrix_or_stack(2)
def check_corollary_ad(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """2^{3n/2 - 1} |det(A+B)| >= the sqrt-refined ratio bound, for
    accretive-dissipative A and B (Re and Im parts positive definite)."""
    _require_pair(a, b)
    for m, what in ((a, "A"), (b, "B")):
        parts = np.concatenate(linalg.cartesian_split(m))
        if not linalg.positive_definite_stack(parts, np.tile(linalg.frobenius_stack(m), 2)):
            raise NotAccretiveDissipativeError(
                f"{what} must have positive definite real and imaginary parts"
            )
    exponent = 1.5 * a.shape[-1] - 1.0
    log_lhs = exponent * _LOG2 + linalg.log_abs_determinant(a + b)
    log_rhs = log_ratio_sum_rhs_stack(*log_minor_ratios(a, b), with_sqrt=True)
    return [scalar_report("corollary-ad", lhs, rhs, tol, f"constant=2**{exponent!r}")
            for lhs, rhs in zip(log_lhs, log_rhs)]
