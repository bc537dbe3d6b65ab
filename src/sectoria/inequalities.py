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
from dataclasses import dataclass
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
        return {
            "name": self.name,
            "kind": self.kind,
            "slack": self.slack,
            "holds": self.holds,
            "tol": self.tol,
            "detail": self.detail,
        }

    def to_line(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (
            f"{self.name} [{self.kind}] slack={self.slack:+.6e} "
            f"tol={self.tol:.1e} {verdict} | {self.detail}"
        )


def _exp(x: float) -> float:
    """exp(x), or inf where it overflows."""
    return math.inf if x > _LOG_MAX else math.exp(x)


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
    if not np.all(linalg.positive_definite_stack(sym, linalg.frobenius_stack(m))):
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    return sym


def _require_in_sector(m: np.ndarray, alpha: float, tol: float, what: str) -> None:
    for res in sector.in_sector(m, alpha, tol):
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


def _require_sectorial_pair(a: np.ndarray, b: np.ndarray, alpha: float, tol: float) -> float:
    """Validate alpha, then stacks of A and B in its sector and of one size;
    returns alpha as a float."""
    alpha = sector.validate_sector_angle(alpha)
    _require_in_sector(a, alpha, tol, "A")
    _require_in_sector(b, alpha, tol, "B")
    _require_pair(a, b)
    return alpha


def log_ratio_sum_rhs_stack(log_an, x: np.ndarray, with_sqrt: bool) -> list[float]:
    """log of (1 + sum b_k/a_k) a_n + (1 + sum a_k/b_k) b_n, optionally plus
    (2^n - 2n) sqrt(a_n b_n), with the sums over k = 1..n-1, for positive
    sequences a_1..a_n and b_1..b_n given as log a_n (the matching entry of
    ``log_an``) and x_k = log(b_k / a_k) for k = 1..n (a row of ``x``, shape
    (T, n)).  Evaluated as a logsumexp of the 2n (or 2n + 1) terms, so it
    never overflows: the sum of the 2n - 2 ratio terms is one stacked
    ``exp``, and the few scalar terms of each row are Python floats."""
    n = x.shape[-1]
    head = x[:, :-1]
    r = x[:, -1]  # log(b_n / a_n)
    # Terms over a_n: 1, b_n/a_n, b_k/a_k, (b_n/a_n)(a_k/b_k) and
    # (2^n - 2n) sqrt(b_n/a_n), where 2^n - 2n vanishes for n <= 2.
    ratios = np.concatenate((head, r[:, None] - head), axis=-1)
    peaks = ratios.max(axis=-1, initial=0.0)
    rs = [float(v) for v in r]
    roots = [-math.inf] * len(rs)
    if with_sqrt and n >= 3:
        roots = [n * _LOG2 + math.log1p(-2.0 * n * 2.0 ** -n) + 0.5 * v for v in rs]
    tops = [max(float(p), v, root) for p, v, root in zip(peaks, rs, roots)]
    sums = np.exp(ratios - np.array(tops)[:, None]).sum(axis=-1)
    out = []
    for an, v, root, top, total in zip(log_an, rs, roots, tops, sums):
        total = float(total)
        total += math.exp(-top) + math.exp(v - top) + math.exp(root - top)
        out.append(float(an) + top + math.log(total))
    return out


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
    """det(A+B) against the three nested lower bounds for a PD pair."""

    lhs: float
    superadditive: float   # det A + det B
    ratio_refined: float   # with the principal-minor ratio sums
    sqrt_refined: float    # additionally with the (2^n - 2n) sqrt(det A det B) term


def _log_bound_levels(a: np.ndarray, b: np.ndarray) -> list[DeterminantBoundLevels]:
    """The logs of det(A+B) and of its three lower bounds for each pair of
    stacked PD operands."""
    ha, hb = _require_pd_pair(a, b)
    an, x = log_minor_ratios(ha, hb)
    return [
        DeterminantBoundLevels(float(lhs), *rest)
        for lhs, *rest in zip(
            linalg.log_abs_determinant(ha + hb),
            log_ratio_sum_rhs_stack(an, x[:, -1:], with_sqrt=False),  # det A + det B
            log_ratio_sum_rhs_stack(an, x, with_sqrt=False),
            log_ratio_sum_rhs_stack(an, x, with_sqrt=True),
        )
    ]


@linalg.matrix_or_stack(2)
def determinant_bound_levels(a, b) -> DeterminantBoundLevels | list[DeterminantBoundLevels]:
    """Evaluate det(A+B) and the nested bound ladder for PD operands; a
    level too large for a float is inf."""
    return [DeterminantBoundLevels(*(_exp(x) for x in levels)) for levels in _log_bound_levels(a, b)]


@linalg.matrix_or_stack(2)
def check_det_superadditivity(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """det(A+B) >= det A + det B for Hermitian positive definite A and B."""
    return [
        scalar_report("det-superadditivity", lv.lhs, lv.superadditive, tol)
        for lv in _log_bound_levels(a, b)
    ]


@linalg.matrix_or_stack(2)
def check_haynsworth(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """det(A+B) >= (1 + sum det B_k / det A_k) det A
    + (1 + sum det A_k / det B_k) det B for PD operands."""
    return [
        scalar_report("haynsworth", lv.lhs, lv.ratio_refined, tol,
                      f"log_rhs_over_superadditive={lv.ratio_refined - lv.superadditive:.6e}")
        for lv in _log_bound_levels(a, b)
    ]


@linalg.matrix_or_stack(2)
def check_hartfiel(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """The ratio-sum determinant bound sharpened by (2^n - 2n) sqrt(det A det B)."""
    return [
        scalar_report("hartfiel", lv.lhs, lv.sqrt_refined, tol,
                      f"log_rhs_over_ratio_refined={lv.sqrt_refined - lv.ratio_refined:.6e}")
        for lv in _log_bound_levels(a, b)
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
    eye = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    inv_re = linalg.solve_stack(re, eye)
    lhs = (inv_re + linalg.adjoint(inv_re)) / 2.0
    rhs = linalg.cartesian_split(linalg.solve_stack(a, eye)).re
    return loewner_reports("lemma-2-4", lhs, rhs, tol)


@linalg.matrix_or_stack(1)
def check_schur_real_part(a, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """Re(A/A11) >= (Re A)/(Re A11) when Re A is positive definite."""
    re, _ = linalg.accretive_parts(a)
    lhs = linalg.cartesian_split(schur.schur_complement(a, p)).re
    rhs_raw = schur.schur_complement(re, p)
    rhs = (rhs_raw + linalg.adjoint(rhs_raw)) / 2.0
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
    is the canonical decomposition and alpha its angle."""
    _, thetas = sector.sectorial_decompose(a)
    n = thetas.shape[-1]
    z = np.zeros(thetas.shape + (n,), dtype=np.complex128)
    z[:, np.arange(n), np.arange(n)] = np.exp(1j * thetas)
    sigs = np.linalg.svd(z, compute_uv=False)
    alphas = [float(x) for x in np.max(np.abs(thetas), axis=-1)]
    secs = np.array([1.0 / math.cos(alpha) for alpha in alphas])
    lams = np.sort(secs[:, None] * np.cos(thetas), axis=-1)[:, ::-1]
    reports = []
    for alpha, lam, sig in zip(alphas, lams, sigs):
        worst = math.inf
        worst_k = 0
        prod_l, prod_s = 1.0, 1.0
        for k in range(n):
            prod_l *= float(lam[k])
            prod_s *= float(sig[k])
            slack_k = (prod_l - prod_s) / max(abs(prod_l), abs(prod_s), 1.0)
            if slack_k < worst:
                worst, worst_k = slack_k, k + 1
        detail = f"alpha={alpha:.9f} min_partial_slack_at_k={worst_k}"
        reports.append(InequalityReport(
            "weak-log-major", "scalar", float(worst), bool(worst >= -tol), float(tol), detail
        ))
    return reports


@linalg.matrix_or_stack(1)
def check_claim1(a, p: int, tol: float = DEFAULT_TOL) -> Reports:
    """sec^2(alpha) (Re A)/(Re A11) >= Re(A/A11) with alpha the sector angle of A."""
    re, _ = linalg.accretive_parts(a)
    alphas = sector.sector_angle(a)
    sec2 = np.array([(1.0 / math.cos(alpha)) ** 2 for alpha in alphas])
    lhs_raw = schur.schur_complement(re, p)
    lhs = sec2[:, None, None] * (lhs_raw + linalg.adjoint(lhs_raw)) / 2.0
    rhs = linalg.cartesian_split(schur.schur_complement(a, p)).re
    return loewner_reports("claim1", lhs, rhs, tol, [f"alpha={alpha:.9f}" for alpha in alphas])


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
    alpha = _require_sectorial_pair(a, b, alpha, tol)
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
    alpha = _require_sectorial_pair(a, b, alpha, tol)
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
    alpha = _require_sectorial_pair(a, b, alpha, tol)
    n = a.shape[-1]
    shift = -(3 * n - 2) * math.log(math.cos(alpha))
    log_lhs = linalg.log_abs_determinant(a + b)
    log_rhs = log_ratio_sum_rhs_stack(*log_minor_ratios(a, b), with_sqrt=True)
    return [
        scalar_report("main2", shift + float(lhs), rhs, tol, f"alpha={alpha:.9f}")
        for lhs, rhs in zip(log_lhs, log_rhs)
    ]


@linalg.matrix_or_stack(2)
def check_corollary_ad(a, b, tol: float = DEFAULT_TOL) -> Reports:
    """2^{3n/2 - 1} |det(A+B)| >= the sqrt-refined ratio bound, for
    accretive-dissipative A and B (Re and Im parts positive definite)."""
    _require_pair(a, b)
    for m, what in ((a, "A"), (b, "B")):
        re, im = linalg.cartesian_split(m)
        scale = linalg.frobenius_stack(m)
        if not np.all(linalg.positive_definite_stack(re, scale)
                      & linalg.positive_definite_stack(im, scale)):
            raise NotAccretiveDissipativeError(
                f"{what} must have positive definite real and imaginary parts"
            )
    exponent = 1.5 * a.shape[-1] - 1.0
    log_lhs = linalg.log_abs_determinant(a + b)
    log_rhs = log_ratio_sum_rhs_stack(*log_minor_ratios(a, b), with_sqrt=True)
    return [
        scalar_report("corollary-ad", exponent * _LOG2 + float(lhs), rhs, tol,
                      f"constant=2**{exponent!r}")
        for lhs, rhs in zip(log_lhs, log_rhs)
    ]
