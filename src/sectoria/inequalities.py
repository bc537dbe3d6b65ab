"""Signed-slack checkers for the sectorial determinant and Schur-complement
inequality family.

Each checker validates its preconditions, evaluates both sides of one
inequality, and returns an :class:`InequalityReport` whose ``slack`` is
scale-free: scalar checks evaluate (LHS - RHS) / max(LHS, RHS) from log LHS
and log RHS, so products of determinants never overflow; Loewner checks
divide the minimum eigenvalue of LHS - RHS by ||LHS||_F.
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
    NotAccretiveError,
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


def loewner_report(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float, detail: str = "") -> InequalityReport:
    diff = lhs - rhs
    scale = max(linalg.frobenius(lhs), np.finfo(float).tiny)
    if linalg.frobenius(diff - diff.conj().T) > HERMITIAN_GUARD * scale:
        raise ValueError(f"{name}: difference matrix is not Hermitian")
    min_eig = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0])
    slack = min_eig / scale
    if not detail:
        detail = f"min_eig={min_eig:.6e} lhs_fro={linalg.frobenius(lhs):.6e}"
    return InequalityReport(name, "loewner", float(slack), bool(slack >= -tol), float(tol), detail)


def _require_pd(a, what: str) -> np.ndarray:
    """Validate a Hermitian positive definite operand; returns it symmetrized."""
    m = linalg.as_square_matrix(a)
    try:
        sym = linalg.as_hermitian(m)
    except ValueError as exc:
        raise NotPositiveDefiniteError(f"{what} must be Hermitian positive definite") from exc
    if not linalg.is_positive_definite(sym, linalg.frobenius(m)):
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    return sym


def _require_accretive(a, what: str):
    """Validate Re A positive definite; returns (A, Re A, Im A)."""
    m = linalg.as_square_matrix(a)
    re, im = linalg.cartesian_split(m)
    if not linalg.is_positive_definite(re, linalg.frobenius(m)):
        raise NotAccretiveError(f"real part of {what} is not positive definite")
    return m, re, im


def _require_in_sector(a, alpha: float, tol: float, what: str) -> np.ndarray:
    m = linalg.as_square_matrix(a)
    res = sector.in_sector(m, alpha, tol)
    if not res:
        w = res.witness
        extra = f" (witness point {w.point!r})" if w is not None else ""
        raise NotSectorialError(
            f"{what} is not inside the sector of half-angle {alpha:.6g}{extra}"
        )
    return m


def _require_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"operands must share a dimension, got {a.shape} and {b.shape}")


def log_ratio_sum_rhs(log_an: float, x: np.ndarray, with_sqrt: bool) -> float:
    """log of (1 + sum b_k/a_k) a_n + (1 + sum a_k/b_k) b_n, optionally plus
    (2^n - 2n) sqrt(a_n b_n), with the sums over k = 1..n-1, for positive
    sequences a_1..a_n and b_1..b_n given as ``log_an`` = log a_n and
    x_k = log(b_k / a_k) for k = 1..n.  Evaluated as a logsumexp of the 2n (or
    2n + 1) terms, so it never overflows."""
    n = len(x)
    r = float(x[-1])  # log(b_n / a_n)
    # Terms over a_n: 1, b_n/a_n, b_k/a_k, (b_n/a_n)(a_k/b_k) and
    # (2^n - 2n) sqrt(b_n/a_n), where 2^n - 2n vanishes for n <= 2.
    ratios = np.concatenate((x[:-1], r - x[:-1]))
    root = -math.inf
    if with_sqrt and n >= 3:
        root = n * _LOG2 + math.log1p(-2.0 * n * 2.0 ** -n) + 0.5 * r
    top = max(float(ratios.max(initial=0.0)), r, root)
    total = float(np.exp(ratios - top).sum())
    total += math.exp(-top) + math.exp(r - top) + math.exp(root - top)
    return float(log_an) + top + math.log(total)


def _log_minor_ratio_sum(a: np.ndarray, b: np.ndarray) -> float:
    """log_ratio_sum_rhs, with the sqrt term, of the leading minors of A and B."""
    la = linalg.log_abs_leading_minors(a)
    return log_ratio_sum_rhs(la[-1], linalg.log_abs_leading_minors(b) - la, with_sqrt=True)


class DeterminantBoundLevels(NamedTuple):
    """det(A+B) against the three nested lower bounds for a PD pair."""

    lhs: float
    superadditive: float   # det A + det B
    ratio_refined: float   # with the principal-minor ratio sums
    sqrt_refined: float    # additionally with the (2^n - 2n) sqrt(det A det B) term


def _log_bound_levels(a, b) -> DeterminantBoundLevels:
    """The logs of det(A+B) and of its three lower bounds for PD operands."""
    ha = _require_pd(a, "A")
    hb = _require_pd(b, "B")
    _require_pair(ha, hb)
    la = linalg.log_abs_leading_minors(ha)
    x = linalg.log_abs_leading_minors(hb) - la
    return DeterminantBoundLevels(
        linalg.log_abs_determinant(ha + hb),
        log_ratio_sum_rhs(la[-1], x[-1:], with_sqrt=False),  # det A + det B
        log_ratio_sum_rhs(la[-1], x, with_sqrt=False),
        log_ratio_sum_rhs(la[-1], x, with_sqrt=True),
    )


def determinant_bound_levels(a, b) -> DeterminantBoundLevels:
    """Evaluate det(A+B) and the nested bound ladder for PD operands; a
    level too large for a float is inf."""
    return DeterminantBoundLevels(*(_exp(x) for x in _log_bound_levels(a, b)))


def check_det_superadditivity(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det(A+B) >= det A + det B for Hermitian positive definite A and B."""
    levels = _log_bound_levels(a, b)
    return scalar_report("det-superadditivity", levels.lhs, levels.superadditive, tol)


def check_haynsworth(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det(A+B) >= (1 + sum det B_k / det A_k) det A
    + (1 + sum det A_k / det B_k) det B for PD operands."""
    levels = _log_bound_levels(a, b)
    detail = f"log_rhs_over_superadditive={levels.ratio_refined - levels.superadditive:.6e}"
    return scalar_report("haynsworth", levels.lhs, levels.ratio_refined, tol, detail)


def check_hartfiel(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The ratio-sum determinant bound sharpened by (2^n - 2n) sqrt(det A det B)."""
    levels = _log_bound_levels(a, b)
    detail = f"log_rhs_over_ratio_refined={levels.sqrt_refined - levels.ratio_refined:.6e}"
    return scalar_report("hartfiel", levels.lhs, levels.sqrt_refined, tol, detail)


def check_schur_pd(a, b, p: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """(A+B)/(A11+B11) >= A/A11 + B/B11 in the Loewner order for PD A, B."""
    ha = _require_pd(a, "A")
    hb = _require_pd(b, "B")
    _require_pair(ha, hb)
    lhs = schur.schur_complement(ha + hb, p)
    rhs = schur.schur_complement(ha, p) + schur.schur_complement(hb, p)
    return loewner_report("schur-pd", lhs, rhs, tol)


def check_inverse_real_part(a, tol: float = DEFAULT_TOL) -> InequalityReport:
    """(Re A)^{-1} >= Re(A^{-1}) when Re A is positive definite."""
    m, re, _ = _require_accretive(a, "A")
    inv_re = linalg.inverse(re)
    lhs = (inv_re + inv_re.conj().T) / 2.0
    rhs = linalg.cartesian_split(linalg.inverse(m)).re
    return loewner_report("lemma-2-4", lhs, rhs, tol)


def check_schur_real_part(a, p: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Re(A/A11) >= (Re A)/(Re A11) when Re A is positive definite."""
    m, re, _ = _require_accretive(a, "A")
    lhs = linalg.cartesian_split(schur.schur_complement(m, p)).re
    rhs_raw = schur.schur_complement(re, p)
    rhs = (rhs_raw + rhs_raw.conj().T) / 2.0
    return loewner_report("lemma-2-5", lhs, rhs, tol)


def check_ostrowski_taussky_complement(a, tol: float = DEFAULT_TOL) -> InequalityReport:
    """sec^n(alpha) det(Re A) >= |det A| with alpha the sector angle of A."""
    m = linalg.as_square_matrix(a)
    alpha = sector.sector_angle(m)
    n = m.shape[0]
    re = linalg.cartesian_split(m).re
    log_lhs = -n * math.log(math.cos(alpha)) + linalg.log_abs_determinant(re)
    log_rhs = linalg.log_abs_determinant(m)
    return scalar_report("lemma-2-6", log_lhs, log_rhs, tol, f"alpha={alpha:.9f}")


def check_weak_log_majorization(a, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Partial products of the eigenvalues of sec(alpha) Re Z dominate the
    matching partial products of the singular values of Z, where A = X Z X*
    is the canonical decomposition and alpha its angle."""
    dec = sector.sectorial_decompose(a)
    alpha = dec.angle
    lam = np.sort((1.0 / math.cos(alpha)) * np.cos(dec.thetas))[::-1]
    sig = linalg.singular_values(dec.z)
    worst = math.inf
    worst_k = 0
    prod_l, prod_s = 1.0, 1.0
    for k in range(lam.size):
        prod_l *= float(lam[k])
        prod_s *= float(sig[k])
        slack_k = (prod_l - prod_s) / max(abs(prod_l), abs(prod_s), 1.0)
        if slack_k < worst:
            worst, worst_k = slack_k, k + 1
    detail = f"alpha={alpha:.9f} min_partial_slack_at_k={worst_k}"
    return InequalityReport(
        "weak-log-major", "scalar", float(worst), bool(worst >= -tol), float(tol), detail
    )


def check_claim1(a, p: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """sec^2(alpha) (Re A)/(Re A11) >= Re(A/A11) with alpha the sector angle of A."""
    m, re, _ = _require_accretive(a, "A")
    alpha = sector.sector_angle(m)
    sec2 = (1.0 / math.cos(alpha)) ** 2
    lhs_raw = schur.schur_complement(re, p)
    lhs = sec2 * (lhs_raw + lhs_raw.conj().T) / 2.0
    rhs = linalg.cartesian_split(schur.schur_complement(m, p)).re
    return loewner_report("claim1", lhs, rhs, tol, detail=f"alpha={alpha:.9f}")


def real_schur_terms(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Re((A+B)/(A11+B11)) and Re(A/A11) + Re(B/B11), the two sides of the
    uncorrected Schur bound."""

    def re_schur(m):
        return linalg.cartesian_split(schur.schur_complement(m, p)).re

    return re_schur(a + b), re_schur(a) + re_schur(b)


def check_main1(a, b, alpha: float, p: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """sec^2(alpha) Re((A+B)/(A11+B11)) >= Re(A/A11) + Re(B/B11) for A, B
    with numerical range in the alpha sector."""
    alpha = sector.validate_sector_angle(alpha)
    ma = _require_in_sector(a, alpha, tol, "A")
    mb = _require_in_sector(b, alpha, tol, "B")
    _require_pair(ma, mb)
    sec2 = (1.0 / math.cos(alpha)) ** 2
    lhs, rhs = real_schur_terms(ma, mb, p)
    return loewner_report("main1", sec2 * lhs, rhs, tol)


def check_schur_wrongsec(a, p: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The uncorrected bound Re((A+B)/(A11+B11)) >= Re(A/A11) + Re(B/B11)
    with B = A*; false in general, equality for Hermitian A."""
    m, _, _ = _require_accretive(a, "A")
    lhs, rhs = real_schur_terms(m, m.conj().T, p)
    return loewner_report("schur-wrongsec", lhs, rhs, tol)


def check_det_step(
    a, b, alpha: float, k: int | None = None, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """sec^3(alpha) |det(A_{k+1}+B_{k+1}) / det(A_k+B_k)|
    >= |det A_{k+1} / det A_k| + |det B_{k+1} / det B_k|.

    With ``k`` None every step k = 1..n-1 is checked and the worst one is
    reported.  Sector membership is tested once, and each of A, B and A+B is
    factored once (only its leading (k+1)-by-(k+1) block for a single k).
    """
    alpha = sector.validate_sector_angle(alpha)
    ma = _require_in_sector(a, alpha, tol, "A")
    mb = _require_in_sector(b, alpha, tol, "B")
    _require_pair(ma, mb)
    n = ma.shape[0]
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
        return np.diff(linalg.log_abs_leading_minors(m[:size, :size]))[first - 1:]

    log_lhs = -3.0 * math.log(math.cos(alpha)) + log_steps(ma + mb)
    log_rhs = np.logaddexp(log_steps(ma), log_steps(mb))
    worst = int(np.argmin(log_lhs - log_rhs))  # slack increases with the log gap
    return scalar_report("det-step", log_lhs[worst], log_rhs[worst], tol, f"k={first + worst}")


def check_main2(a, b, alpha: float, tol: float = DEFAULT_TOL) -> InequalityReport:
    """sec^{3n-2}(alpha) |det(A+B)| >= the ratio-sum bound on |det A|, |det B|
    plus (2^n - 2n) sqrt(|det A det B|), for A, B in the alpha sector."""
    alpha = sector.validate_sector_angle(alpha)
    ma = _require_in_sector(a, alpha, tol, "A")
    mb = _require_in_sector(b, alpha, tol, "B")
    _require_pair(ma, mb)
    n = ma.shape[0]
    log_lhs = -(3 * n - 2) * math.log(math.cos(alpha)) + linalg.log_abs_determinant(ma + mb)
    log_rhs = _log_minor_ratio_sum(ma, mb)
    return scalar_report("main2", log_lhs, log_rhs, tol, f"alpha={alpha:.9f}")


def check_corollary_ad(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """2^{3n/2 - 1} |det(A+B)| >= the sqrt-refined ratio bound, for
    accretive-dissipative A and B (Re and Im parts positive definite)."""
    ma = linalg.as_square_matrix(a)
    mb = linalg.as_square_matrix(b)
    _require_pair(ma, mb)
    for m, what in ((ma, "A"), (mb, "B")):
        re, im = linalg.cartesian_split(m)
        scale = linalg.frobenius(m)
        if not (linalg.is_positive_definite(re, scale) and linalg.is_positive_definite(im, scale)):
            raise NotAccretiveDissipativeError(
                f"{what} must have positive definite real and imaginary parts"
            )
    exponent = 1.5 * ma.shape[0] - 1.0
    log_lhs = exponent * _LOG2 + linalg.log_abs_determinant(ma + mb)
    log_rhs = _log_minor_ratio_sum(ma, mb)
    return scalar_report("corollary-ad", log_lhs, log_rhs, tol, f"constant=2**{exponent!r}")
