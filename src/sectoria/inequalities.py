"""Signed-slack checkers for the sectorial determinant and Schur-complement
inequality family.

Each checker validates its preconditions, evaluates both sides of one
inequality, and returns an :class:`InequalityReport` whose ``slack`` is
scale-free: scalar checks divide LHS - RHS by max(|LHS|, |RHS|, 1), Loewner
checks divide the minimum eigenvalue of LHS - RHS by ||LHS||_F.
"""

from __future__ import annotations

import math
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


def scalar_report(name: str, lhs: float, rhs: float, tol: float, detail: str = "") -> InequalityReport:
    slack = (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
    if not detail:
        detail = f"lhs={lhs:.12e} rhs={rhs:.12e}"
    return InequalityReport(name, "scalar", float(slack), bool(slack >= -tol), float(tol), detail)


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


def ratio_sum_rhs(da: np.ndarray, db: np.ndarray, with_sqrt: bool) -> float:
    """(1 + sum db_k/da_k) da_n + (1 + sum da_k/db_k) db_n, optionally plus
    (2^n - 2n) sqrt(da_n db_n); sums run over k = 1..n-1 of the positive
    sequences da = (da_1..da_n) and db = (db_1..db_n)."""
    n = len(da)
    sum_ba = float(np.sum(db[:-1] / da[:-1]))
    sum_ab = float(np.sum(da[:-1] / db[:-1]))
    rhs = (1.0 + sum_ba) * float(da[-1]) + (1.0 + sum_ab) * float(db[-1])
    if with_sqrt:
        rhs += (2.0 ** n - 2.0 * n) * math.sqrt(float(da[-1]) * float(db[-1]))
    return rhs


class DeterminantBoundLevels(NamedTuple):
    """det(A+B) against the three nested lower bounds for a PD pair."""

    lhs: float
    superadditive: float   # det A + det B
    ratio_refined: float   # with the principal-minor ratio sums
    sqrt_refined: float    # additionally with the (2^n - 2n) sqrt(det A det B) term


def determinant_bound_levels(a, b) -> DeterminantBoundLevels:
    """Evaluate det(A+B) and the nested bound ladder for PD operands."""
    ha = _require_pd(a, "A")
    hb = _require_pd(b, "B")
    _require_pair(ha, hb)
    da = linalg.principal_abs_minors(ha)
    db = linalg.principal_abs_minors(hb)
    lhs = abs(linalg.determinant(ha + hb))
    return DeterminantBoundLevels(
        lhs,
        float(da[-1] + db[-1]),
        ratio_sum_rhs(da, db, with_sqrt=False),
        ratio_sum_rhs(da, db, with_sqrt=True),
    )


def check_det_superadditivity(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det(A+B) >= det A + det B for Hermitian positive definite A and B."""
    levels = determinant_bound_levels(a, b)
    return scalar_report("det-superadditivity", levels.lhs, levels.superadditive, tol)


def check_haynsworth(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """det(A+B) >= (1 + sum det B_k / det A_k) det A
    + (1 + sum det A_k / det B_k) det B for PD operands."""
    levels = determinant_bound_levels(a, b)
    detail = (
        f"lhs={levels.lhs:.12e} rhs={levels.ratio_refined:.12e} "
        f"rhs_minus_superadditive={levels.ratio_refined - levels.superadditive:.6e}"
    )
    return scalar_report("haynsworth", levels.lhs, levels.ratio_refined, tol, detail)


def check_hartfiel(a, b, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The ratio-sum determinant bound sharpened by (2^n - 2n) sqrt(det A det B)."""
    levels = determinant_bound_levels(a, b)
    detail = (
        f"lhs={levels.lhs:.12e} rhs={levels.sqrt_refined:.12e} "
        f"rhs_minus_ratio_refined={levels.sqrt_refined - levels.ratio_refined:.6e}"
    )
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
    lhs = (1.0 / math.cos(alpha)) ** n * abs(linalg.determinant(re))
    rhs = abs(linalg.determinant(m))
    detail = f"alpha={alpha:.9f} lhs={lhs:.12e} rhs={rhs:.12e}"
    return scalar_report("lemma-2-6", lhs, rhs, tol, detail)


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


def check_det_step(a, b, alpha: float, k: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """sec^3(alpha) |det(A_{k+1}+B_{k+1}) / det(A_k+B_k)|
    >= |det A_{k+1} / det A_k| + |det B_{k+1} / det B_k|."""
    alpha = sector.validate_sector_angle(alpha)
    ma = _require_in_sector(a, alpha, tol, "A")
    mb = _require_in_sector(b, alpha, tol, "B")
    _require_pair(ma, mb)
    n = ma.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    sec3 = (1.0 / math.cos(alpha)) ** 3

    def ratio(m):
        top = abs(linalg.determinant(linalg.leading_principal_submatrix(m, k + 1)))
        bottom = abs(linalg.determinant(linalg.leading_principal_submatrix(m, k)))
        return top / bottom

    lhs = sec3 * ratio(ma + mb)
    rhs = ratio(ma) + ratio(mb)
    detail = f"k={k} lhs={lhs:.12e} rhs={rhs:.12e}"
    return scalar_report("det-step", lhs, rhs, tol, detail)


def check_main2(a, b, alpha: float, tol: float = DEFAULT_TOL) -> InequalityReport:
    """sec^{3n-2}(alpha) |det(A+B)| >= the ratio-sum bound on |det A|, |det B|
    plus (2^n - 2n) sqrt(|det A det B|), for A, B in the alpha sector."""
    alpha = sector.validate_sector_angle(alpha)
    ma = _require_in_sector(a, alpha, tol, "A")
    mb = _require_in_sector(b, alpha, tol, "B")
    _require_pair(ma, mb)
    n = ma.shape[0]
    da = linalg.principal_abs_minors(ma)
    db = linalg.principal_abs_minors(mb)
    lhs = (1.0 / math.cos(alpha)) ** (3 * n - 2) * abs(linalg.determinant(ma + mb))
    rhs = ratio_sum_rhs(da, db, with_sqrt=True)
    detail = f"alpha={alpha:.9f} lhs={lhs:.12e} rhs={rhs:.12e}"
    return scalar_report("main2", lhs, rhs, tol, detail)


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
    n = ma.shape[0]
    const = 2.0 ** (1.5 * n - 1.0)
    da = linalg.principal_abs_minors(ma)
    db = linalg.principal_abs_minors(mb)
    lhs = const * abs(linalg.determinant(ma + mb))
    rhs = ratio_sum_rhs(da, db, with_sqrt=True)
    detail = f"constant={const!r} lhs={lhs:.12e} rhs={rhs:.12e}"
    return scalar_report("corollary-ad", lhs, rhs, tol, detail)
