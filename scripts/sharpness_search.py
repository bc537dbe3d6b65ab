#!/usr/bin/env python3
"""Exploratory scan of how tight the sec-power constants are.

For random sectorial pairs this records the smallest exponent e that would
still make each bound hold, i.e. the observed requirement in

    sec^e(alpha) |det(A+B)|          >= ratio-sum determinant bound
    sec^e(alpha) Re((A+B)/(A11+B11)) >= Re(A/A11) + Re(B/B11)

and compares the worst observation against the proven exponents 3n - 2 and 2.
Unvalidated experiment: results are empirical only and not part of the
acceptance surface.
"""

import argparse
import math

import numpy as np

from sectoria.cli import FAMILIES, chunk_size
from sectoria.generators import ALPHA_GUARD, TrialConfig
from sectoria.inequalities import log_minor_ratios, log_ratio_sum_rhs_stack
from sectoria.linalg import cartesian_split, log_abs_determinant
from sectoria.schur import schur_complement
from sectoria.sector import sectorial_thetas


def needed_det_exponents(a, b, alpha):
    """Per pair of stacked operands: the e with sec^e |det(A+B)| = the bound."""
    log_rhs = log_ratio_sum_rhs_stack(*log_minor_ratios(a, b), with_sqrt=True)
    return (log_rhs - log_abs_determinant(a + b)) / -math.log(math.cos(alpha))


def needed_loewner_exponents(a, b, alpha, p):
    """Per pair of stacked operands: the smallest c with sec^c L >= R, so
    that sec^c covers the top generalized eigenvalue of (R, L).  That
    eigenvalue is tan of the largest congruence angle of L + iR."""

    def re_schur(m):
        return cartesian_split(schur_complement(m, p)).re

    lhs, rhs = re_schur(a + b), re_schur(a) + re_schur(b)
    tops = np.tan(sectorial_thetas(lhs + 1j * rhs)[:, 0])
    return [math.log(top) / math.log(1.0 / math.cos(alpha)) if top > 0.0 else -math.inf
            for top in tops.tolist()]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--alphas",
        type=float,
        nargs="+",
        default=[math.pi / 6, math.pi / 4, math.pi / 3],
    )
    args = parser.parse_args()
    # At alpha = 0, sec^e(alpha) is 1 for every e, so no exponent is needed.
    bad = [alpha for alpha in args.alphas if not 0.0 < alpha < ALPHA_GUARD]
    if bad:
        parser.error(f"--alphas must lie in (0, {ALPHA_GUARD:.6f}), got {bad[0]!r}")

    n = args.n
    p = max(n // 2, 1)
    print(f"n={n} trials={args.trials} proven exponents: det {3 * n - 2}, loewner 2")
    step = chunk_size(n)
    for alpha in args.alphas:
        config = TrialConfig(seed=args.seed, n=n, alpha=alpha, trials=args.trials)
        worst_det = -math.inf
        worst_loewner = -math.inf
        for lo in range(0, args.trials, step):
            a, b = FAMILIES["sectorial_pair"](config, lo, min(lo + step, args.trials))
            worst_det = max(worst_det, *needed_det_exponents(a, b, alpha))
            worst_loewner = max([worst_loewner] + needed_loewner_exponents(a, b, alpha, p))
        print(
            f"alpha={alpha:.4f}  max needed det exponent {worst_det:8.4f} "
            f"(proven {3 * n - 2})  max needed loewner exponent {worst_loewner:8.4f} (proven 2)"
        )


if __name__ == "__main__":
    main()
