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

import sectoria as s
from sectoria.inequalities import log_ratio_sum_rhs, real_schur_terms
from sectoria.linalg import log_abs_determinant, log_abs_leading_minors


def needed_det_exponent(a, b, alpha):
    la = log_abs_leading_minors(a)
    log_rhs = log_ratio_sum_rhs(la[-1], log_abs_leading_minors(b) - la, with_sqrt=True)
    return (log_rhs - log_abs_determinant(a + b)) / -math.log(math.cos(alpha))


def needed_loewner_exponent(a, b, alpha, p):
    lhs, rhs = real_schur_terms(a, b, p)
    # smallest c with sec^c L >= R: sec^c must cover the top generalized eigenvalue
    w, v = np.linalg.eigh(lhs)
    root_inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    top = float(np.linalg.eigvalsh(root_inv @ rhs @ root_inv.conj().T)[-1])
    if top <= 0.0:
        return -math.inf
    return math.log(top) / math.log(1.0 / math.cos(alpha))


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

    n = args.n
    p = max(n // 2, 1)
    print(f"n={n} trials={args.trials} proven exponents: det {3 * n - 2}, loewner 2")
    for alpha in args.alphas:
        worst_det = -math.inf
        worst_loewner = -math.inf
        for t in range(args.trials):
            a = s.gen_sectorial(n, alpha, s.child_seed(args.seed, t, 0))
            b = s.gen_sectorial(n, alpha, s.child_seed(args.seed, t, 1))
            worst_det = max(worst_det, needed_det_exponent(a, b, alpha))
            worst_loewner = max(worst_loewner, needed_loewner_exponent(a, b, alpha, p))
        print(
            f"alpha={alpha:.4f}  max needed det exponent {worst_det:8.4f} "
            f"(proven {3 * n - 2})  max needed loewner exponent {worst_loewner:8.4f} (proven 2)"
        )


if __name__ == "__main__":
    main()
