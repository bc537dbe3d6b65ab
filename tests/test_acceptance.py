"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
single verdict line (run with ``pytest -s`` to see them all).
"""

import math
import time

import numpy as np

import sectoria as s

ALPHA_GRID = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)


def verdict(number, label, ok, info=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {number:02d} {label}: {status} {info}")
    assert ok, f"criterion {number} ({label}) failed: {info}"


def partitions_for(n):
    return sorted({1, max(n // 2, 1), n - 1})


def test_criterion_01_claim2_suite():
    start = time.perf_counter()
    worst = math.inf
    worst_eq = 0.0
    for n in range(1, 11):
        for t in range(1000):
            pair = s.random_sequence_pair(n, s.child_seed(0xC1, n, t))
            slack = s.check_claim2(pair).slack
            worst = min(worst, slack)
            if n <= 2:
                worst_eq = max(worst_eq, abs(slack))
    worst_expansion = 0.0
    for n in range(1, 13):
        rng = s.rng_stream(s.child_seed(0xC1, 100, n))
        x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
        worst_expansion = max(worst_expansion, s.product_expansion_check(x))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and worst_eq <= 1e-13 and worst_expansion <= 1e-12 and elapsed < 10.0
    verdict(
        1,
        "claim2 suite (n=1..10, 1000 pairs each)",
        ok,
        f"min_slack={worst:.3e} max_eq_gap={worst_eq:.3e} "
        f"max_expansion_residual={worst_expansion:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_main2_suite():
    start = time.perf_counter()
    worst = math.inf
    agreement_gap = 0.0
    for n in range(2, 7):
        for ai, alpha in enumerate(ALPHA_GRID):
            for t in range(500):
                a = s.gen_sectorial(n, alpha, s.child_seed(0xC2, n, ai, t, 0))
                b = s.gen_sectorial(n, alpha, s.child_seed(0xC2, n, ai, t, 1))
                report = s.check_main2(a, b, alpha)
                worst = min(worst, report.slack)
                if alpha == 0.0:
                    gap = abs(report.slack - s.check_hartfiel(a, b).slack)
                    agreement_gap = max(agreement_gap, gap)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and agreement_gap <= 1e-12 and elapsed < 60.0
    verdict(
        2,
        "main2 suite (n=2..6, four angles, 500 pairs)",
        ok,
        f"min_slack={worst:.3e} max_hartfiel_gap={agreement_gap:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_03_main1_suite():
    worst = math.inf
    for n in range(2, 7):
        for ai, alpha in enumerate(ALPHA_GRID):
            for t in range(500):
                a = s.gen_sectorial(n, alpha, s.child_seed(0xC3, n, ai, t, 0))
                b = s.gen_sectorial(n, alpha, s.child_seed(0xC3, n, ai, t, 1))
                for p in partitions_for(n):
                    worst = min(worst, s.check_main1(a, b, alpha, p).slack)
    ok = worst >= -1e-8
    verdict(3, "main1 suite (grid x partitions)", ok, f"min_slack={worst:.3e}")


def test_criterion_04_lemma_suite():
    alpha = math.pi / 3
    worst_checks = math.inf
    worst_residual = 0.0
    for n in range(2, 7):
        for t in range(100):
            a = s.gen_sectorial(n, alpha, s.child_seed(0xC4, n, t, 0))
            worst_checks = min(worst_checks, s.check_inverse_real_part(a).slack)
            worst_checks = min(worst_checks, s.check_ostrowski_taussky_complement(a).slack)
            for p in partitions_for(n):
                worst_checks = min(worst_checks, s.check_schur_real_part(a, p).slack)
                worst_checks = min(worst_checks, s.check_claim1(a, p).slack)
                worst_residual = max(worst_residual, s.inverse_block_identity(a, p))
            worst_residual = max(worst_residual, s.real_inverse_identity(a))

            pa = s.gen_positive_definite(n, s.child_seed(0xC4, n, t, 1))
            pb = s.gen_positive_definite(n, s.child_seed(0xC4, n, t, 2))
            for p in partitions_for(n):
                worst_checks = min(worst_checks, s.check_schur_pd(pa, pb, p).slack)

            sa = s.gen_sectorial(n, math.pi / 4, s.child_seed(0xC4, n, t, 3))
            sb = s.gen_sectorial(n, math.pi / 4, s.child_seed(0xC4, n, t, 4))
            for k in range(1, n):
                worst_checks = min(worst_checks, s.check_det_step(sa, sb, math.pi / 4, k).slack)

            ad = s.gen_accretive_dissipative(n, s.child_seed(0xC4, n, t, 5))
            for p in partitions_for(n):
                parts = s.cartesian_schur_identity(ad, p)
                worst_residual = max(worst_residual, parts.residual / s.frobenius(ad))
    ok = worst_checks >= -1e-8 and worst_residual <= 1e-8
    verdict(
        4,
        "lemma and identity suite (500 trials per check)",
        ok,
        f"min_slack={worst_checks:.3e} max_identity_residual={worst_residual:.3e}",
    )


def test_criterion_05_falsification():
    config = s.TrialConfig(seed=0, n=2, alpha=math.pi / 4, trials=100)
    report = s.falsify_schur_wrongsec(config)
    ok = report.slack <= -1e-6
    verdict(
        5,
        "uncorrected Schur bound falsified via B = A*",
        ok,
        f"min_slack={report.slack:.3e} ({report.detail.split('|')[-1].strip()})",
    )


def test_criterion_06_decomposition():
    worst_rec = 0.0
    worst_multiset = 0.0
    worst_bisect = 0.0
    case = 0
    for n in range(1, 9):
        for t in range(25):
            alpha = ALPHA_GRID[t % 4]
            a, planted = s.gen_sectorial_planted(n, alpha, s.child_seed(0xC6, n, t))
            dec = s.sectorial_decompose(a)
            worst_rec = max(
                worst_rec, s.frobenius(dec.reconstruct() - a) / s.frobenius(a)
            )
            worst_multiset = max(worst_multiset, float(np.max(np.abs(dec.thetas - planted))))
            if case % 4 == 0:
                worst_bisect = max(worst_bisect, abs(dec.angle - s.sector_angle_bisect(a)))
            case += 1
    ok = worst_rec <= 1e-9 and worst_multiset <= 1e-8 and worst_bisect <= 1e-8
    verdict(
        6,
        "decomposition round trip, planted angles, bisection agreement",
        ok,
        f"max_rec={worst_rec:.3e} max_multiset_gap={worst_multiset:.3e} "
        f"max_bisect_gap={worst_bisect:.3e}",
    )


def test_criterion_07_sector_inheritance():
    worst = -math.inf
    for n in range(2, 7):
        for t in range(100):
            alpha = ALPHA_GRID[1 + t % 3]
            a = s.gen_sectorial(n, alpha, s.child_seed(0xC7, n, t))
            parent = s.sector_angle(a)
            children = [s.sector_angle(s.inverse(a))]
            children += [s.sector_angle(s.schur_complement(a, p)) for p in range(1, n)]
            children += [s.sector_angle(a[:k, :k]) for k in range(1, n + 1)]
            worst = max(worst, max(children) - parent)
    ok = worst <= 1e-8
    verdict(7, "sector inheritance (Schur, inverse, principal blocks)", ok, f"max_excess={worst:.3e}")


def test_criterion_08_corollary_constant_and_suite():
    worst_const = 0.0
    for n in range(1, 11):
        expected = 2.0 ** (1.5 * n - 1.0)
        sec_power = (1.0 / math.cos(math.pi / 4)) ** (3 * n - 2)
        worst_const = max(worst_const, abs(sec_power - expected) / expected)
    worst_slack = math.inf
    for n in range(2, 6):
        for t in range(125):
            a = s.gen_accretive_dissipative(n, s.child_seed(0xC8, n, t, 0))
            b = s.gen_accretive_dissipative(n, s.child_seed(0xC8, n, t, 1))
            worst_slack = min(worst_slack, s.check_corollary_ad(a, b).slack)
    ok = worst_const <= 1e-13 and worst_slack >= -1e-8
    verdict(
        8,
        "quarter-sector constant identity and accretive-dissipative suite",
        ok,
        f"max_const_gap={worst_const:.3e} min_slack={worst_slack:.3e}",
    )


def test_criterion_09_weak_log_majorization():
    worst = math.inf
    for n in range(2, 7):
        for t in range(100):
            alpha = ALPHA_GRID[1 + t % 3]
            a = s.gen_sectorial(n, alpha, s.child_seed(0xC9, n, t))
            worst = min(worst, s.check_weak_log_majorization(a).slack)
    ok = worst >= -1e-8
    verdict(9, "weak log-majorization partial products", ok, f"min_slack={worst:.3e}")


def test_criterion_10_refinement_ordering():
    worst = math.inf
    for n in range(2, 7):
        for t in range(200):
            a = s.gen_positive_definite(n, s.child_seed(0xCA, n, t, 0))
            b = s.gen_positive_definite(n, s.child_seed(0xCA, n, t, 1))
            levels = s.determinant_bound_levels(a, b)
            steps = (
                (levels.sqrt_refined, levels.ratio_refined),
                (levels.ratio_refined, levels.superadditive),
                (levels.lhs, levels.sqrt_refined),
            )
            for hi, lo in steps:
                worst = min(worst, (hi - lo) / max(abs(hi), abs(lo), 1.0))
    ok = worst >= -1e-10
    verdict(10, "determinant bound refinement ordering", ok, f"min_step_slack={worst:.3e}")
