"""Command line front end: matrix file I/O, single inequality checks,
randomized trial suites, and numerical-range boundary export.

Exit codes: 0 success (check holds / suite clean), 1 usage or parse error,
2 precondition failure (e.g. operand not sectorial), 3 inequality violated.
For ``trials schur-wrongsec`` the meaning of 0 flips: the suite succeeds
exactly when a counterexample is found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import claim2 as claim2_mod
from . import inequalities as ineq
from . import linalg, sector
from .errors import SectoriaError
from .generators import (
    TrialConfig,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    stream_key,
    trial_addresses,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3


# A check raises one of these when an operand fails its preconditions or its
# arithmetic fails: exit code 2, and a chunk of trials is replayed one by one.
_PRECONDITION_ERRORS = (SectoriaError, ValueError, ArithmeticError)


class UsageError(Exception):
    """Bad flags or operands; maps to exit code 1."""


class MatrixFileError(Exception):
    """Malformed matrix file; maps to exit code 1."""


def read_matrix(path: str) -> np.ndarray:
    """Read a matrix file: JSON object {n, re, im} with n-by-n real arrays."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    try:
        n = int(doc["n"])
        re = np.array(doc["re"], dtype=float)
        im = np.array(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: expected JSON object with n, re, im") from exc
    if re.shape != (n, n) or im.shape != (n, n) or n < 1:
        raise MatrixFileError(f"{path}: re and im must both be {n}-by-{n}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise MatrixFileError(f"{path}: entries must be finite")
    return re + 1j * im


def write_matrix(path: str, a) -> None:
    """Write a matrix file; float round-trip is exact via repr formatting."""
    m = linalg.as_square_matrix(a)
    n = m.shape[0]
    doc = {
        "n": n,
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _resolve_tol(args) -> float:
    if args.tol is None:
        return ineq.DEFAULT_TOL
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    return args.tol


def _block(a: np.ndarray, partition: int | None) -> int:
    """The leading block size: ``partition`` if given, else n // 2 (at least 1)."""
    return partition if partition is not None else max(a.shape[-1] // 2, 1)


class Check(NamedTuple):
    """A named check: its operand family, its evaluator, and whether it splits
    A into a leading block and the rest (or steps k = 1..n-1), so that it
    needs n >= 2.

    The evaluator is ``evaluate(a, b, alpha, partition, tol)``.  It calls
    the check's one function, ``check_*``, on operand stacks of shape
    (T, n, n), as ``trials`` does, and returns T reports, or on one matrix
    per operand, as ``check`` does, and returns one report.  ``b`` is None
    for the single family, and for the sequence family, whose ``a`` is a
    ``PositiveSequencePair`` of stacked rows; a ``partition`` of None
    selects the default.
    """

    family: str
    evaluate: Callable[..., ineq.Reports]
    partitioned: bool = False


CHECKS = {
    "det-superadditivity": Check("pd_pair", lambda a, b, alpha, p, tol: ineq.check_det_superadditivity(a, b, tol)),
    "haynsworth": Check("pd_pair", lambda a, b, alpha, p, tol: ineq.check_haynsworth(a, b, tol)),
    "hartfiel": Check("pd_pair", lambda a, b, alpha, p, tol: ineq.check_hartfiel(a, b, tol)),
    "schur-pd": Check("pd_pair", lambda a, b, alpha, p, tol: ineq.check_schur_pd(a, b, _block(a, p), tol), True),
    "main1": Check("sectorial_pair", lambda a, b, alpha, p, tol: ineq.check_main1(a, b, alpha, _block(a, p), tol), True),
    "main2": Check("sectorial_pair", lambda a, b, alpha, p, tol: ineq.check_main2(a, b, alpha, tol)),
    "det-step": Check("sectorial_pair", lambda a, b, alpha, p, tol: ineq.check_det_step(a, b, alpha, p, tol), True),
    "lemma-2-4": Check("single", lambda a, b, alpha, p, tol: ineq.check_inverse_real_part(a, tol)),
    "lemma-2-5": Check("single", lambda a, b, alpha, p, tol: ineq.check_schur_real_part(a, _block(a, p), tol), True),
    "lemma-2-6": Check("single", lambda a, b, alpha, p, tol: ineq.check_ostrowski_taussky_complement(a, tol)),
    "claim1": Check("single", lambda a, b, alpha, p, tol: ineq.check_claim1(a, _block(a, p), tol), True),
    "weak-log-major": Check("single", lambda a, b, alpha, p, tol: ineq.check_weak_log_majorization(a, tol)),
    "schur-wrongsec": Check("single", lambda a, b, alpha, p, tol: ineq.check_schur_wrongsec(a, _block(a, p), tol), True),
    "corollary-ad": Check("ad_pair", lambda a, b, alpha, p, tol: ineq.check_corollary_ad(a, b, tol)),
    "claim2": Check("sequence", lambda a, b, alpha, p, tol: claim2_mod.check_claim2(a, tol)),
}


@functools.lru_cache(maxsize=1)
def _suite_keys(seed: int) -> tuple:
    """The Philox keys of a suite's operands k = 0, 1: ``stream_key(seed, k)``
    as two ints each.  Trial i of operand k is the address (key k, i)."""
    return tuple(tuple(stream_key(seed, k).tolist()) for k in (0, 1))


def _trials(c: TrialConfig, lo: int, hi: int, k: int) -> np.ndarray:
    """The addresses of trials lo..hi-1 of the suite's operand k."""
    return trial_addresses(_suite_keys(c.seed)[k], lo, hi)


def _pair(gen):
    """Draw two operand stacks ``gen(config, addresses)``: trials of operands 0 and 1."""
    return lambda c, lo, hi: (gen(c, _trials(c, lo, hi, 0)), gen(c, _trials(c, lo, hi, 1)))


# Operand family -> draw(config, lo, hi) giving the stacked (a, b) of trials lo..hi-1.
FAMILIES = {
    "pd_pair": _pair(lambda c, addresses: gen_positive_definite(c.n, addresses)),
    "sectorial_pair": _pair(lambda c, addresses: gen_sectorial(c.n, c.alpha, addresses)),
    "ad_pair": _pair(lambda c, addresses: gen_accretive_dissipative(c.n, addresses)),
    "single": lambda c, lo, hi: (gen_sectorial(c.n, c.alpha, _trials(c, lo, hi, 0)), None),
    "sequence": lambda c, lo, hi: (claim2_mod.random_sequence_pair(c.n, _trials(c, lo, hi, 0)), None),
}


def _lookup(name: str, n: int | None = None) -> Check:
    """The check called ``name``; with ``n`` given, also require n >= 2 of a
    partitioned check."""
    try:
        check = CHECKS[name]
    except KeyError:
        raise UsageError(f"unknown check {name!r}; available: {', '.join(CHECKS)}") from None
    if check.partitioned and n is not None and n < 2:
        raise UsageError(f"check {name!r} needs n >= 2, got n = {n}")
    return check


def run_check(
    name: str,
    a: np.ndarray,
    b: np.ndarray | None,
    alpha: float | None,
    partition: int | None,
    tol: float,
) -> ineq.InequalityReport:
    """Dispatch a named check against parsed operands."""
    check = _lookup(name, a.shape[0])
    family = check.family
    if family != "single" and b is None:
        raise UsageError(f"check {name!r} requires two matrix files")
    if family == "single" and b is not None:
        raise UsageError(f"check {name!r} takes a single matrix file")
    if family == "sectorial_pair" and alpha is None:
        raise UsageError(f"check {name!r} requires --alpha")
    if family == "sequence":
        # claim2's sequences are (1, |det A_1|, ..., |det A_n|) and the same
        # for B; they go in as logs, since a minor may lie outside the float range.
        log_an, x = ineq.log_minor_ratios(a, b)
        return claim2_mod.check_claim2_logs([log_an], np.concatenate(([0.0], x))[None], tol)[0]
    return check.evaluate(a, b, alpha, partition, tol)


@dataclass(frozen=True)
class SuiteSummary:
    """Aggregate of one randomized trial suite, with the config it ran."""

    name: str
    config: TrialConfig
    failures: int
    min_slack: float
    median_slack: float

    def to_dict(self) -> dict:
        c = self.config
        return {
            "name": self.name,
            "trials": c.trials,
            "failures": self.failures,
            "min_slack": self.min_slack,
            "median_slack": self.median_slack,
            "config": {"seed": c.seed, "n": c.n, "alpha": c.alpha, "partition": c.partition},
        }


def chunk_size(n: int, family: str = "single") -> int:
    """Trials evaluated as one stack at dimension n: at most
    ``linalg.STACK_ENTRIES`` entries per operand stack, and at least one
    trial.  A matrix operand has n * n entries, a sequence n + 1."""
    return max(1, linalg.STACK_ENTRIES // (n + 1 if family == "sequence" else n * n))


def _trial_reports(name: str, config: TrialConfig, tol: float) -> list[ineq.InequalityReport]:
    """The reports of trials 0..trials-1, drawn and evaluated a chunk at a time.

    When a chunk raises a precondition or numerical error, it is replayed
    one trial at a time in index order, so the first trial that fails raises
    exactly what it raises on its own.
    """
    check = _lookup(name, config.n)
    draw = FAMILIES[check.family]

    def run(lo, hi):
        return check.evaluate(*draw(config, lo, hi), config.alpha, config.partition, tol)

    reports = []
    step = chunk_size(config.n, check.family)
    for lo in range(0, config.trials, step):
        hi = min(lo + step, config.trials)
        try:
            reports += run(lo, hi)
        except _PRECONDITION_ERRORS:
            if hi - lo == 1:
                raise
            for i in range(lo, hi):
                reports += run(i, i + 1)
    return reports


def run_trials(name: str, config: TrialConfig, tol: float) -> SuiteSummary:
    """Run ``config.trials`` independent trials of a named check.

    Each trial draws from its own address, fixed by the trial's index, so
    the summary is identical no matter how the trials would be scheduled.
    A NaN slack in any trial makes both slack statistics NaN.
    """
    reports = _trial_reports(name, config, tol)
    slacks = [r.slack for r in reports]
    if any(math.isnan(x) for x in slacks):
        lowest = middle = math.nan
    else:
        lowest, middle = min(slacks), float(statistics.median(slacks))
    failures = sum(1 for r in reports if not r.holds)
    return SuiteSummary(name, config, failures, min_slack=lowest, median_slack=middle)


def falsify_schur_wrongsec(config: TrialConfig, tol: float = ineq.DEFAULT_TOL) -> ineq.InequalityReport:
    """Search the trials of a ``schur-wrongsec`` suite for a violation of the
    uncorrected Schur bound; returns the most negative-slack report.

    Each trial draws from its own address, fixed by the trial's index, so
    the reduction is deterministic regardless of evaluation order; ties
    keep the lowest trial index.
    """
    reports = _trial_reports("schur-wrongsec", config, tol)
    worst_index = min(range(len(reports)), key=lambda i: reports[i].slack)
    worst = reports[worst_index]
    outcome = "no counterexample found" if worst.holds else f"counterexample at trial {worst_index}"
    return replace(worst, detail=f"{worst.detail} trials={config.trials} {outcome}")


def _cmd_angle(args) -> int:
    thetas = sector.sectorial_thetas(read_matrix(args.file))
    angle = float(sector.half_angle(thetas))
    print(f"alpha_rad {angle!r}")
    print(f"alpha_deg {math.degrees(angle)!r}")
    print("thetas " + " ".join(repr(float(t)) for t in thetas))
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.alpha is not None and not 0.0 <= args.alpha < math.pi / 2:
        raise UsageError("--alpha must lie in [0, pi/2)")
    tol = _resolve_tol(args)
    a = read_matrix(args.file_a)
    b = read_matrix(args.file_b) if args.file_b is not None else None
    n = a.shape[0]
    if args.partition is not None and not 1 <= args.partition <= n - 1:
        raise UsageError(f"--partition must satisfy 1 <= p <= {n - 1} for n = {n}")
    report = run_check(args.name, a, b, args.alpha, args.partition, tol)
    print(json.dumps(report.to_dict()))
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_trials(args) -> int:
    _lookup(args.name)
    tol = _resolve_tol(args)
    try:
        config = TrialConfig(
            seed=args.seed,
            n=args.n,
            alpha=args.alpha,
            trials=args.trials,
            partition=args.partition,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    summary = run_trials(args.name, config, tol)
    print(json.dumps(summary.to_dict()))
    if args.name == "schur-wrongsec":
        return EXIT_OK if summary.failures > 0 else EXIT_VIOLATION
    return EXIT_OK if summary.failures == 0 else EXIT_VIOLATION


def _cmd_boundary(args) -> int:
    if args.points < 3:
        raise UsageError("--points must be at least 3")
    m = read_matrix(args.file)
    points = sector.numerical_range_boundary(m, args.points)
    lines = ["re,im"] + [f"{float(p.real)!r},{float(p.imag)!r}" for p in points]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a separate value such as -inf, -nan or -1e-3 for an
        # option flag; joined to its option, as --tol=-inf, it is a value.
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in ("--alpha", "--tol") and token.startswith("-") and _is_float(token):
                joined[-1] += f"={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sectoria", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_angle = sub.add_parser("angle", help="sector half-angle and angle vector of a matrix")
    p_angle.add_argument("file", help="matrix JSON file {n, re, im}")
    p_angle.set_defaults(func=_cmd_angle)

    p_check = sub.add_parser("check", help="run one named inequality check")
    p_check.add_argument("name", help=f"one of: {', '.join(CHECKS)}")
    p_check.add_argument("file_a", help="matrix JSON file for A")
    p_check.add_argument("file_b", nargs="?", default=None, help="matrix JSON file for B")
    p_check.add_argument("--alpha", type=float, default=None, help="sector half-angle (radians)")
    p_check.add_argument("--partition", type=int, default=None, help="leading block size p (or k for det-step)")
    p_check.add_argument("--tol", type=float, default=None, help="slack tolerance (default 1e-8)")
    p_check.set_defaults(func=_cmd_check)

    p_trials = sub.add_parser("trials", help="randomized trial suite for one check")
    p_trials.add_argument("name", help=f"one of: {', '.join(CHECKS)}")
    p_trials.add_argument("--seed", type=int, default=0)
    p_trials.add_argument("--n", type=int, required=True, help="matrix dimension")
    p_trials.add_argument("--alpha", type=float, default=0.0, help="sector half-angle (radians)")
    p_trials.add_argument("--trials", type=int, default=100)
    p_trials.add_argument("--partition", type=int, default=None)
    p_trials.add_argument("--tol", type=float, default=None)
    p_trials.set_defaults(func=_cmd_trials)

    p_boundary = sub.add_parser("boundary", help="export numerical-range boundary points as CSV")
    p_boundary.add_argument("file", help="matrix JSON file")
    p_boundary.add_argument("--points", type=int, default=360, help="number of boundary points")
    p_boundary.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_boundary.set_defaults(func=_cmd_boundary)
    return parser


@functools.lru_cache(maxsize=None)
def _cached_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _cached_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, MatrixFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    raise SystemExit(main())
