"""The benchmark's workloads: fixed mixes of requests to sectoria's public
entry points, and the checks applied to every output.

Each workload is a closed loop over numbered cycles.  Cycle ``c`` is a list
of ops whose inputs depend only on the workload seed and ``c``, so a run that
completes cycles ``0..C-1`` sends the same requests on every machine.  The
reasons for each workload are in NOTES.md.

An op's outcome has three parts.  ``failed`` counts the work units (suite
trials or requests) the program got wrong or did not finish: an exception,
an exit code it should not give, a reported violation of a proven
inequality, or a non-finite slack.  ``wrong`` marks an answer the program
returned as valid that the benchmark's own check rejects; it clears
``correct`` in the result.  ``record`` is the text that goes into the
output digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

ALPHA = 0.785
ALPHA_ARG = "0.785"

# Operand family of each named check.
FAMILY = {
    "det-superadditivity": "pd_pair",
    "haynsworth": "pd_pair",
    "hartfiel": "pd_pair",
    "schur-pd": "pd_pair",
    "main1": "sectorial_pair",
    "main2": "sectorial_pair",
    "det-step": "sectorial_pair",
    "lemma-2-4": "single",
    "lemma-2-5": "single",
    "lemma-2-6": "single",
    "claim1": "single",
    "weak-log-major": "single",
    "schur-wrongsec": "single",
    "corollary-ad": "ad_pair",
    "claim2": "sequence",
}
FAMILIES = ("pd_pair", "sectorial_pair", "single", "ad_pair", "sequence")
# The one named bound that is false in general; a suite of it succeeds
# exactly when it finds a counterexample.
UNPROVEN = "schur-wrongsec"

# Interactive-workload acceptance limits on the oracles' agreement.
ANGLE_ATOL = 1e-8
IDENTITY_RTOL = 1e-8


def derive_seed(seed: int, *path: int) -> int:
    """63-bit seed for substream ``path`` of the workload seed."""
    text = "/".join(str(int(p)) for p in (seed, *path))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class Outcome:
    failed: int
    wrong: bool
    record: str


@dataclass(frozen=True)
class Op:
    """One request: ``call`` runs the program, ``check`` judges its output.

    ``check(value, exc, out, err)`` receives the call's return value, the
    exception it raised (or None) and its captured stdout and stderr.
    """

    kind: str
    family: str | None
    units: int
    call: Callable[[], object]
    check: Callable[[object, BaseException | None, str, str], Outcome]


@dataclass(frozen=True)
class Result:
    kind: str
    family: str | None
    units: int
    start: float
    latency: float
    raised: bool
    outcome: Outcome


def execute(op: Op, tracer=None, op_id: int = 0) -> Result:
    """Run one op with its output captured; never raises for a program error."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.op(op_id, op.kind) if tracer is not None else nullcontext()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with span:
                value = op.call()
            exc = None
        except Exception as e:  # one failing request must not stop the run
            value, exc = None, e
        latency = time.perf_counter() - t0
    try:
        outcome = op.check(value, exc, out.getvalue(), err.getvalue())
    except Exception as e:  # an output the check cannot even parse
        outcome = Outcome(op.units, True, f"unreadable output: {type(e).__name__}: {e}")
    return Result(op.kind, op.family, op.units, t0, latency, exc is not None, outcome)


def _raised(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_suite(name: str, trials: int):
    """Judge the output of ``sectoria trials NAME ... --trials TRIALS``."""

    def check(rc, exc, out, err) -> Outcome:
        if exc is not None:
            return Outcome(trials, False, _raised(exc))
        record = f"rc={rc} {out.strip()} {err.strip()}"
        lines = out.strip().splitlines()
        if not lines:
            # A usage or precondition error the program reported by exit code.
            return Outcome(trials, rc == 0, record)
        summary = json.loads(lines[-1])
        if summary.get("name") != name or summary.get("trials") != trials:
            return Outcome(trials, True, record)
        failures = int(summary["failures"])
        finite = _finite(summary["min_slack"]) and _finite(summary["median_slack"])
        if name == UNPROVEN:
            found = failures > 0
            if rc != (0 if found else 3):
                return Outcome(trials, True, record)
            return Outcome(0 if found else trials, False, record)
        if rc != (0 if failures == 0 else 3):
            return Outcome(trials, True, record)
        if failures == 0 and not finite:
            return Outcome(trials, True, record)
        return Outcome(failures, False, record)

    return check


def check_report(name: str):
    """Judge the output of ``sectoria check NAME FILE [FILE]``."""

    def check(rc, exc, out, err) -> Outcome:
        if exc is not None:
            return Outcome(1, False, _raised(exc))
        record = f"rc={rc} {out.strip()} {err.strip()}"
        if rc not in (0, 3):
            return Outcome(1, False, record)
        report = json.loads(out)
        holds = report["holds"]
        if (rc == 0) != holds or (holds and not _finite(report["slack"])):
            return Outcome(1, True, record)
        if name != UNPROVEN and not holds:
            return Outcome(1, False, record)
        return Outcome(0, False, record)

    return check


def check_angle(planted: float):
    def check(rc, exc, out, err) -> Outcome:
        if exc is not None:
            return Outcome(1, False, _raised(exc))
        record = f"rc={rc} {out.strip()} {err.strip()}"
        if rc != 0:
            return Outcome(1, False, record)
        first = out.splitlines()[0].split()
        angle = float(first[1])
        ok = first[0] == "alpha_rad" and abs(angle - planted) <= ANGLE_ATOL
        return Outcome(0 if ok else 1, not ok, record)

    return check


def check_boundary(points: int):
    def check(rc, exc, out, err) -> Outcome:
        if exc is not None:
            return Outcome(1, False, _raised(exc))
        record = f"rc={rc} {out} {err.strip()}"
        if rc != 0:
            return Outcome(1, False, record)
        lines = out.splitlines()
        ok = len(lines) == points + 1 and lines[0] == "re,im" and all(
            all(math.isfinite(float(v)) for v in line.split(",")) for line in lines[1:]
        )
        return Outcome(0 if ok else 1, not ok, record)

    return check


def check_close(reference: float, atol: float, measure=float):
    """A library call whose ``measure(value)`` must lie within ``atol`` of ``reference``."""

    def check(value, exc, out, err) -> Outcome:
        if exc is not None:
            return Outcome(1, False, _raised(exc))
        v = float(measure(value))
        ok = math.isfinite(v) and abs(v - reference) <= atol
        return Outcome(0 if ok else 1, not ok, repr(v))

    return check


def check_planted(n: int):
    """``gen_sectorial_planted(n, ALPHA, seed)``: the planted angle is attained."""

    def check(value, exc, out, err) -> Outcome:
        if exc is not None:
            return Outcome(1, False, _raised(exc))
        a, thetas = value
        ok = (
            a.shape == (n, n)
            and bool(abs(a).max() < math.inf)
            and float(thetas[0]) == ALPHA
            and bool(abs(thetas).max() <= ALPHA)
        )
        digest = hashlib.sha256(a.tobytes() + thetas.tobytes()).hexdigest()
        return Outcome(0 if ok else 1, not ok, digest)

    return check


class Suites:
    """Closed loop of ``sectoria trials`` calls.

    ``checks`` maps a check name to ``(trials per call, calls per cycle)``.
    A cycle makes one round of calls over the checks, then further rounds
    over the checks that have calls left.
    """

    digest_cycles = 1

    def __init__(self, seed: int, n: int, checks: dict[str, tuple[int, int]]):
        self.seed = seed
        self.n = n
        self.checks = checks

    def setup(self, pkg, workdir: str) -> None:
        self.cli = pkg.cli

    def _op(self, name: str, trials: int, seed: int, n: int, extra=()) -> Op:
        argv = ["trials", name, "--n", str(n), "--alpha", ALPHA_ARG,
                "--trials", str(trials), "--seed", str(seed), *extra]
        cli = self.cli
        return Op(f"trials {name}", FAMILY[name], trials,
                  lambda: cli.main(argv), check_suite(name, trials))

    def warm_up_ops(self) -> list[Op]:
        """One trial of each check at n <= 8, det-step at a single k: every
        code path runs once, but set-up time stays mostly import time."""
        n = min(self.n, 8)
        return [
            self._op(name, 1, derive_seed(self.seed, -1, i), n,
                     ("--partition", str(n // 2)) if name == "det-step" else ())
            for i, name in enumerate(self.checks)
        ]

    def cycle(self, c: int) -> list[Op]:
        rounds = max(calls for _, calls in self.checks.values())
        return [
            self._op(name, trials, derive_seed(self.seed, c, i, r), self.n)
            for r in range(rounds)
            for i, (name, (trials, calls)) in enumerate(self.checks.items())
            if r < calls
        ]


class Interactive:
    """Single-matrix requests at n=16, served from matrix files written at set-up.

    Set-up writes ``slots`` groups of operands; cycle ``c`` sends the fixed
    request mix against slot ``c % slots``.
    """

    n = 16
    slots = 16
    boundary_points = 360

    def __init__(self, seed: int):
        self.seed = seed
        self.digest_cycles = self.slots

    @staticmethod
    def _write(path: str, m) -> None:
        doc = {"n": int(m.shape[0]),
               "re": [[float(v) for v in row] for row in m.real],
               "im": [[float(v) for v in row] for row in m.imag]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    def setup(self, pkg, workdir: str) -> None:
        self.pkg = pkg
        os.makedirs(workdir, exist_ok=True)
        self.files = []
        self.refs = []
        n = self.n
        for j in range(self.slots):
            s = lambda k: derive_seed(self.seed, j, k)  # noqa: E731
            a, thetas = pkg.gen_sectorial_planted(n, ALPHA, s(0))
            mats = {
                "a": a,
                "b": pkg.gen_sectorial(n, ALPHA, s(1)),
                "p": pkg.gen_positive_definite(n, s(2)),
                "q": pkg.gen_positive_definite(n, s(3)),
                "c": pkg.gen_accretive_dissipative(n, s(4)),
                "d": pkg.gen_accretive_dissipative(n, s(5)),
            }
            paths = {}
            for key, m in mats.items():
                paths[key] = os.path.join(workdir, f"{key}{j}.json")
                self._write(paths[key], m)
            a_file = pkg.cli.read_matrix(paths["a"])
            self.files.append(paths)
            self.refs.append({
                "planted": float(max(abs(thetas))),
                "angle": pkg.sectorial_decompose(a_file).angle,
                "norm": pkg.frobenius(a_file),
            })

    def _cli(self, kind, family, argv, check) -> Op:
        cli = self.pkg.cli
        return Op(kind, family, 1, lambda: cli.main(argv), check)

    def _lib(self, kind, fn_name, path, args, check) -> Op:
        pkg = self.pkg

        def call():
            return getattr(pkg, fn_name)(pkg.cli.read_matrix(path), *args)

        return Op(kind, None, 1, call, check)

    def _ops(self, j: int, gen_seed: int) -> list[Op]:
        f = self.files[j]
        ref = self.refs[j]
        p = self.n // 2
        ops = []
        for name, family in FAMILY.items():
            if family == "pd_pair":
                argv = ["check", name, f["p"], f["q"]]
            elif family == "sectorial_pair":
                argv = ["check", name, f["a"], f["b"], "--alpha", ALPHA_ARG]
            elif family == "ad_pair":
                argv = ["check", name, f["c"], f["d"]]
            elif family == "sequence":
                argv = ["check", name, f["a"], f["b"]]
            else:
                argv = ["check", name, f["a"]]
            ops.append(self._cli(f"check {name}", family, argv, check_report(name)))
        ops.append(self._cli("angle", None, ["angle", f["a"]], check_angle(ref["planted"])))
        ops.append(self._cli(
            "boundary", None,
            ["boundary", f["a"], "--points", str(self.boundary_points)],
            check_boundary(self.boundary_points),
        ))
        ops.append(self._lib("sector_angle_bisect", "sector_angle_bisect", f["a"], (),
                             check_close(ref["angle"], ANGLE_ATOL)))
        norm = ref["norm"]
        ops.append(self._lib("cartesian_schur_identity", "cartesian_schur_identity", f["a"],
                             (p,), check_close(0.0, IDENTITY_RTOL, lambda v: v.residual / norm)))
        ops.append(self._lib("inverse_block_identity", "inverse_block_identity", f["a"], (p,),
                             check_close(0.0, IDENTITY_RTOL)))
        ops.append(self._lib("real_inverse_identity", "real_inverse_identity", f["a"], (),
                             check_close(0.0, IDENTITY_RTOL)))
        pkg, n = self.pkg, self.n
        ops.append(Op("gen_sectorial_planted", None, 1,
                      lambda: pkg.gen_sectorial_planted(n, ALPHA, gen_seed),
                      check_planted(n)))
        return ops

    def warm_up_ops(self) -> list[Op]:
        return self._ops(0, derive_seed(self.seed, -1))

    def cycle(self, c: int) -> list[Op]:
        return self._ops(c % self.slots, derive_seed(self.seed, c, -1))


# Trials per call are set so that each call costs about 15 ms at n=6 on the
# reference host: every check gets an equal share of the run, request latency
# is one mode rather than fifteen, and a 30 s run makes enough calls for a p99.
SUITES_SMALL_CHECKS = {
    "det-superadditivity": (30, 1),
    "haynsworth": (30, 1),
    "hartfiel": (25, 1),
    "schur-pd": (30, 1),
    "main1": (22, 1),
    "main2": (20, 1),
    "det-step": (8, 1),
    "lemma-2-4": (50, 1),
    "lemma-2-5": (50, 1),
    "lemma-2-6": (50, 1),
    "claim1": (50, 1),
    "weak-log-major": (75, 1),
    "schur-wrongsec": (50, 1),
    "corollary-ad": (18, 1),
    "claim2": (150, 1),
}
# The n=128 checks whose cost is LAPACK-bound, plus one single-matrix and one
# sequence check so that every operand family has a rate here too.  Calls
# cost about 0.1 s each, except det-step over all k, which is one trial of
# 127 steps, and claim2, which stays cheap.  The other checks are called
# twice per cycle, and claim2 six times, so that they get enough samples
# beside det-step.  main2, hartfiel and haynsworth run one trial per call.
# corollary-ad runs five, the size of the known reproduction
# (trials corollary-ad --n 128 --trials 5 --seed 0): now and then a trial
# raises OverflowError, which aborts the whole call.
SUITES_LARGE_CHECKS = {
    "main1": (2, 2),
    "main2": (1, 2),
    "hartfiel": (1, 2),
    "haynsworth": (1, 2),
    "corollary-ad": (5, 2),
    "schur-pd": (5, 2),
    "det-step": (1, 1),
    "lemma-2-6": (4, 2),
    "claim2": (500, 6),
}

WORKLOADS = ("suites-small", "suites-large", "interactive")


def make(name: str, seed: int):
    if name == "suites-small":
        return Suites(seed, 6, SUITES_SMALL_CHECKS)
    if name == "suites-large":
        return Suites(seed, 128, SUITES_LARGE_CHECKS)
    if name == "interactive":
        return Interactive(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
