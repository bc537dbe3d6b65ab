"""The batched trial engine against the per-trial loop it replaces.

``cli._trial_reports`` draws each chunk of trials as (T, n, n) stacks and
evaluates every check over the stack.  Its arithmetic is the per-matrix
arithmetic, so it must agree with the public single-matrix functions called
trial by trial bit for bit: these tests compare with equality, never with a
tolerance.
"""

import math

import numpy as np
import pytest

import sectoria as s
from sectoria import cli
from sectoria.cli import CHECKS, FAMILIES, build_parser, chunk_size, main
from sectoria.generators import MIN_FACTOR_SIGMA, TrialConfig, stream_key, trial_addresses
from oracles import philox, seed_key, trial_offset

ALPHA = 0.785

# One trial's check through the public single-matrix function; p is the
# registry's default partition n // 2.
SINGLE = {
    "det-superadditivity": lambda a, b, p: s.check_det_superadditivity(a, b),
    "haynsworth": lambda a, b, p: s.check_haynsworth(a, b),
    "hartfiel": lambda a, b, p: s.check_hartfiel(a, b),
    "schur-pd": lambda a, b, p: s.check_schur_pd(a, b, p),
    "main1": lambda a, b, p: s.check_main1(a, b, ALPHA, p),
    "main2": lambda a, b, p: s.check_main2(a, b, ALPHA),
    "det-step": lambda a, b, p: s.check_det_step(a, b, ALPHA),
    "lemma-2-4": lambda a, b, p: s.check_inverse_real_part(a),
    "lemma-2-5": lambda a, b, p: s.check_schur_real_part(a, p),
    "lemma-2-6": lambda a, b, p: s.check_ostrowski_taussky_complement(a),
    "claim1": lambda a, b, p: s.check_claim1(a, p),
    "weak-log-major": lambda a, b, p: s.check_weak_log_majorization(a),
    "schur-wrongsec": lambda a, b, p: s.check_schur_wrongsec(a, p),
    "corollary-ad": lambda a, b, p: s.check_corollary_ad(a, b),
    "claim2": lambda pair, b, p: s.check_claim2(pair),
}


def address(c: TrialConfig, i: int, k: int) -> np.ndarray:
    """The address of trial i of the suite's operand k, as a stack of one."""
    return trial_addresses(stream_key(c.seed, k), i, i + 1)


def draw_one(family: str, c: TrialConfig, i: int):
    """Trial i's operands from the public generators, drawn alone at its address."""
    pair = (address(c, i, 0), address(c, i, 1))
    if family == "pd_pair":
        return tuple(s.gen_positive_definite(c.n, x)[0] for x in pair)
    if family == "sectorial_pair":
        return tuple(s.gen_sectorial(c.n, c.alpha, x)[0] for x in pair)
    if family == "ad_pair":
        return tuple(s.gen_accretive_dissipative(c.n, x)[0] for x in pair)
    if family == "single":
        return s.gen_sectorial(c.n, c.alpha, address(c, i, 0))[0], None
    rows = s.random_sequence_pair(c.n, address(c, i, 0))
    return s.PositiveSequencePair(rows.a[0], rows.b[0]), None


def bits(report):
    return report.slack.hex(), report.holds, report.detail


def per_trial_reports(name: str, c: TrialConfig):
    p = max(c.n // 2, 1)
    family = CHECKS[name].family
    return [SINGLE[name](*draw_one(family, c, i), p) for i in range(c.trials)]


def test_single_table_covers_the_registry():
    assert list(SINGLE) == list(CHECKS)


def test_chunk_size():
    assert [chunk_size(n) for n in (1, 6, 16, 40, 128, 256)] == [16384, 455, 64, 10, 1, 1]
    assert [chunk_size(n, "sequence") for n in (6, 128, 16383, 16384)] == [2340, 127, 1, 1]


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", list(CHECKS))
def test_reports_do_not_depend_on_the_chunk_size(name, n, monkeypatch):
    # Chunks of 1, of 7 (boundaries at trials 7 and 14) and the default one
    # chunk: every trial draws at its own address, so the reports, and with
    # them the summaries, are the same bits.
    c = TrialConfig(seed=7, n=n, alpha=ALPHA, trials=16)
    default = [bits(r) for r in cli._trial_reports(name, c, s.DEFAULT_TOL)]
    assert chunk_size(n, CHECKS[name].family) >= c.trials
    for size in (1, 7):
        monkeypatch.setattr(cli, "chunk_size", lambda n, family="single": size)
        assert [bits(r) for r in cli._trial_reports(name, c, s.DEFAULT_TOL)] == default


@pytest.mark.parametrize("n, trials", [(2, 9), (3, 9), (6, 12), (16, 66), (40, 25)])
@pytest.mark.parametrize("name", list(CHECKS))
def test_engine_equals_per_trial_checks(name, n, trials):
    # n = 16 runs in chunks of 64 and 2 trials, whose order-8 Schur blocks
    # are solved as one batch; n = 40 runs in three chunks of 10, 10 and 5.
    c = TrialConfig(seed=11, n=n, alpha=ALPHA, trials=trials)
    engine = [bits(r) for r in cli._trial_reports(name, c, s.DEFAULT_TOL)]
    assert engine == [bits(r) for r in per_trial_reports(name, c)]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 40])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_draw_equals_per_trial_generators(family, n):
    c = TrialConfig(seed=5, n=n, alpha=ALPHA, trials=7)
    a, b = FAMILIES[family](c, 2, 7)
    for t, i in enumerate(range(2, 7)):
        one_a, one_b = draw_one(family, c, i)
        if family == "sequence":
            np.testing.assert_array_equal(a.a[t], one_a.a)
            np.testing.assert_array_equal(a.b[t], one_a.b)
            continue
        np.testing.assert_array_equal(a[t], one_a)
        if b is not None:
            np.testing.assert_array_equal(b[t], one_b)


def box_muller_oracle(u: np.ndarray) -> np.ndarray:
    """Box-Muller on one matrix's uniforms (2, n, n): radius from u[0], phase from u[1]."""
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    phase = 2.0 * np.pi * u[1]
    return radius * np.cos(phase) + 1j * (radius * np.sin(phase))


def gaussian_oracle(n: int, rng) -> np.ndarray:
    """Box-Muller on the stream's next 2 n**2 uniforms, one matrix at a time."""
    return box_muller_oracle(rng.random((2, n, n)))


def near_singular_oracle(x: np.ndarray) -> bool:
    return float(np.linalg.svd(x, compute_uv=False)[-1]) < MIN_FACTOR_SIGMA


def sectorial_oracle(n: int, alpha: float, key, i: int) -> np.ndarray:
    """The per-matrix sectorial draw of trial i of ``key`` written out:
    Box-Muller on the uniforms at the trial's counter offset, then the
    angles.  A nearly singular factor is redrawn, while it stays so, from
    the counter whose word 1 is i + 1, and the angles follow the draw kept.
    Then X Z X*."""
    rng = philox(key, trial_offset(i, 2 * n * n + n))
    x = gaussian_oracle(n, rng)
    if near_singular_oracle(x):
        rng = philox(key, (i + 1) << 64)
        x = gaussian_oracle(n, rng)
        while near_singular_oracle(x):
            x = gaussian_oracle(n, rng)
    thetas = rng.uniform(-alpha, alpha, size=n)
    thetas[0] = alpha
    return (x * np.exp(1j * thetas)) @ x.conj().T


# At n = 6 the first complex Gaussian factor of these draws has smallest
# singular value below MIN_FACTOR_SIGMA, so they are redrawn: the int seed
# REDRAW_SEED, and trial 552 of operand 0 of a suite with seed 101.
REDRAW_SEED = 622_951
REDRAW_TRIAL = (101, (0,), 552)


def test_redraw_cases_redraw():
    first = s.complex_gaussian(6, s.rng_stream(REDRAW_SEED))
    assert np.linalg.svd(first, compute_uv=False)[-1] < MIN_FACTOR_SIGMA
    seed, path, i = REDRAW_TRIAL
    first = gaussian_oracle(6, philox(seed_key(seed, *path), trial_offset(i, 2 * 36 + 6)))
    assert np.linalg.svd(first, compute_uv=False)[-1] < MIN_FACTOR_SIGMA


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
def test_sectorial_stack_matches_the_per_matrix_draw(n, monkeypatch):
    # (seed, path, trial index) of each draw; an int seed is the address
    # (its key, 0), and trial i of a suite's operand k has path (k,).
    draws = [(3, (), 0), (4, (), 0), (5, (1,), 7)]
    if n == 6:
        draws[1:1] = [(REDRAW_SEED, (), 0), REDRAW_TRIAL]
    keys = [seed_key(seed, *path) for seed, path, _ in draws]
    addresses = np.array([[*key, i] for key, (_, _, i) in zip(keys, draws)], dtype=np.uint64)
    # The Cholesky certificate clears a stack of factors with no SVD; the
    # stack with the redrawn factors fails it and reaches the SVD.
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda x, **kw: shapes.append(x.shape) or svd(x, **kw))
    stack = s.gen_sectorial(n, ALPHA, addresses)
    assert shapes[:1] == ([(len(draws), n, n)] if n == 6 else [])
    monkeypatch.undo()
    for m, key, (seed, path, i) in zip(stack, keys, draws):
        np.testing.assert_array_equal(m, sectorial_oracle(n, ALPHA, key, i))
        np.testing.assert_array_equal(m, s.gen_sectorial(n, ALPHA, trial_addresses(key, i, i + 1))[0])
        if not path:
            np.testing.assert_array_equal(m, s.gen_sectorial(n, ALPHA, seed))


def first_error(name: str, c: TrialConfig, draw):
    """The message of the first trial that raises in the per-trial loop."""
    p = max(c.n // 2, 1)
    for i in range(c.trials):
        try:
            SINGLE[name](*draw(i), p)
        except s.SectoriaError as exc:
            return i, str(exc)
    raise AssertionError("no trial raised")


def pd_oracle(u: np.ndarray) -> np.ndarray:
    """G G* + 0.1 I, symmetrized, for the Gaussian G of uniforms (2, n, n)."""
    g = box_muller_oracle(u)
    h = g @ g.conj().T + 0.1 * np.eye(len(g))
    return (h + h.conj().T) / 2.0


def reference_operands(family: str, c: TrialConfig, i: int):
    """Trial i's operands drawn from fresh numpy Philox generators: operand
    k's key is seed_key(seed, k), and the trial's uniforms start at its
    counter offset."""
    n = c.n
    keys = [seed_key(c.seed, k) for k in (0, 1)]
    if family == "pd_pair":
        return [pd_oracle(philox(key, trial_offset(i, 2 * n * n)).random((2, n, n))) for key in keys]
    if family == "sectorial_pair":
        return [sectorial_oracle(n, c.alpha, key, i) for key in keys]
    if family == "ad_pair":
        # H from the trial's first 2 n**2 uniforms, K from the next.
        uniforms = [philox(key, trial_offset(i, 4 * n * n)).random((2, 2, n, n)) for key in keys]
        return [pd_oracle(u[0]) + 1j * pd_oracle(u[1]) for u in uniforms]
    if family == "single":
        return [sectorial_oracle(n, c.alpha, keys[0], i)]
    logs = philox(keys[0], trial_offset(i, 2 * n)).uniform(math.log(1e-3), math.log(1e3), size=(2, n))
    return [np.concatenate(([1.0], np.exp(row))) for row in logs]


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_chunks_draw_from_numpys_streams(family, n):
    # At n = 40 the 25 trials are the three chunks of a suite.
    c = TrialConfig(seed=2**64 + 5, n=n, alpha=ALPHA, trials=25)
    step = chunk_size(n, family)
    for lo in range(0, c.trials, step):
        hi = min(lo + step, c.trials)
        drawn = [m for m in FAMILIES[family](c, lo, hi) if m is not None]
        if family == "sequence":
            drawn = [drawn[0].a, drawn[0].b]
        for i in range(lo, hi):
            for stack, expected in zip(drawn, reference_operands(family, c, i)):
                np.testing.assert_array_equal(stack[i - lo], expected)


def leave_sector(m: np.ndarray) -> np.ndarray:
    return -m  # the numerical range moves to the left half-plane


@pytest.mark.parametrize("n, trials, bad_b, bad_a", [(6, 8, 3, 5), (40, 25, 13, 15)])
@pytest.mark.parametrize("name", ["main1", "main2", "det-step"])
def test_first_failing_trial_reports_its_error(name, n, trials, bad_b, bad_a, monkeypatch, capsys):
    # At n = 6 both bad trials share the one chunk; at n = 40 they sit in the
    # second chunk (trials 10..19).  The stacked evaluation tests A and B as
    # one stack and reports trial bad_a's A, as A's failures come before B's.
    original = FAMILIES["sectorial_pair"]

    def patched(c, lo, hi):
        a, b = (m.copy() for m in original(c, lo, hi))
        if lo <= bad_b < hi:
            b[bad_b - lo] = leave_sector(b[bad_b - lo])
        if lo <= bad_a < hi:
            a[bad_a - lo] = leave_sector(a[bad_a - lo])
        return a, b

    c = TrialConfig(seed=2, n=n, alpha=ALPHA, trials=trials)

    def draw(i):
        a, b = draw_one("sectorial_pair", c, i)
        return (leave_sector(a) if i == bad_a else a), (leave_sector(b) if i == bad_b else b)

    index, message = first_error(name, c, draw)
    assert index == bad_b and message.startswith("B is not inside the sector")
    assert "witness point" in message

    monkeypatch.setitem(FAMILIES, "sectorial_pair", patched)
    argv = ["trials", name, "--n", str(n), "--alpha", str(ALPHA), "--trials", str(trials), "--seed", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name, reach_the_solve", [("main1", False), ("main1", True), ("schur-pd", False),
                                                    ("lemma-2-5", False), ("claim1", False)])
def test_singular_leading_block_in_a_batched_chunk(name, reach_the_solve, monkeypatch, capsys):
    # Trial 7 of a 20-trial chunk at n = 6 gets a zero leading 3-by-3 block.
    # Its preconditions reject it, before any Schur complement is formed, and
    # the suite prints what the per-trial loop (chunks of one trial) prints.
    # main1 alone still tests its blocks: with its precondition switched off,
    # the chunk's batched solve meets the singular block.
    family = CHECKS[name].family
    original = FAMILIES[family]

    def patched(c, lo, hi):
        a, b = original(c, lo, hi)
        a = a.copy()
        if lo <= 7 < hi:
            a[7 - lo, :3, :3] = 0.0
        return a, b

    monkeypatch.setitem(FAMILIES, family, patched)
    if reach_the_solve:
        monkeypatch.setattr(s.inequalities, "_require_sectorial_pair", lambda a, b, alpha: alpha)
    argv = ["trials", name, "--n", "6", "--alpha", str(ALPHA), "--trials", "20", "--seed", "3"]

    def run():
        rc = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return rc, captured.err

    batched = run()
    monkeypatch.setattr(cli, "chunk_size", lambda n, family="single": 1)
    assert batched == run()
    assert batched[0] == 2
    assert ("leading 3-by-3 block is numerically singular" in batched[1]) == reach_the_solve


# The checks that take Schur complements, with the operands whose leading
# blocks they solve: their preconditions show Re M positive definite for each.
COMPLEMENT_OPERANDS = {
    "main1": lambda a, b: (a, b, a + b),
    "schur-pd": lambda a, b: (a, b, a + b),
    "lemma-2-5": lambda a, b: (a, (a + a.conj().T) / 2),
    "claim1": lambda a, b: (a, (a + a.conj().T) / 2),
    "schur-wrongsec": lambda a, b: (a, a.conj().T, a + a.conj().T),
}


class TestNoSecondCertificate:
    """A check's preconditions prove every leading block it solves
    invertible: lambda_min(Re A) > PD_RTOL ||A||_F gives sigma_min(A11) >=
    lambda_min(Re A11) > PD_RTOL ||A11||_F, ten times PIVOT_RTOL, so no check
    but main1 runs the solve's own test, and claim1 shows Re A positive
    definite once.  main1 keeps the public, tested ``schur_complement``, the
    call that perfbench's tracer test pins inside it."""

    @pytest.mark.parametrize("n", [2, 6, 40])
    def test_no_check_tests_a_block_again(self, n, monkeypatch):
        calls = []
        require_invertible = s.linalg._require_invertible
        positive_definite = s.linalg.positive_definite_stack

        def counted_invertible(m):
            calls.append("invertible")
            return require_invertible(m)

        def counted_positive_definite(h, scale):
            calls.append("positive definite")
            return positive_definite(h, scale)

        monkeypatch.setattr(s.linalg, "_require_invertible", counted_invertible)
        monkeypatch.setattr(s.linalg, "positive_definite_stack", counted_positive_definite)
        for name in CHECKS:
            for trials in (1, 3):
                calls.clear()
                argv = ["trials", name, "--n", str(n), "--alpha", str(ALPHA), "--trials", str(trials)]
                assert main(argv) in (0, 3), name
                assert ("invertible" in calls) == (name == "main1"), name
                if name == "claim1":
                    assert calls == ["positive definite"]
        # The counter sees the test that a public Schur complement runs.
        calls.clear()
        s.schur_complement(s.gen_sectorial(n, ALPHA, 0), n // 2)
        assert calls == ["invertible"]

    @staticmethod
    def planted(n, delta, seed, c, alpha):
        """c U diag(s_j e^{i theta_j}) U*, normal, with |theta_j| < alpha and
        lambda_min(Re A) = s_1 cos theta_1 = PD_RTOL (1 + delta) ||A||_F up to
        rounding; U fixes e_1, so that A11 holds that eigenvalue.  alpha = 0
        gives a Hermitian positive definite A."""
        rng = np.random.default_rng([n, seed])
        u = np.eye(n, dtype=complex)
        u[1:, 1:] = np.linalg.qr(rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1)))[0]
        theta = 0.9 * alpha * rng.uniform(-1.0, 1.0, size=n)
        r = rng.uniform(0.5, 2.0, size=n)
        r[0] = s.linalg.PD_RTOL * (1 + delta) * np.linalg.norm(r[1:]) / math.cos(theta[0])
        return c * (u * (r * np.exp(1j * theta))) @ u.conj().T

    @pytest.mark.parametrize("n", [2, 6, 16])
    @pytest.mark.parametrize("name", list(COMPLEMENT_OPERANDS))
    def test_operands_at_the_precondition_floor_clear_the_solve_test(self, name, n):
        p = n // 2
        alpha = 0.0 if CHECKS[name].family == "pd_pair" else ALPHA
        verdicts = set()
        for c in (1e-200, 1.0, 1e200):
            for delta in (-0.5, 1e-2, 0.1, 1.0, 10.0):
                a = self.planted(n, delta, 0, c, alpha)
                b = self.planted(n, delta, 1, c, alpha)
                re = (a + a.conj().T) / 2
                accepted = np.linalg.eigvalsh(re)[0] > s.linalg.PD_RTOL * s.frobenius(a)
                verdicts.add(bool(accepted))
                if not accepted:
                    with pytest.raises(s.SectoriaError) as info:
                        CHECKS[name].evaluate(a, b, ALPHA, p, s.DEFAULT_TOL)
                    assert not isinstance(info.value, s.SingularMatrixError)
                    continue
                report = CHECKS[name].evaluate(a, b, ALPHA, p, s.DEFAULT_TOL)
                assert math.isfinite(report.slack)
                for m in COMPLEMENT_OPERANDS[name](a, b):
                    block = m[:p, :p]
                    sigma_min = np.linalg.svd(block / c, compute_uv=False)[-1]
                    assert sigma_min >= s.linalg.PIVOT_RTOL * s.frobenius(block / c)
        assert verdicts == {True, False}


def test_falsifier_keeps_the_lowest_index_on_ties(monkeypatch):
    c = TrialConfig(seed=0, n=4, alpha=ALPHA, trials=6)
    original = FAMILIES["single"]
    a, _ = original(c, 0, 1)
    assert not s.check_schur_wrongsec(a[0], 2).holds
    hermitian = s.gen_positive_definite(4, 9)

    def patched(config, lo, hi):
        stack = np.repeat(a, hi - lo, axis=0)
        for i in range(lo, min(hi, 2)):
            stack[i - lo] = hermitian
        return stack, None

    monkeypatch.setitem(FAMILIES, "single", patched)
    report = s.falsify_schur_wrongsec(c)
    assert report.detail.endswith("trials=6 counterexample at trial 2")


def test_parser_is_built_once_and_outputs_are_unchanged(tmp_path, capsys):
    assert build_parser() is not build_parser()
    path = str(tmp_path / "a.json")
    cli.write_matrix(path, s.gen_sectorial(4, ALPHA, 3))
    calls = [
        ["trials", "main1", "--n", "4", "--alpha", str(ALPHA), "--trials", "3"],
        ["check", "lemma-2-6", path],
    ]
    before = []
    for argv in calls:
        before.append((main(argv), capsys.readouterr().out))
    assert main(["trials", "main1", "--bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    after = [(main(argv), capsys.readouterr().out) for argv in calls]
    assert after == before
    assert [rc for rc, _ in after] == [0, 0]
    fresh = build_parser().parse_args(calls[0])
    assert fresh.func is cli._cmd_trials and fresh.n == 4


def test_replayed_chunk_without_a_failure_keeps_every_report(monkeypatch):
    # A chunk that raises is replayed trial by trial; a trial that then passes
    # contributes its report as usual.
    c = TrialConfig(seed=4, n=3, alpha=ALPHA, trials=5)
    expected = [bits(r) for r in cli._trial_reports("main2", c, s.DEFAULT_TOL)]
    stacked = CHECKS["main2"].evaluate

    def flaky(a, b, alpha, p, tol):
        if len(a) > 1:
            raise s.SingularMatrixError("stack-only failure")
        return stacked(a, b, alpha, p, tol)

    monkeypatch.setitem(CHECKS, "main2", CHECKS["main2"]._replace(evaluate=flaky))
    assert [bits(r) for r in cli._trial_reports("main2", c, s.DEFAULT_TOL)] == expected


def test_n1_suites_run_as_stacks():
    c = TrialConfig(seed=1, n=1, alpha=ALPHA, trials=4)
    for name in ("main2", "lemma-2-6", "claim2"):
        engine = [bits(r) for r in cli._trial_reports(name, c, s.DEFAULT_TOL)]
        assert engine == [bits(r) for r in per_trial_reports(name, c)]
        assert all(math.isfinite(float.fromhex(x)) for x, _, _ in engine)
