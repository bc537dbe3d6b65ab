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
from sectoria.generators import MIN_FACTOR_SIGMA, TrialConfig

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


def draw_one(family: str, c: TrialConfig, i: int):
    """Trial i's operands from the public single-matrix generators."""
    pair = (s.child_seed(c.seed, i, 0), s.child_seed(c.seed, i, 1))
    if family == "pd_pair":
        return tuple(s.gen_positive_definite(c.n, x) for x in pair)
    if family == "sectorial_pair":
        return tuple(s.gen_sectorial(c.n, c.alpha, x) for x in pair)
    if family == "ad_pair":
        return tuple(s.gen_accretive_dissipative(c.n, x) for x in pair)
    if family == "single":
        return s.gen_sectorial(c.n, c.alpha, s.child_seed(c.seed, i)), None
    return s.random_sequence_pair(c.n, s.child_seed(c.seed, i)), None


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


def sectorial_oracle(n: int, alpha: float, seed: int) -> np.ndarray:
    """The per-matrix sectorial draw written out: Box-Muller on the stream's
    uniforms, redrawn while the factor is nearly singular, then X Z X*."""
    rng = s.rng_stream(seed)
    x = gaussian_oracle(n, rng)
    while float(np.linalg.svd(x, compute_uv=False)[-1]) < MIN_FACTOR_SIGMA:
        x = gaussian_oracle(n, rng)
    thetas = rng.uniform(-alpha, alpha, size=n)
    thetas[0] = alpha
    return (x * np.exp(1j * thetas)) @ x.conj().T


# The first complex Gaussian factor of this seed's stream at n = 6 has
# smallest singular value below MIN_FACTOR_SIGMA, so its draw is redrawn.
REDRAW_SEED = 622_951


def test_redraw_seed_redraws():
    first = s.complex_gaussian(6, s.rng_stream(REDRAW_SEED))
    assert np.linalg.svd(first, compute_uv=False)[-1] < MIN_FACTOR_SIGMA


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
def test_sectorial_stack_matches_the_per_matrix_draw(n, monkeypatch):
    seeds = [3, REDRAW_SEED, 4, 5] if n == 6 else [3, 4, 5]
    keys = np.array([s.generators.stream_key(seed) for seed in seeds])
    # The Cholesky certificate clears a stack of factors with no SVD; the
    # stack with REDRAW_SEED's first factor fails it and reaches the SVD.
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda x, **kw: shapes.append(x.shape) or svd(x, **kw))
    stack = s.gen_sectorial(n, ALPHA, keys)
    assert shapes[:1] == ([(len(seeds), n, n)] if n == 6 else [])
    monkeypatch.undo()
    for m, seed in zip(stack, seeds):
        np.testing.assert_array_equal(m, sectorial_oracle(n, ALPHA, seed))
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
    """Trial i's operands drawn from numpy's own streams, rng_stream(child_seed(...))."""
    pair = (s.child_seed(c.seed, i, 0), s.child_seed(c.seed, i, 1))
    if family == "pd_pair":
        return [pd_oracle(s.rng_stream(x).random((2, c.n, c.n))) for x in pair]
    if family == "sectorial_pair":
        return [sectorial_oracle(c.n, c.alpha, x) for x in pair]
    if family == "ad_pair":
        # H from the stream's first 2 n**2 uniforms, K from the next.
        uniforms = [s.rng_stream(x).random((2, 2, c.n, c.n)) for x in pair]
        return [pd_oracle(u[0]) + 1j * pd_oracle(u[1]) for u in uniforms]
    seed = s.child_seed(c.seed, i)
    if family == "single":
        return [sectorial_oracle(c.n, c.alpha, seed)]
    logs = s.rng_stream(seed).uniform(math.log(1e-3), math.log(1e3), size=(2, c.n))
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
    # second chunk (trials 10..19), and trial bad_a's A fails the first test
    # of the stacked evaluation, which runs before any B is looked at.
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


@pytest.mark.parametrize("reach_the_solve", [False, True])
@pytest.mark.parametrize("name", ["main1", "schur-pd", "lemma-2-5", "claim1"])
def test_singular_leading_block_in_a_batched_chunk(name, reach_the_solve, monkeypatch, capsys):
    # Trial 7 of a 20-trial chunk at n = 6 gets a zero leading 3-by-3 block.
    # Its preconditions reject it first; with them switched off, the chunk's
    # batched solve meets the singular block.  Either way the suite prints
    # what the per-trial loop (chunks of one trial) prints.
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
        ineq = s.inequalities
        monkeypatch.setattr(ineq, "_require_sectorial_pair", lambda a, b, alpha: alpha)
        monkeypatch.setattr(ineq, "_require_pd_pair", lambda a, b: (a, b))
        monkeypatch.setattr(s.linalg, "accretive_parts", lambda m: s.linalg.cartesian_split(m))
        monkeypatch.setattr(s.sector, "sector_angle", lambda m: np.zeros(len(m)))
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
