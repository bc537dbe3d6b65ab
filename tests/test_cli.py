import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sectoria as s
from sectoria.cli import CHECKS, Check, main, read_matrix, run_trials, write_matrix

PI4 = math.pi / 4


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save(name, matrix):
        path = str(tmp_path / f"{name}.json")
        write_matrix(path, matrix)
        paths[name] = path
        return path

    save("identity", np.eye(2))
    save("rotated", np.diag([np.exp(1j * math.pi / 6), np.exp(-1j * PI4)]))
    save("sect_a", s.gen_sectorial(4, PI4, s.child_seed(17, 0)))
    save("sect_b", s.gen_sectorial(4, PI4, s.child_seed(17, 1)))
    save("pd_a", s.gen_positive_definite(3, s.child_seed(18, 0)))
    save("pd_b", s.gen_positive_definite(3, s.child_seed(18, 1)))
    save("non_sectorial", np.array([[1j]]))
    save("shift", np.array([[0.0, 2.0], [0.0, 0.0]]))
    save("one_a", np.array([[2.0]]))
    save("one_b", np.array([[5.0]]))
    return tmp_path, paths


class TestMatrixFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        a = s.gen_sectorial(5, 0.83, 77)
        path = str(tmp_path / "m.json")
        write_matrix(path, a)
        np.testing.assert_array_equal(read_matrix(path), a)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "re": [[1.0]], "im": [[0.0]]}')
        assert main(["angle", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["angle", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("text, message", [
        ("[[1.0]]", "expected JSON object with n, re, im"),
        ('{"n": 1, "re": [[1.0]]}', "expected JSON object with n, re, im"),
        ('{"n": "one", "re": [[1.0]], "im": [[0.0]]}', "expected JSON object with n, re, im"),
        ('{"n": 1, "re": [[NaN]], "im": [[0.0]]}', "entries must be finite"),
    ])
    def test_malformed_contents(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["angle", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


class TestAngleCommand:
    def test_identity(self, files, capsys):
        _, paths = files
        assert main(["angle", paths["identity"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alpha_rad 0.0"
        assert out[1] == "alpha_deg 0.0"
        assert [float(v) for v in out[2].split()[1:]] == [0.0, 0.0]

    def test_mixed_phases(self, files, capsys):
        _, paths = files
        assert main(["angle", paths["rotated"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0].split()[1]) == pytest.approx(PI4, abs=1e-12)
        assert float(out[1].split()[1]) == pytest.approx(45.0, abs=1e-9)
        thetas = [float(v) for v in out[2].split()[1:]]
        assert thetas == pytest.approx([math.pi / 6, -PI4], abs=1e-12)

    def test_not_sectorial_exits_2(self, files, capsys):
        _, paths = files
        assert main(["angle", paths["non_sectorial"]]) == 2

    def test_takes_no_eigenvectors(self, files, monkeypatch, capsys):
        # The angles take eigvalsh alone: with eigh unable to converge,
        # angle prints the decomposition's angle and thetas, bit for bit.
        _, paths = files
        dec = s.sectorial_decompose(read_matrix(paths["sect_a"]))
        expected = [f"alpha_rad {dec.angle!r}", f"alpha_deg {math.degrees(dec.angle)!r}",
                    "thetas " + " ".join(repr(float(t)) for t in dec.thetas)]

        def not_converged(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", not_converged)
        assert main(["angle", paths["sect_a"]]) == 0
        assert capsys.readouterr().out.splitlines() == expected


class TestCheckCommand:
    def test_main2_holds(self, files, capsys):
        _, paths = files
        rc = main(["check", "main2", paths["sect_a"], paths["sect_b"], "--alpha", repr(PI4)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "main2" and doc["holds"] is True

    def test_main2_alpha_zero_matches_hartfiel(self, files, capsys):
        _, paths = files
        assert main(["check", "main2", paths["pd_a"], paths["pd_b"], "--alpha", "0"]) == 0
        main2 = json.loads(capsys.readouterr().out)
        assert main(["check", "hartfiel", paths["pd_a"], paths["pd_b"]]) == 0
        hart = json.loads(capsys.readouterr().out)
        assert abs(main2["slack"] - hart["slack"]) <= 1e-12

    def test_wrongsec_demo_violates(self, files, capsys):
        _, paths = files
        rc = main(["check", "schur-wrongsec", paths["sect_a"]])
        assert rc == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["slack"] < 0 and doc["holds"] is False

    def test_claim2_scalar_matrices_equality(self, files, capsys):
        _, paths = files
        rc = main(["check", "claim2", paths["one_a"], paths["one_b"]])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["slack"]) <= 1e-15

    def test_precondition_exit(self, files, capsys):
        _, paths = files
        # hartfiel needs Hermitian PD operands
        assert main(["check", "hartfiel", paths["sect_a"], paths["sect_b"]]) == 2
        # main2 with too small a sector
        rc = main(["check", "main2", paths["sect_a"], paths["sect_b"], "--alpha", "0.1"])
        assert rc == 2

    def test_usage_errors(self, files, capsys):
        _, paths = files
        assert main(["check", "unknown-check", paths["pd_a"]]) == 1
        assert main(["check", "main2", paths["sect_a"], paths["sect_b"]]) == 1  # no alpha
        assert main(["check", "main2", paths["sect_a"], "--alpha", "0.5"]) == 1  # no B
        assert main(["check", "lemma-2-4", paths["sect_a"], paths["sect_b"]]) == 1
        assert main(["check", "main2", paths["sect_a"], paths["sect_b"], "--alpha", "2.0"]) == 1
        assert main(["nonsense"]) == 1
        assert main(["check"]) == 1

    @pytest.mark.parametrize("bad", ["nan", "-1", "inf", "-inf", "-1e-3"])
    def test_bad_tol_is_usage_error(self, files, capsys, bad):
        _, paths = files
        # Each of these holds with positive slack, so exit 3 would be a false violation.
        main1 = ["check", "main1", paths["sect_a"], paths["sect_b"], "--alpha", repr(PI4)]
        hartfiel = ["check", "hartfiel", paths["pd_a"], paths["pd_b"]]
        trials = ["trials", "main2", "--n", "3", "--alpha", "0.5", "--trials", "3"]
        for argv in (main1, hartfiel, trials):
            for tol in (["--tol", bad], [f"--tol={bad}"]):
                assert main(argv + tol) == 1
                out, err = capsys.readouterr()
                assert out == "" and "finite and nonnegative" in err
        assert main(hartfiel + ["--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 0.0

    def test_tol_that_is_no_number_is_usage_error(self, files, capsys):
        # A separate -x is not a float, so it stays a flag and --tol lacks its value.
        _, paths = files
        assert main(["check", "hartfiel", paths["pd_a"], paths["pd_b"], "--tol", "-x"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: argument --tol: expected one argument\n"

    @pytest.mark.parametrize("bad", ["-inf", "-1e-3"])
    def test_negative_alpha_reaches_the_range_check(self, files, capsys, bad):
        _, paths = files
        assert main(["check", "main2", paths["sect_a"], paths["sect_b"], "--alpha", bad]) == 1
        assert "--alpha must lie in [0, pi/2)" in capsys.readouterr().err
        assert main(["trials", "main2", "--n", "3", "--alpha", bad, "--trials", "3"]) == 1
        assert "alpha must lie in [0, " in capsys.readouterr().err

    def test_partition_out_of_range_is_usage_error(self, files, capsys):
        _, paths = files
        pair = [paths["sect_a"], paths["sect_b"], "--alpha", repr(PI4)]
        assert main(["check", "main1"] + pair + ["--partition", "9"]) == 1
        assert main(["check", "det-step"] + pair + ["--partition", "0"]) == 1
        assert "--partition must satisfy 1 <= p <= 3" in capsys.readouterr().err
        assert main(["check", "det-step"] + pair + ["--partition", "3"]) == 0


class TestTrialsCommand:
    def test_pd_suite_passes(self, capsys):
        rc = main(["trials", "hartfiel", "--n", "4", "--alpha", "0", "--trials", "25", "--seed", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        assert doc["trials"] == 25
        assert doc["min_slack"] <= doc["median_slack"]
        assert doc["config"] == {"seed": 0, "n": 4, "alpha": 0.0, "partition": None}

    def test_byte_identical_reruns(self, capsys):
        argv = ["trials", "main2", "--n", "3", "--alpha", "0.6", "--trials", "20", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_wrongsec_counterexample_flips_exit(self, capsys):
        rc = main(["trials", "schur-wrongsec", "--n", "2", "--alpha", "0.785398", "--trials", "25", "--seed", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] > 0
        # at alpha = 0 the bound degenerates to equality: no counterexample
        rc = main(["trials", "schur-wrongsec", "--n", "2", "--alpha", "0", "--trials", "10", "--seed", "0"])
        assert rc == 3

    def test_single_matrix_suites(self, capsys):
        for name in ("lemma-2-4", "lemma-2-5", "lemma-2-6", "claim1", "weak-log-major"):
            rc = main(["trials", name, "--n", "3", "--alpha", "0.7", "--trials", "10", "--seed", "1"])
            assert rc == 0, name
            assert json.loads(capsys.readouterr().out)["failures"] == 0

    def test_claim2_and_corollary_suites(self, capsys):
        for name, extra in (("claim2", []), ("corollary-ad", [])):
            rc = main(["trials", name, "--n", "4", "--trials", "10", "--seed", "2"] + extra)
            assert rc == 0, name
            capsys.readouterr()

    def test_det_step_all_k(self, capsys):
        rc = main(["trials", "det-step", "--n", "4", "--alpha", "0.5", "--trials", "10", "--seed", "3"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 0

    def test_usage_errors(self, capsys):
        assert main(["trials", "hartfiel", "--alpha", "0"]) == 1  # missing --n
        assert main(["trials", "hartfiel", "--n", "0"]) == 1
        assert main(["trials", "hartfiel", "--n", "3", "--trials", "0"]) == 1
        assert main(["trials", "nope", "--n", "3"]) == 1
        assert main(["trials", "main1", "--n", "3", "--partition", "5"]) == 1

    def test_negative_seed_is_usage_error(self, capsys):
        argv = ["trials", "main1", "--n", "4", "--alpha", "0.5", "--trials", "3", "--seed", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ["check", "lemma-2-6", "A"],
    ["trials", "lemma-2-6", "--n", "3", "--trials", "4"],
])
def test_arithmetic_error_of_a_check_is_a_precondition_failure(argv, files, monkeypatch, capsys):
    _, paths = files
    argv = [paths["sect_a"] if x == "A" else x for x in argv]

    def overflow(a, b, alpha, p, tol):
        raise OverflowError("math range error")

    monkeypatch.setitem(CHECKS, "lemma-2-6", CHECKS["lemma-2-6"]._replace(evaluate=overflow))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: math range error\n"


@pytest.mark.parametrize("argv", [
    ["check", "lemma-2-6", "A"],
    ["trials", "lemma-2-6", "--n", "3", "--trials", "4"],
])
def test_index_error_of_a_check_is_a_bug_and_surfaces(argv, files, monkeypatch):
    # No check or precondition raises IndexError: it is neither exit 2 nor a
    # reason to replay the chunk one trial at a time.
    _, paths = files
    argv = [paths["sect_a"] if x == "A" else x for x in argv]
    calls = []

    def out_of_range(a, b, alpha, p, tol):
        calls.append(a)
        raise IndexError("index 3 is out of bounds")

    monkeypatch.setitem(CHECKS, "lemma-2-6", CHECKS["lemma-2-6"]._replace(evaluate=out_of_range))
    with pytest.raises(IndexError, match="index 3 is out of bounds"):
        main(argv)
    assert len(calls) == 1  # the four trials' chunk is not replayed


@pytest.mark.parametrize("solver, argv", [
    ("eigh", ["boundary", "A"]),
    ("eigvalsh", ["angle", "A"]),
    ("eigvalsh", ["check", "lemma-2-6", "A"]),
    ("eigvalsh", ["check", "claim1", "A"]),
    ("eigvalsh", ["trials", "weak-log-major", "--n", "3", "--trials", "4"]),
])
def test_eigensolver_failure_is_a_precondition_failure(solver, argv, files, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, which the commands let through.
    # The angles take eigvalsh alone; boundary's support points take eigh.
    _, paths = files
    argv = [paths["sect_a"] if x == "A" else x for x in argv]

    def not_converged(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, not_converged)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Eigenvalues did not converge\n"


OPERANDS = {
    "pd_pair": ("p", "q"),
    "sectorial_pair": ("a", "b"),
    "ad_pair": ("c", "d"),
    "single": ("a",),
    "sequence": ("a", "b"),
}


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("families")
    paths = {}
    for i, (key, gen) in enumerate([
        ("a", lambda seed: s.gen_sectorial(3, PI4, seed)),
        ("b", lambda seed: s.gen_sectorial(3, PI4, seed)),
        ("p", lambda seed: s.gen_positive_definite(3, seed)),
        ("q", lambda seed: s.gen_positive_definite(3, seed)),
        ("c", lambda seed: s.gen_accretive_dissipative(3, seed)),
        ("d", lambda seed: s.gen_accretive_dissipative(3, seed)),
    ]):
        paths[key] = str(tmp / f"{key}.json")
        write_matrix(paths[key], gen(s.child_seed(21, i)))
    return paths


class TestLargeSuites:
    def test_corollary_ad_at_n128(self, capsys):
        # used to raise OverflowError
        assert main(["trials", "corollary-ad", "--n", "128", "--trials", "5", "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0 and math.isfinite(doc["min_slack"])

    def test_claim2_at_n256(self, capsys):
        assert main(["trials", "claim2", "--n", "256", "--trials", "20", "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        assert math.isfinite(doc["min_slack"]) and math.isfinite(doc["median_slack"])

    @pytest.mark.parametrize("seeds", [(1, 2), (2, 1)])
    def test_check_claim2_at_n256_agrees_with_main2(self, seeds, tmp_path, capsys):
        # The leading minors overflow a float; claim2 used to exit 2 here
        # ("sequence entries must be finite") while main2 held.
        paths = [str(tmp_path / f"{seed}.json") for seed in seeds]
        for path, seed in zip(paths, seeds):
            write_matrix(path, s.gen_sectorial(256, 0.785, seed))
        docs = []
        for argv in (["claim2", *paths], ["main2", *paths, "--alpha", "0.785"]):
            assert main(["check", *argv]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        claim2, main2 = docs
        assert claim2["holds"] and math.isfinite(claim2["slack"])
        # both bound the same ratio sum of the same minors
        log_rhs = re.compile(r"log_rhs=(\S+)")
        assert log_rhs.search(claim2["detail"]).group(1) == log_rhs.search(main2["detail"]).group(1)

    def test_check_claim2_needs_operands_of_one_size(self, tmp_path, capsys):
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        write_matrix(paths[0], s.gen_sectorial(3, 0.785, 1))
        write_matrix(paths[1], s.gen_sectorial(4, 0.785, 2))
        assert main(["check", "claim2", *paths]) == 2
        assert capsys.readouterr().err == "error: operands must share a dimension, got (3, 3) and (4, 4)\n"


class TestHermitianGuardAborts:
    # Seeded suites that used to abort, or that take a path few others do;
    # as everywhere in the tests (pyproject.toml), a numpy overflow, division
    # or invalid-value warning is an error.
    @pytest.mark.parametrize("argv", [
        # Both used to exit 2 ("input is not Hermitian within tolerance"):
        # the decomposition held its internal C = H^{-1/2} K H^{-1/2} to the
        # Hermitian tolerance meant for inputs.
        ["weak-log-major", "--n", "6", "--alpha", "0.785", "--trials", "75", "--seed", "933685295028113377"],
        ["lemma-2-6", "--n", "128", "--alpha", "0.785", "--trials", "4", "--seed", "8141632112549200525"],
        # At alpha 0 and 1e-6 the sector is a ray, or nearly one, and
        # membership rests on the boundary tolerance.
        *([name, "--n", "6", "--alpha", alpha, "--trials", "20", "--seed", "0"]
          for name in ("main1", "main2", "det-step") for alpha in ("0", "1e-6")),
        # n = 20: its Schur complements solve blocks of order 10.
        ["lemma-2-5", "--n", "20", "--alpha", "0.785", "--trials", "20", "--seed", "0"],
    ])
    def test_suite_finishes(self, argv, capsys):
        assert main(["trials", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        assert math.isfinite(doc["min_slack"]) and math.isfinite(doc["median_slack"])


class TestMembershipAtZeroTol:
    # Each used to exit 2 ("A is not inside the sector"): membership was
    # tested at the slack tolerance, and at --tol 0 the generator's own
    # draws, which sit on the sector's boundary up to rounding, failed it.
    @pytest.mark.parametrize("name", ["main1", "main2", "det-step"])
    def test_suite_holds(self, name, capsys):
        argv = ["trials", name, "--n", "6", "--alpha", "0.785", "--trials", "20", "--seed", "0", "--tol", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 0

    def test_check_holds(self, tmp_path, capsys):
        paths = [str(tmp_path / f"{seed}.json") for seed in (0, 1)]
        for path, seed in zip(paths, (0, 1)):
            write_matrix(path, s.gen_sectorial(6, 0.785, seed))
        assert main(["check", "main2", *paths, "--alpha", "0.785", "--tol", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] and doc["tol"] == 0.0


class TestSectorialPairPreconditionOrder:
    """A in the sector, then B in the sector, then equal shapes: membership
    is tested before the shapes are compared."""

    ALPHA = 0.785

    @pytest.fixture
    def run(self, tmp_path, capsys):
        def run(name, a, b):
            paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
            write_matrix(paths[0], a)
            write_matrix(paths[1], b)
            assert main(["check", name, *paths, "--alpha", str(self.ALPHA)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            return captured.err
        return run

    def outside(self, what, m):
        w = s.in_sector(m, self.ALPHA, s.DEFAULT_TOL).witness
        return (f"error: {what} is not inside the sector of half-angle {self.ALPHA:.6g} "
                f"(witness point {w.point!r})\n")

    @pytest.mark.parametrize("name", ["main1", "main2", "det-step"])
    def test_order(self, name, run):
        a3, b3, b4 = (s.gen_sectorial(n, self.ALPHA, seed) for n, seed in ((3, 31), (3, 32), (4, 33)))
        assert run(name, -a3, -b3) == self.outside("A", -a3)
        assert run(name, a3, -b3) == self.outside("B", -b3)  # A and B tested as one stack
        assert run(name, a3, -b4) == self.outside("B", -b4)  # one after the other
        assert run(name, a3, b4) == "error: operands must share a dimension, got (3, 3) and (4, 4)\n"


class TestPdAndAdPairPreconditionOrder:
    """A, then B, then equal shapes, as for sectorial pairs: each operand's
    definiteness is tested before the shapes are compared."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        def run(name, a, b):
            paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
            write_matrix(paths[0], a)
            write_matrix(paths[1], b)
            assert main(["check", name, *paths]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            return captured.err
        return run

    @pytest.mark.parametrize("name", ["det-superadditivity", "haynsworth", "hartfiel", "schur-pd"])
    def test_pd_pair_order(self, name, run):
        p3, q3, q4 = (s.gen_positive_definite(n, seed) for n, seed in ((3, 41), (3, 42), (4, 43)))
        skew = np.triu(np.ones((3, 3))) * 1j  # not Hermitian
        assert run(name, skew, skew) == "error: A must be Hermitian positive definite\n"
        assert run(name, -p3, -q3) == "error: A is not positive definite\n"
        assert run(name, p3, skew) == "error: B must be Hermitian positive definite\n"
        assert run(name, p3, -q4) == "error: B is not positive definite\n"
        assert run(name, p3, q4) == "error: operands must share a dimension, got (3, 3) and (4, 4)\n"

    def test_ad_pair_order(self, run):
        a3, b3, b4 = (s.gen_accretive_dissipative(n, seed) for n, seed in ((3, 51), (3, 52), (4, 53)))
        message = "error: {} must have positive definite real and imaginary parts\n"
        assert run("corollary-ad", a3.conj(), b3.conj()) == message.format("A")
        assert run("corollary-ad", a3, b3.conj()) == message.format("B")
        assert run("corollary-ad", a3.conj(), b4) == message.format("A")
        assert run("corollary-ad", a3, b4.conj()) == message.format("B")
        assert run("corollary-ad", a3, b4) == "error: operands must share a dimension, got (3, 3) and (4, 4)\n"


class TestSuiteReduction:
    def test_nan_slack_is_not_hidden(self, monkeypatch, capsys):
        slacks = iter([0.5, math.nan, 0.25])

        def evaluate(a, b, alpha, p, tol):
            return [s.InequalityReport("hartfiel", "scalar", x, x >= -tol, tol)
                    for x in (next(slacks) for _ in range(len(a)))]

        monkeypatch.setitem(CHECKS, "hartfiel", Check("pd_pair", evaluate))
        assert main(["trials", "hartfiel", "--n", "2", "--trials", "3"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 1
        assert math.isnan(doc["min_slack"]) and math.isnan(doc["median_slack"])


def _one_by_one_operands(tmp_path, family):
    count = 1 if family == "single" else 2
    paths = [str(tmp_path / f"one_{i}.json") for i in range(count)]
    value = 2.0 + 1.0j if family == "ad_pair" else 2.0
    for path in paths:
        write_matrix(path, np.array([[value]]))
    return paths + (["--alpha", "0.5"] if family == "sectorial_pair" else [])


class TestOneByOne:
    @pytest.mark.parametrize("name", [name for name, c in CHECKS.items() if c.partitioned])
    def test_partitioned_check_needs_two_rows(self, name, tmp_path, capsys):
        argv = ["trials", name, "--n", "1", "--alpha", "0.5", "--trials", "2"]
        assert main(argv) == 1
        assert "needs n >= 2" in capsys.readouterr().err
        assert main(["check", name] + _one_by_one_operands(tmp_path, CHECKS[name].family)) == 1
        assert "needs n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [name for name, c in CHECKS.items() if not c.partitioned])
    def test_other_checks_run_at_n1(self, name, tmp_path, capsys):
        assert main(["trials", name, "--n", "1", "--alpha", "0.5", "--trials", "2"]) == 0
        assert main(["check", name] + _one_by_one_operands(tmp_path, CHECKS[name].family)) == 0


class TestRegistry:
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_check_runs_through_check_and_trials(self, name, family_files, capsys):
        family = CHECKS[name].family
        files = [family_files[k] for k in OPERANDS[family]]
        alpha = ["--alpha", repr(PI4)] if family == "sectorial_pair" else []
        expected = 3 if name == "schur-wrongsec" else 0  # the uncorrected bound fails
        assert main(["check", name] + files + alpha) == expected
        assert json.loads(capsys.readouterr().out)["name"] == name
        argv = ["trials", name, "--n", "3", "--alpha", repr(PI4), "--trials", "4", "--seed", "5"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == name and doc["trials"] == 4

    def test_operand_count_and_alpha_follow_family(self, family_files, capsys):
        for name, check in CHECKS.items():
            files = [family_files[k] for k in OPERANDS[check.family]]
            alpha = ["--alpha", "0.5"]
            other = [family_files["b"]] if len(files) == 1 else []
            assert main(["check", name] + files[:1] + other + alpha) == 1, name
            if check.family == "sectorial_pair":
                assert main(["check", name] + files) == 1, name
        assert "requires --alpha" in capsys.readouterr().err

    def test_falsifier_is_the_worst_trial_of_the_suite(self):
        cfg = s.TrialConfig(seed=4, n=3, alpha=PI4, trials=15)
        suite = run_trials("schur-wrongsec", cfg, s.DEFAULT_TOL)
        assert s.falsify_schur_wrongsec(cfg).slack == suite.min_slack

    def test_readme_table_matches_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if len(cells) == 4 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = cells[3].strip("`")
        assert rows == {name: check.family for name, check in CHECKS.items()}


class TestBoundaryCommand:
    def test_identity_points(self, files, capsys):
        _, paths = files
        assert main(["boundary", paths["identity"], "--points", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 9
        for line in lines[1:]:
            re_s, im_s = line.split(",")
            assert float(re_s) == pytest.approx(1.0, abs=1e-12)
            assert float(im_s) == pytest.approx(0.0, abs=1e-12)

    def test_interval_matrix_csv_file(self, files, tmp_path, capsys):
        _, paths = files
        out = str(tmp_path / "boundary.csv")
        assert main(["boundary", paths["rotated"], "--points", "90", "--out", out]) == 0
        rows = Path(out).read_text().strip().splitlines()
        assert rows[0] == "re,im" and len(rows) == 91

    def test_shift_matrix_circle(self, files, capsys):
        _, paths = files
        assert main(["boundary", paths["shift"], "--points", "360"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        pts = np.array([complex(float(r), float(i)) for r, i in (ln.split(",") for ln in lines)])
        np.testing.assert_allclose(np.abs(pts), 1.0, atol=1e-12)

    def test_point_minimum(self, files):
        _, paths = files
        assert main(["boundary", paths["identity"], "--points", "2"]) == 1


def test_module_entry_point(files):
    _, paths = files
    proc = subprocess.run(
        [sys.executable, "-m", "sectoria", "angle", paths["identity"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("alpha_rad 0.0")


# Runs in a fresh interpreter in which ``import scipy`` fails: every check's
# suite at n = 2, 6 and 40 (blocks of order 20, and the blocked leading
# minors above order 32), every check at n = 16 from matrix files, the other
# commands and the three block identities; prints what it saw as JSON.
NO_SCIPY = """
import contextlib, io, json, os, sys
sys.modules["scipy"] = None
from sectoria import (cartesian_schur_identity, child_seed, cli, gen_accretive_dissipative,
                      gen_positive_definite, gen_sectorial, inverse_block_identity,
                      real_inverse_identity, sector_angle_bisect)
sectorial, pd, ad = (lambda seed: gen_sectorial(16, 0.785, seed), lambda seed: gen_positive_definite(16, seed),
                     lambda seed: gen_accretive_dissipative(16, seed))
operands = {"a": sectorial, "b": sectorial, "p": pd, "q": pd, "c": ad, "d": ad}
files = {}
for i, (key, draw) in enumerate(operands.items()):
    files[key] = os.path.join(sys.argv[1], f"{key}.json")
    cli.write_matrix(files[key], draw(child_seed(23, i)))
family_files = {"pd_pair": "pq", "sectorial_pair": "ab", "ad_pair": "cd", "single": "a", "sequence": "ab"}
codes = {}
def run(key, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[key] = cli.main(argv)
for name, check in cli.CHECKS.items():
    for n in ("2", "6", "40"):
        run(f"trials {name} {n}", ["trials", name, "--n", n, "--alpha", "0.785", "--trials", "3", "--seed", "7"])
    alpha = ["--alpha", "0.785"] if check.family == "sectorial_pair" else []
    run(f"check {name}", ["check", name, *(files[k] for k in family_files[check.family]), *alpha])
run("angle", ["angle", files["a"]])
run("boundary", ["boundary", files["a"], "--points", "16"])
a = gen_sectorial(16, 0.785, 1)
residuals = [inverse_block_identity(a, 8), cartesian_schur_identity(a, 8).residual, real_inverse_identity(a)]
print(json.dumps({"codes": codes, "bisected": sector_angle_bisect(a), "residuals": residuals}))
"""


def test_runs_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(s.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", NO_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    expected = {f"trials {name} {n}": 0 for name in CHECKS for n in (2, 6, 40)}
    expected |= {f"check {name}": 3 if name == "schur-wrongsec" else 0 for name in CHECKS}
    assert seen["codes"] == {**expected, "angle": 0, "boundary": 0}
    assert 0 < seen["bisected"] < 0.785 + 1e-6
    assert max(seen["residuals"]) < 1e-10


# The suites whose n = 2 Schur complements solve against one column.
THREAD_SUITES = """
from sectoria import cli
for name in ("main1", "lemma-2-5", "claim1", "schur-wrongsec"):
    cli.main(["trials", name, "--n", "2", "--alpha", "0.785", "--trials", "200", "--seed", "3"])
"""


def test_suites_print_the_same_bits_under_one_and_two_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(s.__file__).parents[1]), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", THREAD_SUITES], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
