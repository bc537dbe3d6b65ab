import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoria import (
    NotSectorialError,
    complex_gaussian,
    frobenius,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    gen_sectorial_planted,
    in_sector,
    inverse,
    numerical_range_boundary,
    rng_stream,
    schur_complement,
    sector_angle,
    sector_angle_bisect,
    sectorial_decompose,
)
from sectoria.inequalities import check_weak_log_majorization
from sectoria import linalg, sector
from sectoria.cli import FAMILIES, main, write_matrix
from sectoria.generators import TrialConfig, stream_key, trial_addresses
from sectoria.linalg import PD_RTOL, frobenius_stack
from sectoria.sector import BISECT_ITERS, BISECT_TOL, MEMBERSHIP_TOL, sectorial_thetas
from oracles import in_sector_reference, numerical_range_samples


def mixed_membership_stack() -> np.ndarray:
    """Four 4-by-4 matrices against the sector of half-angle 0.6: inside;
    outside at each of the two rotated half-planes; and inside both of them
    but with a singular real part."""
    wide = gen_sectorial(4, 1.2, 2)
    return np.stack([gen_sectorial(4, 0.5, 1), wide, wide.conj(), np.diag([1.0, 0.0, 0.0, 0.0])])


def planted_real_part(n: int, alpha: float, level: float, seed: int, pinned: bool) -> np.ndarray:
    """A normal matrix U diag(z) U* with lambda_min(Re A) = z_1 = level *
    PD_RTOL * ||A||_F, up to rounding.  The other eigenvalues lie in the
    sector of half-angle alpha, one on its edge when ``pinned`` and all in
    its inner half otherwise, so that the rotated parts pass and the
    strict test of Re A decides."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    thetas = rng.uniform(-alpha, alpha, size=n - 1)
    if pinned:
        thetas[0] = alpha
    else:
        thetas /= 2
    z = rng.uniform(1.0, 2.0, size=n - 1) * np.exp(1j * thetas)
    z = np.concatenate(([level * PD_RTOL * np.linalg.norm(z)], z))
    return (u * z) @ u.conj().T


def planted_factors(n: int, exponent: int, seed: int, alpha: float) -> tuple:
    """U, s, V and theta of ``conditioned_planted``."""
    rng = np.random.default_rng([n, exponent, seed])
    u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0] for _ in range(2))
    thetas = rng.uniform(-alpha, alpha, size=n)
    thetas[0] = alpha
    return u, np.logspace(0, -exponent / 2, n), v, thetas


def conditioned_planted(n: int, exponent: int, seed: int, alpha: float = 0.785) -> np.ndarray:
    """X diag(e^{i theta}) X* with X = U diag(s) V, U and V random unitaries
    and the s_j geometric from 1 to 10^(-exponent / 2), so that cond(Re A)
    is about 10^exponent; theta_1 = alpha and the others are uniform in
    (-alpha, alpha), so that the planted half-angle is alpha."""
    u, s, v, thetas = planted_factors(n, exponent, seed, alpha)
    x = (u * s) @ v
    return (x * np.exp(1j * thetas)) @ x.conj().T


def dyadic_planted(n: int, exponent: int, seed: int) -> np.ndarray:
    """``conditioned_planted``'s X diag(z) X*, z = e^{i theta}, formed in
    exact arithmetic from U, s, V and the parts of z each rounded to 30
    significant bits, and rounded once: its bits do not depend on the last
    bits of the platform's LAPACK, BLAS or libm."""
    u, s, v, thetas = planted_factors(n, exponent, seed, 0.785)

    def exact(x):
        mantissa, e = np.frexp(x)
        return [Fraction(float(y)) for y in np.ldexp(np.round(np.ldexp(mantissa, 30)), e - 30).ravel()]

    def product(a, b):  # a b^T, of complex matrices held as (real, imaginary) pairs of rows
        (ar, ai), (br, bi) = a, b
        return ([[sum(x * y for x, y in zip(r, c)) - sum(x * y for x, y in zip(i, d)) for c, d in zip(br, bi)]
                 for r, i in zip(ar, ai)],
                [[sum(x * y for x, y in zip(r, d)) + sum(x * y for x, y in zip(i, c)) for c, d in zip(br, bi)]
                 for r, i in zip(ar, ai)])

    def rows(x):
        return [x[k:k + n] for k in range(0, n * n, n)]

    ur, ui, vr, vi = (rows(exact(part)) for part in (u.real, u.imag, v.real, v.imag))
    sr = exact(s)
    zr, zi = exact(np.cos(thetas)), exact(np.sin(thetas))
    # X = (U diag(s)) (V^T)^T, and A = (X diag(z)) (conj X)^T.
    x = product(([[a * b for a, b in zip(r, sr)] for r in ur], [[a * b for a, b in zip(r, sr)] for r in ui]),
                ([list(c) for c in zip(*vr)], [list(c) for c in zip(*vi)]))
    xz = ([[a * c - b * d for a, b, c, d in zip(r, i, zr, zi)] for r, i in zip(*x)],
          [[a * d + b * c for a, b, c, d in zip(r, i, zr, zi)] for r, i in zip(*x)])
    ar, ai = product(xz, (x[0], [[-b for b in r] for r in x[1]]))
    return np.array([[complex(float(a), float(b)) for a, b in zip(r, i)] for r, i in zip(ar, ai)])


def planted_precondition(n: int, delta: float, seed: int, c: float) -> np.ndarray:
    """c (H + iK) with K a random Hermitian matrix and lambda_min(H) =
    PD_RTOL (1 + delta) ||H + iK||_F, up to rounding; the other eigenvalues
    of H lie in [0.5, 2]."""
    rng = np.random.default_rng([n, seed])
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rest = rng.uniform(0.5, 2.0, size=n - 1)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = (g + g.conj().T) / 4
    # ||H + iK||_F^2 = ||H||_F^2 + ||K||_F^2 for Hermitian H and K.
    others = math.hypot(np.linalg.norm(rest), np.linalg.norm(k))
    r = PD_RTOL * (1 + delta)
    h = (u * np.concatenate(([r * others / math.sqrt(1 - r * r)], rest))) @ u.conj().T
    return c * ((h + h.conj().T) / 2 + 1j * k)


class TestInSector:
    def test_positive_definite_in_any_sector(self):
        a = gen_positive_definite(3, 0)
        for alpha in (0.0, math.pi / 6, math.pi / 3):
            assert in_sector(a, alpha, 1e-9)

    def test_scalar_outside_narrower_sector(self):
        a = np.array([[np.exp(1j * math.pi / 3)]])
        res = in_sector(a, math.pi / 4, 1e-9)
        assert not res
        assert res.witness is not None
        assert res.witness.eigenvalue < 0
        # the witness point is the numerical-range point that leaves the sector
        assert abs(np.angle(res.witness.point)) > math.pi / 4

    def test_stack_gives_each_matrix_its_own_membership(self):
        stack = mixed_membership_stack()
        stacked = in_sector(stack, 0.6, 1e-9)
        singles = [in_sector(m, 0.6, 1e-9) for m in stack]
        assert [bool(r) for r in stacked] == [True, False, False, False]
        assert len({r.witness.rotation for r in singles[1:]}) == 3
        for res, one in zip(stacked, singles):
            assert bool(res) == bool(one)
            if one.witness is None:
                assert res.witness is None
                continue
            w, v = res.witness, one.witness
            assert (w.rotation, w.eigenvalue.hex(), w.point) == (v.rotation, v.eigenvalue.hex(), v.point)
            np.testing.assert_array_equal(w.vector, v.vector)

    @pytest.mark.parametrize("alpha", [0.0, 1e-8, 1e-4, 0.3, 0.785, 1.3])
    def test_verdicts_and_witnesses_match_three_eigensolves(self, alpha):
        # lambda_min(Re A) planted around the strict test's threshold, where
        # the Cholesky certificate clears some stacks and leaves others to
        # the eigensolve; generator draws; and the mixed stack above.
        planted = [planted_real_part(6, alpha, level, seed, pinned)
                   for level in (0, 0.5, 1, 1.5, 2, 3) for seed, pinned in ((1, True), (2, False))]
        stacks = [np.stack(planted), gen_sectorial(6, alpha, trial_addresses(stream_key(0, 0), 0, 8)), mixed_membership_stack()]
        for stack in stacks:
            for res, m in zip(in_sector(stack, alpha), stack):
                inside, witness = in_sector_reference(m, alpha, MEMBERSHIP_TOL)
                assert bool(res) == inside
                if witness is None:
                    assert res.witness is None
                    continue
                w = res.witness
                assert (w.rotation, w.eigenvalue.hex(), w.point) == (witness[0], witness[1].hex(), witness[3])
                np.testing.assert_array_equal(w.vector, witness[2])

    def test_a_passing_stack_takes_one_cholesky_and_no_eigensolve(self, monkeypatch):
        stack = gen_sectorial(6, 0.785, trial_addresses(stream_key(0, 0), 0, 64))
        calls = []
        for name in ("cholesky", "eigvalsh"):
            def spy(h, _name=name, _f=getattr(np.linalg, name)):
                calls.append((_name, h.shape))
                return _f(h)
            monkeypatch.setattr(np.linalg, name, spy)
        assert all(in_sector(stack, 0.785))
        assert calls == [("cholesky", (128, 6, 6))]
        # One matrix outside the sector sends the stack to the three-part
        # route: one eigensolve of all 3T parts, and no second certificate.
        calls.clear()
        stack[5] = stack[5].conj() * np.exp(0.5j)
        assert [bool(r) for r in in_sector(stack, 0.785)] == [k != 5 for k in range(64)]
        assert calls == [("cholesky", (128, 6, 6)), ("eigvalsh", (192, 6, 6))]

    @pytest.mark.parametrize("tol", [0.0, 1e-13, MEMBERSHIP_TOL, -1e-3, math.inf, math.nan])
    def test_certificate_keeps_every_verdict_and_witness(self, tol):
        # Matrices planted at and around the strict test's threshold, normal
        # matrices on the edge of the sector, generator draws inside and
        # outside it, and zero matrices, whose floor -tol * ||A||_F is NaN
        # for tol = inf: each matrix alone and in one stack gives the verdict
        # and the witness bits of three eigensolves.  Scaled by 1e-200 or
        # 1e200, where the oracle's norm over- or underflows, each matrix
        # keeps the verdict and the failing test that it has unscaled, except
        # one on the threshold or on the sector's edge, which rounding
        # decides either way.
        alpha = 0.785
        planted = [(planted_real_part(n, alpha, level, seed, pinned), level not in (0, 1) and not pinned)
                   for n in (2, 3, 6, 16) for level in (0, 0.5, 1, 1.5, 2, 3, 1e3)
                   for seed, pinned in ((1, True), (2, False))]
        draws = [(m, width != alpha) for n in (1, 2, 6, 16) for width in (0.5, 0.785, 1.2)
                 for m in gen_sectorial(n, width, trial_addresses(stream_key(n, 0), 0, 4))]
        draws += [(np.zeros((n, n)), True) for n in (1, 2, 6)]
        for n in (1, 2, 3, 6, 16):
            stack, scalable = map(np.array, zip(*[(m, ok) for m, ok in planted + draws if len(m) == n]))
            stacked = in_sector(stack, alpha, tol)
            for res, m in zip(stacked, stack):
                inside, witness = in_sector_reference(m, alpha, tol)
                for one in (res, in_sector(m, alpha, tol)):
                    assert bool(one) == inside
                    if witness is None:
                        assert one.witness is None
                        continue
                    w = one.witness
                    assert (w.rotation, w.eigenvalue.hex(), w.point) == (witness[0], witness[1].hex(), witness[3])
                    np.testing.assert_array_equal(w.vector, witness[2])
            for c in (1e-200, 1e200):
                for res, scaled in zip(np.array(stacked)[scalable], in_sector(c * stack[scalable], alpha, tol)):
                    assert bool(scaled) == bool(res)
                    if res.witness is not None:
                        assert scaled.witness.rotation == res.witness.rotation

    def test_disk_touching_imaginary_axis(self):
        # W(A) is the unit disk centered at 1, tangent to Re z = 0
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert not in_sector(a, math.pi / 3, 1e-9)
        # sampling oracle: some unit vector already exceeds the 60 degree opening
        args = np.abs(np.angle(numerical_range_samples(a, 20000, seed=5)))
        assert args.max() > math.pi / 3

    def test_zero_matrix_excluded(self):
        assert not in_sector(np.zeros((2, 2)), 0.3, 1e-9)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            in_sector(np.eye(2), math.pi / 2)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        alpha=st.floats(0.0, 1.4),
    )
    @settings(max_examples=40, deadline=None)
    def test_congruence_preserves_cone(self, seed, n, alpha):
        # x* X Z X* x is a positive combination of the e^{i theta_j}
        rng = rng_stream(seed)
        x = complex_gaussian(n, rng)
        thetas = rng.uniform(-alpha, alpha, size=n)
        a = (x * np.exp(1j * thetas)) @ x.conj().T
        if np.linalg.svd(x, compute_uv=False)[-1] < 1e-6:
            return
        assert in_sector(a, min(alpha + 1e-9, math.pi / 2 - 1e-12), 1e-9)


def normal_matrix(z: np.ndarray, seed: int) -> np.ndarray:
    """U diag(z) U* with U a random unitary: its numerical range is the
    convex hull of the z_j."""
    rng = np.random.default_rng(seed)
    n = len(z)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * z) @ u.conj().T


def r_minus_near_tol(n: int, alpha: float, level: float, seed: int) -> np.ndarray:
    """A normal matrix whose edge part Re(e^{i(alpha - pi/2)} A) has least
    eigenvalue about level * 1e-3 * ||A||_F, from z_1 near the lower edge
    of the sector of half-angle alpha; the other eigenvalues lie in its
    inner half, where both edge parts exceed 1e-3 ||A||_F for alpha >= 0.3."""
    rng = np.random.default_rng([n, seed])
    rest = rng.uniform(1.0, 2.0, size=n - 1) * np.exp(1j * rng.uniform(-alpha / 2, alpha / 2, size=n - 1))
    gap = level * 1e-3 * math.hypot(1.0, np.linalg.norm(rest))
    # z_1 = e^{i(delta - alpha)}, with Re(e^{-i beta} z_1) = sin(delta) = gap
    z = np.concatenate(([np.exp(1j * (math.asin(gap) - alpha))], rest))
    return normal_matrix(z, seed)


def assert_reference_membership(res, m: np.ndarray, alpha: float, tol: float) -> None:
    """``res`` has the verdict and the witness bits of three eigensolves."""
    inside, witness = in_sector_reference(m, alpha, tol)
    assert bool(res) == inside
    if witness is None:
        assert res.witness is None
        return
    w = res.witness
    assert (w.rotation, w.eigenvalue.hex(), w.point) == (witness[0], witness[1].hex(), witness[3])
    np.testing.assert_array_equal(w.vector, witness[2])


class TestEdgeCertificate:
    """in_sector clears a stack from its two edge parts, with Weyl's bound
    standing in for the strict test of Re A, or falls back to the three
    parts; either way it gives the verdicts and witnesses of three
    eigensolves."""

    def test_negative_tol_keeps_the_lower_edge_floor(self):
        # With tol = -1e-3 the lower edge passes only at 1e-3 ||A||_F; a
        # floor of (tol + ...) ||A||_F alone would clear every matrix here.
        levels = (-0.5, 0.0, 0.5, 0.99, 1.01, 2.0)
        for alpha in (0.3, 0.785, 1.3):
            for n in (2, 6):
                stack = np.stack([r_minus_near_tol(n, alpha, level, seed) for level in levels for seed in range(2)])
                for res, m in zip(in_sector(stack, alpha, -1e-3), stack):
                    assert_reference_membership(res, m, alpha, -1e-3)
                    assert_reference_membership(in_sector(m, alpha, -1e-3), m, alpha, -1e-3)
                outside = [not in_sector_reference(m, alpha, -1e-3)[0] for m in stack]
                assert outside == [level < 1 for level in levels for _ in range(2)]

    def test_a_tight_lower_edge_falls_back(self, monkeypatch):
        alpha = 0.785
        tight = [conditioned_planted(n, 4, seed) for n in (2, 6, 16) for seed in range(3)]
        tight += [planted_real_part(n, alpha, 3, seed, True) for n in (2, 6, 16) for seed in range(3)]
        tight = [np.ascontiguousarray(m.conj().T) for m in tight]
        falls = []
        first_failures = sector._first_failures
        monkeypatch.setattr(sector, "_first_failures", lambda *a: falls.append(1) or first_failures(*a))
        for m in tight:
            assert_reference_membership(in_sector(m, alpha), m, alpha, MEMBERSHIP_TOL)
        assert len(falls) == len(tight)
        for n in (2, 6, 16):
            stack = np.stack([m for m in tight if len(m) == n])
            for res, m in zip(in_sector(stack, alpha), stack):
                assert_reference_membership(res, m, alpha, MEMBERSHIP_TOL)
        assert len(falls) == len(tight) + 3

    @pytest.mark.parametrize("alpha", [0.0, 1e-8, 0.785])
    @pytest.mark.parametrize("tol", [0.0, MEMBERSHIP_TOL, -1e-3, math.inf, math.nan])
    def test_edge_cases_give_the_reference_verdicts(self, alpha, tol):
        # Planted thresholds, both tight edges, generator draws, zero
        # matrices and lower edges near the floor of a negative tol, at
        # scales 1, 1e-200 and 1e200: alone, in one stack, and in a stack of
        # those that are inside, which the edge certificate may clear.
        for n in (1, 2, 6):
            cases = [np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)]
            cases += list(gen_sectorial(n, max(alpha, 1e-3), trial_addresses(stream_key(n, 2), 0, 3)))
            if n > 1:
                for level in (0.5, 1.0, 2.0, 3.0, 1e3):
                    for seed, pinned in ((1, True), (2, False)):
                        m = planted_real_part(n, alpha, level, seed, pinned)
                        cases += [m, m.conj().T]
                cases += [conditioned_planted(n, 4, 0, max(alpha, 1e-3)).conj().T]
                if alpha > 0.1:
                    cases += [r_minus_near_tol(n, alpha, level, 0) for level in (0.0, 0.5, 2.0)]
            for c in (1.0, 1e-200, 1e200):
                stack = c * np.stack(cases)
                for res, m in zip(in_sector(stack, alpha, tol), stack):
                    assert_reference_membership(res, m, alpha, tol)
                    assert_reference_membership(in_sector(m, alpha, tol), m, alpha, tol)
                inside = np.array([in_sector_reference(m, alpha, tol)[0] for m in stack])
                if inside.any():
                    assert all(in_sector(stack[inside], alpha, tol))

    @given(n=st.integers(2, 12), seed=st.integers(0, 2**16), level=st.floats(0.0, 4.0),
           k=st.floats(-2.0, 2.0), alpha=st.floats(0.0, 1.5), lower=st.booleans(),
           pinned=st.booleans(), exponent=st.floats(-200.0, 200.0))
    @settings(max_examples=150, deadline=None)
    def test_never_clears_what_the_eigensolves_reject_at_any_scale(self, n, seed, level, k, alpha, lower,
                                                                   pinned, exponent):
        # lambda_min(Re A) planted at level * PD_RTOL ||A||_F, with an
        # eigenvalue on the upper or lower edge of the sector when pinned.
        # Unpinned, both edge parts have least eigenvalue about cos(beta)
        # level PD_RTOL ||A||_F, and tol = -k cos(beta) PD_RTOL puts their
        # floors on either side of it, so that Weyl's bound is tight.
        tol = -k * math.cos(math.pi / 2 - alpha) * PD_RTOL
        a = planted_real_part(n, alpha, level, seed, pinned) * 10.0 ** exponent
        if lower:
            a = np.ascontiguousarray(a.conj().T)
        if sector._edges_clear(a[None], alpha, tol, frobenius_stack(a[None])):
            assert in_sector_reference(a, alpha, tol)[0]
        assert_reference_membership(in_sector(a, alpha, tol), a, alpha, tol)

    @pytest.mark.parametrize("n", [1, 2, 6, 16, 128])
    @pytest.mark.parametrize("t", [1, 5])
    def test_edge_parts_have_the_bits_of_the_rotated_parts(self, monkeypatch, n, t):
        certified = []
        cholesky_clears = linalg._cholesky_clears

        def spy(m, floor, norm):
            certified.append((m.copy(), floor))  # before the certificate shifts it
            return cholesky_clears(m, floor, norm)

        def expression(a, beta):  # as tests/oracles.py writes it
            w = complex(math.cos(beta), math.sin(beta))
            return (w * a + np.conj(w) * a.conj().swapaxes(-1, -2)) / 2.0

        monkeypatch.setattr(linalg, "_cholesky_clears", spy)
        stack = gen_sectorial(n, 0.3, trial_addresses(stream_key(n, 1), 0, t))
        for alpha in (0.3, 0.785, 1.3):
            beta = math.pi / 2 - alpha
            certified.clear()
            assert all(in_sector(stack, alpha))
            [(parts, _)] = certified
            expected = np.stack([expression(stack, b) for b in (beta, -beta)])
            assert parts.tobytes() == expected.tobytes()
            # The fallback's three parts, beta = 0 among them, and the
            # boundary's rotations come from the same builder.
            rotations = [*sector._rotations(alpha), *(-2.0 * math.pi * k / 7 for k in range(7))]
            expected = np.stack([expression(stack, b) for b in rotations])
            assert sector._rotated_parts(stack, rotations).tobytes() == expected.tobytes()
            # Both parts and R-'s floor take one cos(beta): the edge parts
            # of the identity are cos(beta) I, and the floor adds twice it.
            certified.clear()
            assert all(in_sector(np.eye(n, dtype=complex)[None], alpha, 0.0))
            [(parts, floors)] = certified
            cos = parts[:, 0, 0].real
            assert cos.tolist() == [math.cos(beta)] * 2 and math.cos(-beta) == math.cos(beta)
            assert floors[1, 0] == (2 * math.cos(beta) * PD_RTOL + 10 * np.finfo(float).eps) * math.sqrt(n)

    def test_bisection_keeps_the_three_parts(self, monkeypatch):
        # Every probe of sector_angle_bisect factors or solves all three
        # parts of its one matrix, and the bisection of three eigensolves
        # gives its bits.
        shapes = []
        for name in ("cholesky", "eigvalsh"):
            def spy(h, _name=name, _f=getattr(np.linalg, name)):
                shapes.append((_name, h.shape))
                return _f(h)
            monkeypatch.setattr(np.linalg, name, spy)
        matrices = [gen_sectorial(4, 0.6, 3), planted_real_part(6, 0.785, 3, 1, True),
                    conditioned_planted(6, 4, 1), gen_positive_definite(3, 0)]
        for a in matrices:
            shapes.clear()
            angle = sector_angle_bisect(a)
            # One eigvalsh per probe, and no Cholesky certificate.
            assert shapes and {name for name, _ in shapes} == {"eigvalsh"}
            assert {shape[0] for _, shape in shapes} == {3}
            lo, hi = 0.0, math.pi / 2 - 1e-12
            if not in_sector_reference(a, lo, BISECT_TOL)[0]:
                for _ in range(BISECT_ITERS):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if in_sector_reference(a, mid, BISECT_TOL)[0] else (mid, hi)
            else:
                hi = 0.0
            assert angle.hex() == hi.hex()


class TestSectorialDecompose:
    def test_identity(self):
        dec = sectorial_decompose(np.eye(3))
        np.testing.assert_allclose(dec.thetas, np.zeros(3), atol=0)
        np.testing.assert_allclose(dec.x @ dec.x.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_phases_recovered(self):
        a = np.diag([np.exp(1j * math.pi / 6), np.exp(-1j * math.pi / 4)])
        dec = sectorial_decompose(a)
        np.testing.assert_allclose(dec.thetas, [math.pi / 6, -math.pi / 4], atol=1e-12)

    def test_planted_multiset_recovered(self):
        a, planted = gen_sectorial_planted(4, math.pi / 4, 3)
        dec = sectorial_decompose(a)
        np.testing.assert_allclose(dec.thetas, planted, atol=1e-8)

    def test_reconstruction_contract(self):
        for seed in range(10):
            a = gen_sectorial(5, 1.1, seed)
            dec = sectorial_decompose(a)
            assert frobenius(dec.reconstruct() - a) <= 1e-9 * frobenius(a)
            assert np.all(np.abs(dec.thetas) < math.pi / 2)
            assert dec.angle <= sector_angle(a) + 1e-9

    def test_decompose_twice_same_multiset(self):
        a = gen_sectorial(5, 0.9, 21)
        first = sectorial_decompose(a)
        second = sectorial_decompose(first.reconstruct())
        np.testing.assert_allclose(first.thetas, second.thetas, atol=1e-8)

    def test_ill_conditioned_real_part(self):
        # Trial 7665 of this weak-log-major suite: cond(Re A) is about 1.3e7, and
        # the rounding of C = L^{-1} K L^{-*} breaks the 1e-10 input guard.
        c = TrialConfig(seed=2, n=6, alpha=0.785, trials=7666)
        (a,), _ = FAMILIES["single"](c, 7665, 7666)
        assert np.linalg.cond(a + a.conj().T) > 1e7
        dec = sectorial_decompose(a)
        assert np.all(np.abs(dec.thetas) < math.pi / 2)
        assert frobenius(dec.reconstruct() - a) <= 1e-10 * frobenius(a)

    def test_stack_answers_per_matrix(self):
        matrices = [gen_sectorial_planted(4, alpha, 7)[0] for alpha in (0.3, 0.9)]
        alone = [sectorial_decompose(m) for m in matrices]
        stacked = sectorial_decompose(np.stack(matrices))
        assert stacked.angle.tolist() == [dec.angle for dec in alone]
        assert stacked.angle[0] < 0.9
        whole = stacked.reconstruct()
        for t, dec in enumerate(alone):
            assert whole[t].tobytes() == dec.reconstruct().tobytes()

    def test_angle_command_prints_a_float(self, tmp_path, capsys):
        a = gen_sectorial(4, 0.7, 5)
        path = str(tmp_path / "a.json")
        write_matrix(path, a)
        assert main(["angle", path]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert type(sectorial_decompose(a).angle) is float
        assert line == f"alpha_rad {sectorial_decompose(a).angle!r}"
        assert "np." not in line

    def test_rejects_non_accretive(self):
        with pytest.raises(NotSectorialError):
            sectorial_decompose(np.array([[-1.0]]))
        with pytest.raises(NotSectorialError):
            sectorial_decompose(np.array([[1j]]))

    def test_stack_names_its_first_failing_matrix(self):
        middle = np.diag([2.0, 1.0, -0.5])
        stack = np.stack([gen_sectorial(3, 0.5, 1), middle, np.diag([1.0, 1.0, -3.0])]).astype(complex)
        with pytest.raises(NotSectorialError) as alone:
            sectorial_decompose(middle)
        with pytest.raises(NotSectorialError) as stacked:
            sectorial_decompose(stack)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "real part is not positive definite (min eigenvalue -5.000e-01)"


class TestOneSourceOfAngles:
    @pytest.mark.parametrize("n", [1, 2, 6, 16])
    def test_every_reader_prints_the_same_bits(self, n, tmp_path, capsys):
        # sector_angle, the decomposition, the angle command and
        # weak-log-major's alpha all read sectorial_thetas.
        stack = gen_sectorial(n, 0.785, trial_addresses(stream_key(n, 0), 0, 3))
        thetas = sectorial_thetas(stack)
        angles = sector_angle(stack)
        dec = sectorial_decompose(stack)
        assert dec.thetas.tobytes() == thetas.tobytes()
        assert [a.hex() for a in dec.angle.tolist()] == [a.hex() for a in angles]
        reports = check_weak_log_majorization(stack)
        for t, a in enumerate(stack):
            one = sectorial_decompose(a)
            assert one.thetas.tobytes() == sectorial_thetas(a).tobytes() == thetas[t].tobytes()
            assert one.angle.hex() == sector_angle(a).hex() == angles[t].hex()
            for report in (reports[t], check_weak_log_majorization(a)):
                assert report.detail.split()[2] == f"alpha={angles[t]:.9f}"
            path = str(tmp_path / f"a{t}.json")
            write_matrix(path, a)
            assert main(["angle", path]) == 0
            assert capsys.readouterr().out.splitlines() == [
                f"alpha_rad {angles[t]!r}", f"alpha_deg {math.degrees(angles[t])!r}",
                "thetas " + " ".join(repr(v) for v in thetas[t].tolist()),
            ]

    def test_angles_take_no_eigenvectors(self, monkeypatch):
        def no_vectors(h):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_vectors)
        a = gen_sectorial(6, 0.785, trial_addresses(stream_key(6, 0), 0, 3))
        sector_angle(a)
        check_weak_log_majorization(a)


# Bound on max |sector_angle(A) - alpha| over 64 draws of conditioned_planted,
# per (n, log10 cond(Re A)).  The Cholesky route meets each with a margin of
# at least 2; the eigendecomposition of Re A with H^{-1/2}, which it
# replaced, missed six of the nine.
PLANTED_ANGLE_BOUNDS = {
    (6, 4): 1.2e-13, (16, 4): 1.2e-13, (64, 4): 4e-14,
    (6, 7): 1.5e-10, (16, 7): 6e-11, (64, 7): 1.5e-11,
    (6, 10): 4e-7, (16, 10): 4e-8, (64, 10): 2.5e-8,
}


class TestPlantedAngleAccuracy:
    @pytest.mark.parametrize("n, exponent", list(PLANTED_ANGLE_BOUNDS))
    def test_planted_angle_is_recovered(self, n, exponent):
        stack = np.stack([conditioned_planted(n, exponent, seed) for seed in range(64)])
        cond = np.linalg.cond(stack + stack.conj().swapaxes(1, 2))
        assert np.all((cond > 10.0 ** (exponent - 0.5)) & (cond < 10.0 ** (exponent + 0.5)))
        assert max(abs(a - 0.785) for a in sector_angle(stack)) <= PLANTED_ANGLE_BOUNDS[n, exponent]


# The half-angles of dyadic_planted(n, exponent, seed), exact to the digits
# shown, from a 60-digit mpmath Cholesky route: Re A = L L*, and the
# largest |eigenvalue| t of L^{-1} Im(A) L^{-*} gives atan(t).  They lie
# 1.3e-10 to 1.3e-8 from the planted 0.785, which a test against 0.785
# counts as the algorithm's error.
EXACT_PLANTED_ANGLES = {
    (6, 4, 0): 0.78500000013325907024,
    (6, 7, 0): 0.78500000013568643842,
    (16, 7, 0): 0.78500000014152609426,
    (6, 10, 1): 0.78500001332464960286,
}


class TestExactPlantedAngle:
    @pytest.mark.parametrize("n, exponent, seed", list(EXACT_PLANTED_ANGLES))
    def test_angle_is_within_a_twentieth_of_eps_cond(self, n, exponent, seed):
        # Against the exact angle of the matrix as stored, the error is the
        # algorithm's alone: at most 0.05 eps cond(Re A).
        a = dyadic_planted(n, exponent, seed)
        cond = np.linalg.cond(a + a.conj().T)
        assert 10.0 ** (exponent - 0.5) < cond < 10.0 ** (exponent + 0.5)
        error = abs(sector_angle(a) - EXACT_PLANTED_ANGLES[n, exponent, seed])
        assert error <= 0.05 * np.finfo(float).eps * cond


class TestAnglePrecondition:
    @pytest.mark.parametrize("n", [1, 2, 6, 16, 128])
    def test_rejects_exactly_what_eigvalsh_rejects(self, n):
        # The Cholesky certificate of positive_definite_stack may clear only
        # what eigvalsh clears, and the Cholesky factor that the angles take
        # never fails on what eigvalsh clears, at any scale.
        deltas = [-0.9, -0.5, -0.1, -1e-2, -1e-3, 0.0, 1e-3, 1e-2, 0.1, 1, 10, 1e3]
        verdicts = set()
        for c in (1e-200, 1.0, 1e200):
            for delta in deltas:
                a = planted_precondition(n, delta, 0, c)
                h = (a + a.conj().T) / 2
                lowest = np.linalg.eigvalsh(h)[0]
                accepted = lowest > PD_RTOL * frobenius(a)
                verdicts.add(bool(accepted))
                if accepted:
                    assert np.all(np.isfinite(np.diagonal(np.linalg.cholesky(h))))
                    assert abs(sectorial_thetas(a)).max() < math.pi / 2
                else:
                    with pytest.raises(NotSectorialError, match=re.escape(f"(min eigenvalue {lowest:.3e})")):
                        sector_angle(a)
        assert verdicts == {True, False}


class TestSectorAngle:
    def test_positive_definite_angle_zero(self):
        assert sector_angle(gen_positive_definite(4, 8)) <= 1e-12

    def test_rotated_accretive_dissipative(self):
        for seed in range(5):
            a = gen_accretive_dissipative(4, seed)
            rotated = np.exp(-1j * math.pi / 4) * a
            assert sector_angle(rotated) <= math.pi / 4 + 1e-9

    def test_agrees_with_bisection_oracle(self):
        for seed in (17, 18, 19):
            a = gen_sectorial(4, 0.6, seed)
            assert abs(sector_angle(a) - sector_angle_bisect(a)) <= 1e-8

    def test_bisection_on_positive_definite(self):
        assert sector_angle_bisect(gen_positive_definite(3, 2)) == 0.0

    def test_bisection_rejects_non_sectorial(self):
        with pytest.raises(NotSectorialError):
            sector_angle_bisect(np.array([[-1.0]]))


class TestSectorInheritance:
    def test_schur_complement_stays_in_sector(self):
        for seed in range(5):
            a = gen_sectorial(5, 0.8, 100 + seed)
            parent = sector_angle(a)
            for p in range(1, 5):
                assert sector_angle(schur_complement(a, p)) <= parent + 1e-8

    def test_inverse_stays_in_sector(self):
        for seed in range(5):
            a = gen_sectorial(4, 0.7, 200 + seed)
            assert sector_angle(inverse(a)) <= sector_angle(a) + 1e-8

    def test_principal_submatrices_stay_in_sector(self):
        for seed in range(5):
            a = gen_sectorial(5, 0.9, 300 + seed)
            parent = sector_angle(a)
            for k in range(1, 6):
                assert sector_angle(a[:k, :k]) <= parent + 1e-8


class TestNumericalRangeBoundary:
    def test_identity_collapses_to_one(self):
        pts = numerical_range_boundary(np.eye(3), 8)
        np.testing.assert_allclose(pts, np.ones(8), atol=1e-12)

    def test_normal_matrix_interval(self):
        pts = numerical_range_boundary(np.diag([1.0, 2.0]), 360)
        assert np.all(np.abs(pts.imag) <= 1e-12)
        assert np.all(pts.real >= 1.0 - 1e-12)
        assert np.all(pts.real <= 2.0 + 1e-12)

    def test_shift_matrix_unit_circle(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        pts = numerical_range_boundary(a, 360)
        np.testing.assert_allclose(np.abs(pts), np.ones(360), atol=1e-12)
        # sampling oracle: interior points stay inside, and nearly fill the disk
        samples = numerical_range_samples(a, 20000, seed=11)
        assert np.abs(samples).max() <= 1.0 + 1e-12
        assert np.abs(samples).max() > 0.95

    @pytest.mark.parametrize("n", [1, 2, 16, 40, 128])
    def test_chunks_keep_the_bits_of_one_eigh_per_point(self, monkeypatch, n):
        # The stacked eigensolves give each point the bits of its own eigh
        # of (w A + conj(w) A*)/2, and none takes more than 2**14 entries.
        a = complex_gaussian(n, rng_stream(n))
        sizes = []
        eigh = np.linalg.eigh
        for m_points in (3, 7, 360):
            expected = []
            for t in range(m_points):
                w = complex(math.cos(-2.0 * math.pi * t / m_points), math.sin(-2.0 * math.pi * t / m_points))
                top = eigh((w * a + np.conj(w) * a.conj().T) / 2.0)[1][:, -1]
                expected.append(top.conj() @ a @ top)
            monkeypatch.setattr(np.linalg, "eigh", lambda h: sizes.append(len(h)) or eigh(h))
            assert numerical_range_boundary(a, m_points).tobytes() == np.array(expected).tobytes()
            monkeypatch.undo()
        assert max(sizes) <= max(1, 2**14 // n**2)
        assert len(sizes) == sum(-(-m // max(1, 2**14 // n**2)) for m in (3, 7, 360))

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            numerical_range_boundary(np.eye(2), 2)
