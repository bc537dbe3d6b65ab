"""Subset combinatorics and the scalar product-sum inequality that drives the
sqrt-refined determinant bounds.

Subsets of {1..n} are represented as bitmask integers (element k maps to bit
k-1); enumeration is capped at n = 20, which keeps the brute-force expansion
oracle at about a million terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OmegaPrimeEmptyError
from .generators import stream_key, uniform_stack
from .inequalities import DEFAULT_TOL, InequalityReport, log_ratio_sum_rhs_stack, scalar_report

MAX_SUBSET_N = 20


def _require_sequences(a: np.ndarray, b: np.ndarray) -> None:
    """Validate rows a, b of length n+1 (or stacks of them, one per row)."""
    if a.shape != b.shape or a.shape[-1] < 2:
        raise ValueError("sequences must be 1-d, equal length, length >= 2")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("sequence entries must be finite")
    if np.any(a[..., 0] != 1.0) or np.any(b[..., 0] != 1.0):
        raise ValueError("sequences must start at 1")
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("sequence entries must be strictly positive")


@dataclass(frozen=True)
class PositiveSequencePair:
    """Strictly positive sequences a, b of length n+1 with a[0] = b[0] = 1."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1:
            raise ValueError("sequences must be 1-d, equal length, length >= 2")
        _require_sequences(a, b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.size - 1


# Kept beside random_sequence_pair: the stacked form takes Philox keys, not a seed.
def random_sequence_pair_stack(
    n: int, keys: np.ndarray, low: float = 1e-3, high: float = 1e3
) -> tuple[np.ndarray, np.ndarray]:
    """``random_sequence_pair`` on the stream of each Philox key (T, 2): the
    a and the b sequences, each of shape (T, n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = np.exp(uniform_stack(keys, math.log(low), math.log(high), (2, n)))
    a = np.ones((len(keys), n + 1))
    b = np.ones((len(keys), n + 1))
    a[:, 1:] = vals[:, 0]
    b[:, 1:] = vals[:, 1]
    _require_sequences(a, b)
    return a, b


def random_sequence_pair(
    n: int, seed: int, low: float = 1e-3, high: float = 1e3
) -> PositiveSequencePair:
    """Log-uniform positive sequence pair with the leading entries pinned to 1."""
    a, b = random_sequence_pair_stack(n, stream_key(seed)[None], low, high)
    return PositiveSequencePair(a[0], b[0])


@dataclass(frozen=True)
class OmegaPartition:
    """Bitmask split of the 2^n subsets of {1..n}: the empty set, the nested
    prefixes {1..s}, the suffixes {s..n} for s >= 2, and everything else."""

    n: int
    omega: list[int]
    omega_prime: list[int] = field(repr=False)

    def omega_sets(self) -> list[frozenset[int]]:
        return [_mask_to_set(m) for m in self.omega]

    def omega_prime_sets(self) -> list[frozenset[int]]:
        return [_mask_to_set(m) for m in self.omega_prime]


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def omega_masks(n: int) -> list[int]:
    """Bitmasks of the empty set, prefixes {1..s}, and suffixes {s..n}, s >= 2."""
    full = (1 << n) - 1
    masks = [0]
    masks += [(1 << s) - 1 for s in range(1, n + 1)]
    masks += [full ^ ((1 << (s - 1)) - 1) for s in range(2, n + 1)]
    return masks


def omega_partition(n: int) -> OmegaPartition:
    """Split all subsets of {1..n} into the 2n prefix/suffix family and the rest."""
    if not 1 <= n <= MAX_SUBSET_N:
        raise ValueError(f"n must be in 1..{MAX_SUBSET_N}, got {n}")
    omega = omega_masks(n)
    member = np.zeros(1 << n, dtype=bool)
    member[omega] = True
    omega_prime = [int(m) for m in np.nonzero(~member)[0]]
    return OmegaPartition(n, omega, omega_prime)


def subset_products(x) -> np.ndarray:
    """prods[mask] = product of x_k over the bits set in mask."""
    vals = np.asarray(x, dtype=float)
    prods = np.ones(1)
    for xk in vals:
        prods = np.concatenate([prods, prods * xk])
    return prods


def product_expansion_check(x) -> float:
    """Relative gap between prod(1 + x_k) and its brute-force subset-sum
    expansion; the two routes share no arithmetic."""
    vals = np.asarray(x, dtype=float)
    if vals.ndim != 1 or vals.size < 1 or vals.size > MAX_SUBSET_N:
        raise ValueError(f"x must be a vector of length 1..{MAX_SUBSET_N}")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("x entries must be finite and nonnegative")
    lhs = float(np.prod(1.0 + vals))
    rhs = math.fsum(subset_products(vals))
    return abs(lhs - rhs) / lhs


def check_claim2_logs(log_an, x: np.ndarray, tol: float = DEFAULT_TOL) -> list[InequalityReport]:
    """``check_claim2`` for positive sequences given in logs, so that no
    entry has to be a float: log a_n (one entry of ``log_an`` per row) and
    x_k = log(b_k / a_k) for k = 0..n (a row of ``x``, shape (T, n + 1),
    with x_0 = 0)."""
    # a_k/a_{k-1} + b_k/b_{k-1} = (a_k/a_{k-1}) (1 + e^{x_k - x_{k-1}}), and the
    # first factors telescope to a_n.
    steps = np.logaddexp(0.0, x[:, 1:] - x[:, :-1]).sum(axis=-1)
    log_rhs = log_ratio_sum_rhs_stack(log_an, x[:, 1:], with_sqrt=True)
    return [
        scalar_report("claim2", an + float(step), rhs, tol)
        for an, step, rhs in zip(log_an, steps, log_rhs)
    ]


# Kept beside check_claim2: the operands are sequences, not matrices.
def check_claim2_stack(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> list[InequalityReport]:
    """``check_claim2`` for each row pair of the (T, n + 1) sequence stacks a, b."""
    _require_sequences(a, b)
    return check_claim2_logs([math.log(v) for v in a[:, -1]], np.log(b / a), tol)


def check_claim2(pair: PositiveSequencePair, tol: float = DEFAULT_TOL) -> InequalityReport:
    """prod_k (a_k/a_{k-1} + b_k/b_{k-1})
    >= a_n (1 + sum_s b_s/a_s) + b_n (1 + sum_s a_s/b_s) + (2^n - 2n) sqrt(a_n b_n),
    with the sums over s = 1..n-1."""
    return check_claim2_stack(pair.a[None], pair.b[None], tol)[0]


def claim2_am_gm_bound(x) -> tuple[float, float]:
    """Both sides of the residual-family AM-GM step:
    sum over Omega' of the subset products of x, against
    |Omega'| times their geometric mean (which collapses to
    (2^n - 2n) sqrt(x_1 ... x_n) since every element appears
    2^{n-1} - n times across Omega')."""
    vals = np.asarray(x, dtype=float)
    n = vals.size
    if n > MAX_SUBSET_N:
        raise ValueError(f"n must be <= {MAX_SUBSET_N}")
    if n < 3:
        raise OmegaPrimeEmptyError("the residual family is empty for n < 3")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("x entries must be finite and strictly positive")
    part = omega_partition(n)
    prods = subset_products(vals)
    lhs = math.fsum(float(prods[m]) for m in part.omega_prime)
    count = 2 ** n - 2 * n
    # Literal geometric mean of the Omega' products, evaluated in logs.
    log_gm = (2 ** (n - 1) - n) * float(np.sum(np.log(vals))) / count
    rhs = count * math.exp(log_gm)
    return lhs, rhs
