"""Reference kernels for the kernel tests: the direct n! permutation sum for
the permanent, the direct (n-1)!! matching sum for the hafnian, and the exact
permanent of a fixed-rank PSD matrix, which reaches past Glynn's size limit."""

import math
from functools import reduce
from itertools import permutations

import numpy as np

from gbsim import CostLimitError

NAIVE_LIMIT = 9
HAFNIAN_NAIVE_LIMIT = 10


def permanent_naive(a) -> complex:
    """Sum over all n! permutations; guarded at n <= 9."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n > NAIVE_LIMIT:
        raise CostLimitError(f"naive permanent guarded at n <= {NAIVE_LIMIT}, got {n}")
    total = 0j
    rng = range(n)
    for sigma in permutations(rng):
        p = 1.0 + 0j
        for i in rng:
            p *= a[i, sigma[i]]
        total += p
    return total


def hafnian_naive(b) -> complex:
    """Sum over all perfect matchings, one recursion per matching; guarded at n <= 10."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] % 2:
        raise ValueError(f"expected an even square matrix, got shape {b.shape}")
    if b.shape[0] > HAFNIAN_NAIVE_LIMIT:
        raise CostLimitError(f"naive hafnian guarded at n <= {HAFNIAN_NAIVE_LIMIT}, got {b.shape[0]}")

    def matchings(idx: tuple[int, ...]) -> complex:
        if not idx:
            return 1.0 + 0j
        first, rest = idx[0], idx[1:]
        return sum(b[first, j] * matchings(rest[:k] + rest[k + 1 :]) for k, j in enumerate(rest))

    return complex(matchings(tuple(range(b.shape[0]))))


def permanent_low_rank(v) -> float:
    """per(V V^dag) for an n x r matrix V (Barvinok, Math. Oper. Res. 21, 1996):
    sum over k of prod_a k_a! |c_k|^2, with c_k the x^k coefficient of
    prod_j sum_a V_ja x_a.  The coefficients are built one row at a time in a
    dense (n + 1)^r array: before the last row every total degree is below n, so
    rolling an axis by one never wraps a nonzero coefficient.  Every term of the
    final sum is non-negative, so nothing cancels there."""
    v = np.asarray(v, dtype=complex)
    n, r = v.shape
    coef = np.zeros((n + 1,) * r, dtype=complex)
    coef[(0,) * r] = 1.0
    for row in v:
        coef = sum(row[a] * np.roll(coef, 1, axis=a) for a in range(r))
    factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    return float((reduce(np.multiply.outer, [factorials] * r) * np.abs(coef) ** 2).sum())
