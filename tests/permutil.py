"""Reference kernels for the kernel tests: the direct n! permutation sum for
the permanent and the direct (n-1)!! matching sum for the hafnian."""

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
