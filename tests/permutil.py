"""Reference permanent for the kernel tests: the direct n! permutation sum."""

from itertools import permutations

import numpy as np

from gbsim import CostLimitError

NAIVE_LIMIT = 9


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
