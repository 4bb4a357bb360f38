"""Exact combinatorial matrix functions: permanent and hafnian.

Both grow exponentially with dimension, are guarded by cost limits and are
batched numpy evaluations.  The permanent uses Glynn's formula (Eur. J. Comb.
31, 2010), whose terms cancel far less than Ryser's; each column product is
built row by row into one accumulator.  The hafnian matches the
lowest index first, one gather-multiply-sum per subset size: power-trace
(inclusion-exclusion) hafnians cancel badly on the engines' pairing matrices.
Both take one matrix, returning a complex, or a (P, n, n) stack, returning P
values that each equal that matrix's own value bit for bit.
"""

from functools import lru_cache

import numpy as np

from .errors import CostLimitError, ValidationError

PERMANENT_LIMIT = 24
HAFNIAN_LIMIT = 20
# Sign-vector budget per step of Glynn's loop: the high-sign vectors whose
# column products are built together
_HIGH_SIGNS_PER_STEP = 4


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


@lru_cache(maxsize=None)
def _sign_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^k vectors in {+1, -1}^k as rows, and the product of each row."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    signs, prods = 1.0 - 2.0 * bits, 1.0 - 2.0 * (bits.sum(axis=1) & 1)
    signs.flags.writeable = prods.flags.writeable = False
    return signs, prods


def permanent(a) -> complex | np.ndarray:
    """Permanent via Glynn's formula, O(2^n n) with batched vector ops.

    per(A) = 2^(1-n) sum_{d in {+-1}^n, d_0 = 1} prod_i d_i prod_j (d A)_j,
    batched over the 2^12 (or fewer) low free signs and looped over the high
    ones, `_HIGH_SIGNS_PER_STEP` at a time (at most 2^11 in all).  Each step
    builds its column products prod_j (d A)_j row by row into one
    accumulator, multiplying in the same order as a reduce over the rows, so
    no (n, 2^12) temporary is made.  The empty matrix has permanent 1.
    """
    a = _as_square(a)
    n = a.shape[-1]
    if n > PERMANENT_LIMIT:
        raise CostLimitError(f"permanent of {n}x{n} exceeds the cost limit (n <= {PERMANENT_LIMIT})")
    stack = a if a.ndim == 3 else a[None]
    per = np.ones(len(stack), dtype=complex)
    if n:
        lo = min(n - 1, 12)  # 2**lo sign vectors per batch
        low_signs, low_prods = _sign_table(lo)
        high_signs, high_prods = _sign_table(n - 1 - lo)
        # (P, n, 2^lo): column d holds the low rows' part of d A
        low = stack[:, 1 : 1 + lo].transpose(0, 2, 1) @ low_signs.T
        high = stack[:, :1] + high_signs @ stack[:, 1 + lo :]  # (P, 2^(n-1-lo), n)
        k = min(_HIGH_SIGNS_PER_STEP, len(high_signs))  # both powers of two, so k divides
        prod, term = (np.empty((len(stack), k, 1 << lo), dtype=complex) for _ in range(2))
        parts = np.empty((len(stack), len(high_signs)), dtype=complex)
        for h in range(0, len(high_signs), k):
            np.add(low[:, None, 0], high[:, h : h + k, 0, None], out=prod)
            for j in range(1, n):
                prod *= np.add(low[:, None, j], high[:, h : h + k, j, None], out=term)
            # w @ x[..., None] is one dot product per matrix and sign vector, as for one matrix alone
            parts[:, h : h + k] = (low_prods @ prod[..., None])[..., 0]
        per = (high_prods @ parts[..., None])[:, 0] / 2.0 ** (n - 1)
    return per if a.ndim == 3 else complex(per[0])


@lru_cache(maxsize=None)
def _matching_schedule(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gather indices for haf(S) = sum_j B[i, j] haf(S - {i, j}), i = min S.

    From the full set this reaches only the subsets of size n - 2k with min S
    >= k, Fibonacci(n + 1) in all (10946 at n = 20).  One level per size,
    smallest first; per (subset, term): `pair`, the flat index i*n + j into B,
    and `sub`, the row of S - {i, j} in the level below.
    """
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    masks = bit.sum(keepdims=True)
    levels = []
    for size in range(n, 0, -2):
        members = np.nonzero(masks[:, None] & bit)[1].reshape(len(masks), size)  # ascending
        i, j = members[:, :1], members[:, 1:]
        masks, sub = np.unique(masks[:, None] ^ bit[i] ^ bit[j], return_inverse=True)
        pair, sub = (i * n + j).astype(np.int16), sub.reshape(j.shape).astype(np.int32)
        pair.flags.writeable = sub.flags.writeable = False
        levels.append((pair, sub))
    return tuple(reversed(levels))


def hafnian(b) -> complex | np.ndarray:
    """Sum over all perfect matchings of prod of matched entries.

    The matrix is symmetrized on entry and its diagonal is never referenced.
    haf(empty) = 1; odd dimension is an error.
    """
    b = _as_square(b)
    n = b.shape[-1]
    if n % 2:
        raise ValidationError(f"hafnian requires even dimension, got {n}")
    if n > HAFNIAN_LIMIT:
        raise CostLimitError(f"hafnian of {n}x{n} exceeds the cost limit (n <= {HAFNIAN_LIMIT})")
    stack = b if b.ndim == 3 else b[None]
    entries = ((stack + stack.transpose(0, 2, 1)) * 0.5).reshape(len(stack), n * n)
    haf = np.ones((len(stack), 1), dtype=complex)
    for pair, sub in _matching_schedule(n):
        # take keeps each row's terms contiguous, so a row sums as it would alone
        haf = (entries.take(pair, axis=1) * haf.take(sub, axis=1)).sum(axis=2)
    return haf[:, 0] if b.ndim == 3 else complex(haf[0, 0])


def photon_counts(pattern, m: int) -> tuple[int, ...]:
    """Validate a photon-count pattern over m modes; return it as a tuple of ints.

    m entries, each equal to a non-negative integer (2, 2.0, np.int64(2)); 1.9
    or "1" are rejected, never truncated.  The sampler's lookups, the Fock
    oracle and `detected_modes` check patterns here.
    """
    try:
        pattern = tuple(pattern)
        counts = tuple(int(x) for x in pattern)
        valid = len(counts) == m and all(c >= 0 and c == x for c, x in zip(counts, pattern))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValidationError(f"pattern {pattern!r} is not {m} non-negative integer photon counts")
    return counts


def detected_modes(pattern, m: int) -> list[int]:
    """Validate a detection pattern over m modes; return its detected modes, ascending.

    The engines and the CLI check patterns here: photon counts that are all 0
    or 1, so 1.0, True and np.int64(1) are clicks.
    """
    counts = photon_counts(pattern, m)
    if max(counts, default=0) > 1:
        raise ValidationError(f"detection pattern entries must be 0 or 1, got {pattern!r}")
    return [i for i, c in enumerate(counts) if c]


def detection_table(patterns, m: int) -> np.ndarray:
    """Validate a table of detection patterns over m modes; return it as a (P, m) bool array.

    A real (P, m) numeric table whose entries all equal 0 or 1 passes in one
    numpy check.  Anything else (ragged rows, object or string entries, NaN)
    is checked pattern by pattern with `detected_modes`, so the first bad
    pattern raises exactly its error: the fast check accepts a subset of what
    `detected_modes` does.
    """
    if not isinstance(patterns, np.ndarray):
        patterns = list(patterns)  # a generator is read once
    try:
        a = np.asarray(patterns)
    except ValueError:  # ragged rows
        a = None
    if a is not None and a.dtype.kind in "biuf" and a.ndim == 2 and a.shape[1] == m and ((a == 0) | (a == 1)).all():
        return a == 1
    table = np.zeros((len(patterns), m), dtype=bool)
    for row, p in zip(table, patterns):
        row[detected_modes(p, m)] = True
    return table


def submatrices(m: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """(P, N, N) stack of m's rows and columns at each row of a (P, N) index array."""
    return m[modes[:, :, None], modes[:, None, :]]
