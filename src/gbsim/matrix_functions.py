"""Exact combinatorial matrix functions: permanent and hafnian.

Both grow exponentially with dimension and are guarded by cost limits.
The permanent uses Ryser's inclusion-exclusion sum evaluated in
vectorized chunks; the hafnian sums the products of matched entries over all
(n-1)!! perfect matchings, evaluated by dynamic programming over index
subsets (first-unmatched-index recursion with memoization, which regroups
the same pairing sum).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CostLimitError, ValidationError

PERMANENT_LIMIT = 24
HAFNIAN_LIMIT = 20
_CHUNK_BITS = 14  # subsets per vectorized Ryser chunk: 2**14


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def permanent(a) -> complex:
    """Permanent via Ryser's formula, O(2^n n^2) with chunked vector ops.

    per(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i sum_{j in S} A_{ij}.

    The empty matrix has permanent 1.  Chunk partial sums are combined with
    exact (fsum) accumulation to tame the alternating-sign cancellation.
    """
    a = _as_square(a)
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n > PERMANENT_LIMIT:
        raise CostLimitError(f"permanent of {n}x{n} exceeds the cost limit (n <= {PERMANENT_LIMIT})")
    bit_positions = np.arange(n, dtype=np.uint64)
    total = 1 << n
    chunk = min(total, 1 << _CHUNK_BITS)
    re_parts, im_parts = [], []
    art = np.ascontiguousarray(a.real.T)
    ait = np.ascontiguousarray(a.imag.T)
    for start in range(1, total, chunk):
        stop = min(start + chunk, total)
        subsets = np.arange(start, stop, dtype=np.uint64)
        bits = ((subsets[:, None] >> bit_positions[None, :]) & np.uint64(1)).astype(np.float64)
        # row sums over the subset S for every row i: bits @ A.T
        rows = (bits @ art) + 1j * (bits @ ait)
        prods = rows.prod(axis=1)
        sizes = bits.sum(axis=1).astype(np.int64)
        signs = 1.0 - 2.0 * ((n - sizes) & 1)
        vals = signs * prods
        re_parts.append(float(np.sum(vals.real)))
        im_parts.append(float(np.sum(vals.imag)))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def hafnian(b) -> complex:
    """Sum over all perfect matchings of prod of matched entries.

    The matrix is symmetrized on entry and its diagonal is never referenced.
    haf(empty) = 1; odd dimension is an error.  Subset-DP evaluation:
    haf(S) = sum_j B[i0, j] haf(S \\ {i0, j}) with i0 = min(S), memoized over
    bitmasks, with compensated (Kahan) accumulation of the inner sums.
    """
    b = _as_square(b)
    n = b.shape[0]
    if n == 0:
        return complex(1.0)
    if n % 2:
        raise ValidationError(f"hafnian requires even dimension, got {n}")
    if n > HAFNIAN_LIMIT:
        raise CostLimitError(f"hafnian of {n}x{n} exceeds the cost limit (n <= {HAFNIAN_LIMIT})")
    bs = (b + b.T) * 0.5
    rows = [list(map(complex, bs[i])) for i in range(n)]

    full = (1 << n) - 1
    h = np.zeros(1 << n, dtype=complex)
    h[0] = 1.0
    for mask in range(3, full + 1):
        if mask.bit_count() & 1:
            continue
        lsb = mask & -mask
        i0 = lsb.bit_length() - 1
        rest = mask ^ lsb
        row = rows[i0]
        acc = 0j
        comp = 0j
        rem = rest
        while rem:
            lj = rem & -rem
            rem ^= lj
            j = lj.bit_length() - 1
            term = row[j] * h[rest ^ lj]
            y = term - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
        h[mask] = acc
    return complex(h[full])


def detected_modes(pattern, m: int) -> list[int]:
    """Validate a detection pattern over m modes; return its detected modes, ascending.

    The engines, `submatrix_by_pattern` and the CLI all check patterns here.
    The length must be m and every entry must equal 0 or 1, so 1, 1.0, True
    and np.int64(1) are clicks, while 0.5, 2 or "1" are rejected rather than
    truncated.
    """
    if len(pattern) != m:
        raise ValidationError(f"pattern length {len(pattern)} does not match {m} modes")
    idx = []
    for i, x in enumerate(pattern):
        if x == 1:
            idx.append(i)
        elif x != 0:
            raise ValidationError(f"detection pattern entries must be 0 or 1, got {x!r}")
    return idx


def submatrix_by_pattern(m, pattern) -> np.ndarray:
    """Keep the rows and columns of the detected modes, in ascending order."""
    m = _as_square(m)
    idx = detected_modes(pattern, m.shape[0])
    return m[np.ix_(idx, idx)]
