"""Exact combinatorial matrix functions: permanent and hafnian.

Both grow exponentially with dimension, are guarded by cost limits and are
batched numpy evaluations.  The permanent uses Glynn's formula (Eur. J. Comb.
31, 2010), whose terms cancel far less than Ryser's; each column product is
built row by row into one accumulator.  The hafnian matches the
lowest index first, one gather-multiply-sum per subset size: power-trace
(inclusion-exclusion) hafnians cancel badly on the engines' pairing matrices.
Both take one matrix, returning a complex, or a (P, n, n) stack, returning P
values that each equal that matrix's own value bit for bit; a value outside
the float range raises NumericalIntegrityError.
"""

from functools import lru_cache

import numpy as np

from .errors import CostLimitError, NumericalIntegrityError, ValidationError

PERMANENT_LIMIT = 24
HAFNIAN_LIMIT = 20
# Sign-vector budget per step of Glynn's loop: the high-sign vectors whose
# column products are built together
_HIGH_SIGNS_PER_STEP = 4


def _kernel(name: str, a, limit: int, step: int, body) -> complex | np.ndarray:
    """`body`, a kernel on a (P, n, n) stack returning P values, on one matrix or a stack:
    the one place where a kernel input is checked for shape, for n a multiple of `step`
    and for the cost limit, in that order, and a kernel value for range.

    A finite value of normal size is returned as the body gives it.  A value that is
    not finite, 0 or subnormal is looked at again, matrix by matrix: a sum of products
    of d = n / step entries, each sum at most (2 sqrt(2) n max|a|)^d.  Where the
    matrix's largest entry lets that bound, or the product of d largest entries, leave
    the normal range, the matrix is divided by 2^e, its largest entry's power of two
    (or the largest power that keeps every nonzero entry normal), evaluated again, and
    its value multiplied back by 2^(d e) with ldexp, both exact in binary floating point.
    A non-finite value, or a nonzero one below the normal range, then raises
    NumericalIntegrityError; a value whose bound is below half the smallest subnormal
    reads 0, its rounded float.  Inside that window a 0 or a subnormal is returned
    unchecked.  Each matrix's value is its own, whatever else its stack holds.  The
    bodies run with numpy's overflow and invalid-value warnings off, since every value
    they give is judged here.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    if n % step:
        raise ValidationError(f"{name} requires even dimension, got {n}")
    if n > limit:
        raise CostLimitError(f"{name} of {n}x{n} exceeds the cost limit (n <= {limit})")
    stack, d = a if a.ndim == 3 else a[None], n // step
    with np.errstate(over="ignore", invalid="ignore"):  # a value out of range is judged below, not warned of
        values = body(stack)
        if (redo := ~np.isfinite(values) | (np.abs(values) < np.finfo(float).tiny)).any():
            sub = stack[redo]  # a copy, so zeroing its diagonal leaves the input alone
            if step == 2:  # the hafnian's diagonal, which its body never reads, sets no scale
                sub[:, np.arange(n), np.arange(n)] = 0
            size = np.abs(sub.view(float))  # (R, n, 2n): the entries' real and imaginary parts
            top = np.frexp(size.max(axis=(1, 2)))[1]  # 0 at a nan or inf, which stays unscaled
            low = np.frexp(np.where(size > 0, size, np.inf).min(axis=(1, 2)))[1]  # 0 for a zero matrix
            growth = (3 * n).bit_length()  # 2 sqrt(2) n < 2^growth
            # 2^-1022 is the smallest normal float, 2^-1074 the smallest subnormal and 2^1024 the first past the largest
            out = ((top - 1) * d < -1022) | ((top + growth) * d > 1024)
            e = np.minimum(top, low + 1021)[out]
            scaled = body(np.ldexp(sub[out].view(float), -e[:, None, None]).view(complex))
            # a nonzero |value| 2^(d e) below 2^-1022 raises, unless its bound is below 2^-1075, which rounds it to 0
            if (small := (scaled != 0) & (np.frexp(np.abs(scaled))[1] + d * e <= -1022) & ((e + growth) * d >= -1075)).any():
                i = np.flatnonzero(small)[0]
                raise NumericalIntegrityError(f"{name} of {n}x{n} is 10^{np.log10(abs(scaled[i])) + d * e[i] * np.log10(2):.1f}, below the float range")
            values[np.flatnonzero(redo)[out]] = np.ldexp(np.column_stack([scaled.real, scaled.imag]), d * e[:, None]).view(complex)[:, 0]
            if not np.isfinite(values).all():
                raise NumericalIntegrityError(f"{name} of {n}x{n} is not finite: {values[~np.isfinite(values)][0]}")
    return values if a.ndim == 3 else complex(values[0])


def _diagonal_scale(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S h S, k) for a C-contiguous square complex h and S = diag(2^-k), 2^k the binade
    of sqrt|h_ii| (k = 0 where h_ii = 0), exact in binary floating point: a principal
    submatrix's permanent is per(h_I) = 4^(sum of k_I) per((S h S)_I).  For PSD h,
    |h_ij| <= sqrt(h_ii h_jj), so S h S has its diagonal in [1/4, 1) and no entry above
    1, and each such permanent, at least the product of its diagonal (Marcus, Bull. AMS
    69, 494, 1963) and at most n!, lies in [4^-n, n!], or is exactly 0 where a zero
    h_ii zeroes its row."""
    k = (np.frexp(h.diagonal().real)[1] + 1) >> 1
    return np.ldexp(h.view(float), -(k[:, None] + k.repeat(2))).view(complex), k


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
    return _kernel("permanent", a, PERMANENT_LIMIT, 1, _glynn)


def _glynn(stack: np.ndarray) -> np.ndarray:
    n = stack.shape[-1]
    if not n:
        return np.ones(len(stack), dtype=complex)
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
    return (high_prods @ parts[..., None])[:, 0] / 2.0 ** (n - 1)


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
    return _kernel("hafnian", b, HAFNIAN_LIMIT, 2, _matchings)


def _matchings(stack: np.ndarray) -> np.ndarray:
    n = stack.shape[-1]
    entries = ((stack + stack.transpose(0, 2, 1)) * 0.5).reshape(len(stack), n * n)
    haf = np.ones((len(stack), 1), dtype=complex)
    for pair, sub in _matching_schedule(n):
        # take keeps each row's terms contiguous, so a row sums as it would alone
        haf = (entries.take(pair, axis=1) * haf.take(sub, axis=1)).sum(axis=2)
    return haf[:, 0]


def photon_counts(pattern, m: int) -> tuple[int, ...]:
    """Validate a photon-count pattern over m modes; return it as a tuple of ints.

    m entries, each equal to a non-negative integer (2, 2.0, np.int64(2)); 1.9
    or "1" are rejected, never truncated.  The one rule for a pattern:
    `count_table` checks each row and `SampleReport.frequency` its pattern here.
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


def count_table(patterns, m: int, *, clicks: bool = False) -> np.ndarray:
    """Validate a table of photon-count patterns over m modes, with `clicks` (the
    engines' detection patterns) each count also 0 or 1; return it as a (P, m)
    int64 array: the one pattern type of the engines, the estimator and the Fock
    oracle.  A real (P, m) numeric array passes in one numpy check, compared as
    float64 so nan, inf or 1e300 raise no warning.  Anything else is checked row
    by row with `photon_counts`, and the first bad row i raises the first rule
    it breaks, prefixed "patterns[i]: ": the one check accepts a subset of what
    the rows do."""
    if not isinstance(patterns, np.ndarray):
        patterns = list(patterns)  # a generator is read once
    try:
        a = np.asarray(patterns)
    except ValueError:  # ragged rows
        a = None
    if a is not None and a.dtype.kind in "biuf" and a.ndim == 2 and a.shape[1] == m:
        if ((a >= 0) & (a < np.float64(2 if clicks else 1 << 63)) & (np.floor(a) == a)).all():
            return a.astype(np.int64)
    table = np.empty((len(patterns), m), dtype=np.int64)
    for i, p in enumerate(patterns):
        try:
            counts = photon_counts(p, m)
            if clicks and max(counts, default=0) > 1:
                raise ValidationError(f"detection pattern entries must be 0 or 1, got {p!r}")
            table[i] = counts
        except ValidationError as exc:
            raise ValidationError(f"patterns[{i}]: {exc}") from None
        except OverflowError:  # from the int64 row alone
            raise ValidationError(f"patterns[{i}]: pattern {counts} has a count above 2^63 - 1") from None
    return table


def submatrices(m: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """(P, N, N) stack of m's rows and columns at each row of a (P, N) index array."""
    return m[modes[:, :, None], modes[:, None, :]]
