"""Exact combinatorial matrix functions: permanent and hafnian.

Both grow exponentially with dimension, are guarded by cost limits and are
batched numpy evaluations.  The permanent uses Glynn's formula (Eur. J. Comb.
31, 2010), whose terms cancel far less than Ryser's; each column product is
built row by row into one accumulator.  The hafnian matches the
lowest index first, one gather-multiply-sum per subset size: power-trace
(inclusion-exclusion) hafnians cancel badly on the engines' pairing matrices.
Both take one matrix, returning a complex, or a (P, n, n) stack, returning P
values that each equal that matrix's own value bit for bit.  A kernel value
that comes out not finite, 0 or subnormal is evaluated again on an exact
power-of-two balance of its matrix.  One rule, `in_float_range`, judges a
value's range for the kernels and the PSD estimator alike: a value past the
float range, or nonzero below its normal range, raises
NumericalIntegrityError.  `principal_permanents` owns the diagonal
power-of-two scale of a PSD matrix for the thermal engine and
`exact_permanent_psd`.
"""

from functools import lru_cache

import numpy as np

from .errors import CostLimitError, NumericalIntegrityError, ValidationError

PERMANENT_LIMIT = 24
HAFNIAN_LIMIT = 20
# Sign-vector budget per step of Glynn's loop: the high-sign vectors whose
# column products are built together
_HIGH_SIGNS_PER_STEP = 4
_TINY = np.finfo(float).tiny  # the smallest normal float, 2^-1022


def _kernel(name: str, a, limit: int, step: int, body, e=None) -> complex | np.ndarray:
    """`body`, a kernel on a (P, n, n) stack returning P values, on one matrix or a stack:
    the one place where a kernel input is checked for shape, for n a multiple of `step`
    and for the cost limit, in that order, and the one place a kernel value's range is
    judged.

    A matrix's value is its body value times 2^e, `e` an optional (P,) array of integer
    exponents that the caller carries, applied by ldexp.  A finite value of normal size
    is returned as it stands, so an in-range value costs one pass and nothing more.  A
    matrix whose value is not finite, 0 or subnormal is balanced by exact powers of two
    (`_balance`) and evaluated again, its balance's exponents added to e, unless they
    are all 0 (a zero matrix, say): such a matrix is final as it stands, so the exact
    0s of vacuum inputs cost one pass.  Then `in_float_range` judges it.  Each matrix's
    value is its own, whatever else its stack holds.  The bodies run with numpy's overflow
    and invalid-value warnings off, since every value they give is judged here.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    if n % step:
        raise ValidationError(f"{name} requires even dimension, got {n}")
    if n > limit:
        raise CostLimitError(f"{name} of {n}x{n} exceeds the cost limit (n <= {limit})")
    stack = a if a.ndim == 3 else a[None]
    with np.errstate(over="ignore", invalid="ignore"):  # a value out of range is judged below, not warned of
        raw = values = body(stack)
        if e is not None:
            values = _ldexp(raw, e)
        if (redo := ~np.isfinite(values) | (np.abs(values) < _TINY)).any():
            balanced, k = _balance(stack[redo], step)
            raw, e = raw[redo], k.sum(axis=1) + (0 if e is None else e[redo])
            if (moved := k.any(axis=1)).any():  # a matrix whose exponents are all 0 is final as it stands
                raw[moved] = body(balanced[moved])
            values[redo] = in_float_range(f"{name} of {n}x{n}", raw, e)
    return values if a.ndim == 3 else complex(values[0])


def in_float_range(what: str, raw: np.ndarray, e: np.ndarray) -> np.ndarray:
    """raw 2^e, applied by ldexp, for a complex array raw and integer exponents e of its
    shape: the one judge of a value's float range, for `_kernel` and `estimate_permanent`.
    A value that is not finite raises NumericalIntegrityError, and so does a nonzero
    value below the normal range, naming its power of ten; `what` names the value.  A 0
    is returned as 0."""
    with np.errstate(over="ignore"):  # a value past the range is judged here, not warned of
        value = _ldexp(raw, e)
    if not np.isfinite(value).all():
        raise NumericalIntegrityError(f"{what} is not finite: {value[~np.isfinite(value)][0]}")
    if (low := (raw != 0) & (np.abs(value) < _TINY)).any():
        raise NumericalIntegrityError(f"{what} is 10^{np.log10(abs(raw[low][0])) + e[low][0] * np.log10(2):.1f}, below the float range")
    return value


def _ldexp(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """z 2^e for a complex array z, contiguous along its last axis, and integer exponents
    e that broadcast to z's shape, the last axis in full; exact while the result is normal."""
    return np.ldexp(z.view(float), e.repeat(2, axis=-1)).view(complex)


def _binade(x: np.ndarray) -> np.ndarray:
    """k with 4^k the binade of |x|, x / 4^k in [1/4, 1); k = 0 where x is 0, nan or inf."""
    return (np.frexp(x)[1] + 1) >> 1


def _balance(stack: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, k) for a C-contiguous (P, n, n) stack: each matrix divided by powers of two,
    exact for every entry that stays normal, and (P, n) integer exponents with
    value(A) = value(B) 2^(sum k).  An entry's size is its larger part, real or
    imaginary.  The permanent (step 1) divides column j by 4^c_j, the binade of its
    largest entry, so every term of Glynn's column sum (d B)_j carries the same power
    of two; k = 2c.  The hafnian (step 2) divides row and column i by 2^c_i, 4^c_i the
    binade of the largest off-diagonal entry of row or column i (the diagonal, never
    read, sets no scale), so every matching and every partial hafnian carries the same
    power; k = c."""
    n, size = stack.shape[-1], np.maximum(abs(stack.real), abs(stack.imag))  # no |z| overflows
    if step == 1:
        k = 2 * _binade(size.max(axis=1))
        shift = k[:, None, :]
    else:
        size[:, np.arange(n), np.arange(n)] = 0
        k = _binade(np.maximum(size.max(axis=1), size.max(axis=2)))
        shift = k[:, :, None] + k[:, None, :]
    return _ldexp(stack, -shift), k


def principal_permanents(h: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """per(h_I) for each row I of a (P, N) index array and a C-contiguous Hermitian h
    (PSD where it is used), evaluated on h's diagonal power-of-two scale: S h S with
    S = diag(2^-k), 4^k the binade of h_ii (k = 0 where h_ii = 0), exact in binary
    floating point, with the exponent 2 sum(k_I) carried into `_kernel`, which judges
    the range.  The one owner of that scale, for the thermal engine and
    `exact_permanent_psd`.  For PSD h, |h_ij| <= sqrt(h_ii h_jj), so S h S has its
    diagonal in [1/4, 1) and no entry above 1, and each principal permanent, at least
    the product of its diagonal (Marcus, Bull. AMS 69, 494, 1963) and at most N!, lies
    in [4^-N, N!], or is exactly 0 where a zero h_ii zeroes its row: one scaling of h
    balances every submatrix, and `_kernel` re-evaluates none of them."""
    k = _binade(h.diagonal().real)
    scaled = submatrices(_ldexp(h, -(k[:, None] + k)), modes)
    return _kernel("permanent", scaled, PERMANENT_LIMIT, 1, _glynn, 2 * k[modes].sum(axis=1))


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
