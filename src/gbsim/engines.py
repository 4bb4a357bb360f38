"""The three exact single-photon-detection probability engines.

All engines return p(n) for a detection pattern n: a row of the package's one
pattern type, the (P, M) table of `count_table`, with every entry 0 or 1.  Mutual
agreement between them on overlapping domains is the core test surface of
the package:

  prob_general   pairing sum over (2N-1)!! matchings = K * haf(B) where B is
                 the 2N x 2N second-derivative (pairing) matrix
  prob_thermal   K * per(D-tilde submatrix), thermal/vacuum inputs only
                 (K = prod(mu) there); each permanent by `principal_permanents`,
                 on D-tilde's diagonal power-of-two scale, its range judged
                 by the kernel
  prob_squeezed  K * |O_N|^2 with O_N = 2^{N/2} haf(C submatrix), pure
                 squeezed-vacuum inputs only; odd N vanishes identically

The specialized engines are the pairing sum with C = 0 or with D-tilde = 0:
each applies where the term it drops, every mode's |lam| or t = 1 - mu, is
within `states.KIND_TOL`, as `build_qform` records in the Q form's `kinds`.

The engines evaluate tables, `probabilities(qform, name, patterns)`; a
single-pattern engine is the table of its one pattern, bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ContractError, NumericalIntegrityError, ValidationError, integer
from .matrix_functions import count_table, hafnian, principal_permanents, submatrices
from .qform import OutputQForm
from .states import KIND_TOL

_IM_TOL = 1e-10
_NEG_TOL = 1e-10
# Patterns of weight N per kernel call: at most _CHUNK_TERMS >> 2N, as 4^N bounds
# a pattern's kernel temporaries, so a table's memory stays flat in its length.
_CHUNK_TERMS = 1 << 18


def applicable(qform: OutputQForm) -> list[str]:
    """Names of the engines whose preconditions hold for these inputs.

    Ordered general, thermal, squeezed; the last entry is the most specialized
    applicable engine, so all-vacuum inputs pick the squeezed engine.
    """
    return ["general", *qform.kinds]


def check_n_max(m: int, n_max) -> int:
    """n_max as an int in [0, m], the range of a pattern weight over m modes."""
    if not 0 <= (n_max := integer(n_max, "n_max")) <= m:
        raise ValidationError(f"n_max must be in [0, {m}], got {n_max}")
    return n_max


def enumerate_patterns(m: int, n_max: int) -> np.ndarray:
    """All C(m, n) patterns for each n <= n_max as a (P, m) int64 count table:
    grouped by n, lexicographic in the detected modes within each n.

    The arguments are checked at the call, before the table is built.
    """
    m, n_max = integer(m, "mode count"), check_n_max(m, n_max)
    tables = []
    for n in range(n_max + 1):
        detected = np.array(list(combinations(range(m), n)), dtype=np.intp)  # (C(m, n), n), (1, 0) at n = 0
        table = np.zeros((len(detected), m), dtype=np.int64)
        np.put_along_axis(table, detected, 1, axis=1)
        tables.append(table)
    return np.concatenate(tables)


def _pairing_matrices(qform: OutputQForm, modes: np.ndarray) -> np.ndarray:
    """(P, 2N, 2N) pairing matrices [[2C, Dt], [Dt^T, 2 conj(C)]] at each row of modes."""
    c2, dt, m = 2.0 * qform.c, qform.d_tilde, qform.m
    full = np.array([[c2, dt], [dt.T, c2.conj()]]).transpose(0, 2, 1, 3).reshape(2 * m, 2 * m)
    return submatrices(full, np.concatenate([modes, modes + m], axis=1))


def _squeezed(qform: OutputQForm, modes: np.ndarray) -> np.ndarray:
    n = modes.shape[1]
    if n % 2 == 1:
        return np.zeros(len(modes))
    o_n = 2.0 ** (n / 2) * hafnian(submatrices(qform.c, modes))
    return qform.k * np.hypot(o_n.real, o_n.imag) ** 2


def _thermal(qform: OutputQForm, modes: np.ndarray) -> np.ndarray:
    return qform.k * principal_permanents(qform.d_tilde, modes)


# name -> (batched engine on (P, N) rows of detected modes, what it computes, its precondition)
_TABLES = {
    "general": (lambda qf, modes: qf.k * hafnian(_pairing_matrices(qf, modes)), "general-engine probability", None),
    "thermal": (_thermal, "thermal-engine probability", f"thermal engine requires lam_s = 0 for every mode (thermal/vacuum inputs; |lam_s| <= {KIND_TOL:g})"),
    "squeezed": (_squeezed, "squeezed-engine probability", f"squeezed engine requires t_s = 1 - mu_s = 0 for every mode (pure squeezed vacuum; t_s <= {KIND_TOL:g})"),
}


def _check_real(values: np.ndarray, what: str) -> np.ndarray:
    """Real parts clamped into [0, 1]; an imaginary residue, or a real part below 0 or
    above 1, beyond roundoff raises."""
    re, im = values.real, values.imag
    if (bad := np.abs(im) > _IM_TOL * np.maximum(1.0, np.abs(re))).any():
        raise NumericalIntegrityError(f"{what} has imaginary residue {im[bad][0]:.3e}")
    if (bad := re < -_NEG_TOL).any():
        raise NumericalIntegrityError(f"{what} is negative: {re[bad][0]:.3e}")
    if (bad := re > 1.0 + _NEG_TOL).any():
        raise NumericalIntegrityError(f"{what} is above 1 by {re[bad][0] - 1.0:.3e}")
    return np.clip(re, 0.0, 1.0)


def _engine(qform: OutputQForm, name: str):
    """The batched engine `name` and what it computes; ContractError where it does not apply."""
    engine, what, contract = _TABLES[name]
    if name not in applicable(qform):
        raise ContractError(contract)
    return engine, what


def check_reach(qform: OutputQForm, names: list[str], n_max: int) -> None:
    """Raise what `probabilities` by the engines `names`, in order, would on patterns
    of weight up to n_max, before any is built: ContractError where an engine does
    not apply, and CostLimitError where its kernel cannot take the heaviest of them.
    Each engine is called on an empty table of weight n_max, then of the heaviest
    even weight, since the squeezed engine's kernel sees even weights only."""
    for name in names:
        engine, _ = _engine(qform, name)
        for n in dict.fromkeys((n_max, n_max - n_max % 2)):
            engine(qform, np.zeros((0, n), dtype=np.intp))


def probabilities(qform: OutputQForm, name: str, patterns) -> np.ndarray:
    """p(n) of each pattern by the engine `name` (general, thermal or squeezed), in
    input order: one submatrix gather and batched kernel call per weight N and chunk,
    heaviest first, so a weight beyond the kernel's cost limit raises before any
    lighter one is evaluated.

    `patterns` is any iterable of patterns or a (P, M) array, checked as by
    `count_table` with clicks."""
    table = count_table(patterns, qform.m, clicks=True)
    engine, what = _engine(qform, name)
    weights = table.sum(axis=1)
    values = np.empty(len(table), dtype=complex)
    for n in sorted(set(weights.tolist()), reverse=True):  # np.unique would import numpy.ma
        at = np.flatnonzero(weights == n)
        modes = np.nonzero(table[at])[1].reshape(len(at), n)  # each row's detected modes, ascending
        step = max(1, _CHUNK_TERMS >> 2 * n)
        for i in range(0, len(at), step):
            values[at[i : i + step]] = engine(qform, modes[i : i + step])
    return _check_real(values, what)


def prob_general(qform: OutputQForm, pattern) -> float:
    """K * haf(pairing matrix): valid for every Gaussian input mix."""
    return float(probabilities(qform, "general", [pattern])[0])


def prob_thermal(qform: OutputQForm, pattern) -> float:
    """K * per(D-tilde restricted to the detected modes), K = prod(mu) on
    thermal inputs.

    Precondition: every input mode is thermal or vacuum (|lam_s| <= KIND_TOL);
    calling it with squeezing present is a contract violation, not a silent
    fallback.
    """
    return float(probabilities(qform, "thermal", [pattern])[0])


def prob_squeezed(qform: OutputQForm, pattern) -> float:
    """K |O_N|^2 with O_N = 2^{N/2} haf([C]_N); exactly 0 for odd N.

    Precondition: every input mode is pure squeezed vacuum (t_s = 1 - mu_s
    <= KIND_TOL); a thermal mode, however dim, is a contract violation.
    """
    return float(probabilities(qform, "squeezed", [pattern])[0])
