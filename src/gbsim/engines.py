"""The three exact single-photon-detection probability engines.

All engines return p(n) for a detection pattern n with entries in {0, 1}.
Mutual agreement between them on overlapping domains is the core test
surface of the package:

  prob_general   pairing sum over (2N-1)!! matchings = K * haf(B) where B is
                 the 2N x 2N second-derivative (pairing) matrix
  prob_thermal   prod(mu) * per(D-tilde submatrix), thermal/vacuum inputs only
  prob_squeezed  K * |O_N|^2 with O_N = 2^{N/2} haf(C submatrix), pure
                 squeezed-vacuum inputs only; odd N vanishes identically

The engines evaluate tables, `probabilities(qform, name, patterns)`; a
single-pattern engine is the table of its one pattern, bit for bit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import ContractError, NumericalIntegrityError, ValidationError, integer
from .matrix_functions import detection_table, hafnian, permanent, submatrices
from .qform import OutputQForm
from .states import input_kinds

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
    return ["general", *input_kinds(qform.lams, qform.mus)]


def enumerate_patterns(m: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """All C(m, n) patterns for each n <= n_max, lexicographic within each n.

    Streams patterns one at a time; nothing is materialized.
    """
    m, n_max = integer(m, "mode count"), integer(n_max, "n_max")
    if n_max > m or n_max < 0:
        raise ValidationError(f"n_max must be in [0, {m}], got {n_max}")
    for n in range(n_max + 1):
        for detected in combinations(range(m), n):
            pat = [0] * m
            for i in detected:
                pat[i] = 1
            yield tuple(pat)


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


# name -> (batched engine on (P, N) rows of detected modes, what it computes, its precondition)
_TABLES = {
    "general": (lambda qf, modes: qf.k * hafnian(_pairing_matrices(qf, modes)), "general-engine probability", None),
    "thermal": (lambda qf, modes: np.prod(qf.mus) * permanent(submatrices(qf.d_tilde, modes)), "thermal-engine probability", "thermal engine requires lam_s = 0 for every mode (thermal/vacuum inputs)"),
    "squeezed": (_squeezed, "squeezed-engine probability", "squeezed engine requires mu_s = 1 for every mode (pure squeezed vacuum)"),
}


def _check_real(values: np.ndarray, what: str) -> np.ndarray:
    """Real parts clamped into [0, 1]; an imaginary or negative residue beyond roundoff raises."""
    re, im = values.real, values.imag
    if (bad := np.abs(im) > _IM_TOL * np.maximum(1.0, np.abs(re))).any():
        raise NumericalIntegrityError(f"{what} has imaginary residue {im[bad][0]:.3e}")
    if (bad := re < -_NEG_TOL).any():
        raise NumericalIntegrityError(f"{what} is negative: {re[bad][0]:.3e}")
    return np.clip(re, 0.0, 1.0)


def probabilities(qform: OutputQForm, name: str, patterns) -> np.ndarray:
    """p(n) of each pattern by the engine `name` (general, thermal or squeezed), in
    input order: one submatrix gather and batched kernel call per weight N and chunk.

    `patterns` is any iterable of patterns or a (P, M) array, checked as by
    `detection_table`."""
    engine, what, contract = _TABLES[name]
    table = detection_table(patterns, qform.m)
    if name not in applicable(qform):
        raise ContractError(contract)
    weights = table.sum(axis=1)
    values = np.empty(len(table), dtype=complex)
    for n in sorted(set(weights.tolist())):  # np.unique would import numpy.ma
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
    """prod(mu) * per(D-tilde restricted to the detected modes).

    Precondition: every input mode is thermal or vacuum (lam_s = 0); calling
    it with squeezing present is a contract violation, not a silent fallback.
    """
    return float(probabilities(qform, "thermal", [pattern])[0])


def prob_squeezed(qform: OutputQForm, pattern) -> float:
    """K |O_N|^2 with O_N = 2^{N/2} haf([C]_N); exactly 0 for odd N.

    Precondition: every input mode is pure squeezed vacuum (mu_s = 1).
    """
    return float(probabilities(qform, "squeezed", [pattern])[0])
