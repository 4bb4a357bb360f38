"""The four exact single-photon-detection probability engines.

All engines return p(n) for a detection pattern n with entries in {0, 1}.
Mutual agreement between them on overlapping domains is the core test
surface of the package:

  prob_coherent  closed form for coherent inputs,
                 p = e^{-I} prod_k |beta_k|^{2 n_k}
  prob_general   pairing sum over (2N-1)!! matchings = K * haf(B) where B is
                 the 2N x 2N second-derivative (pairing) matrix
  prob_thermal   prod(mu) * per(D-tilde submatrix), thermal/vacuum inputs only
  prob_squeezed  K * |O_N|^2 with O_N = 2^{N/2} haf(C submatrix), pure
                 squeezed-vacuum inputs only; odd N vanishes identically
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import ContractError, NumericalIntegrityError, ValidationError
from .interferometer import Interferometer, propagate_coherent
from .matrix_functions import detected_modes, hafnian, permanent, submatrix_by_pattern
from .qform import OutputQForm

_IM_TOL = 1e-10
_NEG_TOL = 1e-10
_THERMAL_LAM_TOL = 1e-14
_PURE_MU_TOL = 1e-12


def applicable(qform: OutputQForm) -> list[str]:
    """Names of the engines in ENGINES whose preconditions hold for these inputs.

    Ordered general, thermal, squeezed; the last entry is the most specialized
    applicable engine, so all-vacuum inputs pick the squeezed engine.
    """
    names = ["general"]
    if float(np.abs(qform.lams).max()) <= _THERMAL_LAM_TOL:
        names.append("thermal")
    if float(np.abs(qform.mus - 1.0).max()) <= _PURE_MU_TOL:
        names.append("squeezed")
    return names


def enumerate_patterns(m: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """All C(m, n) patterns for each n <= n_max, lexicographic within each n.

    Streams patterns one at a time; nothing is materialized.
    """
    if n_max > m or n_max < 0:
        raise ValidationError(f"n_max must be in [0, {m}], got {n_max}")
    for n in range(n_max + 1):
        for detected in combinations(range(m), n):
            pat = [0] * m
            for i in detected:
                pat[i] = 1
            yield tuple(pat)


def prob_coherent(net: Interferometer, alpha, pattern) -> float:
    """Detection probability for a multimode coherent input."""
    idx = detected_modes(pattern, net.m)
    beta = propagate_coherent(net, alpha)
    intens = np.abs(beta) ** 2
    p = float(np.exp(-intens.sum()))
    for k in idx:
        p *= intens[k]
    return p


def pairing_matrix(qform: OutputQForm, pattern) -> np.ndarray:
    """2N x 2N symmetric matrix of second derivatives of the exponent F.

    Index order (a_{s1}, ..., a_{sN}, conj(a_{s1}), ..., conj(a_{sN})) with
    detected modes ascending.  Blocks: [[2C, Dt], [Dt^T, 2 conj(C)]], all
    restricted to the detected modes.
    """
    idx = detected_modes(pattern, qform.m)
    ix = np.ix_(idx, idx)
    cs, ds = qform.c[ix], qform.d_tilde[ix]
    return np.block([[2.0 * cs, ds], [ds.T, 2.0 * cs.conj()]])


def _check_real(value: complex, what: str) -> float:
    if abs(value.imag) > _IM_TOL * max(1.0, abs(value.real)):
        raise NumericalIntegrityError(f"{what} has imaginary residue {value.imag:.3e}")
    re = value.real
    if re < -_NEG_TOL:
        raise NumericalIntegrityError(f"{what} is negative: {re:.3e}")
    return re


def prob_general(qform: OutputQForm, pattern) -> float:
    """K * haf(pairing matrix): valid for every Gaussian input mix."""
    b = pairing_matrix(qform, pattern)
    if b.size == 0:
        return qform.k
    val = qform.k * hafnian(b)
    return min(_check_real(val, "general-engine probability"), 1.0)


def prob_thermal(qform: OutputQForm, pattern) -> float:
    """prod(mu) * per(D-tilde restricted to the detected modes).

    Precondition: every input mode is thermal or vacuum (lam_s = 0); calling
    it with squeezing present is a contract violation, not a silent fallback.
    """
    ds = submatrix_by_pattern(qform.d_tilde, pattern)
    if "thermal" not in applicable(qform):
        raise ContractError("thermal engine requires lam_s = 0 for every mode (thermal/vacuum inputs)")
    val = np.prod(qform.mus) * permanent(ds)
    return min(_check_real(val, "thermal-engine probability"), 1.0)


def prob_squeezed(qform: OutputQForm, pattern) -> float:
    """K |O_N|^2 with O_N = 2^{N/2} haf([C]_N); exactly 0 for odd N.

    Precondition: every input mode is pure squeezed vacuum (mu_s = 1).
    """
    idx = detected_modes(pattern, qform.m)
    if "squeezed" not in applicable(qform):
        raise ContractError("squeezed engine requires mu_s = 1 for every mode (pure squeezed vacuum)")
    n = len(idx)
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return qform.k
    o_n = 2.0 ** (n / 2) * hafnian(qform.c[np.ix_(idx, idx)])
    return min(qform.k * float(abs(o_n)) ** 2, 1.0)


# Engine table keyed by the names `applicable` returns.
ENGINES = {"general": prob_general, "thermal": prob_thermal, "squeezed": prob_squeezed}
