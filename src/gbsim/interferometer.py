"""The M-mode linear-optical network as an M x M unitary matrix.

Convention, used consistently everywhere in this package: rows index input
modes, columns index output modes, and coherent amplitudes propagate as

    beta_k = sum_j alpha_j U_{jk}        (i.e. beta = alpha @ U)

Networks compose left to right: light passing first through U1 and then
through U2 sees the combined matrix U1 @ U2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer

DEFAULT_UNITARITY_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Interferometer:
    """Validated unitary network matrix.  Immutable; safe to share."""

    u: np.ndarray
    unitarity_defect: float

    @property
    def m(self) -> int:
        return self.u.shape[0]


def validate_unitary(u) -> Interferometer:
    """Wrap a square matrix as an Interferometer, rejecting non-unitaries.

    Every entry must be finite.  The defect is measured as max |U^dag U - 1|
    over entries and may be at most DEFAULT_UNITARITY_TOL.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
        raise ValidationError(f"network matrix must be square and non-empty, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValidationError("network matrix has a non-finite entry (nan or inf)")
    defect = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if defect > DEFAULT_UNITARITY_TOL:
        raise ValidationError(f"matrix is not unitary: defect {defect:.3e} exceeds tolerance {DEFAULT_UNITARITY_TOL:.1e}")
    return Interferometer(_readonly(u.copy()), defect)


def haar_random(m: int, seed: int) -> Interferometer:
    """Haar-distributed m x m unitary, deterministic for a given seed.

    QR of a complex Ginibre matrix with the R-diagonal phase fix, so the
    distribution is exactly Haar rather than merely orthonormal.
    """
    if (m := integer(m, "mode count")) < 1:
        raise ValidationError(f"mode count must be >= 1, got {m}")
    if (seed := integer(seed, "seed")) < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return validate_unitary(q)

