"""Output Q-function quadratic form: the (K, C, D-tilde) triple.

For input modes with Q parameters (lam_s, mu_s) behind a network U (amplitude
convention beta = alpha @ U), the output Q function is a Gaussian determined
by

    K       = prod_s sqrt(mu_s^2 - 4 lam_s^2) = prod_s 2/sqrt((v_x + 1)(v_p + 1))
    C       = U^dag diag(lam) conj(U)          (complex symmetric)
    D       = U^dag diag(mu) U                 (Hermitian)
    D-tilde = 1 - D                            (Hermitian, PSD)

All exact probability engines consume this one object.  Note the adjoints:
the matrix entering these bilinear forms is the conjugate transpose of the
amplitude-propagation matrix, which is what makes the same U satisfy both
beta = alpha @ U and the engine cross-checks below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .interferometer import DEFAULT_UNITARITY_TOL, Interferometer, _readonly
from .states import GaussianModeState, derive_q_params

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class OutputQForm:
    """Normalization K, pair-correlation matrix C, and D-tilde = 1 - D.

    Also records the per-mode (lam, mu) of the inputs so the specialized
    engines can enforce their preconditions and thermal probabilities can
    use prod(mu) directly.
    """

    k: float
    c: np.ndarray
    d_tilde: np.ndarray
    lams: np.ndarray
    mus: np.ndarray

    @property
    def m(self) -> int:
        return self.c.shape[0]


def build_qform(states: list[GaussianModeState], net: Interferometer) -> OutputQForm:
    """Assemble the output Q form for the given inputs and network."""
    if len(states) != net.m:
        raise ValidationError(f"{len(states)} states supplied for a {net.m}-mode network")
    params = [derive_q_params(s) for s in states]
    lams = np.array([p.lam for p in params])
    mus = np.array([p.mu for p in params])
    k = float(np.prod([p.norm for p in params]))
    if not (0.0 < k <= 1.0 + 1e-12):
        raise ValidationError(f"normalization K = {k} outside (0, 1]")
    if k < np.finfo(float).tiny:  # a subnormal K has lost its leading digits
        raise ValidationError(f"normalization K = {k} is below the smallest normal float; the inputs are too bright")

    ud = net.u.conj().T
    c = ud @ (lams[:, None] * net.u.conj())
    asym = float(np.abs(c - c.T).max())
    if asym > _SYM_TOL:
        raise ValidationError(f"C asymmetry {asym:.3e} exceeds {_SYM_TOL:.1e}")
    c = (c + c.T) * 0.5

    d = ud @ (mus[:, None] * net.u)
    dt = np.eye(net.m) - d
    dt = (dt + dt.conj().T) * 0.5
    w, v = np.linalg.eigh(dt)
    # an accepted U has |U^dag U - 1| <= tol entrywise, so <= M tol spectrally: D-tilde dips no lower, up to roundoff
    if w.min() < -(net.m * DEFAULT_UNITARITY_TOL + _SYM_TOL):
        raise ValidationError(f"D-tilde has eigenvalue {w.min():.3e} below the PSD floor")
    if w.min() < 0.0:
        # clamp roundoff-negative eigenvalues so downstream permanents stay PSD
        w = np.clip(w, 0.0, None)
        dt = (v * w[None, :]) @ v.conj().T
        dt = (dt + dt.conj().T) * 0.5
    return OutputQForm(k, _readonly(c), _readonly(dt), _readonly(lams), _readonly(mus))
