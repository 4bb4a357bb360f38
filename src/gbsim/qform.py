"""Output Q-function quadratic form: the (K, C, D-tilde) triple.

For input modes with Q parameters (lam_s, mu_s) behind a network U (amplitude
convention beta = alpha @ U), the output Q function is a Gaussian determined
by

    K       = prod_s sqrt(mu_s^2 - 4 lam_s^2) = prod_s 2/sqrt((v_x + 1)(v_p + 1))
    C       = U^dag diag(lam) conj(U)          (complex symmetric)
    D-tilde = U^dag diag(1 - mu) U             (Hermitian, PSD)

All exact probability engines consume this one object.  Note the adjoints:
the matrix entering these bilinear forms is the conjugate transpose of the
amplitude-propagation matrix, which is what makes the same U satisfy both
beta = alpha @ U and the engine cross-checks below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .interferometer import Interferometer, _readonly
from .states import GaussianModeState, derive_q_params


@dataclass(frozen=True)
class OutputQForm:
    """Normalization K, pair-correlation matrix C, and D-tilde = U^dag diag(1 - mu) U.

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
    c = (c + c.T) * 0.5
    # from each mode's own t = 1 - mu >= 0: PSD for any U, and no 1 - D to cancel on dim inputs
    dt = ud @ (np.array([p.t for p in params])[:, None] * net.u)
    dt = (dt + dt.conj().T) * 0.5
    return OutputQForm(k, _readonly(c), _readonly(dt), _readonly(lams), _readonly(mus))
