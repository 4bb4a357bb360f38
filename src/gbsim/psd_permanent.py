"""Estimating permanents of positive-semidefinite Hermitian matrices by
sampling a thermal-state photon-counting experiment.

Any PSD Hermitian H = U diag(d) U^dag can be scaled by q >= max(d) so that
1 - mu_j := d_j / q lies in [0, 1): then H/q is the D-tilde matrix of an
N-mode network (the eigenvector unitary) fed with thermal states of
parameter mu_j, and

    p(1, 1, ..., 1) = prod_j mu_j * per(H/q) = prod_j mu_j * per(H) / q^N.

Since that experiment has classical inputs it can be sampled exactly, and
`estimate_permanent` takes p(1, ..., 1) from the sampler's one estimator,
`estimate_probabilities`: each shot draws coherent amplitudes from the
thermal P functions and propagates them to output amplitudes beta, and given
beta the shot's all-ones probability is exactly

    w = prod_k |beta_k|^2 exp(-|beta_k|^2),

so the mean of w over shots estimates p(1, ..., 1) without the Poisson
step, with the standard error of that mean as its error bar.  Each shot's
all-ones event is still drawn, as one Bernoulli(w) per shot, so `count` has
exactly the law of the experiment's all-ones count.  The estimate is only
as good as its effective sample size (sum w)^2 / sum w^2, and below
LOW_CONFIDENCE_COUNT the run is flagged low-confidence rather than silently
trusted.  The bar is high because w can be heavy-tailed: for a diagonal H
with small entries w is a product of n nearly independent factors, its
relative variance grows like 2^n, and a sample that misses the rare large w
understates both its mean and its own error bar.  In 1290 such runs
(n = 8..24, 10^4 to 2*10^5 shots) every miss beyond 4 error bars had an
effective sample size below 230 (one at 150 missed by 8.7 error bars), and
no run at 1000 or more missed by 3; Wishart matrices at n <= 16 reach
several thousand at 2*10^5 shots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, ValidationError, real
from .interferometer import validate_unitary
from .matrix_functions import permanent
from .sampler import LOW_CONFIDENCE_COUNT, estimate_probabilities  # the threshold the docstrings name
from .states import GaussianModeState, thermal

DEFAULT_HEADROOM = 0.1
_HERM_TOL = 1e-10
_EIG_FLOOR = -1e-9
_RECON_TOL = 1e-9
EXACT_CROSSCHECK_LIMIT = 12
SAMPLING_SIZE_LIMIT = 24


def _check_psd_hermitian(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("matrix has a non-finite entry (nan or inf)")
    scale = max(float(np.abs(h).max()), 1.0) if h.size else 1.0
    if h.size and float(np.abs(h - h.conj().T).max()) > _HERM_TOL * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return (h + h.conj().T) * 0.5


@dataclass(frozen=True)
class ThermalEmbedding:
    """A PSD matrix recast as a thermal photon-counting instance.

    h = u diag(eigenvalues) u^dag, q = max eigenvalue / (1 - headroom),
    mus = 1 - eigenvalues/q, states = thermal(2/mu - 1).
    """

    h: np.ndarray
    u: np.ndarray
    eigenvalues: np.ndarray
    q: float
    mus: np.ndarray
    states: tuple[GaussianModeState, ...]
    is_zero: bool


def embed(h, headroom: float = DEFAULT_HEADROOM) -> ThermalEmbedding:
    """Eigendecompose and scale a PSD Hermitian matrix into thermal states.

    The headroom keeps every mu_j >= headroom, bounding the thermal
    variances and keeping the target pattern probability away from zero.
    """
    if not (0.0 < (margin := real(headroom, "headroom")) < 1.0):
        raise ValidationError(f"headroom must be in (0, 1), got {headroom}")
    h = _check_psd_hermitian(h)
    n = h.shape[0]
    if n == 0:
        raise ValidationError("cannot embed an empty matrix")
    w, v = np.linalg.eigh(h)
    scale = float(np.abs(h).max())
    if w.min() < _EIG_FLOOR * max(scale, 1.0):
        raise ValidationError(f"matrix has negative eigenvalue {w.min():.3e}; not PSD")
    w = np.clip(w, 0.0, None)
    if scale == 0.0 or w.max() == 0.0:
        mus = np.ones(n)
        return ThermalEmbedding(h, v, w, 1.0, mus, tuple(thermal(1.0) for _ in range(n)), True)
    recon = float(np.abs((v * w[None, :]) @ v.conj().T - h).max())
    if recon > _RECON_TOL * scale:
        raise ValidationError(f"eigendecomposition reconstruction error {recon:.3e} too large")
    q = float(w.max()) / (1.0 - margin)
    mus = 1.0 - w / q
    states = tuple(thermal(2.0 / mu - 1.0) for mu in mus)
    return ThermalEmbedding(h, v, w, q, mus, states, False)


@dataclass(frozen=True)
class PermanentEstimate:
    estimate: float
    stderr: float
    count: int
    shots: int
    exact: float | None
    low_confidence: bool

    @property
    def ratio(self) -> float | None:
        if self.exact is None or self.exact == 0.0:
            return None
        return self.estimate / self.exact


def estimate_permanent(
    h,
    shots: int,
    seed: int,
    headroom: float = DEFAULT_HEADROOM,
    workers: int = 1,
) -> PermanentEstimate:
    """Estimate the embedded thermal instance's all-ones probability with
    `estimate_probabilities` and rescale it by q^n / prod(mu) to per(h).

    `stderr` is the rescaled standard error, `count` the all-ones hits drawn
    as one Bernoulli per shot, and `low_confidence` marks an effective sample
    size below LOW_CONFIDENCE_COUNT; a zero matrix reads exactly 0 and is
    never flagged.  For n <= 12 the exact permanent is computed alongside.
    """
    shape = np.shape(h)  # checked before embed's eigendecomposition
    if len(shape) == 2 and shape[0] == shape[1] > SAMPLING_SIZE_LIMIT:
        raise ValidationError(f"sampling path limited to n <= {SAMPLING_SIZE_LIMIT}, got {shape[0]}")
    emb = embed(h, headroom=headroom)
    n = emb.h.shape[0]
    # D-tilde = W^dag (1-mu) W = h/q  requires the network matrix W = u^dag;
    # a zero matrix embeds as vacuum, whose all-ones weights are exactly 0
    net = validate_unitary(emb.u.conj().T)
    est = estimate_probabilities(list(emb.states), net, [(1,) * n], shots, seed, workers)
    factor = emb.q**n / float(np.prod(emb.mus))
    return PermanentEstimate(
        estimate=float(est.estimate[0] * factor),
        stderr=float(est.stderr[0] * factor),
        count=int(est.count[0]),
        shots=shots,
        exact=exact_permanent_psd(emb.h) if n <= EXACT_CROSSCHECK_LIMIT else None,
        low_confidence=not emb.is_zero and bool(est.low_confidence[0]),
    )


def exact_permanent_psd(h) -> float:
    """Exact permanent of a PSD Hermitian matrix.  Beyond roundoff, an imaginary residue
    raises NumericalIntegrityError and a negative value (PSD is not checked) ValidationError."""
    h = _check_psd_hermitian(h)
    n = h.shape[0]
    val = permanent(h)
    scale = max(float(np.abs(h).max()), 1e-300) ** n if n else 1.0
    if abs(val.imag) > 1e-10 * max(abs(val), scale):
        raise NumericalIntegrityError(f"permanent of PSD matrix has imaginary residue {val.imag:.3e}")
    if val.real < -1e-10 * scale:
        raise ValidationError(f"permanent of PSD matrix is negative: {val.real:.3e}")
    return float(val.real)
