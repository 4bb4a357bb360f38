"""Estimating permanents of positive-semidefinite Hermitian matrices by
sampling a thermal-state photon-counting experiment.

Any PSD Hermitian H = U diag(d) U^dag can be scaled by q >= max(d) so that
1 - mu_j := d_j / q lies in [0, 1): then H/q is the D-tilde matrix of an
N-mode network (the eigenvector unitary) fed with thermal states of
parameter mu_j, and

    p(1, 1, ..., 1) = prod_j mu_j * per(H/q) = prod_j mu_j * per(H) / q^N.

Since that experiment has classical inputs it can be sampled exactly, and
`estimate_permanent` takes p(1, ..., 1) from the block loop of the sampler's
one estimator, `estimate_probabilities`: each shot draws coherent amplitudes
from the thermal P functions, at mean photon numbers
nbar_j = d_j / (q - d_j) (quadrature variances 2 nbar_j above vacuum, the
sampler's one width rule), and propagates them to output amplitudes beta,
and given beta the shot's all-ones probability is exactly

    w = prod_k |beta_k|^2 exp(-|beta_k|^2),

so the mean of w over shots estimates p(1, ..., 1) without the Poisson
step, with the standard error of that mean as its error bar.  Each shot's
all-ones event is still drawn, as one Bernoulli(w) per shot, so `count` has
exactly the law of the experiment's all-ones count.  The estimate is only
as good as its effective sample size (sum w)^2 / sum w^2, and below
`sampler.LOW_CONFIDENCE_COUNT` (1000) the run is flagged low-confidence
rather than silently trusted.  The bar is high because w can be
heavy-tailed: for a diagonal H with small entries w is a product of n nearly
independent factors, its relative variance grows like 2^n, and a sample
that misses the rare large w understates both its mean and its own error
bar.  In 1290 such runs (n = 8..24, 10^4 to 2*10^5 shots) every miss beyond
4 error bars had an effective sample size below 230 (one at 150 missed by
8.7 error bars), and no run at 1000 or more missed by 3; Wishart matrices at
n <= 16 reach several thousand at 2*10^5 shots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, ValidationError, real
from .interferometer import validate_unitary
from .matrix_functions import in_float_range, principal_permanents
from .sampler import _draw_matrix, _estimate

DEFAULT_HEADROOM = 0.1
_HERM_TOL = 1e-10
_EIG_FLOOR = -1e-9
_RECON_TOL = 1e-9
EXACT_CROSSCHECK_LIMIT = 12
SAMPLING_SIZE_LIMIT = 24


def _check_hermitian(h) -> np.ndarray:
    """h as a square, finite complex matrix, Hermitian within _HERM_TOL of its
    largest |entry|, symmetrised.  Whether it is PSD is `embed`'s question."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("matrix has a non-finite entry (nan or inf)")
    if float(np.abs(h - h.conj().T).max(initial=0.0)) > _HERM_TOL * float(np.abs(h).max(initial=0.0)):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return (h + h.conj().T) * 0.5


@dataclass(frozen=True)
class ThermalEmbedding:
    """A PSD matrix recast as a thermal photon-counting instance.

    h = u diag(eigenvalues) u^dag with the eigenvalues clipped at 0,
    q = max eigenvalue / (1 - headroom) and mus = 1 - eigenvalues/q, so mode
    j is a thermal input of mean photon number
    eigenvalues_j / (q - eigenvalues_j).  The zero matrix takes the same path,
    with q = 1 and every mu = 1: all its modes are vacuum.
    """

    h: np.ndarray
    u: np.ndarray
    eigenvalues: np.ndarray
    q: float
    mus: np.ndarray


def embed(h, headroom: float = DEFAULT_HEADROOM) -> ThermalEmbedding:
    """Eigendecompose and scale a PSD Hermitian matrix into a thermal instance.

    h is judged on one scale, its largest |entry| s, as per(c h) = c^n per(h)
    has no preferred one: it must be Hermitian within 1e-10 s, have no
    eigenvalue below -1e-9 s (those above are clipped to 0), and `eigh` must
    reconstruct it within 1e-9 s.

    The headroom keeps every mu_j >= headroom, bounding the thermal
    variances and keeping the target pattern probability away from zero.  A
    headroom of 2^-54 or less is refused: 1 - headroom rounds to 1 there, and
    the largest eigenvalue's mu_j would be 0.
    """
    if not 0.0 < 1.0 - (margin := real(headroom, "headroom")) < 1.0:
        raise ValidationError(f"headroom must be in (0, 1), with 1 - headroom below 1, got {headroom}")
    h = _check_hermitian(h)
    if h.shape[0] == 0:
        raise ValidationError("cannot embed an empty matrix")
    w, v = np.linalg.eigh(h)
    scale = float(np.abs(h).max())
    if w.min() < _EIG_FLOOR * scale:
        raise ValidationError(f"matrix has negative eigenvalue {w.min():.3e}; not PSD")
    recon = float(np.abs((v * w[None, :]) @ v.conj().T - h).max())  # eigh's own error: w is not yet clipped
    if recon > _RECON_TOL * scale:
        raise ValidationError(f"eigendecomposition reconstruction error {recon:.3e} too large")
    w = np.clip(w, 0.0, None)
    # only the zero matrix clips to all zeros: scale <= ||h||_2 <= -_EIG_FLOOR * scale
    q = float(w.max()) / (1.0 - margin) or 1.0
    mus = 1.0 - w / q
    return ThermalEmbedding(h, v, w, q, mus)


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
        return self.estimate / self.exact if self.exact else None  # None without a nonzero exact value


def estimate_permanent(
    h,
    shots: int,
    seed: int,
    headroom: float = DEFAULT_HEADROOM,
    workers: int = 1,
) -> PermanentEstimate:
    """Estimate the embedded thermal instance's all-ones probability on
    `estimate_probabilities`' block loop and rescale it by q^n / prod(mu) to
    per(h).  Mode j is drawn as a thermal mode of nbar_j = d_j / (q - d_j),
    both quadratures 2 nbar_j above vacuum, behind the network u^dag.

    `stderr` is the rescaled standard error, `count` the all-ones hits drawn
    as one Bernoulli per shot, and `low_confidence` marks an effective sample
    size below `sampler.LOW_CONFIDENCE_COUNT`; a zero matrix reads exactly 0
    and is never flagged.  For n <= 12 the exact permanent is computed
    alongside.

    A per(h) whose lower bound prod(h_ii) (Marcus, Bull. AMS 69, 494, 1963)
    is past the top of the float range raises NumericalIntegrityError,
    whatever the sample's mean, and so does a sample whose all-ones weights
    have mean 0 while prod(h_ii) > 0, naming the headroom: a headroom so
    small leaves the modes too bright for any weight to be nonzero.
    Otherwise the rescale takes one path on every input: with q = frac 2^e
    and mu_j = m_j 2^k_j, (estimate, stderr) frac^n / prod(m) is scaled by
    2^(n e - sum k) in `in_float_range`, the kernels' one range rule, which
    raises NumericalIntegrityError for a value that is not finite or nonzero
    below the normal range.
    """
    shape = np.shape(h)  # checked before embed's eigendecomposition
    if len(shape) == 2 and shape[0] == shape[1] > SAMPLING_SIZE_LIMIT:
        raise ValidationError(f"sampling path limited to n <= {SAMPLING_SIZE_LIMIT}, got {shape[0]}")
    emb = embed(h, headroom=headroom)
    n = emb.h.shape[0]
    # D-tilde = V^dag (1-mu) V = h/q requires the network matrix V = u^dag, fed with thermal modes of
    # nbar_j = d_j / (q - d_j), whose quadratures lie 2 nbar_j above vacuum; a zero matrix embeds as vacuum,
    # whose all-ones weights are exactly 0
    x = 2.0 * (emb.eigenvalues / (emb.q - emb.eigenvalues))
    est = _estimate(_draw_matrix(x, x, validate_unitary(emb.u.conj().T).u), np.ones((1, n), np.int64), shots, seed, workers)
    # Marcus: per(h) >= prod(h_ii) for PSD h, > 0 on a positive diagonal, and >= 2^top as each h_ii = f 2^x with f >= 1/2
    if ((d := emb.h.diagonal().real) > 0).all():
        if (top := (np.frexp(d)[1] - 1).sum()) >= 1024:
            raise NumericalIntegrityError(f"permanent of {n}x{n} is at least prod(h_ii) >= 2^{top}, outside the float range")
        if not est.estimate[0]:
            raise NumericalIntegrityError(f"all-ones weights of mean 0, yet per(h) >= prod(h_ii) > 0: headroom {headroom} is too small to sample")
    # q = frac 2^e and mu_j = m_j 2^k_j: frac^n / prod(m) lies between 2^-n and 2^n, so raw is finite on every
    # input, and 2^(n e - sum k) is applied under the range rule
    (frac, e), (m, k) = np.frexp(emb.q), np.frexp(emb.mus)
    raw = np.array([est.estimate[0], est.stderr[0]], dtype=complex) * (frac**n / np.prod(m))
    return PermanentEstimate(
        *in_float_range(f"estimate of a {n}x{n} permanent", raw, np.full(2, n * e - k.sum())).real.tolist(),  # estimate, stderr
        count=int(est.count[0]),
        shots=shots,
        exact=exact_permanent_psd(emb.h) if n <= EXACT_CROSSCHECK_LIMIT else None,
        low_confidence=bool(emb.eigenvalues.any() and est.low_confidence[0]),
    )


def exact_permanent_psd(h) -> float:
    """Exact permanent v of a PSD Hermitian matrix, by `principal_permanents` on h's
    diagonal power-of-two scale, whose kernel raises NumericalIntegrityError for a
    value past the float range or nonzero below its normal range.  Beyond roundoff,
    1e-10 |v|, an imaginary part raises NumericalIntegrityError, named relative to
    |v|, and a negative value (PSD is not checked) ValidationError."""
    h = _check_hermitian(h)
    val = complex(principal_permanents(h, np.arange(len(h))[None])[0])
    tol = 1e-10 * abs(val)
    if abs(val.imag) > tol:
        raise NumericalIntegrityError(f"permanent of PSD matrix has imaginary residue {val.imag / abs(val):.3e}")
    if val.real < -tol:
        raise ValidationError(f"permanent of PSD matrix is negative: {val.real:.3e}")
    return val.real
