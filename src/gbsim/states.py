"""Single-mode Gaussian input states and their Husimi-Q parameterization.

Every input mode is a zero-mean Gaussian state with a diagonal covariance
matrix, described by its two quadrature variances (v_x, v_p) normalized so
that vacuum has v_x = v_p = 1.  Phases are assumed absorbed into the network,
so v_x >= v_p always (antisqueezing along x).

The Q function of such a state is

    Q(a) = sqrt(mu^2 - 4 lam^2)/pi * exp[lam (a^2 + conj(a)^2) - mu |a|^2]

with

    lam = 1/(2 v_p + 2) - 1/(2 v_x + 2)
    mu  = 1/(v_x + 1) + 1/(v_p + 1)

lam = 0 iff v_x = v_p (no squeezing), mu = 1 iff the state is pure.  Since
mu -+ 2 lam = 2/(v_x + 1), 2/(v_p + 1), the normalization is taken as
2/sqrt((v_x + 1)(v_p + 1)), which does not cancel under strong squeezing
(mu -> 1, 2 lam -> 1) as mu^2 - 4 lam^2 does; it reads 0 where the product
overflows (above about 1.8e308), never an imprecise value.  Likewise
t = 1 - mu = (v_x v_p - 1)/((v_x + 1)(v_p + 1)) is taken with its numerator as
(v_x - 1)(v_p - 1) + (v_x - 1) + (v_p - 1), which does not cancel on dim
thermal inputs (v -> 1) as 1 - mu does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, real

# Tolerance for the purity bound v_x * v_p >= 1 and for the classicality
# threshold v_p >= 1; absorbs exp() roundoff in the constructors.
_REL_TOL = 1e-12
# Roundoff allowed in `input_kinds`: on |lam| for thermal, on |mu - 1| for pure.
_THERMAL_LAM_TOL = 1e-14
_PURE_MU_TOL = 1e-12


@dataclass(frozen=True)
class GaussianModeState:
    """One input mode: quadrature variances with vacuum = 1.

    Invariants: v_x >= v_p > 0 and v_x * v_p >= 1 (equality iff pure).
    """

    v_x: float
    v_p: float

    def __post_init__(self):
        v_x, v_p = real(self.v_x, "v_x"), real(self.v_p, "v_p")
        if not (v_p > 0.0 and math.isfinite(v_x) and math.isfinite(v_p)):
            raise ValidationError(f"variances must be positive and finite, got ({v_x}, {v_p})")
        if v_x < v_p:
            raise ValidationError(
                f"v_x must be >= v_p (phases are folded into the network), got ({v_x}, {v_p})"
            )
        if v_x * v_p < 1.0 - _REL_TOL:
            raise ValidationError(f"unphysical state: v_x*v_p = {v_x * v_p} < 1")
        object.__setattr__(self, "v_x", v_x)
        object.__setattr__(self, "v_p", v_p)


@dataclass(frozen=True)
class QFunctionParams:
    """(lam, mu) pair of the Gaussian Q function, with mu^2 > 4 lam^2, its
    normalization norm = sqrt(mu^2 - 4 lam^2), and t = 1 - mu >= 0."""

    lam: float
    mu: float
    norm: float
    t: float


def _exp(x: float) -> float:
    """e^x, or inf where it overflows, for the variance check to reject."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def vacuum() -> GaussianModeState:
    return GaussianModeState(1.0, 1.0)


def thermal(v: float) -> GaussianModeState:
    """Thermal state with symmetric variance v >= 1 (mean photons (v-1)/2)."""
    if real(v, "thermal variance") < 1.0:
        raise ValidationError(f"thermal variance must be >= 1, got {v}")
    return GaussianModeState(v, v)


def squeezed(r: float) -> GaussianModeState:
    """Squeezed vacuum with v_x = e^{2r}, v_p = e^{-2r}.

    The sign of r is canonicalized away: squeezing along any other axis must
    be expressed through a phase in the network matrix.
    """
    return squeezed_thermal(1.0, r)


def squeezed_thermal(v: float, r: float) -> GaussianModeState:
    """Squeezed thermal state with v_x = v e^{2r}, v_p = v e^{-2r}, v >= 1."""
    if (base := real(v, "squeezed-thermal base variance")) < 1.0:
        raise ValidationError(f"squeezed-thermal base variance must be >= 1, got {v}")
    r = abs(real(r, "squeezing r"))
    return GaussianModeState(base * _exp(2 * r), base * _exp(-2 * r))


def derive_q_params(state: GaussianModeState) -> QFunctionParams:
    """Map (v_x, v_p) to the (lam, mu, norm, t) parameters of the input Q function."""
    lam = 1.0 / (2 * state.v_p + 2) - 1.0 / (2 * state.v_x + 2)
    mu = 1.0 / (state.v_x + 1) + 1.0 / (state.v_p + 1)
    x, p, prod = state.v_x - 1, state.v_p - 1, (state.v_x + 1) * (state.v_p + 1)
    # prod >= 4 and x p + x + p = v_x v_p - 1 >= 0; at v_x v_p = 1 roundoff can leave either an ulp out
    return QFunctionParams(lam, mu, min(1.0, 2.0 / math.sqrt(prod)), max(0.0, (x * p + x + p) / prod))


def input_kinds(lam, mu) -> list[str]:
    """The kinds, of "thermal" (lam = 0: thermal or vacuum) and "squeezed"
    (mu = 1: pure squeezed vacuum), that every mode with these Q parameters
    (scalars or arrays) is, up to roundoff; vacuum is both."""
    close = {"thermal": np.abs(lam) <= _THERMAL_LAM_TOL, "squeezed": np.abs(np.subtract(mu, 1.0)) <= _PURE_MU_TOL}
    return [kind for kind, ok in close.items() if ok.all()]


def is_classical(state: GaussianModeState) -> bool:
    """True iff the state is a non-negative mixture of coherent states.

    The criterion is v_p >= 1: both quadratures then carry at least vacuum
    noise, so a Gaussian P function exists.  Vacuum itself counts as the
    degenerate zero-width mixture.
    """
    return state.v_p >= 1.0 - _REL_TOL


def mean_photon_number(state: GaussianModeState) -> float:
    """(v_x + v_p)/4 - 1/2; zero first moments contribute nothing."""
    return (state.v_x + state.v_p) / 4.0 - 0.5


# Each config record type: its constructor, and the fields the record holds besides "type", in argument order.
_DESCRIPTORS = {
    "vacuum": (vacuum, ()),
    "thermal": (thermal, ("v",)),
    "squeezed": (squeezed, ("r",)),
    "squeezed_thermal": (squeezed_thermal, ("v", "r")),
}


def state_from_descriptor(desc: dict) -> GaussianModeState:
    """Build a state from a tagged config record that holds exactly its type's fields,
    such as {"type": "thermal", "v": 3.0} or {"type": "squeezed_thermal", "v": 1.2, "r": 0.3}."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValidationError(f"state descriptor must be an object with a 'type' field: {desc!r}")
    kind = desc["type"]
    if not isinstance(kind, str) or kind not in _DESCRIPTORS:  # a list would fail the lookup
        raise ValidationError(f"unknown state type {kind!r}")
    make, fields = _DESCRIPTORS[kind]
    for name in fields:
        if name not in desc:
            raise ValidationError(f"state descriptor {desc!r} is missing field {name!r}")
    for name in desc:
        if name != "type" and name not in fields:
            raise ValidationError(f"state descriptor {desc!r} has unexpected field {name!r}")
    return make(*(desc[name] for name in fields))
