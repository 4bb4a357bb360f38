"""Brute-force truncated-Fock-space simulator: the independent ground truth.

Supports at most three modes and thermal / squeezed-vacuum / vacuum inputs.
Everything is represented as a dense density matrix on the product of
per-mode number bases up to a cutoff; the network is applied layer by layer
through the triangular decomposition using exact two-mode beam-splitter
kernels.  Photon number is conserved by every layer, so truncation can only
lose mass from sectors whose total photon number exceeds the cutoff; the
lost trace is measured and rejected if it exceeds the leak tolerance.

This module exists to cross-check the exact engines and the sampler.  It is
deliberately slow, single-threaded, and dimension-capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, ValidationError
from .interferometer import Interferometer, decompose
from .matrix_functions import photon_counts
from .states import GaussianModeState

MAX_MODES = 3
MAX_TOTAL_DIM = 4096
MULTIMODE_CUTOFF_CAP = 24
DEFAULT_TAIL_BOUND = 1e-8
DEFAULT_LEAK_BUDGET = 1e-10
DEFAULT_LEAK_TOL = 1e-9

_VAC_TOL = 1e-14
_MIN_UNCERTAINTY_TOL = 1e-12


@dataclass
class FockState:
    """Dense density matrix on the truncated M-mode number basis."""

    cutoff: int
    modes: int
    rho: np.ndarray  # shape (dim, dim) with dim = (cutoff + 1) ** modes
    tail_bound: float  # input mass outside the truncation box
    leakage: float = 0.0  # trace lost so far to truncation during evolution

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    def trace(self) -> float:
        return float(np.trace(self.rho).real)


def _classify(state: GaussianModeState) -> tuple[str, float]:
    if abs(state.v_x - 1.0) <= _VAC_TOL and abs(state.v_p - 1.0) <= _VAC_TOL:
        return "vacuum", 0.0
    if state.v_x == state.v_p:
        return "thermal", (state.v_x - 1.0) / 2.0  # mean photon number
    if abs(state.v_x * state.v_p - 1.0) <= _MIN_UNCERTAINTY_TOL:
        return "squeezed", 0.5 * math.log(state.v_x)  # squeezing parameter r
    raise ValidationError(
        "the Fock oracle supports vacuum, thermal and squeezed-vacuum inputs only "
        f"(got v_x = {state.v_x}, v_p = {state.v_p})"
    )


def _number_distribution(state: GaussianModeState, length: int) -> np.ndarray:
    """Exact per-entry photon-number probabilities p_0 .. p_{length-1}."""
    kind, x = _classify(state)
    p = np.zeros(length)
    if kind == "vacuum":
        p[0] = 1.0
    elif kind == "thermal":
        nbar = x
        ratio = nbar / (nbar + 1.0)
        p[0] = 1.0 / (nbar + 1.0)
        for n in range(1, length):
            p[n] = p[n - 1] * ratio
    else:
        t2 = math.tanh(x) ** 2
        p[0] = 1.0 / math.cosh(x)
        for k in range(1, (length - 1) // 2 + 1):
            # p_{2k} = p_{2k-2} * tanh^2 r * (2k-1)/(2k)
            p[2 * k] = p[2 * k - 2] * t2 * (2 * k - 1) / (2 * k)
    return p


def _squeezed_amplitudes(r: float, length: int) -> np.ndarray:
    """c_{2n} = (tanh r)^n sqrt((2n)!)/(2^n n!) / sqrt(cosh r); odd terms 0.

    The + sign on tanh r corresponds to antisqueezing along x (v_x = e^{2r});
    it is the sign that reproduces the two-mode-squeezed-vacuum fixture.
    """
    c = np.zeros(length)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    t = math.tanh(r)
    for k in range(1, (length - 1) // 2 + 1):
        c[2 * k] = c[2 * k - 2] * t * math.sqrt((2 * k - 1) / (2 * k))
    return c


def _mode_density(state: GaussianModeState, dim: int) -> np.ndarray:
    kind, x = _classify(state)
    if kind == "squeezed":
        c = _squeezed_amplitudes(x, dim)
        return np.outer(c, c).astype(complex)
    return np.diag(_number_distribution(state, dim)).astype(complex)


def _dim_cap_cutoff(m: int) -> int:
    c = 1
    while (c + 2) ** m <= MAX_TOTAL_DIM:
        c += 1
    return c


def auto_cutoff(
    states: list[GaussianModeState],
    tail_bound: float = DEFAULT_TAIL_BOUND,
    leak_budget: float = DEFAULT_LEAK_BUDGET,
) -> int:
    """Smallest cutoff meeting the per-mode tail bound, bumped (for M >= 2)
    until the joint total-photon tail also fits under the leak budget so a
    later apply_network cannot exceed its trace-loss tolerance.

    Caps: 24 per mode for multimode states, and total dimension <= 4096
    always; unsatisfiable requirements raise CutoffError.
    """
    m = len(states)
    if m < 1 or m > MAX_MODES:
        raise ValidationError(f"the Fock oracle handles 1..{MAX_MODES} modes, got {m}")
    cap = _dim_cap_cutoff(m)
    if m >= 2:
        cap = min(cap, MULTIMODE_CUTOFF_CAP)
    dists = [_number_distribution(s, cap + 1) for s in states]
    cum = [np.cumsum(d) for d in dists]
    cutoff = None
    for c in range(cap + 1):
        if all(1.0 - cm[c] <= tail_bound for cm in cum):
            cutoff = c
            break
    if cutoff is None:
        raise CutoffError(
            f"no cutoff <= {cap} reaches per-mode tail {tail_bound:g} for these states"
        )
    if m >= 2:
        joint = dists[0]
        for d in dists[1:]:
            joint = np.convolve(joint, d)
        jcum = np.cumsum(joint)
        while cutoff <= cap and 1.0 - jcum[cutoff] > leak_budget:
            cutoff += 1
        if cutoff > cap:
            raise CutoffError(
                f"no cutoff <= {cap} bounds the total-photon tail by {leak_budget:g}; "
                "use milder states or an explicit cutoff"
            )
    return cutoff


def prepare_input(
    states: list[GaussianModeState],
    cutoff: int | None = None,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> FockState:
    """Tensor product of per-mode truncated densities.

    cutoff = None selects auto_cutoff(states).  An explicit cutoff is checked
    against the tail bound and the total-dimension cap.
    """
    m = len(states)
    if m < 1 or m > MAX_MODES:
        raise ValidationError(f"the Fock oracle handles 1..{MAX_MODES} modes, got {m}")
    if cutoff is None:
        cutoff = auto_cutoff(states, tail_bound=tail_bound)
    if cutoff < 0:
        raise ValidationError("cutoff must be non-negative")
    dim = cutoff + 1
    if dim**m > MAX_TOTAL_DIM:
        raise CutoffError(f"total dimension {dim ** m} exceeds the cap {MAX_TOTAL_DIM}")
    for i, s in enumerate(states):
        tail = 1.0 - float(_number_distribution(s, dim).sum())
        if tail > tail_bound:
            raise CutoffError(
                f"cutoff {cutoff} too small for requested tail bound on mode {i} (tail {tail:.3e})"
            )
    rho = _mode_density(states[0], dim)
    for s in states[1:]:
        rho = np.kron(rho, _mode_density(s, dim))
    tail_total = 1.0 - float(np.trace(rho).real)
    return FockState(cutoff=cutoff, modes=m, rho=rho, tail_bound=max(tail_total, 0.0))


def _bs_kernel(dim: int, theta: float) -> np.ndarray:
    """Exact number-basis matrix of exp[theta (a_i^dag a_j - a_i a_j^dag)].

    Real (dim^2, dim^2) matrix; exactly unitary on every sector with total
    photon number <= cutoff, lossy above (the measured truncation leakage).
    """
    c, s = math.cos(theta), math.sin(theta)
    lg = [math.lgamma(n + 1) for n in range(2 * dim)]
    kern = np.zeros((dim * dim, dim * dim))
    for n1 in range(dim):
        p1 = np.array([math.comb(n1, r) * (c**r) * ((-s) ** (n1 - r)) for r in range(n1 + 1)])
        for n2 in range(dim):
            p2 = np.array([math.comb(n2, t) * (s**t) * (c ** (n2 - t)) for t in range(n2 + 1)])
            amp = np.convolve(p1, p2)
            total = n1 + n2
            col = n1 * dim + n2
            lo, hi = max(0, total - (dim - 1)), min(total, dim - 1)
            for p in range(lo, hi + 1):
                q = total - p
                w = math.exp(0.5 * (lg[p] + lg[q] - lg[n1] - lg[n2]))
                kern[p * dim + q, col] = amp[p] * w
    return kern


def _apply_phase(rho_t: np.ndarray, mode: int, m: int, phase_vec: np.ndarray) -> None:
    shape = [1] * (2 * m)
    shape[mode] = phase_vec.size
    rho_t *= phase_vec.reshape(shape)
    shape = [1] * (2 * m)
    shape[m + mode] = phase_vec.size
    rho_t *= phase_vec.conj().reshape(shape)


def _apply_kernel(rho_t: np.ndarray, kern4, i: int, j: int, m: int) -> np.ndarray:
    t = np.tensordot(kern4, rho_t, axes=([2, 3], [i, j]))
    t = np.moveaxis(t, [0, 1], [i, j])
    t = np.tensordot(kern4.conj(), t, axes=([2, 3], [m + i, m + j]))
    return np.moveaxis(t, [0, 1], [m + i, m + j])


def apply_network(state: FockState, net: Interferometer, leak_tol: float = DEFAULT_LEAK_TOL) -> FockState:
    """Evolve the density through the decomposed network.

    Raises CutoffError if the truncated evolution loses more trace than
    leak_tol; the loss is recorded either way.
    """
    if net.m != state.modes:
        raise ValidationError(f"network has {net.m} modes, state has {state.modes}")
    dec = decompose(net)
    dim = state.cutoff + 1
    m = state.modes
    trace_in = state.trace()
    rho_t = state.rho.reshape((dim,) * (2 * m)).copy()
    n_vec = np.arange(dim)
    for layer in dec.layers:
        i, j = layer.modes
        if layer.phi != 0.0:
            _apply_phase(rho_t, i, m, np.exp(1j * layer.phi * n_vec))
        if layer.theta != 0.0:
            kern4 = _bs_kernel(dim, layer.theta).reshape(dim, dim, dim, dim)
            rho_t = _apply_kernel(rho_t, kern4, i, j, m)
    for mode in range(m):
        ph = dec.phases[mode]
        if ph != 1.0:
            _apply_phase(rho_t, mode, m, ph**n_vec)
    rho = rho_t.reshape(dim**m, dim**m)
    leak = trace_in - float(np.trace(rho).real)
    if leak > leak_tol:
        raise CutoffError(f"truncation leaked {leak:.3e} of trace (tolerance {leak_tol:g}); increase the cutoff")
    return FockState(
        cutoff=state.cutoff,
        modes=m,
        rho=rho,
        tail_bound=state.tail_bound,
        leakage=state.leakage + max(leak, 0.0),
    )


def pattern_probability(state: FockState, pattern) -> float:
    """Diagonal density-matrix element at the Fock index of the pattern."""
    counts = photon_counts(pattern, state.modes)
    if max(counts) > state.cutoff:
        raise ValidationError("pattern occupation outside the truncated basis")
    idx = 0
    for x in counts:
        idx = idx * (state.cutoff + 1) + x
    return float(state.rho[idx, idx].real)


def photon_number_distribution(state: FockState) -> np.ndarray:
    """Joint photon-number distribution as an array of shape (d,) * modes."""
    dim = state.cutoff + 1
    return np.diagonal(state.rho).real.reshape((dim,) * state.modes).copy()
