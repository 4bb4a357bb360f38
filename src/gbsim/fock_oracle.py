"""Brute-force Fock-space simulator: the independent ground truth.

Supports thermal / squeezed-vacuum / vacuum inputs.  A linear network
conserves the total photon number N, so it acts on each N-photon sector
alone, by a unitary U_N on the C(N+M-1, M-1) compositions of N into M modes
(the phi(U) of Aaronson & Arkhipov, arXiv:1011.3245).  A sector's basis is
its stars-and-bars compositions in colex order of their M - 1 bar positions:
`_basis` lists them from the bar sets and `_rank` inverts it, so no index
array outgrows its sector, whatever M.  U_N is composed from this module's
own Givens sweep of U, each layer a phase and a beam-splitter block per
sector, and its one-photon sector is checked against U itself, so the
sweep's convention has a single implementation.  The cutoff is the largest
total photon number the caller will ask about: the input is truncated on
N <= cutoff, and within a sector the evolution is exact, so every pattern
with at most `cutoff` photons gets its exact probability whatever mass lies
beyond the cutoff, and nothing leaks.  Thermal and vacuum modes are
mixtures over Fock numbers and squeezed modes are kets, so sector N holds a
(d_N, T_N) matrix of kets, one per Fock configuration t of the mixed modes,
weighted by sqrt(p(t)); a probability is a row sum of |.|^2.  No density
matrix is built.

This module exists to cross-check the exact engines and the sampler.  It
forms no permanents, is single-threaded, and has one cap, MAX_BASIS_DIM.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CutoffError, ValidationError, integer
from .interferometer import DEFAULT_UNITARITY_TOL, Interferometer
from .matrix_functions import photon_counts
from .states import GaussianModeState, derive_q_params, input_kinds, mean_photon_number

# One cap, checked before any work, bounds the basis and the work.  Basis: the
# C(c+M, M) states with at most c photons.  Work: the M(M-1)/2 Givens layers each
# pass over the d_N^2 entries of every U_N, d_N = C(N+M-1, M-1), for N up to
# max(c, 1) (U's sweep runs even at c = 0): at most MAX_BASIS_DIM^2 in all.  The
# largest cutoffs: 4095, 89, 27, 15, 9, 7, 5 at M = 1..7, then 4 to M = 9, 3 to 12,
# 2 to 22, 1 to 76, none above; on one core each takes at most about 1 s and 130 MB.
# A call reads c + 1 <= MAX_BASIS_DIM sectors, so every cache below holds one call.
MAX_BASIS_DIM = 4096

_UNITARITY_TOL = 1e-13


@dataclass
class FockState:
    """Per-sector kets of the truncated state: sectors[N] is (d_N, T_N)."""

    cutoff: int  # largest total photon number kept
    modes: int
    sectors: list[np.ndarray]
    tail_bound: float  # input mass with more than `cutoff` photons

    @property
    def leakage(self) -> float:
        """Trace lost during evolution: none, since each sector evolves exactly."""
        return 0.0


def _classify(state: GaussianModeState) -> tuple[str, float]:
    q = derive_q_params(state)
    if "thermal" in (kinds := input_kinds(q.lam, q.mu)):
        return "thermal", mean_photon_number(state)  # 0 for vacuum
    if "squeezed" in kinds:
        return "squeezed", 0.5 * math.log(state.v_x)  # squeezing parameter r
    raise ValidationError(
        "the Fock oracle supports vacuum, thermal and squeezed-vacuum inputs only "
        f"(got v_x = {state.v_x}, v_p = {state.v_p})"
    )


def _amplitudes(kind: str, x: float, length: int) -> np.ndarray:
    """Amplitudes a_0 .. a_{length-1}, whose squares are the photon-number law,
    of a mode that `_classify` reads as (kind, x).

    Thermal (and vacuum, nbar = 0): the root of the geometric law.  Squeezed:
    a_{2n} = (tanh r)^n sqrt((2n)!)/(2^n n!) / sqrt(cosh r), odd terms 0; the
    + sign on tanh r is antisqueezing along x (v_x = e^{2r}), the sign that
    reproduces the two-mode-squeezed-vacuum fixture.
    """
    if kind != "squeezed":
        return math.sqrt(x / (x + 1.0)) ** np.arange(length) / math.sqrt(x + 1.0)
    a = np.zeros(length)
    a[0] = 1.0 / math.sqrt(math.cosh(x))
    for k in range(1, (length - 1) // 2 + 1):
        a[2 * k] = a[2 * k - 2] * math.tanh(x) * math.sqrt((2 * k - 1) / (2 * k))
    return a


def _rank(counts: np.ndarray) -> np.ndarray:
    """Index of each composition (along the last axis) in its sector's basis.

    Stars and bars: with prefix sums s_k = n_0 + .. + n_k, the m - 1 bars of
    counts (n_0, .., n_{m-1}) sit at s_k + k, and the colex rank of that bar
    set, sum_k C(s_k + k, k + 1), numbers the compositions of N from 0 to
    d_N - 1.  The terms are read from a table of C(s + k, k + 1) for s up to
    the largest prefix sum, and no entry of it exceeds d_N.
    """
    prefix = np.cumsum(counts[..., :-1], axis=-1)
    k = np.arange(counts.shape[-1] - 1)
    table = np.array([[math.comb(s + j, j + 1) for j in k.tolist()] for s in range(prefix.max(initial=0) + 1)], dtype=np.intp)
    return table[prefix, k].sum(axis=-1)


@lru_cache(maxsize=MAX_BASIS_DIM)
def _basis(n: int, m: int) -> np.ndarray:
    """The compositions of n into m modes, (d_n, m): row r has rank r.

    Row r's bars are the r-th (m - 1)-subset of range(n + m - 1) in colex
    order, which is the lex order of `combinations` reversed, with every bar
    b mirrored to n + m - 2 - b; the counts are the gaps between the bars.
    """
    mirrored = np.array(list(combinations(range(n + m - 1), m - 1)), dtype=np.intp)
    bars = (n + m - 2 - mirrored)[::-1, ::-1]
    basis = np.diff(bars, axis=1, prepend=-1, append=n + m - 1) - 1
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=MAX_BASIS_DIM)
def _pair_blocks(n: int, m: int) -> dict[tuple[int, int], list[tuple[int, np.ndarray]]]:
    """Sector n's rows grouped, for each mode pair i < j, by every occupation
    but n_i and n_j: one (s, idx) per s = n_i + n_j, where row k of the
    (s + 1, groups) idx holds the states with n_i = k, n_j = s - k.

    Rows that share n_i and n_j rank in the order of their other occupations,
    so one stable sort by (s, n_i) lays each s out as its idx, row by row."""
    basis = _basis(n, m)
    pairs = {}
    for i, j in combinations(range(m), 2):
        s = basis[:, i] + basis[:, j]
        runs = np.split(np.lexsort((basis[:, i], s)), np.cumsum(np.bincount(s, minlength=n + 1))[:-1])
        pairs[i, j] = [(t, run.reshape(t + 1, -1)) for t, run in enumerate(runs) if len(run)]
    return pairs


@lru_cache(maxsize=MAX_BASIS_DIM)
def _bs_eigen(s: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of i G_s, where G_s = A - A^T, A[k+1, k] = sqrt((k+1)(s-k)), is the
    generator a_i^dag a_j - a_i a_j^dag on the states |k, s-k>."""
    a = np.sqrt(np.arange(1.0, s + 1) * np.arange(s, 0, -1.0))
    return np.linalg.eigh(1j * (np.diag(a, -1) - np.diag(a, 1)))


def _bs_block(s: int, theta: float) -> np.ndarray:
    """exp(theta G_s): the real beam-splitter block on n_i + n_j = s."""
    lam, v = _bs_eigen(s)
    return ((v * np.exp(-1j * theta * lam)) @ v.conj().T).real


def _givens(u: np.ndarray) -> tuple[list[tuple[int, int, float, float]], np.ndarray]:
    """Triangular sweep of Givens layers nulling U's below-diagonal entries
    (Reck et al., PRL 73, 58 (1994)).

    Layer (i, j, theta, phi) puts phase phi on mode i, then rotates modes
    (i, j) by theta; on those two modes' amplitudes (beta = alpha @ L) it is

        [[exp(i phi) cos theta, -exp(i phi) sin theta],
         [sin theta,             cos theta           ]]

    Returns the at most M(M-1)/2 layers and the residue R, with
    U = L_1 ... L_k R: R is diagonal phases up to U's unitarity defect.
    """
    work = np.array(u, dtype=complex)
    layers = []
    for col, row in combinations(range(len(work)), 2):
        a, b = work[col, col], work[row, col]
        if b == 0:
            continue
        phi = cmath.phase(a) - cmath.phase(b)
        theta = math.atan2(abs(b), abs(a))
        cs, sn, e = math.cos(theta), math.sin(theta), cmath.exp(-1j * phi)
        # inverse layer acting on rows (col, row): zeroes work[row, col]
        rc, rr = work[col].copy(), work[row].copy()
        work[col] = cs * e * rc + sn * rr
        work[row] = -sn * e * rc + cs * rr
        work[row, col] = 0.0
        layers.append((col, row, theta, phi))
    phases = np.diagonal(work)
    bound = 1e3 * DEFAULT_UNITARITY_TOL
    if np.abs(work - np.diag(phases)).max() > bound or np.abs(np.abs(phases) - 1).max() > bound:
        raise ValidationError("decomposition failed to reduce the matrix to diagonal phases")
    return layers, work


def _sector_unitaries(net: Interferometer, cutoff: int) -> Iterator[np.ndarray]:
    """Yield U_N for N = 0 .. cutoff: the Givens layers of U, then the phases
    of the residue's diagonal.

    Sector 1 acts on one photon as the network does, so it is checked against
    U: a layer action out of step with `_givens` raises ValidationError.
    """
    layers, residue = _givens(net.u)
    blocks = [[_bs_block(s, theta) for s in range(cutoff + 1)] if theta != 0.0 else [] for _, _, theta, _ in layers]
    angles = np.angle(np.diagonal(residue))
    for n in range(cutoff + 1):
        basis = _basis(n, net.m)
        u, pairs = np.eye(len(basis), dtype=complex), _pair_blocks(n, net.m)
        for (i, j, _, phi), ks in zip(layers, blocks):
            if phi != 0.0:
                u *= np.exp(1j * phi * basis[:, i])[:, None]
            for s, idx in pairs[i, j] if ks else ():
                rows = u[idx]
                u[idx] = (ks[s] @ rows.reshape(s + 1, -1)).reshape(rows.shape)
        u = u * np.exp(1j * (basis @ angles))[:, None]
        if n == 1:  # row r holds the photon in mode basis[r].argmax()
            modes = basis.argmax(axis=1)
            at = np.ix_(modes, modes)
            # U = layers @ R and sector 1 is layers @ (R's diagonal phases), so undoing
            # those phases on R recomposes U to roundoff whatever U's own unitarity defect
            err = float(np.abs(u.T @ (residue * np.exp(-1j * angles)[:, None])[at] - net.u[at]).max())
            if err > DEFAULT_UNITARITY_TOL:
                raise ValidationError(f"sector 1 is off the network by {err:.3e} (tolerance {DEFAULT_UNITARITY_TOL:.1e})")
        yield u


def _row_mass(kets: np.ndarray) -> np.ndarray:
    return (kets.real**2 + kets.imag**2).sum(axis=1)


def prepare_input(states: list[GaussianModeState], cutoff: int) -> FockState:
    """Input kets in every sector with at most `cutoff` photons in total.

    `cutoff` is the largest total photon number the caller will ask about;
    the input mass above it is reported as `tail_bound`.  Raises CutoffError
    if the basis or the layers' passes exceed the cap at MAX_BASIS_DIM.
    """
    if (m := len(states)) < 1:
        raise ValidationError("the Fock oracle needs at least one mode")
    if (cutoff := integer(cutoff, "cutoff")) < 0:
        raise ValidationError("cutoff must be non-negative")
    if (dim := math.comb(cutoff + m, m)) > MAX_BASIS_DIM:
        raise CutoffError(f"cutoff {cutoff} needs {dim} basis states, above the cap {MAX_BASIS_DIM}")
    if (passes := m * (m - 1) // 2 * sum(math.comb(n + m - 1, m - 1) ** 2 for n in range(max(cutoff, 1) + 1))) > MAX_BASIS_DIM**2:
        raise CutoffError(f"cutoff {cutoff} at {m} modes needs {passes} layer passes over sector entries, above the cap {MAX_BASIS_DIM}^2")
    kinds = [_classify(s) for s in states]
    amps = [_amplitudes(kind, x, cutoff + 1) for kind, x in kinds]
    mixed = [k for k, (kind, _) in enumerate(kinds) if kind != "squeezed"]
    sectors = []
    for n in range(cutoff + 1):
        basis = _basis(n, m)
        # one column per configuration of the mixed modes, in row-lex order with the last mode first
        column = np.unique(basis[:, mixed[::-1]], axis=0, return_inverse=True)[1]
        kets = np.zeros((len(basis), column.max() + 1))
        kets[np.arange(len(basis)), column] = np.prod([a[col] for a, col in zip(amps, basis.T)], axis=0)
        sectors.append(kets)
    captured = sum(float(np.sum(kets**2)) for kets in sectors)
    return FockState(cutoff=cutoff, modes=m, sectors=sectors, tail_bound=max(1.0 - captured, 0.0))


def apply_network(state: FockState, net: Interferometer) -> FockState:
    """Evolve every sector's kets by its unitary U_N.

    Raises CutoffError if some U_N is off unitarity (max |U U^dag - 1|) by
    more than 1e-13.
    """
    if net.m != state.modes:
        raise ValidationError(f"network has {net.m} modes, state has {state.modes}")
    sectors = []
    for n, (u, kets) in enumerate(zip(_sector_unitaries(net, state.cutoff), state.sectors)):
        defect = float(np.abs(u @ u.conj().T - np.eye(len(u))).max())
        if defect > _UNITARITY_TOL:
            raise CutoffError(f"sector {n} unitary is off by {defect:.3e} (tolerance {_UNITARITY_TOL:g})")
        sectors.append(u @ kets)
    return FockState(cutoff=state.cutoff, modes=state.modes, sectors=sectors, tail_bound=state.tail_bound)


def pattern_probability(state: FockState, pattern) -> float:
    """Exact probability of a pattern with at most `cutoff` photons in total."""
    counts = photon_counts(pattern, state.modes)
    n = sum(counts)
    if n > state.cutoff:
        raise ValidationError(f"pattern {counts} has {n} photons, outside the truncated basis (at most {state.cutoff})")
    r = int(_rank(np.array(counts)))
    return float(_row_mass(state.sectors[n][r : r + 1])[0])

