"""The M-mode linear-optical network as an M x M unitary matrix.

Convention, used consistently everywhere in this package: rows index input
modes, columns index output modes, and coherent amplitudes propagate as

    beta_k = sum_j alpha_j U_{jk}        (i.e. beta = alpha @ U)

Networks compose left to right: light passing first through U1 and then
through U2 sees the combined matrix U1 @ U2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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

    The defect is measured as max |U^dag U - 1| over entries and may be at
    most DEFAULT_UNITARITY_TOL.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
        raise ValidationError(f"network matrix must be square and non-empty, got shape {u.shape}")
    defect = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if defect > DEFAULT_UNITARITY_TOL:
        raise ValidationError(f"matrix is not unitary: defect {defect:.3e} exceeds tolerance {DEFAULT_UNITARITY_TOL:.1e}")
    return Interferometer(_readonly(u.copy()), defect)


def haar_random(m: int, seed: int) -> Interferometer:
    """Haar-distributed m x m unitary, deterministic for a given seed.

    QR of a complex Ginibre matrix with the R-diagonal phase fix, so the
    distribution is exactly Haar rather than merely orthonormal.
    """
    if m < 1:
        raise ValidationError(f"mode count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return validate_unitary(q)


def propagate_coherent(net: Interferometer, alpha) -> np.ndarray:
    """Output coherent amplitudes beta = alpha @ U.  Preserves sum |.|^2."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (net.m,):
        raise ValidationError(f"amplitude vector has shape {alpha.shape}, expected ({net.m},)")
    return alpha @ net.u


@dataclass(frozen=True)
class TwoModeLayer:
    """One Givens-type primitive: phase phi on mode i, then a rotation by theta
    mixing modes (i, j).

    Amplitude action (beta = alpha @ matrix, restricted to the two modes):

        [[exp(i phi) cos t, -exp(i phi) sin t],
         [sin t,             cos t           ]]
    """

    modes: tuple[int, int]
    theta: float
    phi: float

    def block(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        ph = cmath.exp(1j * self.phi)
        return np.array([[ph * c, -ph * s], [s, c]])


@dataclass(frozen=True)
class NetworkDecomposition:
    """Ordered two-mode layers plus trailing per-mode phases.

    Applying the layers in sequence and then the diagonal phases reproduces
    the original matrix: U = L_1 @ L_2 @ ... @ L_k @ diag(phases).
    """

    layers: tuple[TwoModeLayer, ...]
    phases: np.ndarray
    m: int

    def matrix(self) -> np.ndarray:
        u = np.eye(self.m, dtype=complex)
        for layer in self.layers:
            i, j = layer.modes
            b = layer.block()
            cols = u[:, [i, j]].copy()
            # right-multiplication by the embedded layer mixes columns i, j
            u[:, [i, j]] = cols @ b
        return u * self.phases[None, :]


def decompose(net: Interferometer) -> NetworkDecomposition:
    """Triangular sweep of Givens layers nulling the below-diagonal entries.

    At most M(M-1)/2 layers; the residual diagonal becomes the phase vector.
    Recomposition reproduces U to within DEFAULT_UNITARITY_TOL per entry.
    """
    m = net.m
    work = np.array(net.u, dtype=complex)
    layers = []
    for col in range(m - 1):
        for row in range(col + 1, m):
            b = work[row, col]
            if b == 0:
                continue
            a = work[col, col]
            phi = cmath.phase(a) - cmath.phase(b)
            theta = math.atan2(abs(b), abs(a))
            cs, sn = math.cos(theta), math.sin(theta)
            e = cmath.exp(-1j * phi)
            # inverse layer acting on rows (col, row): zeroes work[row, col]
            rc = work[col, :].copy()
            rr = work[row, :].copy()
            work[col, :] = cs * e * rc + sn * rr
            work[row, :] = -sn * e * rc + cs * rr
            work[row, col] = 0.0
            layers.append(TwoModeLayer((col, row), theta, phi))
    phases = np.diagonal(work).copy()
    off = work - np.diag(phases)
    bound = 1e3 * DEFAULT_UNITARITY_TOL
    if np.abs(off).max() > bound or np.abs(np.abs(phases) - 1).max() > bound:
        raise ValidationError("decomposition failed to reduce the matrix to diagonal phases")
    dec = NetworkDecomposition(tuple(layers), _readonly(phases), m)
    err = float(np.abs(dec.matrix() - net.u).max())
    if err > DEFAULT_UNITARITY_TOL:
        raise ValidationError(f"decomposition recomposition error {err:.3e} exceeds {DEFAULT_UNITARITY_TOL:.1e}")
    return dec


def tmsv_network() -> Interferometer:
    """Two-mode network that entangles two equally squeezed inputs into a
    two-mode squeezed vacuum: a pi/2 phase shifter on input port 0 followed
    by a 50:50 beam splitter.
    """
    c = 1 / math.sqrt(2)
    bs = np.array([[c, -c], [c, c]])
    return validate_unitary(np.diag([1j, 1.0]) @ bs)
