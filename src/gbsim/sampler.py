"""Exact classical sampler for networks fed with classical Gaussian states.

Any state with v_p >= 1 is a Gaussian mixture of coherent states, so a shot
can be simulated by (1) drawing coherent amplitudes from the per-mode P
functions, (2) propagating them through the network, (3) drawing each output
mode's photon count from a Poisson law with mean |beta_k|^2.  The resulting
histogram covers the full photon-count distribution; the {0,1} patterns of
the exact engines are a sub-event of it.

Determinism: shots are processed in fixed-size blocks of 4096, each block
drawing from its own counter-based Philox stream keyed by (seed, block
index), and every shot consumes a fixed number of uniforms.  Histograms
merge additively, so the result is identical for any worker count and any
shard ordering.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .interferometer import Interferometer
from .states import GaussianModeState, is_classical

BLOCK_SHOTS = 4096  # fixed: part of the deterministic stream-derivation policy
_U64 = (1 << 64) - 1


def _require_classical(states: list[GaussianModeState]) -> None:
    for i, s in enumerate(states):
        if not is_classical(s):
            raise ValidationError(
                f"mode {i} is non-classical (v_p = {s.v_p} < 1): no non-negative "
                "P function exists, so the classical sampler does not apply"
            )


def _p_function_scales(states) -> tuple[np.ndarray, np.ndarray]:
    sx = np.sqrt(np.maximum([(s.v_x - 1.0) / 4.0 for s in states], 0.0))
    sp = np.sqrt(np.maximum([(s.v_p - 1.0) / 4.0 for s in states], 0.0))
    return sx, sp


@dataclass
class SampleReport:
    """Histogram of photon-count patterns from a sampling run."""

    shots: int
    seed: int
    modes: int
    histogram: dict[tuple[int, ...], int] = field(default_factory=dict)
    elapsed: float = 0.0

    def frequency(self, pattern) -> float:
        return self.histogram.get(tuple(int(x) for x in pattern), 0) / self.shots


class PatternEstimate(NamedTuple):
    estimate: float
    stderr: float
    observed: bool


def _block_counts(u_mat: np.ndarray, sx, sp, seed: int, block: int, nrows: int) -> np.ndarray:
    """Photon counts for one block of shots; fixed 3M uniforms per shot."""
    m = u_mat.shape[0]
    gen = np.random.Generator(np.random.Philox(key=[seed & _U64, block]))
    u = gen.random((nrows, 3 * m))
    normals = ndtri(np.clip(u[:, : 2 * m], 1e-310, None))
    alpha = normals[:, :m] * sx[None, :] + 1j * normals[:, m : 2 * m] * sp[None, :]
    beta = alpha @ u_mat
    lam = np.abs(beta) ** 2
    # inverse-CDF Poisson: exactly one uniform per mode, loop over count values
    u3 = u[:, 2 * m :]
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    counts = np.zeros(lam.shape, dtype=np.int64)
    undecided = u3 >= cdf
    k = 0
    while undecided.any():
        k += 1
        if k > 1000:
            counts[undecided] = k  # residual mass below float resolution
            break
        pmf *= lam / k
        cdf += pmf
        counts[undecided] = k
        undecided &= u3 >= cdf
    return counts


def sample_patterns(
    states: list[GaussianModeState],
    net: Interferometer,
    shots: int,
    seed: int,
    workers: int = 1,
) -> SampleReport:
    """Sample `shots` photon-count patterns; deterministic for a given seed."""
    if len(states) != net.m:
        raise ValidationError(f"{len(states)} states supplied for a {net.m}-mode network")
    if shots < 1:
        raise ValidationError(f"shot count must be >= 1, got {shots}")
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    _require_classical(states)
    sx, sp = _p_function_scales(states)
    u_mat = np.asarray(net.u)

    t0 = time.perf_counter()
    nblocks = (shots + BLOCK_SHOTS - 1) // BLOCK_SHOTS
    sizes = [min(BLOCK_SHOTS, shots - b * BLOCK_SHOTS) for b in range(nblocks)]

    histogram: dict[tuple[int, ...], int] = {}

    def reduce_block(counts: np.ndarray) -> None:
        uniq, cnt = np.unique(counts, axis=0, return_counts=True)
        for row, c in zip(uniq, cnt):
            key = tuple(int(x) for x in row)
            histogram[key] = histogram.get(key, 0) + int(c)

    if workers <= 1:
        for b in range(nblocks):
            reduce_block(_block_counts(u_mat, sx, sp, seed, b, sizes[b]))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_block_counts, u_mat, sx, sp, seed, b, sizes[b]) for b in range(nblocks)]
            for fut in futs:
                reduce_block(fut.result())

    return SampleReport(
        shots=shots,
        seed=seed,
        modes=net.m,
        histogram=histogram,
        elapsed=time.perf_counter() - t0,
    )


def estimate_pattern_probability(report: SampleReport, pattern) -> PatternEstimate:
    """Monte-Carlo estimate of one pattern's probability with binomial error.

    This is a plain frequency estimator: its multiplicative accuracy is only
    meaningful for probabilities well above 1/shots.  (Approximating
    exponentially small probabilities multiplicatively needs approximate
    counting with an NP oracle, which is out of scope.)
    """
    if report.shots < 1:
        raise ValidationError("empty report")
    count = report.histogram.get(tuple(int(x) for x in pattern), 0)
    p_hat = count / report.shots
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / report.shots))
    return PatternEstimate(p_hat, stderr, count > 0)
