"""Exact classical sampler for networks fed with classical Gaussian states.

Any state with v_p >= 1 is a Gaussian mixture of coherent states, so a shot
can be simulated by (1) drawing coherent amplitudes from the per-mode P
functions, (2) propagating them through the network, (3) drawing each output
mode's photon count from a Poisson law with mean |beta_k|^2.  The resulting
histogram covers the full photon-count distribution; the {0,1} patterns of
the exact engines are a sub-event of it.

One block loop, `_run_blocks`, hands each block to a reducer.  A block first
draws its output intensities |beta|^2 (`_block_intensity`); `_block_counts`
then draws the Poisson counts from the same stream, and `sample_patterns`
counts their rows as packed int64 keys in numpy, and rows too wide for a key
exactly.  The PSD-permanent estimator shares the intensities but replaces
the Poisson step by its own last draw.

Determinism: shots are processed in fixed-size blocks of 4096, and each
block draws from its own counter-based Philox stream keyed by (seed, block
index).  How many numbers a block consumes depends on the data (numpy's
Poisson sampler rejects and redraws), but no two blocks share a stream, so
each block's counts depend only on the seed and its index.  Counts merge
additively, so the result is identical for any worker count and any shard
ordering.
"""

from __future__ import annotations

import operator
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from .interferometer import Interferometer
from .matrix_functions import photon_counts
from .states import GaussianModeState, is_classical, mean_photon_number

BLOCK_SHOTS = 4096  # fixed: part of the deterministic stream-derivation policy
# numpy's Poisson sampler refuses means above about 9.2e18, and the output
# intensity of a classical input has an exponential tail about its mean, so
# a total mean this far below that limit never reaches it.
MAX_MEAN_PHOTONS = 1e15
FOLD_KEYS = 1 << 16  # packed keys held before they are folded into the running counts


@dataclass
class SampleReport:
    """Histogram of photon-count patterns from a sampling run."""

    shots: int
    seed: int
    modes: int
    histogram: dict[tuple[int, ...], int] = field(default_factory=dict)
    elapsed: float = 0.0

    def frequency(self, pattern) -> float:
        return self.histogram.get(photon_counts(pattern, self.modes), 0) / self.shots


class PatternEstimate(NamedTuple):
    estimate: float
    stderr: float
    observed: bool


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _block_intensity(
    u_mat: np.ndarray, sx, sp, seed: int, block: int, nrows: int
) -> tuple[np.random.Generator, np.ndarray]:
    """The block's own generator and each shot's output intensities |beta|^2,
    drawn first from that generator's stream."""
    m = u_mat.shape[0]
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    normals = gen.standard_normal((nrows, 2 * m))
    alpha = np.empty((nrows, m), dtype=complex)
    np.multiply(normals[:, :m], sx, out=alpha.real)
    np.multiply(normals[:, m:], sp, out=alpha.imag)
    # freed before the product, whose output then reuses this memory instead of faulting in fresh pages
    del normals
    return gen, np.abs(alpha @ u_mat) ** 2


def _block_counts(u_mat: np.ndarray, sx, sp, seed: int, block: int, nrows: int) -> np.ndarray:
    """Photon counts for one block of shots, drawn from the block's own stream."""
    gen, lam = _block_intensity(u_mat, sx, sp, seed, block, nrows)
    return gen.poisson(lam)


def _run_blocks(states, net, shots, seed, workers, draw: Callable, reduce: Callable) -> None:
    """Validate a run, then hand each block's `draw` result to `reduce` in block
    order.  `draw` takes the arguments of `_block_counts`."""
    if len(states) != net.m:
        raise ValidationError(f"{len(states)} states supplied for a {net.m}-mode network")
    if shots < 1:
        raise ValidationError(f"shot count must be >= 1, got {shots}")
    seed = _integer(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    workers = _integer(workers, "worker count")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    for i, s in enumerate(states):
        if not is_classical(s):
            raise ValidationError(
                f"mode {i} is non-classical (v_p = {s.v_p} < 1): no non-negative "
                "P function exists, so the classical sampler does not apply"
            )
    total = sum(mean_photon_number(s) for s in states)
    if total > MAX_MEAN_PHOTONS:
        raise ValidationError(f"total mean photon number {total:.3g} exceeds {MAX_MEAN_PHOTONS:g}")
    # P-function standard deviations of each mode's two quadratures
    sx = np.sqrt(np.maximum([(s.v_x - 1.0) / 4.0 for s in states], 0.0))
    sp = np.sqrt(np.maximum([(s.v_p - 1.0) / 4.0 for s in states], 0.0))
    u_mat = np.asarray(net.u)
    nblocks = (shots + BLOCK_SHOTS - 1) // BLOCK_SHOTS

    def block(b: int):
        return draw(u_mat, sx, sp, seed, b, min(BLOCK_SHOTS, shots - b * BLOCK_SHOTS))

    window = 4 * workers  # blocks in flight: memory stays flat in the shot count
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = map if workers == 1 else pool.map
        for start in range(0, nblocks, window):
            for result in run(block, range(start, min(start + window, nblocks))):
                reduce(result)


def sample_patterns(
    states: list[GaussianModeState],
    net: Interferometer,
    shots: int,
    seed: int,
    workers: int = 1,
) -> SampleReport:
    """Sample `shots` photon-count patterns; deterministic for a given seed."""
    t0 = time.perf_counter()
    bits = 63 // net.m  # key field per mode: m fields fit a non-negative int64
    shifts = bits * np.arange(net.m, dtype=np.int64)
    wide: Counter[tuple[int, ...]] = Counter()  # rows with a count too large for its field
    keys = tallies = np.zeros(0, dtype=np.int64)  # running sorted (key, count) pair
    pending: list[np.ndarray] = []

    def fold() -> None:
        nonlocal keys, tallies
        fresh, seen = np.unique(np.concatenate(pending), return_counts=True)
        pending.clear()
        order = np.argsort(merged := np.concatenate([keys, fresh]), kind="stable")  # merges two sorted runs
        merged, totals = merged[order], np.concatenate([tallies, seen])[order]
        first = np.flatnonzero(np.diff(merged, prepend=-1))  # keys are >= 0
        keys, tallies = merged[first], np.add.reduceat(totals, first)

    def tally(counts: np.ndarray) -> None:
        if sum(map(len, pending)) >= FOLD_KEYS:
            fold()
        if counts.max() >> bits:
            over = (counts >> bits).any(axis=1)
            wide.update(zip(*counts[over].T.tolist()))
            counts = counts[~over]
        pending.append(counts @ (1 << shifts))
    _run_blocks(states, net, shots, seed, workers, _block_counts, tally)
    fold()
    fields = (keys[:, None] >> shifts) & ((1 << bits) - 1)
    histogram = dict(zip(zip(*fields.T.tolist()), tallies.tolist())) | wide  # disjoint keys
    return SampleReport(shots, operator.index(seed), net.m, histogram, time.perf_counter() - t0)


def estimate_pattern_probability(report: SampleReport, pattern) -> PatternEstimate:
    """Monte-Carlo estimate of one pattern's probability with binomial error.

    This is a plain frequency estimator: its multiplicative accuracy is only
    meaningful for probabilities well above 1/shots.  (Approximating
    exponentially small probabilities multiplicatively needs approximate
    counting with an NP oracle, which is out of scope.)
    """
    if report.shots < 1:
        raise ValidationError("empty report")
    count = report.histogram.get(photon_counts(pattern, report.modes), 0)
    p_hat = count / report.shots
    return PatternEstimate(p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / report.shots)), count > 0)
