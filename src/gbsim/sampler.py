"""Exact classical sampler for networks fed with classical Gaussian states.

Any state with v_p >= 1 is a Gaussian mixture of coherent states, so a shot
can be simulated by (1) drawing coherent amplitudes from the per-mode P
functions, (2) propagating them through the network, (3) drawing each output
mode's photon count from a Poisson law with mean |beta_k|^2.  The resulting
histogram covers the full photon-count distribution; the {0,1} patterns of
the exact engines are a sub-event of it.

Given a shot's output amplitudes the counts are independent Poisson
variables, so the shot's probability of any pattern n is exactly

    w_n = prod_k exp(-|beta_k|^2) |beta_k|^(2 n_k) / n_k!,

and `estimate_probabilities` averages w_n over shots in place of step (3):
one estimator for every classical input and every pattern, of which the
PSD-permanent estimator is the all-ones case.

Steps (1) and (2) are one real linear map, built once per run by
`_draw_matrix`: the (2M, 2M) matrix

    W = [[diag(sx) Re U, diag(sx) Im U], [-diag(sp) Im U, diag(sp) Re U]]

takes a shot's 2M standard normals [x, p] to [Re beta, Im beta], where sx
and sp are the P functions' quadrature standard deviations: sqrt((v - 1) / 4)
for a quadrature of variance v (vacuum = 1), whose excess over vacuum, v - 1,
is 2 nbar for a thermal mode of mean photon number nbar.  One block loop,
`_run_blocks`, hands each block to a reducer.  A block first draws its
output intensities |beta|^2 as one product with W (`_block_intensity`),
then its last step from the same stream: `_block_counts` draws the Poisson
counts, which `sample_patterns` counts as packed int64 keys in numpy (and
rows too wide for a key exactly), and `_block_weights` sums w_n and w_n^2
per pattern and draws the hits.  Each run gives every thread one
`_Scratch` of block-sized arrays, which its blocks write into in turn.

Determinism: shots are processed in fixed-size blocks of 4096, and each
block draws from its own counter-based Philox stream keyed by (seed, block
index).  How many numbers a block consumes depends on the data (numpy's
Poisson sampler rejects and redraws), but no two blocks share a stream, so
each block's draws depend only on the seed and its index.  Reducers run in
block order on the calling thread, so every result, floating-point sums
included, is identical for any worker count.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError, integer
from .interferometer import Interferometer
from .matrix_functions import count_table, photon_counts
from .states import GaussianModeState, is_classical, mean_photon_number

BLOCK_SHOTS = 4096  # fixed: part of the deterministic stream-derivation policy
# numpy's Poisson sampler refuses means above about 9.2e18, and the output
# intensity of a classical input has an exponential tail about its mean, so
# a total mean this far below that limit never reaches it.
MAX_MEAN_PHOTONS = 1e15
FOLD_KEYS = 1 << 16  # packed keys held before they are folded into the running counts
# Effective sample size below which an estimate is flagged low-confidence; the
# evidence for this bar is in the psd_permanent module docstring.
LOW_CONFIDENCE_COUNT = 1000


@dataclass
class SampleReport:
    """Histogram of photon-count patterns from a sampling run."""

    shots: int
    seed: int
    modes: int
    histogram: dict[tuple[int, ...], int] = field(default_factory=dict)

    def frequency(self, pattern) -> float:
        return self.histogram.get(photon_counts(pattern, self.modes), 0) / self.shots


class PatternEstimate(NamedTuple):
    """Per-pattern arrays, in the order the patterns were given: the mean of
    each shot's exact pattern probability w, its standard error, the effective
    sample size (sum w)^2 / sum w^2 (0 when every w is 0), the hits, and
    whether the effective sample size is below LOW_CONFIDENCE_COUNT, where
    the mean and its error bar cannot be trusted."""

    estimate: np.ndarray
    stderr: np.ndarray
    ess: np.ndarray
    count: np.ndarray
    low_confidence: np.ndarray


class _Scratch(threading.local):
    """Each thread's working arrays of one run, reused block after block.

    Fresh arrays for every block leave it to the heap whether their pages
    stay mapped: when freeing them handed the pages back to the OS, every
    block faulted them in again, and `estimate_probabilities` ran about 15%
    slower or not, depending on where earlier allocations happened to lie.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def rows(self, name: str, nrows: int, shape: tuple = (), dtype=float) -> np.ndarray:
        """The first `nrows` rows of this thread's BLOCK_SHOTS-row array `name`."""
        if name not in self.arrays:
            self.arrays[name] = np.empty((BLOCK_SHOTS, *shape), dtype)
        return self.arrays[name][:nrows]


def _draw_matrix(ex: np.ndarray, ep: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The run's draw map: the real (2M, 2M) matrix W that takes a shot's 2M
    standard normals [x, p] to [Re beta, Im beta], where
    beta = (sx x + i sp p) @ u draws the input amplitudes from the P functions
    and sends them through u.  ex and ep are each mode's quadrature variances
    above vacuum, v - 1 (2 nbar for a thermal mode), and the P functions'
    standard deviations are sx = sqrt(ex / 4) and sp = sqrt(ep / 4), with an
    excess below 0 (vacuum noise up to roundoff) read as 0.  W is u's real form
    [[Re u, Im u], [-Im u, Re u]] with its rows scaled by [sx, sp]."""
    s = np.sqrt(np.maximum(np.concatenate([ex, ep]), 0.0) / 4.0)
    return s[:, None] * np.block([[u.real, u.imag], [-u.imag, u.real]])


def _block_intensity(
    w: np.ndarray, seed: int, block: int, nrows: int, scratch: _Scratch
) -> tuple[np.random.Generator, np.ndarray]:
    """The block's own generator and each shot's output intensities |beta|^2,
    drawn first from that generator's stream: one real product normals @ W,
    squared, with its two halves (Re beta, Im beta) summed.  The intensities
    live in `scratch` until its next block."""
    m = w.shape[1] // 2
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    normals = gen.standard_normal(out=scratch.rows("normals", nrows, (w.shape[0],)))
    beta = np.matmul(normals, w, out=scratch.rows("beta", nrows, (2 * m,)))
    np.square(beta, out=beta)
    return gen, np.add(beta[:, :m], beta[:, m:], out=scratch.rows("lam", nrows, (m,)))


def _block_counts(w: np.ndarray, seed: int, block: int, nrows: int, scratch: _Scratch) -> np.ndarray:
    """Photon counts for one block of shots, drawn from the block's own stream."""
    gen, lam = _block_intensity(w, seed, block, nrows, scratch)
    return gen.poisson(lam)


def _checked_draw(states, net) -> np.ndarray:
    """The draw matrix of classical `states` behind `net`, once they are checked:
    one per mode, each classical, and their total mean photon number at most
    MAX_MEAN_PHOTONS."""
    if len(states) != net.m:
        raise ValidationError(f"{len(states)} states supplied for a {net.m}-mode network")
    for i, s in enumerate(states):
        if not is_classical(s):
            raise ValidationError(
                f"mode {i} is non-classical (v_p = {s.v_p} < 1): no non-negative "
                "P function exists, so the classical sampler does not apply"
            )
    total = sum(mean_photon_number(s) for s in states)
    if total > MAX_MEAN_PHOTONS:
        raise ValidationError(f"total mean photon number {total:.3g} exceeds {MAX_MEAN_PHOTONS:g}")
    return _draw_matrix(np.array([s.v_x for s in states]) - 1.0, np.array([s.v_p for s in states]) - 1.0, net.u)


def _run_blocks(w: np.ndarray, shots, seed, workers, draw: Callable, reduce: Callable) -> None:
    """Check a run's shots, seed and workers, then hand each block's `draw`
    result to `reduce` in block order.  `draw` takes `_block_counts`'s
    arguments: the draw matrix `w` first, the run's `_Scratch` last."""
    if (shots := integer(shots, "shot count")) < 1:  # a Python int: np.uint64 arithmetic below would wrap
        raise ValidationError(f"shot count must be >= 1, got {shots}")
    if not 0 <= (seed := integer(seed, "seed")) < 1 << 64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    if (workers := integer(workers, "worker count")) < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    nblocks = (shots + BLOCK_SHOTS - 1) // BLOCK_SHOTS
    scratch = _Scratch()

    def block(b: int):
        return draw(w, seed, b, min(BLOCK_SHOTS, shots - b * BLOCK_SHOTS), scratch)

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
    _run_blocks(_checked_draw(states, net), shots, seed, workers, _block_counts, tally)
    fold()
    fields = (keys[:, None] >> shifts) & ((1 << bits) - 1)
    histogram = dict(zip(zip(*fields.T.tolist()), tallies.tolist())) | wide  # disjoint keys
    return SampleReport(shots, operator.index(seed), net.m, histogram)


def _block_weights(
    w: np.ndarray, seed: int, block: int, nrows: int, scratch: _Scratch, levels, index: np.ndarray
) -> np.ndarray:
    """One block's hits, sums of w and sums of w^2 per pattern (a (3, P)
    array), where w is a shot's exact probability of the pattern given its
    output intensities.  `levels` lists the counts 0, 1 and every larger count
    the patterns use, and each row of `index` is a pattern as positions in it.

    The hits draw one uniform u per shot after the intensities: a shot hits
    pattern i when u falls in [below, below + w_i), with below the sum of the
    earlier patterns' w, so the hits of distinct patterns are disjoint."""
    gen, lam = _block_intensity(w, seed, block, nrows, scratch)
    # Poisson pmf: table[j] = e^-lam lam^c / c! at c = levels[j]
    table = [scratch.rows(f"pmf{j}", nrows, lam.shape[1:]) for j in range(len(levels))]
    np.exp(np.negative(lam, out=table[0]), out=table[0])
    np.multiply(table[0], lam, out=table[1])
    with np.errstate(divide="ignore"):  # at lam = 0, log lam = -inf gives the exact 0 of lam^c
        for j, c in enumerate(levels[2:], 2):  # in logs, since e^-lam underflows where the pmf does not
            t = np.multiply(c, np.log(lam, out=table[j]), out=table[j])
            np.exp(np.subtract(np.subtract(t, lam, out=t), math.lgamma(c + 1), out=t), out=t)
    u, below = gen.random(out=scratch.rows("u", nrows)), 0.0
    w_i, edges = scratch.rows("w", nrows), (scratch.rows("edge0", nrows), scratch.rows("edge1", nrows))
    stats = np.empty((3, len(index)))
    for i, pattern in enumerate(index):
        np.copyto(w_i, table[pattern[0]][:, 0])
        for k in range(1, len(pattern)):
            np.multiply(w_i, table[pattern[k]][:, k], out=w_i)
        top = np.add(below, w_i, out=edges[i % 2])
        stats[:, i] = np.count_nonzero((below <= u) & (u < top)), w_i.sum(), w_i @ w_i
        below = top
    return stats


def estimate_probabilities(
    states: list[GaussianModeState], net: Interferometer, patterns, shots: int, seed: int, workers: int = 1
) -> PatternEstimate:
    """Estimate each pattern's probability as the mean over shots of its exact
    probability given the shot's output amplitudes; deterministic for a given
    seed and identical for every worker count.  The patterns, a `count_table`,
    must be distinct.

    Unlike a hit frequency this reaches patterns far rarer than 1/shots, but
    only as well as its effective sample size: a mean carried by a few shots
    understates both itself and its error bar.
    """
    patterns = count_table(patterns, net.m)
    if len(set(map(tuple, patterns.tolist()))) != len(patterns):
        raise ValidationError("patterns must be distinct")
    return _estimate(_checked_draw(states, net), patterns, shots, seed, workers)


def _estimate(w: np.ndarray, patterns: np.ndarray, shots, seed, workers) -> PatternEstimate:
    """`estimate_probabilities`' block loop on the draw matrix `w`, for a
    checked table of distinct patterns."""
    total = np.zeros((3, len(patterns)))  # summed in block order, so equal for every worker count
    levels = sorted({0, 1, *patterns.ravel().tolist()})  # np.unique would import numpy.ma
    draw = partial(_block_weights, levels=levels, index=np.searchsorted(levels, patterns))
    _run_blocks(w, shots, seed, workers, draw, partial(np.add, total, out=total))
    hits, w_sum, w2_sum = total
    mean = w_sum / shots
    var = np.maximum(w2_sum / shots - mean * mean, 0.0)
    ess = np.divide(w_sum * w_sum, w2_sum, out=np.zeros(len(patterns)), where=w2_sum > 0)
    return PatternEstimate(mean, np.sqrt(var / shots), ess, hits.astype(np.int64), ess < LOW_CONFIDENCE_COUNT)
