"""Shared helpers for the sampler tests: statistical checks, a reference
histogram and reference per-pattern weight statistics."""

import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
from scipy.stats import chi2

from gbsim.engines import enumerate_patterns, prob_thermal
from gbsim.fock_oracle import FockState, _basis, _row_mass, apply_network, prepare_input
from gbsim.sampler import BLOCK_SHOTS, _block_counts, _draw_matrix, _p_scales, _Scratch


def counter_histogram(states, net, shots: int, seed: int) -> Counter:
    """Reference histogram: every row of every block's `_block_counts` output,
    counted as a tuple in a plain Counter."""
    w = _draw_matrix(*_p_scales(states), net.u)
    histogram: Counter = Counter()
    scratch = _Scratch()
    for start in range(0, shots, BLOCK_SHOTS):
        nrows = min(BLOCK_SHOTS, shots - start)
        counts = _block_counts(w, seed, start // BLOCK_SHOTS, nrows, scratch)
        histogram.update(zip(*counts.T.tolist()))
    return histogram


def weights_oracle(states, net, patterns, shots: int, seed: int) -> tuple[list[int], list[float], list[float]]:
    """Reference per-pattern statistics of a run, rebuilt row by row in plain
    Python: the hits, the sum of w_p and the sum of w_p^2, where
    w_p = prod_k exp(-lam_k) lam_k^(n_k) / n_k! is a shot's probability of
    pattern p given its output intensities lam = |beta|^2.

    Each block's Philox stream (keyed by seed and block index) gives the
    shot's 2M normals and then one uniform per shot, the order the library
    draws them in.  The shot hits the pattern whose interval of the running
    sum of w over the list, [w_1 + ... + w_(p-1), w_1 + ... + w_p), holds its
    uniform."""
    m = net.m
    sx, sp = (v.tolist() for v in _p_scales(states))
    u = np.asarray(net.u).tolist()
    hits, weights = [0] * len(patterns), [[] for _ in patterns]
    for start in range(0, shots, BLOCK_SHOTS):
        nrows = min(BLOCK_SHOTS, shots - start)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, start // BLOCK_SHOTS], dtype=np.uint64)))
        normals = gen.standard_normal((nrows, 2 * m)).tolist()
        for row, uniform in zip(normals, gen.random(nrows).tolist()):
            alpha = [complex(row[j] * sx[j], row[m + j] * sp[j]) for j in range(m)]
            lam = [abs(sum(alpha[j] * u[j][k] for j in range(m))) ** 2 for k in range(m)]
            below = 0.0
            for i, pattern in enumerate(patterns):
                w = math.prod(math.exp(-x) * x**n / math.factorial(n) for x, n in zip(lam, pattern))
                hits[i] += below <= uniform < below + w
                weights[i].append(w)
                below += w
    return hits, [math.fsum(ws) for ws in weights], [math.fsum(w * w for w in ws) for ws in weights]


def chi2_pvalue(report, probs: dict, min_expected: float = 10.0) -> float:
    """Multinomial goodness-of-fit p-value of a sample against the exact
    probabilities `probs` of some of its patterns.

    Bins: every pattern in `probs` whose expected count clears min_expected,
    plus a catch-all bin for everything else.  The catch-all is folded into
    the largest bin if it is itself too thin.
    """
    shots = report.shots
    sel = [(pat, p) for pat, p in probs.items() if p * shots >= min_expected]
    p_other = 1.0 - sum(p for _, p in sel)
    obs = [report.histogram.get(pat, 0) for pat, _ in sel]
    exp = [p * shots for _, p in sel]
    obs_other = shots - sum(obs)
    if p_other * shots >= min_expected:
        obs.append(obs_other)
        exp.append(p_other * shots)
    else:
        i = int(np.argmax(exp))
        obs[i] += obs_other
        exp[i] += p_other * shots
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return float(chi2.sf(stat, len(exp) - 1))


def thermal_chi2_pvalue(report, qform, min_expected: float = 10.0) -> float:
    """`chi2_pvalue` against prob_thermal on the {0,1} detection patterns, so
    every multi-photon pattern falls in the catch-all bin."""
    probs = {pat: prob_thermal(qform, pat) for pat in map(tuple, enumerate_patterns(qform.m, qform.m).tolist())}
    return chi2_pvalue(report, probs, min_expected)


def photon_number_distribution(state: FockState) -> np.ndarray:
    """The oracle's joint photon-number distribution as a dense array of shape
    (cutoff + 1,) * modes; entries with more than `cutoff` photons in total are 0.
    Its size grows as (cutoff + 1)^M, so it is for small test states only."""
    joint = np.zeros((state.cutoff + 1,) * state.modes)
    for n, kets in enumerate(state.sectors):
        joint[tuple(_basis(n, state.modes).T)] = _row_mass(kets)
    return joint


def fock_chi2_pvalue(report, states, net, cutoff: int, min_expected: float = 10.0) -> float:
    """`chi2_pvalue` against the Fock oracle's joint photon-number
    distribution: every pattern with at most `cutoff` photons is its own bin,
    and the mass above the cutoff falls in the catch-all."""
    joint = photon_number_distribution(apply_network(prepare_input(states, cutoff), net))
    probs = {pat: float(joint[pat]) for pat in itertools.product(range(cutoff + 1), repeat=net.m) if sum(pat) <= cutoff}
    return chi2_pvalue(report, probs, min_expected)


def total_photon_moments(report):
    """Mean and standard error of the total photon count per shot."""
    totals = np.array([sum(pat) for pat in report.histogram])
    counts = np.array([report.histogram[pat] for pat in report.histogram], dtype=float)
    mean = float((totals * counts).sum() / report.shots)
    var = float(((totals - mean) ** 2 * counts).sum() / report.shots)
    return mean, (var / report.shots) ** 0.5


def photon_number_law(variances, n_max: int) -> np.ndarray:
    """P(N = n) for n = 0..n_max, N the total photon number of independent
    zero-mean Gaussian modes whose quadrature variances (vacuum = 1, two per
    mode) are `variances`.  A passive network conserves N, so the law holds
    behind any network, for classical and non-classical inputs alike.

    Its generating function is the product over quadratures of
    sqrt(2/(v+1)) (1 - q s)^(-1/2) with q = (v-1)/(v+1), and
    (1 - q s)^(-1/2) has coefficients C(2k, k) (q/4)^k: so the n = 0 term is
    prod sqrt(2/(v+1)) and the n = 1 term is that times sum q/2.
    """
    k = np.arange(n_max + 1)
    central = np.array([math.comb(2 * j, j) for j in k], dtype=float) / 4.0**k
    law = np.eye(1, n_max + 1)[0]
    for v in variances:
        q = (v - 1.0) / (v + 1.0)
        law = np.convolve(law, central * q**k)[: n_max + 1] * math.sqrt(2.0 / (v + 1.0))
    return law


def output_mode_variances(states, net) -> np.ndarray:
    """Each output mode's two quadrature-covariance eigenvalues (vacuum = 1),
    an (M, 2) array.  An entry u = a + ib of the network multiplies an input
    amplitude x + ip into (ax - bp) + i(bx + ap), so output mode k's
    covariance is the sum over inputs j of R(U_jk) diag(v_x, v_p) R(U_jk)^T
    with R(u) = [[a, -b], [b, a]]."""
    u = np.asarray(net.u)
    a, b = u.real, u.imag
    vx = np.array([s.v_x for s in states])[:, None]
    vp = np.array([s.v_p for s in states])[:, None]
    xx = (a * a * vx + b * b * vp).sum(axis=0)
    pp = (b * b * vx + a * a * vp).sum(axis=0)
    xp = (a * b * (vx - vp)).sum(axis=0)
    return np.linalg.eigvalsh(np.stack([np.stack([xx, xp], -1), np.stack([xp, pp], -1)], -2))


def law_chi2_pvalue(observed, law, shots: int, min_expected: float = 10.0) -> float:
    """`chi2_pvalue` of one count per shot (a total, or one mode's count)
    against its law: observed[n] shots had count n, and P(n) = law[n]."""
    sample = SimpleNamespace(shots=shots, histogram=dict(enumerate(np.asarray(observed).tolist())))
    return chi2_pvalue(sample, dict(enumerate(law)), min_expected)


def geometric_chi2_pvalue(report, nbar: float, bins: int = 20) -> float:
    """Binned chi-squared p-value of a one-mode sample against the thermal law
    P(n) = nbar^n / (nbar + 1)^(n + 1).

    Since P(N >= n) = q^n with q = nbar / (nbar + 1), bin edges at the law's
    quantiles give bins of about equal expected mass; the last bin is open.
    """
    q = nbar / (nbar + 1.0)
    edges = np.unique(np.round(np.log1p(-np.arange(bins) / bins) / np.log(q)))
    probs = q**edges - np.append(q ** edges[1:], 0.0)
    n = np.array([pat[0] for pat in report.histogram])
    counts = np.array(list(report.histogram.values()), dtype=float)
    obs = np.bincount(np.searchsorted(edges, n, side="right") - 1, weights=counts, minlength=len(edges))
    exp = probs * report.shots
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), len(edges) - 1))
