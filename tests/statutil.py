"""Shared helpers for the sampler tests: statistical checks and a reference
histogram."""

from collections import Counter

import numpy as np
from scipy.stats import chi2

from gbsim.engines import enumerate_patterns, prob_thermal
from gbsim.sampler import BLOCK_SHOTS, _block_counts


def counter_histogram(states, net, shots: int, seed: int) -> Counter:
    """Reference histogram: every row of every block's `_block_counts` output,
    counted as a tuple in a plain Counter."""
    sx = np.sqrt(np.maximum([(s.v_x - 1.0) / 4.0 for s in states], 0.0))
    sp = np.sqrt(np.maximum([(s.v_p - 1.0) / 4.0 for s in states], 0.0))
    histogram: Counter = Counter()
    for start in range(0, shots, BLOCK_SHOTS):
        nrows = min(BLOCK_SHOTS, shots - start)
        counts = _block_counts(np.asarray(net.u), sx, sp, seed, start // BLOCK_SHOTS, nrows)
        histogram.update(zip(*counts.T.tolist()))
    return histogram


def thermal_chi2_pvalue(report, qform, min_expected: float = 10.0) -> float:
    """Multinomial goodness-of-fit p-value of a sample against prob_thermal.

    Bins: every {0,1} detection pattern whose expected count clears
    min_expected, plus a catch-all bin for everything else (multi-photon
    patterns included).  The catch-all is folded into the largest bin if it
    is itself too thin.
    """
    shots = report.shots
    sel = []
    for pat in enumerate_patterns(qform.m, qform.m):
        p = prob_thermal(qform, pat)
        if p * shots >= min_expected:
            sel.append((pat, p))
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


def total_photon_moments(report):
    """Mean and standard error of the total photon count per shot."""
    totals = np.array([sum(pat) for pat in report.histogram])
    counts = np.array([report.histogram[pat] for pat in report.histogram], dtype=float)
    mean = float((totals * counts).sum() / report.shots)
    var = float(((totals - mean) ** 2 * counts).sum() / report.shots)
    return mean, (var / report.shots) ** 0.5


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
