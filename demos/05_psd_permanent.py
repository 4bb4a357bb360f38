"""Estimating the permanent of a PSD Hermitian matrix by photon sampling.

Any positive-semidefinite Hermitian H can be scaled into the D-tilde matrix
of a thermal photon-counting experiment: diagonalize H = U diag(d) U^dag,
pick q = max(d)/0.9, and feed thermal states with mu_j = 1 - d_j/q through
the eigenvector network.  Then

    per(H) = q^N * p(1,...,1) / prod(mu_j)

and p(1,...,1) is estimated by classical sampling.  Each shot draws the
output amplitudes beta of the experiment; its all-ones probability is then
exactly w = prod_k |beta_k|^2 exp(-|beta_k|^2), so the estimate is the mean
of w (no photon counts are drawn) and the error bar its standard error.
The all-ones hits are still drawn, one Bernoulli(w) per shot, and printed
as "all-ones hits".  The estimator is honest about its limits: a run whose
effective sample size (sum w)^2 / sum w^2 is small is flagged
low-confidence.
"""

import math

import numpy as np

from gbsim import embed, estimate_permanent

rng = np.random.default_rng(11)
g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
h = g.conj().T @ g

emb = embed(h)
print("eigenvalues :", np.round(emb.eigenvalues, 4))
print("scale q     :", round(emb.q, 4))
print("thermal mus :", np.round(emb.mus, 4))
print("thermal nbar:", np.round(emb.eigenvalues / (emb.q - emb.eigenvalues), 3))
print()

for shots in (50_000, 500_000, 5_000_000):
    res = estimate_permanent(h, shots, seed=99, workers=2)
    flag = "  [low confidence]" if res.low_confidence else ""
    print(
        f"shots {shots:>9}: per(H) = {res.estimate:10.3f} +- {res.stderr:7.3f}"
        f"  (exact {res.exact:.3f}, all-ones hits {res.count}){flag}"
    )

print()
print("the q^N scaling identity that makes any PSD matrix reachable:")
from gbsim import exact_permanent_psd

base = exact_permanent_psd(h)
for q in (2.0, 10.0):
    print(f"  per({q} H) / ({q}^4 per(H)) = {exact_permanent_psd(q * h) / (q ** 4 * base):.12f}")
