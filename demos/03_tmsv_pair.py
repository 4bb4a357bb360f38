"""Two equally squeezed modes + a pi/2 phase + a 50:50 splitter = an
entangled two-mode squeezed vacuum pair.

This is the package's sharpest analytic fixture: the joint photon statistics
are perfectly correlated, p(n, n) = tanh^{2n}(r) / cosh^2(r), so the exact
engines, the pairing matrix, and the Fock oracle can all be held against a
closed form.
"""

import math

from gbsim import build_qform, prob_general, prob_squeezed, squeezed, tmsv_network
from gbsim.fock_oracle import apply_network, pattern_probabilities, prepare_input

r = 0.5
net = tmsv_network()
qf = build_qform([squeezed(r)] * 2, net)

print(f"squeezing r = {r}; network = pi/2 phase on mode 0, then 50:50 splitter")
print()
print("pattern   squeezed engine    general engine     analytic")
for pat, analytic in [
    ((0, 0), 1 / math.cosh(r) ** 2),
    ((1, 0), 0.0),
    ((0, 1), 0.0),
    ((1, 1), math.tanh(r) ** 2 / math.cosh(r) ** 2),
]:
    print(
        f"{str(pat):<9} {prob_squeezed(qf, pat):.15f}  {prob_general(qf, pat):.15f}  {analytic:.15f}"
    )

print()
print("full joint distribution from the Fock oracle (perfect n-n correlation):")
state = apply_network(prepare_input([squeezed(r)] * 2, cutoff=30), net)
print("  n   p(n,n) oracle        p(n,n) analytic       off-diagonal row max")
for n in range(5):
    diagonal, *off = pattern_probabilities(state, [(n, n), *((n, k) for k in range(5) if k != n)])
    print(f"  {n}   {diagonal:.15f}   {math.tanh(r) ** (2 * n) / math.cosh(r) ** 2:.15f}   {max(off):.1e}")
