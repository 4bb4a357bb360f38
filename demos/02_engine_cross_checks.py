"""The exact probability engines and their mutual agreement.

One output Q form (K, C, D-tilde) feeds three formulas:

  general   p = K * haf(pairing matrix)       any Gaussian inputs
  thermal   p = K * per([D-tilde]_N)          thermal/vacuum inputs (K = prod(mu))
  squeezed  p = K * |2^{N/2} haf([C]_N)|^2    pure squeezed inputs

The specialized engines are not optimizations; they are independent
evaluation routes that must agree with the general pairing sum.
"""

import numpy as np

from gbsim import (
    build_qform,
    enumerate_patterns,
    haar_random,
    prob_general,
    prob_squeezed,
    squeezed,
    thermal,
)
from gbsim.engines import probabilities

rng = np.random.default_rng(7)

print("== thermal inputs: permanent route vs pairing-sum route ==")
states = [thermal(v) for v in rng.uniform(1.0, 4.0, size=5)]
net = haar_random(5, 31)
qf = build_qform(states, net)
print("pattern        N   per route        haf route        |diff|")
table = enumerate_patterns(5, 2)[:10]  # a (P, M) count table: one kernel call per weight
for pat, a, b in zip(map(tuple, table.tolist()), probabilities(qf, "thermal", table), probabilities(qf, "general", table)):
    print(f"{str(pat):<13} {sum(pat)}   {a:.12f}   {b:.12f}   {abs(a - b):.1e}")

print()
print("== squeezed inputs: |O_N|^2 route vs pairing-sum route ==")
states = [squeezed(r) for r in rng.uniform(0.2, 0.9, size=5)]
qf = build_qform(states, haar_random(5, 32))
print("pattern        N   |O_N|^2 route    haf route        |diff|")
for pat in map(tuple, table.tolist()):
    a, b = prob_squeezed(qf, pat), prob_general(qf, pat)  # one pattern at a time: the same bits
    print(f"{str(pat):<13} {sum(pat)}   {a:.12f}   {b:.12f}   {abs(a - b):.1e}")

print()
print("odd photon totals vanish for squeezed-vacuum inputs, whatever the network:")
table = enumerate_patterns(5, 3)
odd = probabilities(qf, "general", table[table.sum(axis=1) % 2 == 1]).max()
print(f"  largest odd-N probability over all patterns with N <= 3: {odd:.2e}")
