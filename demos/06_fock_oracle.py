"""Holding every engine against a brute-force Fock simulation.

The oracle trusts nothing from the rest of the package except the
interferometer decomposition: it truncates the input on the total photon
number, builds each photon-number sector's unitary from exact two-mode
beam-splitter blocks, and reads probabilities off the evolved kets.  It never
forms a permanent, so it checks the engines independently; its sectors grow
as C(N+M-1, M-1), which keeps it to desk scale while the engines stay cheap.
"""

import itertools
import math
import time

from gbsim import (
    build_qform,
    enumerate_patterns,
    haar_random,
    thermal,
)
from gbsim.engines import probabilities
from gbsim.fock_oracle import apply_network, pattern_probabilities, prepare_input

states = [thermal(1.3), thermal(1.2), thermal(1.4)]
net = haar_random(3, 21)

# Any cutoff >= 3 gives the patterns below exactly; 13 keeps the dropped mass
# under 1e-10, so the captured mass printed next reads 1 to that precision.
c = 13
print(f"3 thermal modes; cutoff {c} -> {c + 1} sectors of dimension 1 .. {math.comb(c + 2, 2)}, "
      f"{math.comb(c + 3, 3)} basis states in all")

t0 = time.perf_counter()
state = apply_network(prepare_input(states, cutoff=c), net)
t1 = time.perf_counter()
# the evolved probabilities of all patterns inside the cutoff, plus the input
# mass beyond it, sum to 1: each sector evolves by a unitary
captured = math.fsum(pattern_probabilities(state, [p for p in itertools.product(range(c + 1), repeat=3) if sum(p) <= c]))
print(f"network applied in {t1 - t0:.3f} s; captured mass = {captured:.12f}, "
      f"input tail beyond the cutoff {state.tail_bound:.2e}, sum {captured + state.tail_bound:.15f}")
print()

qf = build_qform(states, net)
print("pattern      oracle             thermal engine     general engine")
patterns = enumerate_patterns(3, 3)
columns = pattern_probabilities(state, patterns), probabilities(qf, "thermal", patterns), probabilities(qf, "general", patterns)
for pat, o, t, g in zip(map(tuple, patterns.tolist()), *columns):
    print(f"{str(pat):<11}  {o:.15f}  {t:.15f}  {g:.15f}")
