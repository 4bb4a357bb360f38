"""Sampling photon counts for classical inputs, and why it is easy.

A thermal state is a Gaussian mixture of coherent states.  A shot is
simulated by drawing coherent amplitudes from the P functions, propagating
them through the network (a matrix-vector product), and drawing Poisson
photon counts per output mode.  The whole procedure is polynomial in the
mode count, which is exactly why thermal-state sampling carries no quantum
advantage, and the sampled frequencies must reproduce the permanent-based
exact probabilities.

Before the Poisson step each shot already fixes every pattern's probability
exactly, so `estimate_probabilities` averages that weight over the shots.
Its error bar is set beside the bar of the hit frequency, the experiment's
own count of the pattern.
"""

import math
import time

from gbsim import (
    build_qform,
    enumerate_patterns,
    estimate_probabilities,
    haar_random,
    prob_thermal,
    sample_patterns,
    thermal,
)

states = [thermal(v) for v in (1.8, 2.5, 3.2, 1.3)]
net = haar_random(4, 505)
qf = build_qform(states, net)

shots = 500_000
t0 = time.perf_counter()
report = sample_patterns(states, net, shots, seed=42, workers=2)
print(f"M = 4 thermal modes, {shots} shots, {time.perf_counter() - t0:.2f} s, "
      f"{len(report.histogram)} distinct count patterns seen")
print()
patterns = [pat for pat in enumerate_patterns(4, 2) if prob_thermal(qf, pat) >= 1e-3]
est = estimate_probabilities(states, net, patterns, shots, seed=42, workers=2)
print("pattern        exact p(n)   weight estimate         hit frequency")
for pat, e, se, hits in zip(patterns, est.estimate, est.stderr, est.count):
    f = hits / shots
    print(f"{str(pat):<13}  {prob_thermal(qf, pat):.6f}     {e:.6f} +- {se:.6f}    "
          f"{f:.6f} +- {math.sqrt(f * (1 - f) / shots):.6f}")

print()
print("multi-photon events are recorded too (the {0,1} patterns are a sub-event),")
print("and the weights estimate them as well:")
multi = {k: v for k, v in report.histogram.items() if max(k) >= 2}
top = [pat for pat, _ in sorted(multi.items(), key=lambda kv: -kv[1])[:3]]
est = estimate_probabilities(states, net, top, shots, seed=42, workers=2)
for pat, e, se in zip(top, est.estimate, est.stderr):
    print(f"  {pat}: {multi[pat]} occurrences, frequency {multi[pat] / shots:.6f}, "
          f"weight estimate {e:.6f} +- {se:.6f}")
