"""Where the linear-domain normalization factor dies, and why the
log-domain form does not.

The normalization factor V is the D-th power mean of the k-NN radii. Raise
a radius of 2 to the 1024th power and you leave double precision; factor
the largest radius out first and every term stays bounded by 1. This
script sweeps the joint dimensionality D for the fixed radii {1, 2} and
prints the three backends side by side, reproducing the familiar
asymptotic picture: the baseline curve stops existing at D = 1024, the
log-domain curve glides on, and both stable curves converge to
ln(eps_max) at a rate bounded by ln(N)/D.
"""

import math

from knnmi import Backend, normalize

EPSILON = [1.0, 2.0]

print(f"radii = {EPSILON}, ln(eps_max) = {math.log(2.0):.6f}")
print(f"{'D':>8} {'baseline':>12} {'proposed':>12} {'dominant':>12} {'|prop-dom|':>12}")

for d in [2, 4, 8, 16, 64, 256, 512, 1000, 1022, 1024, 2048, 4096, 10**6]:
    baseline = normalize(EPSILON, d, Backend.BASELINE)
    proposed = normalize(EPSILON, d, Backend.PROPOSED)
    dominant = normalize(EPSILON, d, Backend.DOMINANT_TERM)
    base_text = f"{baseline.ln_v:12.6f}" if baseline.finite else "    overflow"
    gap = abs(proposed.ln_v - dominant.ln_v)
    print(f"{d:>8} {base_text} {proposed.ln_v:12.6f} {dominant.ln_v:12.6f} {gap:12.3e}")

print()
print("The last finite baseline row is D = 1022: 2^1024 is the first power")
print("of two past the double-precision ceiling (709.78 / ln 2 ~ 1024).")
print("The convergence gap follows the ln(N)/D bound, here ln(2)/D.")
