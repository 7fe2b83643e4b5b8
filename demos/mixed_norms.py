"""Weighted mixed norms of harmonic functions.

Computes spherical q-means and the mixed (p, q, alpha) norms under both
weight conventions, and shows the two-level accuracy protocol and the
p = q collapse to the plain weighted p-norm.
"""

import numpy as np

from ballharm import (
    HarmonicExpansion,
    SpaceParams,
    mean_norm,
    mixed_norm,
    sph_dim,
    sphere_rule,
)

rng = np.random.default_rng(1789)

# a random full expansion in R^3 and a zonal one in R^4
f3 = HarmonicExpansion(3, "full", [rng.standard_normal(sph_dim(3, k)) for k in range(9)])
f4 = HarmonicExpansion(4, "zonal", rng.standard_normal(9), pole=np.array([0, 0, 0, 1.0]))

rule = sphere_rule(3, 24)
print("spherical means of a random degree-8 expansion in R^3:")
for r in (0.25, 0.5, 0.75, 0.95):
    m1 = mean_norm(f3, 1.0, r, rule)
    m2 = mean_norm(f3, 2.0, r, rule)
    mi = mean_norm(f3, np.inf, r, rule)
    print(f"  r={r:.2f}:  M_1={m1:.6f}  M_2={m2:.6f}  M_inf={mi:.6f}")

# Parseval: M_2^2 equals the coefficient sum
r = 0.75
coeff = sum(r ** (2 * k) * float((f3.coeffs[k] ** 2).sum()) for k in range(9))
print(f"\nParseval at r={r}: M_2^2 = {mean_norm(f3, 2.0, r, rule)**2:.12f}"
      f"  coefficient sum = {coeff:.12f}")

print("\nmixed norms under the defining weight (1-r^2)^alpha:")
for p, q, alpha in ((1.0, 2.0, 0.0), (1.0, 2.0, 0.5), (0.5, 2.0, 1.0)):
    params = SpaceParams(p=p, q=q, alpha=alpha, convention="definition")
    val = mixed_norm(f4, params)
    print(f"  (p={p:g}, q={q:g}, alpha={alpha:g}): {val:.8f}")

# q = 1 norms of sign-changing expansions have kinked radial profiles and
# may need a larger radial budget to pass the two-level protocol; a
# positive expansion converges spectrally
f_pos = HarmonicExpansion(4, "zonal", [1.0, 0.1, 0.02, 0.004],
                          pole=np.array([0, 0, 0, 1.0]))
print("\nthe multiplier machinery weights with (1-r)^(alpha p - 1) instead:")
params_t = SpaceParams(p=1.0, q=1.0, alpha=0.5, convention="theorem")
print(f"  (1, 1, 0.5) of a positive zonal function: {mixed_norm(f_pos, params_t):.8f}")

# p = q collapses to the plain weighted p-norm
params_pq = SpaceParams(p=2.0, q=2.0, alpha=0.5)
from ballharm.quadrature import _direct_pnorm

v = mixed_norm(f3, params_pq)
d = _direct_pnorm(f3, params_pq, 96, 32)
print(f"\np = q collapse: mixed {v:.12f} vs direct double integral {d:.12f}")
