"""Stability analysis workflow: from problem constants to admissible
step-size/momentum choices.

Pipeline: (1) regularity constants and the graph factor fix the 4x4 error
matrix; (2) the Jury criterion on its characteristic polynomial decides
exact stability of a candidate pair; (3) a positive-witness argument gives
a conservative but closed-form box of safe pairs.

Run with: python demos/stability_analysis.py
"""

import numpy as np

from aggsim import (
    StabilityConstants,
    build_topology,
    char_poly,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    jury_stable,
    make_placement,
    region_member_hb,
    region_member_nes,
)

problem = make_placement([[10, 4], [1, 3], [2, 7], [8, 10], [3, 9]], 20.0)
graph = build_topology("random", 5, edge_prob=0.7, seed=2)
consts = StabilityConstants.from_problem(problem, graph)
print("constants:", consts)
print()

# --- Jury criterion on a candidate pair -----------------------------------
alpha, beta = 0.002, 0.02
m = error_matrix_hb(consts.mu, consts.L1, consts.L2, consts.L3, consts.rho, alpha, beta)
coeffs = char_poly(m)
verdict = jury_stable(coeffs)
print(f"candidate (alpha={alpha}, beta={beta}):")
print("  characteristic coefficients:", np.round(coeffs, 6))
print(f"  stable={verdict.stable}  margin={verdict.margin:.3e}"
      + (f"  failed: {verdict.failed_condition}" if not verdict.stable else ""))
print("  spectral radius:", round(m.spectral_radius(), 6))
print()

# --- conservative closed-form box ------------------------------------------
hb = conservative_bounds_hb(consts)
nes = conservative_bounds_nes(consts)
print("conservative heavy-ball box:  alpha < %.4e, beta  < %.4e (at alpha = %.4e)"
      % (hb.alpha_bar, hb.momentum_bar, hb.alpha_eval))
print("conservative nesterov box:    alpha < %.4e, gamma < %.4e (at alpha = %.4e)"
      % (nes.alpha_bar, nes.momentum_bar, nes.alpha_eval))
print("witness vector (heavy ball):", np.round(hb.witness, 4))
print()

# --- the box sits strictly inside the exact region --------------------------
rng = np.random.default_rng(0)
inside = 0
for _ in range(200):
    a = rng.uniform(0, hb.alpha_bar)
    b = rng.uniform(0, conservative_bounds_hb(consts, alpha=a).momentum_bar)
    inside += region_member_hb(consts, a, b)
print(f"sampled conservative-box points inside the exact Jury region: {inside}/200")

# the exact region is wider than the box: scan the step axis
for a in [hb.alpha_bar, 1.5 * hb.alpha_bar, 2.5 * hb.alpha_bar]:
    member = region_member_hb(consts, a, hb.momentum_bar / 2)
    print(f"  alpha = {a:.4e} (x{a / hb.alpha_bar:.1f} of the box): member={member}")

print()
print("nesterov candidate (0.001, 0.01) member:",
      region_member_nes(consts, 0.001, 0.01))
