"""Spectral rate study on the scalar quadratic family.

For quadratics the convergence rate is exactly the spectral radius of a
block error matrix, which reduces to max(graph factor, agentwise radius).
This script compares tuned parameters of the three variants, the radii
they actually attain, and the measured tail rates of real runs.

Run with: python demos/quadratic_rates_study.py
"""

import numpy as np

from aggsim import (
    SolverConfig,
    attained_optimal_radius,
    build_topology,
    make_quadratic,
    optimal_params,
    optimal_rate_formula,
    quadratic_rates,
    run,
    solve,
)
from aggsim.cli import measured_tail_rate

MU, L1 = 1.0, 9.0
N = 8

problem = make_quadratic(np.linspace(MU, L1, N), np.full(N, 0.5), np.full(N, 0.25))
graph = build_topology("random", N, edge_prob=0.8, seed=3)
oracle = solve(problem)
print(f"condition number kappa = {L1 / MU:.0f}, graph factor rho = {graph.rho:.4f}")
print()

print(f"{'variant':<10} {'alpha':>8} {'momentum':>9} {'radius':>8} {'target':>8} "
      f"{'predicted':>10} {'measured':>9}")
for alg in ("dagt", "dagt_hb", "dagt_nes"):
    alpha, momentum = optimal_params(alg, MU, L1)
    report = quadratic_rates(problem, graph, alpha, momentum, alg)
    cfg = SolverConfig(alg, alpha=alpha, momentum=momentum, max_iter=3000, tol=1e-12)
    trace = run(problem, graph, cfg, np.linspace(1, 2, N), oracle_solution=oracle)
    print(f"{alg:<10} {alpha:>8.4f} {momentum:>9.4f} "
          f"{report.reduced_radius:>8.4f} {optimal_rate_formula(alg, MU, L1):>8.4f} "
          f"{report.predicted_rate:>10.4f} {measured_tail_rate(trace):>9.4f}")

print()
print("note the nesterov row: the classical closed-form target")
print("(sqrt(3k+1)-2)/(sqrt(3k+1)+2) = %.4f is NOT attained by this" %
      optimal_rate_formula("dagt_nes", MU, L1))
print("iteration family; the radius it reaches is 1 - 2/sqrt(3k+1) = %.4f," %
      attained_optimal_radius("dagt_nes", MU, L1))
print("tight against the momentum-threshold bound. No two-step stationary")
print("method can beat the heavy-ball ratio (sqrt(k)-1)/(sqrt(k)+1) = %.4f." %
      optimal_rate_formula("dagt_hb", MU, L1))
