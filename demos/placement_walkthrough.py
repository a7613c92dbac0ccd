"""Walkthrough: five free entities choose positions that trade off anchor
attraction against staying near the crowd's weighted center.

Each entity privately knows its anchor; the crowd center is the network
aggregate that the tracker variables estimate through gossip with
neighbors. Run with: python demos/placement_walkthrough.py
"""

import numpy as np

from aggsim import SolverConfig, build_topology, make_placement, run

ANCHORS = [[10, 4], [1, 3], [2, 7], [8, 10], [3, 9]]
X0 = np.array([2, 9, 8, 6, 7, 3, 4, 7, 8, 3], float)
X_PREV = np.array([0, 11, 9, 8, 9, 1, 1, 4, 3, 1], float)

problem = make_placement(ANCHORS, omega=20.0)
graph = build_topology("random", 5, edge_prob=0.7, seed=2)
x_star = problem.ground_truth.x_star

print("anchors:", ANCHORS)
print("regularity constants:", problem.constants)
print("graph contraction factor rho = %.4f" % graph.rho)
print("optimal aggregate position  =", np.round(problem.aggregate(x_star), 6))
print("optimal entity positions:")
print(np.round(x_star.reshape(5, 2), 4))
print()

# the same step size for all three variants; momentum values sit inside
# the stability region reported by the bounds machinery
configs = {
    "plain tracking (dagt)": SolverConfig("dagt", alpha=0.005, max_iter=20000, tol=1e-9),
    "heavy ball  (dagt_hb)": SolverConfig("dagt_hb", alpha=0.005, momentum=0.009,
                                          max_iter=20000, tol=1e-9),
    "nesterov   (dagt_nes)": SolverConfig("dagt_nes", alpha=0.005, momentum=0.008,
                                          max_iter=20000, tol=1e-9),
}

print(f"{'variant':<22} {'rounds':>7} {'final residual':>16} {'final |u err|':>14}")
for label, cfg in configs.items():
    trace = run(problem, graph, cfg, X0, x_minus1=X_PREV)
    u_err = np.abs(trace.final_state.u - problem.aggregate(x_star)).max()
    print(f"{label:<22} {trace.k[-1]:>7} {trace.residual_msq[-1]:>16.3e} {u_err:>14.3e}")

print()
print("tracker means stay glued to the network means (conservation law):")
trace = run(problem, graph, configs["heavy ball  (dagt_hb)"], X0, x_minus1=X_PREV)
print("  max |mean(u) - mean(phi(x))| over the run: %.2e" % trace.max_u_mean_err)
print("  max |mean(s) - mean(grad2)|  over the run: %.2e" % trace.max_s_mean_err)
