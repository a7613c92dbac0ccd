"""Robustness of the tracked iterations to imperfect communication.

Two perturbations: synchronous delay (every communication round takes
delay+1 ticks, so agents hold until messages arrive) and additive white
noise on every received tracker entry. Delay slows convergence but leaves
the limit exact. Noise random-walks the tracker means, so the residual
does not settle at a floor: its expectation grows linearly with the run.

Run with: python demos/robustness_study.py
"""

from dataclasses import replace

import numpy as np

from aggsim import CommChannel, SolverConfig, build_topology, make_cournot, run

# a 12-generator power market; each generator's cost depends on the total
# output through the market price
rng = np.random.default_rng(7)
N = 12
problem = make_cournot(
    rng.uniform(0.5, 2.5, N), rng.uniform(10, 20, N), rng.uniform(5, 20, N), 200.0, 0.01
)
graph = build_topology("random", N, edge_prob=0.4, seed=1)
x0 = rng.uniform(50, 100, N)

print(f"{N}-generator market, rho = {graph.rho:.3f}, total optimal output = "
      f"{problem.aggregate(problem.ground_truth.x_star)[0]:.2f}")
print()

print("--- synchronous two-step delay -------------------------------------")
print(f"{'variant':<10} {'clean ticks':>12} {'delayed ticks':>14} {'final grad':>12}")
for alg, momentum in (("dagt", 0.0), ("dagt_hb", 0.006), ("dagt_nes", 0.005)):
    cfg = SolverConfig(alg, alpha=0.003, momentum=momentum, max_iter=100000, tol=1e-6)
    clean = run(problem, graph, cfg, x0)
    delayed = run(problem, graph, replace(cfg, delay_steps=2), x0)
    print(f"{alg:<10} {clean.k[-1]:>12} {delayed.k[-1]:>14} {delayed.grad_norm[-1]:>12.2e}")
print("delay stretches every round but the limit point is unchanged.")
print()

print("--- white noise on received tracker entries -------------------------")
print(f"{'sigma':>8} {'median residual_msq, last 600 ticks':>37}")
cfg = SolverConfig("dagt_hb", alpha=0.003, momentum=0.006, max_iter=6000, tol=0.0)
for sigma in (1e-4, 1e-3, 1e-2):
    # the channel owns the noise: its level and the seed of its stream
    channel = CommChannel(graph, noise_sigma=sigma, seed=5)
    trace = run(problem, channel, cfg, x0)
    res = np.asarray(trace.residual_msq)
    print(f"{sigma:>8.0e} {np.median(res[-600:]):>37.3e}")
print("the residual no longer vanishes and scales with the noise power; it keeps")
print("growing with the run, because the noise random-walks the tracker means.")
