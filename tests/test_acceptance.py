"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Two criteria check quoted closed-form rate claims against the forms the
implemented iterations attain, and keep each quoted form as an executable
record of where it fails:

* criterion 6b asserts the tuned extrapolated-gradient (Nesterov) reduced
  radius equals 1 - 2/sqrt(3k+1). The quoted rate (sqrt(3k+1)-2)/(sqrt(3k+1)+2)
  is checked to equal the tuned momentum gamma, not a radius, and to lie
  below the heavy-ball ratio (sqrt(k)-1)/(sqrt(k)+1), which the attained
  radius never does; no parameter choice reaches it.
* criterion 10 asserts Polyak's sqrt(beta) bound for heavy ball on its
  threshold region beta >= (1 - sqrt(alpha mu))^2, and that the Nesterov
  radius equals max(sqrt((1 - alpha mu) gamma), r_L), with r_L the
  magnitude of the negative root of the L1-end block. The quoted heavy-ball
  form (beta itself) is checked to fall below sqrt(beta) on every draw, and
  the quoted Nesterov form to bound the radius only on the draws where
  r_L does not exceed it.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from aggsim.cli import main as cli_main, measured_tail_rate
from aggsim.config import ExperimentConfig
from aggsim.graph import build_topology
from aggsim.oracle import solve
from aggsim.presets import get_preset, preset_names
from aggsim.problems import make_quadratic
from aggsim.solver import ALGORITHMS, CommChannel, SolverConfig, SolverState, run, step
from aggsim.stability import (
    StabilityConstants,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    error_matrix_nes,
    jury_stable,
    quad_reduced_radius,
    quadratic_rates,
    region_member_hb,
    region_member_nes,
    tuned_point,
)

from test_stability import momentum_threshold_bound, quad_full_matrix

PLACEMENT_POSITIONS = np.array(
    [
        [9.7524, 4.1238],
        [1.1810, 3.1714],
        [2.1333, 6.9810],
        [7.8476, 9.8381],
        [3.0857, 8.8857],
    ]
)
PLACEMENT_AGGREGATE = np.array([4.8, 6.6])


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {label}")


def preset_env(name):
    cfg = ExperimentConfig(get_preset(name))
    problem = cfg.build_problem()
    graph = cfg.build_graph()
    x0, x_prev = cfg.build_x0(problem)
    return cfg, problem, graph, x0, x_prev


def preset_solver_cfg(cfg, algorithm, **overrides):
    return cfg.build_solver_config(algorithm=algorithm, **overrides)


def test_criterion_01_placement_reproduction():
    with criterion(1, "placement reproduction"):
        t0 = time.perf_counter()
        cfg, problem, graph, x0, x_prev = preset_env("placement-paper")
        for alg in ("dagt_hb", "dagt_nes"):
            scfg = preset_solver_cfg(cfg, alg)
            assert (scfg.alpha, scfg.momentum) == ((0.005, 0.009) if alg == "dagt_hb" else (0.005, 0.008))
            trace = run(problem, graph, scfg, x0, x_minus1=x_prev)
            assert trace.converged
            x = trace.final_state.x
            assert np.abs(x - PLACEMENT_POSITIONS).max() <= 1e-3
            assert np.abs(trace.final_state.u - PLACEMENT_AGGREGATE).max() <= 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_tracking_conservation():
    with criterion(2, "tracking conservation on all presets"):
        for name in preset_names():
            cfg, problem, graph, x0, x_prev = preset_env(name)
            for alg in ALGORITHMS:
                scfg = preset_solver_cfg(cfg, alg)
                trace = run(problem, graph, scfg, x0, x_minus1=x_prev)
                assert trace.max_u_mean_err <= 1e-9, (name, alg)
                assert trace.max_s_mean_err <= 1e-9, (name, alg)


def test_criterion_03_zero_momentum_equivalence():
    with criterion(3, "zero-momentum trajectories bitwise identical"):
        for name in preset_names():
            cfg, problem, graph, x0, x_prev = preset_env(name)
            csvs = []
            for alg in ALGORITHMS:
                scfg = preset_solver_cfg(cfg, alg, momentum=0.0)
                trace = run(problem, graph, scfg, x0, x_minus1=x_prev)
                csvs.append(trace.to_csv())
            assert csvs[0] == csvs[1] == csvs[2], name


def test_criterion_04_fixed_point_stationarity():
    with criterion(4, "fixed point moves <= 1e-9 over 1000 steps"):
        for name in preset_names():
            cfg, problem, graph, _, _ = preset_env(name)
            sol = solve(problem)
            x = problem.as_agents(sol.x_star)
            u = np.broadcast_to(
                problem.phi_all(x).mean(axis=0), (problem.n_agents, problem.agg_dim)
            ).copy()
            s = np.broadcast_to(
                problem.grad2_all(x, u).mean(axis=0), (problem.n_agents, problem.agg_dim)
            ).copy()
            for alg in ALGORITHMS:
                scfg = preset_solver_cfg(cfg, alg)
                st = SolverState(x=x.copy(), x_prev=x.copy(), y=x.copy(), u=u.copy(), s=s.copy(),
                                 phi_y=problem.phi_all(x), g2_y=problem.grad2_all(x, u))
                total = 0.0
                for _ in range(1000):
                    nxt = step(st, problem, graph, scfg)
                    total += math.sqrt(
                        ((nxt.x - st.x) ** 2).sum()
                        + ((nxt.u - st.u) ** 2).sum()
                        + ((nxt.s - st.s) ** 2).sum()
                    )
                    st = nxt
                assert total <= 1e-9, (name, alg, total)


def test_criterion_05_jury_oracle_agreement():
    with criterion(5, "Jury verdicts agree with companion-matrix oracle 1000/1000"):
        from test_stability import random_quartic_with_roots

        rng = np.random.default_rng(77)
        cases = [random_quartic_with_roots(rng) for _ in range(1000)]
        t0 = time.perf_counter()
        agreed = 0
        for coeffs, roots in cases:
            if jury_stable(coeffs).stable == bool(np.abs(roots).max() < 1.0):
                agreed += 1
        elapsed = time.perf_counter() - t0
        assert agreed == 1000
        assert elapsed < 1.0


def _rate_sample(seed=123, n_pairs=20):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n_pairs:
        mu = rng.uniform(0.2, 3.0)
        kappa = rng.uniform(2.05, 50.0)  # all kappa > 2 per the ordering clause
        pairs.append((mu, mu * kappa))
    return pairs


def test_criterion_06a_hb_rate_formula():
    with criterion("6a", "tuned heavy-ball reduced radius matches formula to 1e-9"):
        for mu, L1 in _rate_sample():
            alpha, beta = tuned_point("dagt_hb", mu, L1)[:2]
            c = np.linspace(mu, L1, 6)
            radius = quad_reduced_radius(c, alpha, beta, "dagt_hb")
            target = (math.sqrt(L1) - math.sqrt(mu)) / (math.sqrt(L1) + math.sqrt(mu))
            assert abs(radius - target) <= 1e-9, (mu, L1, radius, target)


def test_criterion_06b_nes_rate_formula():
    """Tuned Nesterov radius is 1 - 2/sqrt(3k+1); the quoted form is gamma.

    At alpha = 4/(3 L1 + mu) the mu-end block has a double root at
    1 - 2/q, q = sqrt(3k+1): 1 - alpha mu = (q^2-4)/q^2 and
    1 + gamma = 2q/(q+2). The quoted rate (q-2)/(q+2) is the tuned momentum
    itself and lies below the heavy-ball ratio (sqrt(k)-1)/(sqrt(k)+1),
    which the attained radius does not (Lessard, Recht & Packard, 2016).
    """
    with criterion("6b", "tuned Nesterov reduced radius is 1 - 2/sqrt(3k+1) to 1e-9; "
                   "quoted (q-2)/(q+2) is the tuned gamma and unattainable"):
        for mu, L1 in _rate_sample():
            alpha, gamma, quoted, attained = tuned_point("dagt_nes", mu, L1)
            c = np.linspace(mu, L1, 6)
            radius = quad_reduced_radius(c, alpha, gamma, "dagt_nes")
            q = math.sqrt(3 * L1 / mu + 1)
            target = 1 - 2 / q
            assert abs(radius - target) <= 1e-9, (mu, L1, radius, target)
            assert abs(radius - attained) <= 1e-9

            assert abs(quoted - (q - 2) / (q + 2)) <= 1e-9
            assert abs(quoted - gamma) <= 1e-9, (mu, L1, quoted, gamma)
            assert abs(radius - quoted) > 1e-9, (mu, L1, radius, quoted)
            hb_ratio = (math.sqrt(L1) - math.sqrt(mu)) / (math.sqrt(L1) + math.sqrt(mu))
            assert quoted < hb_ratio <= radius, (mu, L1, quoted, hb_ratio, radius)


def test_criterion_06c_optimal_rate_ordering():
    with criterion("6c", "quoted tuned-rate formulas order NES < HB < DAGT for kappa > 2 "
                   "(attained order is HB < NES < DAGT)"):
        for mu, L1 in _rate_sample():
            nes, hb, dagt = (tuned_point(alg, mu, L1).quoted_rate
                             for alg in ("dagt_nes", "dagt_hb", "dagt"))
            assert nes < hb < dagt


def test_criterion_07_reduced_matrix_identity():
    with criterion(7, "full vs reduced spectral radii agree to 1e-9"):
        rng = np.random.default_rng(321)
        for _ in range(20):
            n = int(rng.integers(3, 21))
            qp = make_quadratic(
                rng.uniform(0.5, 6.0, n), rng.uniform(0.0, 2.0, n), rng.uniform(-1, 1, n)
            )
            g = build_topology("random", n, edge_prob=0.6, seed=int(rng.integers(10000)))
            for alg in ALGORITHMS:
                alpha = rng.uniform(0.01, 1.0 / qp.constants.L1)
                mom = 0.0 if alg == "dagt" else rng.uniform(0.01, 0.9)
                full = quad_full_matrix(qp, g, alpha, mom, alg)
                sr = float(np.abs(np.linalg.eigvals(full)).max())
                shortcut = max(g.rho, quad_reduced_radius(qp.c, alpha, mom, alg))
                assert abs(sr - shortcut) <= 1e-9


def test_criterion_08_measured_vs_predicted_rate():
    with criterion(8, "measured tail rates within 5% of spectral predictions"):
        t0 = time.perf_counter()
        cfg, problem, graph, x0, x_prev = preset_env("quadratic-demo")
        mu, L1 = problem.constants.mu, problem.constants.L1
        assert graph.rho <= (L1 - mu) / (L1 + mu)
        for alg in ALGORITHMS:
            alpha, momentum = tuned_point(alg, mu, L1)[:2]
            scfg = preset_solver_cfg(cfg, alg, alpha=alpha, momentum=momentum)
            report = quadratic_rates(problem, graph, scfg)
            trace = run(problem, graph, scfg, x0, x_minus1=x_prev)
            measured = measured_tail_rate(trace)
            assert abs(measured - report.predicted_rate) / report.predicted_rate < 0.05, alg
        assert time.perf_counter() - t0 < 10.0


def test_criterion_09_region_soundness_and_box_inclusion():
    with criterion(9, "region members contract; conservative box inside region"):
        cfg, problem, graph, _, _ = preset_env("placement-paper")
        consts = StabilityConstants.from_problem(problem, graph)
        rng = np.random.default_rng(99)
        for member_fn, matrix_fn, bound_fn in (
            (region_member_hb, error_matrix_hb, conservative_bounds_hb),
            (region_member_nes, error_matrix_nes, conservative_bounds_nes),
        ):
            found = 0
            while found < 500:
                a = rng.uniform(0, 0.012)
                m = rng.uniform(0, 0.05)
                if member_fn(consts, a, m):
                    found += 1
                    mat = matrix_fn(consts.mu, consts.L1, consts.L2, consts.L3, consts.rho, a, m)
                    assert float(np.abs(np.linalg.eigvals(mat.entries)).max()) < 1.0
            alpha_bar = bound_fn(consts).alpha_bar
            for _ in range(500):
                a = rng.uniform(0, alpha_bar)
                mbar = bound_fn(consts, alpha=a).momentum_bar
                assert mbar > 0
                assert member_fn(consts, a, rng.uniform(0, mbar) or mbar / 2)


def test_criterion_10_threshold_bound_domination():
    """Threshold-form radii: Polyak's sqrt(beta) and the Nesterov two-end max.

    Heavy ball: every reduced block has root product beta, so the radius is
    at least sqrt(beta), above the quoted bound beta. For alpha <= 1/L1 the
    binding end is mu, and on Polyak's region beta >= (1 - sqrt(alpha mu))^2
    the radius is exactly sqrt(beta) (Polyak, 1964); the quoted precondition
    beta >= (1 - sqrt(alpha L1))^2 also admits draws above sqrt(beta).

    Nesterov: for alpha > 1/L1 the L1-end block has a negative real root of
    magnitude r_L = ((1+gamma) t + sqrt((1+gamma)^2 t^2 + 4 gamma t))/2,
    t = alpha L1 - 1, so the radius is max(sqrt((1 - alpha mu) gamma), r_L).
    The quoted form bounds it exactly where r_L does not exceed it.
    """
    with criterion(10, "heavy-ball radius is sqrt(beta) on Polyak's region and above it off it, "
                   "quoted beta below sqrt(beta); Nesterov radius is max(quoted, r_L)"):
        rng = np.random.default_rng(555)
        draws = 0
        hb_polyak = hb_outside = nes_bounded = nes_exceeded = 0
        while draws < 100:
            mu = rng.uniform(0.2, 2.0)
            L1 = mu * rng.uniform(1.5, 30.0)
            c = np.linspace(mu, L1, 6)
            alpha_hb = rng.uniform(0.05, 1.0) / L1
            beta = rng.uniform((1 - math.sqrt(alpha_hb * L1)) ** 2, 0.99)
            bound_hb = momentum_threshold_bound("dagt_hb", mu, L1, alpha_hb, beta)
            radius_hb = quad_reduced_radius(c, alpha_hb, beta, "dagt_hb")
            floor_hb = math.sqrt(beta)
            assert radius_hb >= floor_hb - 1e-12, (mu, L1, alpha_hb, beta, radius_hb)
            assert bound_hb < floor_hb, (beta, bound_hb)
            if beta >= (1 - math.sqrt(alpha_hb * mu)) ** 2:
                assert radius_hb <= floor_hb + 1e-12, (mu, L1, alpha_hb, beta, radius_hb)
                hb_polyak += 1
            else:
                assert radius_hb > floor_hb + 1e-12, (mu, L1, alpha_hb, beta, radius_hb)
                hb_outside += 1

            alpha_nes = rng.uniform(1.0 / L1, 1.0 / mu)
            thr = (1 - math.sqrt(alpha_nes * mu)) / (1 + math.sqrt(alpha_nes * mu))
            gamma = rng.uniform(thr, 0.99)
            bound_nes = momentum_threshold_bound("dagt_nes", mu, L1, alpha_nes, gamma)
            radius_nes = quad_reduced_radius(c, alpha_nes, gamma, "dagt_nes")
            t = alpha_nes * L1 - 1
            r_L = ((1 + gamma) * t + math.sqrt((1 + gamma) ** 2 * t * t + 4 * gamma * t)) / 2
            assert abs(radius_nes - max(bound_nes, r_L)) <= 1e-12, (mu, L1, alpha_nes, gamma)
            bounded = radius_nes <= bound_nes + 1e-12
            assert bounded == (r_L <= bound_nes), (mu, L1, alpha_nes, gamma, radius_nes, r_L)
            if bounded:
                nes_bounded += 1
            else:
                nes_exceeded += 1
            draws += 1
        assert min(hb_polyak, hb_outside, nes_bounded, nes_exceeded) >= 1, (
            hb_polyak, hb_outside, nes_bounded, nes_exceeded)


def test_criterion_11_robustness():
    with criterion(11, "delay converges with momentum advantage; noise stays bounded"):
        cfg, problem, graph, x0, x_prev = preset_env("cournot-paper")
        iters = {}
        for alg in ALGORITHMS:
            scfg = preset_solver_cfg(cfg, alg, delay_steps=2)
            trace = run(problem, graph, scfg, x0, x_minus1=x_prev)
            assert trace.converged and trace.grad_norm[-1] < 1e-6, alg
            iters[alg] = trace.k[-1]
        assert iters["dagt_hb"] < iters["dagt"]
        assert iters["dagt_nes"] < iters["dagt"]

        channel = CommChannel(graph, noise_sigma=cfg["robustness.noise_sigma"],
                              seed=cfg["solver.seed"])
        for alg in ALGORITHMS:
            scfg = preset_solver_cfg(cfg, alg, max_iter=10000, tol=0.0)
            trace = run(problem, channel, scfg, x0, x_minus1=x_prev)
            res = np.asarray(trace.residual_msq)
            assert np.isfinite(res).all(), alg
            assert np.median(res[-1000:]) < res[0], alg


def test_criterion_12_deterministic_outputs(tmp_path):
    with criterion(12, "fixed-seed preset invocations produce byte-identical CSVs"):
        for name in preset_names():
            first = tmp_path / name / "a"
            second = tmp_path / name / "b"
            assert cli_main(["run", "--preset", name, "--out", str(first)]) == 0
            assert cli_main(["run", "--preset", name, "--out", str(second)]) == 0
            assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
            assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
