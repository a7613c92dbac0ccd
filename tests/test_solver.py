import numpy as np
import pytest

from aggsim.exceptions import DivergenceDetected, InvalidArgument
from aggsim.graph import build_topology
from aggsim.oracle import solve
from aggsim.solver import (
    CommChannel,
    SolverConfig,
    SolverState,
    init_state,
    run,
    step_hb,
    step_nes,
)
from aggsim.problems import make_quadratic

from test_problems import paper_placement, seeded_cournot

PLACEMENT_X0 = np.array([2, 9, 8, 6, 7, 3, 4, 7, 8, 3], float)
PLACEMENT_XM1 = np.array([0, 11, 9, 8, 9, 1, 1, 4, 3, 1], float)


def consensus_state(problem, nesterov=False):
    """Fixed-point state: oracle solution with consensual trackers."""
    sol = solve(problem)
    x = problem.as_agents(sol.x_star)
    u = np.broadcast_to(problem.phi_all(x).mean(axis=0), (problem.n_agents, problem.agg_dim)).copy()
    s = np.broadcast_to(
        problem.grad2_all(x, u).mean(axis=0), (problem.n_agents, problem.agg_dim)
    ).copy()
    return SolverState(
        x=x.copy(), x_prev=x.copy(), u=u, s=s, k=0, y=x.copy() if nesterov else None
    )


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_placement_trackers_equal_state():
    p = paper_placement()
    g = build_topology("ring", 5)
    st = init_state(p, g, PLACEMENT_X0, PLACEMENT_XM1)
    assert np.array_equal(st.u, st.x)
    assert np.array_equal(st.x_prev, PLACEMENT_XM1.reshape(5, 2))


def test_init_quadratic_values():
    p = make_quadratic([1.0, 2.0], [1.0, 1.0], [0.0, 0.0])
    g = build_topology("complete", 2)
    st = init_state(p, g, np.array([1.0, 1.0]))
    assert st.u[:, 0] == pytest.approx([1.0, 1.0], abs=0)
    assert st.s[:, 0] == pytest.approx([0.5, 0.5], abs=0)


def test_init_tracker_means_exact():
    p = seeded_cournot(n=9, seed=2)
    g = build_topology("ring", 9)
    x0 = np.linspace(-2, 4, 9)
    for nes in (False, True):
        st = init_state(p, g, x0, nesterov=nes)
        z = st.y if nes else st.x
        assert np.array_equal(st.u.mean(axis=0), p.phi_all(z).mean(axis=0))
        assert np.array_equal(st.s.mean(axis=0), p.grad2_all(z, st.u).mean(axis=0))


def test_init_dimension_mismatch():
    p = paper_placement()
    g = build_topology("ring", 5)
    with pytest.raises(InvalidArgument):
        init_state(p, g, np.zeros(9))
    with pytest.raises(InvalidArgument):
        init_state(p, build_topology("ring", 4), np.zeros(10))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_hb_hand_computed_quadratic():
    # with h = 0 the tracker feedback vanishes, so one step halves the state
    p = make_quadratic([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    g = build_topology("complete", 2)
    st = init_state(p, g, np.array([1.0, -1.0]))
    nxt = step_hb(st, p, g, alpha=0.5, beta=0.0)
    assert nxt.x[:, 0] == pytest.approx([0.5, -0.5], abs=0)
    assert nxt.k == 1


@pytest.mark.parametrize("problem", [paper_placement(), seeded_cournot(n=8, seed=4)],
                         ids=lambda p: p.name)
def test_fixed_point_single_step_drift(problem):
    g = build_topology("ring", problem.n_agents)
    st = consensus_state(problem)
    nxt = step_hb(st, problem, g, alpha=0.005, beta=0.01)
    drift = max(
        np.abs(nxt.x - st.x).max(), np.abs(nxt.u - st.u).max(), np.abs(nxt.s - st.s).max()
    )
    assert drift <= 1e-12 * max(1.0, np.abs(st.u).max())

    st = consensus_state(problem, nesterov=True)
    nxt = step_nes(st, problem, g, alpha=0.005, gamma=0.01)
    drift = max(
        np.abs(nxt.x - st.x).max(), np.abs(nxt.u - st.u).max(), np.abs(nxt.s - st.s).max()
    )
    assert drift <= 1e-12 * max(1.0, np.abs(st.u).max())


def test_tracking_means_preserved_after_one_step():
    p = seeded_cournot(n=7, seed=9)
    g = build_topology("random", 7, edge_prob=0.6, seed=1)
    st = init_state(p, g, np.linspace(1, 3, 7), nesterov=True)
    nxt = step_nes(st, p, g, alpha=0.01, gamma=0.3)
    assert np.abs(nxt.u.mean(axis=0) - p.phi_all(nxt.y).mean(axis=0)).max() <= 1e-12
    assert np.abs(nxt.s.mean(axis=0) - p.grad2_all(nxt.y, nxt.u).mean(axis=0)).max() <= 1e-12


def test_zero_momentum_steps_identical():
    p = seeded_cournot(n=6, seed=8)
    g = build_topology("ring", 6)
    x0 = np.linspace(0.5, 2.0, 6)
    hb = init_state(p, g, x0)
    nes = init_state(p, g, x0, nesterov=True)
    for _ in range(25):
        hb = step_hb(hb, p, g, alpha=0.02, beta=0.0)
        nes = step_nes(nes, p, g, alpha=0.02, gamma=0.0)
        assert np.array_equal(hb.x, nes.x)
        assert np.array_equal(hb.u, nes.u)
        assert np.array_equal(hb.s, nes.s)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_placement_converges_to_anchor_mean():
    p = paper_placement()
    g = build_topology("ring", 5)
    sol = solve(p)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.005, beta=0.009, max_iter=5000, tol=1e-8)
    trace = run(p, g, cfg, PLACEMENT_X0, x_minus1=PLACEMENT_XM1, oracle_solution=sol)
    assert trace.converged
    u_final = trace.final_state.u
    assert np.abs(u_final - np.array([4.8, 6.6])).max() < 1e-3
    assert trace.residual_msq[-1] < 1e-12


def test_run_nes_placement():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_nes", alpha=0.005, gamma=0.008, max_iter=5000, tol=1e-8)
    trace = run(p, g, cfg, PLACEMENT_X0, oracle_solution=solve(p))
    assert trace.converged
    assert np.abs(trace.final_state.u - np.array([4.8, 6.6])).max() < 1e-3


def test_run_zero_max_iter_records_initial_only():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt", alpha=0.005, max_iter=0, tol=1e-12)
    trace = run(p, g, cfg, PLACEMENT_X0)
    assert len(trace) == 1
    assert trace.k == [0]
    assert not trace.converged


def test_run_record_count_bounded():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt", alpha=0.005, max_iter=37, tol=0.0)
    trace = run(p, g, cfg, PLACEMENT_X0)
    assert len(trace) == 37 + 1


def test_tracking_conservation_along_runs():
    p = seeded_cournot(n=10, seed=6)
    g = build_topology("random", 10, edge_prob=0.5, seed=2)
    x0 = np.linspace(10, 30, 10)
    for alg, mom in (("dagt", {}), ("dagt_hb", {"beta": 0.05}), ("dagt_nes", {"gamma": 0.05})):
        cfg = SolverConfig(algorithm=alg, alpha=0.01, max_iter=800, tol=1e-10, **mom)
        trace = run(p, g, cfg, x0, oracle_solution=solve(p))
        assert max(trace.u_mean_err) <= 1e-9
        assert max(trace.s_mean_err) <= 1e-9


def test_divergence_detection_records_iteration():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=1e6, beta=0.5, max_iter=10000, tol=1e-12)
    with pytest.raises(DivergenceDetected) as exc:
        run(p, g, cfg, PLACEMENT_X0)
    assert exc.value.iteration > 0


def test_momentum_beats_plain_iterations_on_quadratic():
    # at tuned parameters both momentum variants need fewer rounds than the
    # plain method to reach a fixed gradient threshold; between the two,
    # heavy ball attains the smaller reduced radius (0.5 vs 0.622 at
    # condition number 9), so it is the fastest
    from aggsim.stability import optimal_params

    p = make_quadratic(np.linspace(1, 9, 8), np.full(8, 0.5), np.zeros(8))
    g = build_topology("random", 8, edge_prob=0.8, seed=3)
    x0 = np.linspace(1, 2, 8)
    iters = {}
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        a, m = optimal_params(alg, 1.0, 9.0)
        kw = {}
        if alg == "dagt_hb":
            kw["beta"] = m
        elif alg == "dagt_nes":
            kw["gamma"] = m
        cfg = SolverConfig(algorithm=alg, alpha=a, max_iter=2000, tol=1e-6, **kw)
        trace = run(p, g, cfg, x0)
        assert trace.converged
        iters[alg] = trace.k[-1]
    assert iters["dagt_hb"] < iters["dagt"]
    assert iters["dagt_nes"] < iters["dagt"]
    assert iters["dagt_hb"] <= iters["dagt_nes"]


def test_tail_rate_dominated_by_error_system_prediction():
    # the error system contracts at (1 + rho_hat)/2 asymptotically, so the
    # measured tail rate must not exceed it
    from aggsim.cli import measured_tail_rate
    from aggsim.stability import quadratic_rates

    p = make_quadratic(np.linspace(1, 9, 8), np.full(8, 0.5), np.zeros(8))
    g = build_topology("random", 8, edge_prob=0.8, seed=3)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.1, beta=0.2, max_iter=4000, tol=1e-12)
    trace = run(p, g, cfg, np.linspace(1, 2, 8), oracle_solution=solve(p))
    rho_hat = quadratic_rates(p, g, 0.1, 0.2, "dagt_hb").predicted_rate
    rate = measured_tail_rate(trace)
    assert rate < (1 + rho_hat) / 2 + 0.01
    assert rate < 1.0


def test_linear_convergence_tail_negative_slope():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.005, beta=0.009, max_iter=5000, tol=1e-10)
    trace = run(p, g, cfg, PLACEMENT_X0, oracle_solution=solve(p))
    r = np.asarray(trace.residual_msq)
    tail = r[int(0.5 * len(r)):]
    tail = tail[tail > 0]
    slopes = np.diff(np.log10(tail))
    assert np.median(slopes) < -1e-3


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def test_unperturbed_channel_is_identity_semantics():
    p = seeded_cournot(n=6, seed=8)
    g = build_topology("ring", 6)
    x0 = np.linspace(1, 2, 6)
    cfg0 = SolverConfig(algorithm="dagt_hb", alpha=0.01, beta=0.1, max_iter=60, tol=0.0)
    cfg1 = SolverConfig(
        algorithm="dagt_hb", alpha=0.01, beta=0.1, max_iter=60, tol=0.0,
        delay_steps=0, noise_sigma=0.0,
    )
    t0 = run(p, g, cfg0, x0)
    t1 = run(p, g, cfg1, x0)
    assert t0.grad_norm == t1.grad_norm
    assert np.array_equal(t0.final_state.x, t1.final_state.x)


def test_delay_converges_slower():
    p = paper_placement()
    g = build_topology("ring", 5)
    base = SolverConfig(algorithm="dagt_hb", alpha=0.005, beta=0.009, max_iter=40000, tol=1e-6)
    delayed = SolverConfig(
        algorithm="dagt_hb", alpha=0.005, beta=0.009, max_iter=40000, tol=1e-6, delay_steps=2
    )
    t0 = run(p, g, base, PLACEMENT_X0)
    t2 = run(p, g, delayed, PLACEMENT_X0)
    assert t0.converged and t2.converged
    assert t2.grad_norm[-1] < 1e-6
    assert t2.k[-1] > t0.k[-1]


def test_delayed_run_preserves_tracking_means():
    p = seeded_cournot(n=8, seed=4)
    g = build_topology("ring", 8)
    cfg = SolverConfig(algorithm="dagt", alpha=0.01, max_iter=600, tol=1e-9, delay_steps=3)
    trace = run(p, g, cfg, np.linspace(5, 8, 8), oracle_solution=solve(p))
    assert max(trace.u_mean_err) <= 1e-9
    assert max(trace.s_mean_err) <= 1e-9


def test_noise_bounded_floor():
    p = seeded_cournot(n=10, seed=6)
    g = build_topology("random", 10, edge_prob=0.5, seed=2)
    x0 = np.linspace(10, 30, 10)
    cfg = SolverConfig(
        algorithm="dagt_hb", alpha=0.01, beta=0.05, max_iter=3000, tol=0.0,
        noise_sigma=1e-3, seed=11,
    )
    trace = run(p, g, cfg, x0, oracle_solution=solve(p))
    r = np.asarray(trace.residual_msq)
    assert np.isfinite(r).all()
    floor = np.median(r[-300:])
    assert 0 < floor < r[0]


def test_noise_determinism_same_seed():
    p = seeded_cournot(n=6, seed=8)
    g = build_topology("ring", 6)
    x0 = np.linspace(1, 2, 6)
    cfg = SolverConfig(
        algorithm="dagt_nes", alpha=0.01, gamma=0.1, max_iter=100, tol=0.0,
        noise_sigma=1e-2, seed=5,
    )
    t0 = run(p, g, cfg, x0)
    t1 = run(p, g, cfg, x0)
    assert t0.grad_norm == t1.grad_norm
    assert t0.to_csv() == t1.to_csv()


def test_comm_channel_delay_period_and_noise():
    g = build_topology("ring", 4)
    ch = CommChannel(g, delay_steps=2)
    assert ch.period == 3
    assert ch.updates_at(0) and not ch.updates_at(1)
    ch = CommChannel(g, noise_sigma=0.5, seed=1)
    assert ch.noise_sigma == 0.5
    with pytest.raises(InvalidArgument):
        CommChannel(g, delay_steps=-1)


def test_noise_only_on_received_entries():
    # with a complete 2-agent graph and huge noise, the tracker means drift,
    # but each agent's own contribution stays clean: mixing a constant
    # field with zero noise reproduces it exactly
    g = build_topology("complete", 2)
    ch = CommChannel(g, noise_sigma=0.0)
    u = np.array([[3.0], [3.0]])
    mu, ms = ch.mix(u, u)
    assert np.array_equal(mu, u)
    assert np.array_equal(ms, u)


def test_solver_config_validation():
    with pytest.raises(InvalidArgument):
        SolverConfig(algorithm="dagt", alpha=0.1, beta=0.1)
    with pytest.raises(InvalidArgument):
        SolverConfig(algorithm="dagt_hb", alpha=-0.1)
    with pytest.raises(InvalidArgument):
        SolverConfig(algorithm="momentum", alpha=0.1)
    for bad in ({"alpha": float("nan")}, {"alpha": float("inf")}, {"tol": float("nan")}):
        with pytest.raises(InvalidArgument):
            SolverConfig(**{"algorithm": "dagt_hb", "alpha": 0.1, **bad})
