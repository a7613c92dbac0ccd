from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import accumulate

import numpy as np
import pytest

import aggsim.oracle as oracle
import aggsim.solver as solver
from aggsim.cli import Experiment
from aggsim.config import ExperimentConfig
from aggsim.exceptions import DivergenceDetected, InvalidArgument
from aggsim.graph import build_topology
from aggsim.oracle import solve
from aggsim.presets import get_preset
from aggsim.problems import AggregativeProblem, make_quadratic
from aggsim.solver import (
    ALGORITHMS, TRACE_COLUMNS, CommChannel, IterTrace, SolverConfig, SolverState, csv_text,
    init_state, run, step,
)

from test_problems import (
    paper_placement, reference_grad1_all, reference_grad2_all, seeded_cournot,
)

PLACEMENT_X0 = np.array([2, 9, 8, 6, 7, 3, 4, 7, 8, 3], float)
PLACEMENT_XM1 = np.array([0, 11, 9, 8, 9, 1, 1, 4, 3, 1], float)


def consensus_state(problem):
    """Fixed-point state: oracle solution with consensual trackers."""
    sol = solve(problem)
    x = problem.as_agents(sol.x_star)
    u = np.broadcast_to(problem.phi_all(x).mean(axis=0), (problem.n_agents, problem.agg_dim)).copy()
    s = np.broadcast_to(
        problem.grad2_all(x, u).mean(axis=0), (problem.n_agents, problem.agg_dim)
    ).copy()
    return SolverState(x=x.copy(), x_prev=x.copy(), y=x.copy(), u=u, s=s,
                       phi_y=problem.phi_all(x), g2_y=problem.grad2_all(x, u))


# ---------------------------------------------------------------------------
# reference steps: the separate heavy-ball and Nesterov updates that the
# one momentum-family step replaced, kept to check it bit for bit. They
# multiply by Python floats, where step and the evaluators use 0-d arrays
# ---------------------------------------------------------------------------

class ReferenceChannel:
    """The noisy channel as it was before it recorded its rounds: each mix
    draws one Gaussian array per tracker, u's first, and reduces each with
    its own einsum."""

    def __init__(self, graph, noise_sigma, seed):
        self.graph = graph
        self.off_weights = graph.weights.copy()
        np.fill_diagonal(self.off_weights, 0.0)
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)

    def _received_noise(self, shape):
        n, d = shape
        eta = self._rng.normal(0.0, self.noise_sigma, size=(n, n, d))
        return np.einsum("ij,ijd->id", self.off_weights, eta)

    def mix(self, u, s):
        mix_u, mix_s = self.graph.weights @ u, self.graph.weights @ s
        return mix_u + self._received_noise(u.shape), mix_s + self._received_noise(s.shape)


def _reference_mix(graph, state, channel):
    if channel is not None:
        return channel.mix(state.u, state.s)
    return graph.weights @ state.u, graph.weights @ state.s


def reference_step_hb(state, problem, graph, alpha, beta, channel=None):
    """One heavy-ball round (beta = 0 is the plain tracked method)."""
    x, u, s = state.x, state.u, state.s
    g = reference_grad1_all(problem, x, u) + problem.dphi_all(x, s)
    if beta != 0.0:
        x_new = x - alpha * g + beta * (x - state.x_prev)
    else:
        x_new = x - alpha * g
    mix_u, mix_s = _reference_mix(graph, state, channel)
    phi_new = problem.phi_all(x_new)
    u_new = mix_u + phi_new - problem.phi_all(x)
    g2_new = reference_grad2_all(problem, x_new, u_new)
    s_new = mix_s + g2_new - reference_grad2_all(problem, x, u)
    return SolverState(x=x_new, x_prev=x, y=x_new, u=u_new, s=s_new, phi_y=phi_new, g2_y=g2_new)


def reference_step_nes(state, problem, graph, alpha, gamma, channel=None):
    """One Nesterov round (gamma = 0 matches the plain method bit for bit)."""
    x, y, u, s = state.x, state.y, state.u, state.s
    g = reference_grad1_all(problem, y, u) + problem.dphi_all(y, s)
    x_new = y - alpha * g
    if gamma != 0.0:
        y_new = x_new + gamma * (x_new - x)
    else:
        y_new = x_new
    mix_u, mix_s = _reference_mix(graph, state, channel)
    phi_new = problem.phi_all(y_new)
    u_new = mix_u + phi_new - problem.phi_all(y)
    g2_new = reference_grad2_all(problem, y_new, u_new)
    s_new = mix_s + g2_new - reference_grad2_all(problem, y, u)
    return SolverState(x=x_new, x_prev=x, y=y_new, u=u_new, s=s_new, phi_y=phi_new, g2_y=g2_new)


def reference_step(state, problem, graph, config, channel=None):
    if config.algorithm == "dagt_nes":
        return reference_step_nes(state, problem, graph, config.alpha, config.momentum, channel)
    return reference_step_hb(state, problem, graph, config.alpha, config.momentum, channel)


def assert_states_equal(a, b):
    for name in ("x", "x_prev", "y", "u", "s"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# reference run: the loop before the state carried phi(y) and grad2 f(y, u),
# before the diagnostics ran in blocks and before the trace derived k, kept
# to check `run` bit for bit. It keeps its own clock, checks the whole state
# on every tick and takes the reference steps, record and hold, which
# evaluate every row on its own tick and append k with it. Given a
# CommChannel, it draws that channel's noise afresh through a
# ReferenceChannel of the same noise_sigma and seed.
# ---------------------------------------------------------------------------

@dataclass
class ReferenceTrace:
    """The trace as reference_run fills it: every column a list, k too."""

    k: list = field(default_factory=list)
    residual_msq: list = field(default_factory=list)
    obj_gap: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    u_track_err: list = field(default_factory=list)
    s_track_err: list = field(default_factory=list)
    u_mean_err: list = field(default_factory=list)
    s_mean_err: list = field(default_factory=list)
    converged: bool = False
    final_state: SolverState = None

    def __len__(self):
        return len(self.k)

    def to_csv(self):
        """The trace CSV, every row formatted on its own."""
        return reference_csv_text(TRACE_COLUMNS, zip(*(getattr(self, name)
                                                       for name in TRACE_FIELDS[:6])))


def reference_record(trace, problem, state, tick, oracle_solution, grad_vec):
    xa = state.x
    z = state.y
    n = problem.n_agents
    dx = xa.reshape(-1) - np.asarray(oracle_solution.x_star, dtype=float)
    trace.residual_msq.append(float((dx**2).sum() / n))
    trace.obj_gap.append(float(0.5 * dx @ (problem.quadratic_model[0] @ dx)))
    trace.k.append(tick)
    trace.grad_norm.append(float(np.linalg.norm(grad_vec)))
    u_mean = state.u.sum(axis=0) / n
    s_mean = state.s.sum(axis=0) / n
    trace.u_track_err.append(float(np.linalg.norm(state.u - u_mean)))
    trace.s_track_err.append(float(np.linalg.norm(state.s - s_mean)))
    phi_mean = problem.phi_all(z).sum(axis=0) / n
    g2_mean = reference_grad2_all(problem, z, state.u).sum(axis=0) / n
    trace.u_mean_err.append(float(np.abs(u_mean - phi_mean).max()))
    trace.s_mean_err.append(float(np.abs(s_mean - g2_mean).max()))


def reference_hold(trace, ticks):
    """Repeat the last row on `ticks` hold ticks."""
    trace.k.extend(range(trace.k[-1] + 1, trace.k[-1] + 1 + ticks))
    for name in TRACE_FIELDS[1:]:
        column = getattr(trace, name)
        column.extend(column[-1:] * ticks)


def reference_run(problem, graph, config, x0, x_minus1=None, oracle_solution=None):
    """The reference loop, measured against oracle_solution, by default a
    fresh solve(problem): never the problem's cached ground truth."""
    if oracle_solution is None:
        oracle_solution = solve(problem)
    channel = None
    if isinstance(graph, CommChannel):
        if graph.noise_sigma > 0:
            channel = ReferenceChannel(graph.graph, graph.noise_sigma, graph.seed)
        graph = graph.graph
    state = init_state(problem, graph, x0, x_minus1=x_minus1)
    trace = ReferenceTrace()
    tick = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if not state.finite():
                raise DivergenceDetected(tick)
            reference_record(trace, problem, state, tick, oracle_solution,
                             problem.global_gradient(state.x))
            gnorm = trace.grad_norm[-1]
            if np.isfinite(gnorm) and gnorm < config.tol:
                trace.converged = True
                break
            if tick > 0 and config.delay_steps > 0:
                reference_hold(trace, min(config.delay_steps, config.max_iter - tick))
                tick = trace.k[-1]
            if tick >= config.max_iter:
                break
            state = reference_step(state, problem, graph, config, channel)
            tick += 1
    trace.final_state = state
    return trace


# every per-tick column of IterTrace, the tracker-mean residuals included
TRACE_FIELDS = ("k", "residual_msq", "obj_gap", "grad_norm", "u_track_err", "s_track_err",
                "u_mean_err", "s_mean_err")


def run_outcome_only(*args, **kwargs):
    return run(*args, **kwargs, diagnostics=False)


def assert_columns_equal(ours, ref, names):
    for name in names:
        a, b = np.asarray(getattr(ours, name)), np.asarray(getattr(ref, name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_runs_equal(run_args, **run_kwargs):
    """run and reference_run end alike, bit for bit: the same trace, CSV
    text and final state, or a divergence at the same tick. A run without
    diagnostics ends alike too, with the same k and grad_norm and no other
    column. Returns the reference's trace or divergence tick."""
    outcomes = []
    for fn in (run, reference_run, run_outcome_only):
        try:
            outcomes.append(fn(*run_args, **run_kwargs))
        except DivergenceDetected as exc:
            outcomes.append(exc.iteration)
    ours, ref, outcome_only = outcomes
    if not isinstance(ref, ReferenceTrace):
        assert ours == ref and outcome_only == ref
        return ref
    assert isinstance(ours, IterTrace) and isinstance(outcome_only, IterTrace)
    assert_columns_equal(ours, ref, TRACE_FIELDS)
    assert ours.to_csv() == ref.to_csv()
    assert_columns_equal(outcome_only, ref, ("k", "grad_norm"))
    for name in TRACE_FIELDS:
        if name not in ("k", "grad_norm"):
            assert getattr(outcome_only, name) == [], name
    for trace in (ours, outcome_only):
        assert trace.converged == ref.converged
        assert_states_equal(trace.final_state, ref.final_state)
    return ref


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
    for x_minus1 in (None, x0 + 1.0):
        st = init_state(p, g, x0, x_minus1=x_minus1)
        # every algorithm takes its first gradient at x0, also when x_prev differs
        assert np.array_equal(st.y, st.x)
        assert np.array_equal(st.u.mean(axis=0), p.phi_all(st.y).mean(axis=0))
        assert np.array_equal(st.s.mean(axis=0), p.grad2_all(st.y, st.u).mean(axis=0))


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
    # with h = 0 the tracker feedback vanishes, so the gradient at y is y
    p = make_quadratic([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    g = build_topology("complete", 2)
    st = init_state(p, g, np.array([1.0, -1.0]))
    nxt = step(st, p, g, SolverConfig("dagt_hb", alpha=0.5, momentum=0.0))
    assert nxt.x[:, 0] == pytest.approx([0.5, -0.5], abs=0)
    # x+ = x - alpha x + beta (x - x_prev), with x_prev = 0
    st = init_state(p, g, np.array([1.0, -1.0]), x_minus1=np.zeros(2))
    nxt = step(st, p, g, SolverConfig("dagt_hb", alpha=0.5, momentum=0.25))
    assert nxt.x[:, 0] == pytest.approx([0.75, -0.75], abs=0)
    assert np.array_equal(nxt.y, nxt.x)
    # x+ = y - alpha y, y+ = x+ + gamma (x+ - x)
    nxt = step(st, p, g, SolverConfig("dagt_nes", alpha=0.5, momentum=0.5))
    assert nxt.x[:, 0] == pytest.approx([0.5, -0.5], abs=0)
    assert nxt.y[:, 0] == pytest.approx([0.25, -0.25], abs=0)


@pytest.mark.parametrize("problem", [paper_placement(), seeded_cournot(n=8, seed=4)],
                         ids=lambda p: p.name)
def test_fixed_point_single_step_drift(problem):
    g = build_topology("ring", problem.n_agents)
    st = consensus_state(problem)
    for cfg in (SolverConfig("dagt_hb", alpha=0.005, momentum=0.01),
                SolverConfig("dagt_nes", alpha=0.005, momentum=0.01)):
        nxt = step(st, problem, g, cfg)
        drift = max(
            np.abs(nxt.x - st.x).max(), np.abs(nxt.u - st.u).max(), np.abs(nxt.s - st.s).max()
        )
        assert drift <= 1e-12 * max(1.0, np.abs(st.u).max())


def test_tracking_means_preserved_after_one_step():
    p = seeded_cournot(n=7, seed=9)
    g = build_topology("random", 7, edge_prob=0.6, seed=1)
    st = init_state(p, g, np.linspace(1, 3, 7))
    nxt = step(st, p, g, SolverConfig("dagt_nes", alpha=0.01, momentum=0.3))
    assert np.abs(nxt.u.mean(axis=0) - p.phi_all(nxt.y).mean(axis=0)).max() <= 1e-12
    assert np.abs(nxt.s.mean(axis=0) - p.grad2_all(nxt.y, nxt.u).mean(axis=0)).max() <= 1e-12


def test_zero_momentum_steps_identical():
    p = seeded_cournot(n=6, seed=8)
    g = build_topology("ring", 6)
    x0 = np.linspace(0.5, 2.0, 6)
    cfgs = [SolverConfig("dagt", alpha=0.02), SolverConfig("dagt_hb", alpha=0.02, momentum=0.0),
            SolverConfig("dagt_nes", alpha=0.02, momentum=0.0)]
    states = [init_state(p, g, x0, x_minus1=x0 - 0.5) for _ in cfgs]
    for _ in range(25):
        states = [step(st, p, g, cfg) for st, cfg in zip(states, cfgs)]
        assert_states_equal(states[0], states[1])
        assert_states_equal(states[0], states[2])


# the quadratic family has b = e = 0 and q != 0: its zero coefficients
# must keep the reference's bits as 0-d arrays too
@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("problem", [
    paper_placement(), seeded_cournot(n=8, seed=4),
    make_quadratic(np.linspace(1.0, 9.0, 8), np.full(8, 0.5), np.linspace(-1.0, 1.0, 8)),
], ids=lambda p: p.name)
def test_step_matches_reference_steps(problem, noise_sigma):
    g = build_topology("ring", problem.n_agents)
    x0 = np.linspace(1.0, 3.0, problem.dim)
    for cfg in (SolverConfig("dagt", alpha=0.01), SolverConfig("dagt_hb", alpha=0.01, momentum=0.3),
                SolverConfig("dagt_nes", alpha=0.01, momentum=0.3)):
        st = ref = init_state(problem, g, x0, x_minus1=x0[::-1])
        channel = noisy(g, noise_sigma, seed=3)
        ref_channel = ReferenceChannel(g, noise_sigma, seed=3) if noise_sigma else None
        for _ in range(30):
            st = step(st, problem, channel, cfg)
            ref = reference_step(ref, problem, g, cfg, ref_channel)
            assert_states_equal(st, ref)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_placement_converges_to_anchor_mean():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.005, momentum=0.009, max_iter=5000, tol=1e-8)
    trace = run(p, g, cfg, PLACEMENT_X0, x_minus1=PLACEMENT_XM1)
    assert trace.converged
    u_final = trace.final_state.u
    assert np.abs(u_final - np.array([4.8, 6.6])).max() < 1e-3
    assert trace.residual_msq[-1] < 1e-12


def test_run_nes_placement():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_nes", alpha=0.005, momentum=0.008, max_iter=5000, tol=1e-8)
    trace = run(p, g, cfg, PLACEMENT_X0)
    assert trace.converged
    assert np.abs(trace.final_state.u - np.array([4.8, 6.6])).max() < 1e-3


def test_runs_of_one_problem_solve_its_ground_truth_once(monkeypatch):
    # the problem keeps its ground truth: a second run, even with another
    # config, reads it; an outcome-only run of a new problem never solves it,
    # and dataclasses.replace makes a problem that solves afresh
    solved = []

    def counted(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(oracle, "solve", counted)
    p, g, cfg, x0 = delay_case(max_iter=2 * BLOCK)
    run(p, g, cfg, x0)
    run(p, g, replace(cfg, delay_steps=2, tol=1e-3), x0)
    assert len(solved) == 1 and solved[0] is p
    q = replace(p)
    run(q, g, cfg, x0, diagnostics=False)
    assert len(solved) == 1
    assert q.ground_truth is not p.ground_truth and len(solved) == 2
    assert np.array_equal(q.ground_truth.x_star, p.ground_truth.x_star)


def test_run_matches_reference_given_an_explicit_solve():
    # run reads problem.ground_truth; the reference is handed solve(p)
    p, g, cfg, x0 = delay_case(delay_steps=1, noise_sigma=1e-2, max_iter=2 * BLOCK + 5)
    ours = run(p, g, cfg, x0)
    ref = reference_run(p, g, cfg, x0, oracle_solution=solve(p))
    assert_columns_equal(ours, ref, TRACE_FIELDS)
    assert ours.to_csv() == ref.to_csv()


def test_ground_truth_that_cannot_be_solved_is_not_cached():
    # x* = -lin / c overflows at c = 1e-320; a diagnostics run raises, an
    # outcome-only run of the same problem needs no ground truth
    p = make_quadratic([1e-320] + [1.0] * 3, [0.5] * 4, [0.0] * 4)
    g = build_topology("ring", 4)
    cfg = SolverConfig("dagt", alpha=0.1, max_iter=5, tol=0.0)
    for _ in range(2):
        with pytest.raises(InvalidArgument, match="ground truth x"):
            run(p, g, cfg, np.ones(4))
        assert p._truth is None
    assert run(p, g, cfg, np.ones(4), diagnostics=False).k[-1] == 5


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
    for alg, mom in (("dagt", 0.0), ("dagt_hb", 0.05), ("dagt_nes", 0.05)):
        cfg = SolverConfig(algorithm=alg, alpha=0.01, momentum=mom, max_iter=800, tol=1e-10)
        trace = run(p, g, cfg, x0)
        assert max(trace.u_mean_err) <= 1e-9
        assert max(trace.s_mean_err) <= 1e-9


def test_divergence_detection_records_iteration():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=1e6, momentum=0.5, max_iter=10000, tol=1e-12)
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
        cfg = SolverConfig(algorithm=alg, alpha=a, momentum=m or 0.0, max_iter=2000, tol=1e-6)
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
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.1, momentum=0.2, max_iter=4000, tol=1e-12)
    trace = run(p, g, cfg, np.linspace(1, 2, 8))
    rho_hat = quadratic_rates(p, g, 0.1, 0.2, "dagt_hb").predicted_rate
    rate = measured_tail_rate(trace)
    assert rate < (1 + rho_hat) / 2 + 0.01
    assert rate < 1.0


def test_linear_convergence_tail_negative_slope():
    p = paper_placement()
    g = build_topology("ring", 5)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.005, momentum=0.009, max_iter=5000, tol=1e-10)
    trace = run(p, g, cfg, PLACEMENT_X0)
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
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.01, momentum=0.1, max_iter=60, tol=0.0)
    t0 = run(p, g, cfg, x0)
    t1 = run(p, CommChannel(g, noise_sigma=0.0), cfg, x0)
    assert t0.grad_norm == t1.grad_norm
    assert np.array_equal(t0.final_state.x, t1.final_state.x)


def test_delay_converges_slower():
    p = paper_placement()
    g = build_topology("ring", 5)
    base = SolverConfig(algorithm="dagt_hb", alpha=0.005, momentum=0.009, max_iter=40000, tol=1e-6)
    delayed = replace(base, delay_steps=2)
    t0 = run(p, g, base, PLACEMENT_X0)
    t2 = run(p, g, delayed, PLACEMENT_X0)
    assert t0.converged and t2.converged
    assert t2.grad_norm[-1] < 1e-6
    assert t2.k[-1] > t0.k[-1]


def test_delayed_run_preserves_tracking_means():
    p = seeded_cournot(n=8, seed=4)
    g = build_topology("ring", 8)
    cfg = SolverConfig(algorithm="dagt", alpha=0.01, max_iter=600, tol=1e-9, delay_steps=3)
    trace = run(p, g, cfg, np.linspace(5, 8, 8))
    assert max(trace.u_mean_err) <= 1e-9
    assert max(trace.s_mean_err) <= 1e-9


# the trace columns a hold tick repeats: all but k
ROW_COLUMNS = ("residual_msq", "obj_gap", "grad_norm", "u_track_err", "s_track_err",
               "u_mean_err", "s_mean_err")


def trace_rows(trace):
    return list(zip(*(getattr(trace, name) for name in ROW_COLUMNS)))


def noisy(graph, noise_sigma, seed):
    """The graph, or a channel of it when noise_sigma > 0."""
    return CommChannel(graph, noise_sigma, seed) if noise_sigma > 0 else graph


def delay_case(delay_steps=0, noise_sigma=0.0, max_iter=60, tol=0.0, alpha=0.01):
    """A cournot instance, its ring (a noisy channel when noise_sigma > 0),
    a heavy-ball config and a start point."""
    p = seeded_cournot(n=6, seed=8)
    g = noisy(build_topology("ring", 6), noise_sigma, seed=5)
    cfg = SolverConfig("dagt_hb", alpha=alpha, momentum=0.1, max_iter=max_iter, tol=tol,
                       delay_steps=delay_steps)
    return p, g, cfg, np.linspace(1, 2, 6)


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("delay", [1, 2, 3])
# 60, 61 and 62 ticks end on an arrival for some delays and inside a hold
# for others; noise-free, tol = 1e-2 converges before 2000 ticks
@pytest.mark.parametrize("max_iter,tol", [(60, 0.0), (61, 0.0), (62, 0.0), (2000, 1e-2)])
def test_delayed_trace_repeats_each_undelayed_row(delay, noise_sigma, max_iter, tol):
    p, g, cfg, x0 = delay_case(delay, noise_sigma, max_iter, tol)
    delayed = run(p, g, cfg, x0)
    undelayed = run(p, g, replace(cfg, delay_steps=0), x0)
    rows = trace_rows(undelayed)
    expected = rows[:1] + [row for row in rows[1:] for _ in range(delay + 1)]
    if undelayed.converged:
        # the run stops at the arrival of the converged state, before its holds
        assert delayed.converged
        expected = expected[:len(expected) - delay]
    assert trace_rows(delayed) == expected[:max_iter + 1]
    assert delayed.k == list(range(len(delayed)))
    rounds = (delayed.k[-1] + delay) // (delay + 1)  # arrivals at ticks 1, delay + 2, ...
    at_round = run(p, g, replace(cfg, delay_steps=0, max_iter=rounds), x0)
    assert np.array_equal(delayed.final_state.x, at_round.final_state.x)


@pytest.mark.parametrize("delay", [1, 2, 3])
def test_delayed_divergence_names_the_arrival_tick(delay):
    p, g, cfg, x0 = delay_case(delay, alpha=1.0, max_iter=10_000)
    with pytest.raises(DivergenceDetected) as undelayed:
        run(p, g, replace(cfg, delay_steps=0), x0)
    rounds = undelayed.value.iteration
    with pytest.raises(DivergenceDetected) as delayed:
        run(p, g, cfg, x0)
    assert delayed.value.iteration == 1 + (rounds - 1) * (delay + 1)


def test_run_evaluates_phi_and_grad2_once_per_state(monkeypatch):
    # init_state evaluates both at x0; after that each step evaluates them
    # once, at its new point, and neither the next step nor the record
    # evaluates them again
    p, g, cfg, x0 = delay_case(delay_steps=2, noise_sigma=1e-2, max_iter=62)
    p.ground_truth  # solved before the counting: its objective evaluates phi
    calls = {"phi_all": 0, "grad2_all": 0, "step": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(AggregativeProblem, "phi_all")
    counting(AggregativeProblem, "grad2_all")
    counting(solver, "step")
    for alg, momentum in FAMILIES:
        calls.update(phi_all=0, grad2_all=0, step=0)
        run(p, g, replace(cfg, algorithm=alg, momentum=momentum), x0)
        assert calls["step"] == 21  # arrivals at ticks 1, 4, ..., 61
        assert calls["phi_all"] == calls["grad2_all"] == 1 + calls["step"]


def test_non_finite_x_minus1_diverges_at_tick_zero():
    # only the initial x_prev is checked as such; every later one is the x
    # checked a tick before
    p, g, cfg, x0 = delay_case()
    x_minus1 = x0.copy()
    x_minus1[3] = np.nan
    for alg in ALGORITHMS:
        with pytest.raises(DivergenceDetected) as exc:
            run(p, g, replace(cfg, algorithm=alg, momentum=0.0), x0, x_minus1=x_minus1)
        assert exc.value.iteration == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("delay,tick", [(0, 134), (2, 400)])
def test_placement_divergence_tick_unchanged(algorithm, delay, tick):
    # the `--set solver.alpha=5` reproducer on placement-paper diverges at
    # the same tick as the reference loop, which checks every array each tick
    cfg = ExperimentConfig({**get_preset("placement-paper"), "solver.alpha": 5.0,
                            "solver.algorithm": algorithm, "solver.delay_steps": delay})
    exp = Experiment(cfg)
    for fn in (run, reference_run):
        with pytest.raises(DivergenceDetected) as exc:
            fn(exp.problem, exp.graph, cfg.build_solver_config(), exp.x0, x_minus1=exp.x_prev)
        assert exc.value.iteration == tick


@pytest.mark.parametrize("delay", [0, 2])
def test_tracker_overflow_with_finite_x_is_detected(delay):
    # with h = b = e = 0 the iterates ignore the trackers, so x stays finite
    # while noise of scale 1e308 overflows u and s; the run must still stop
    # at the reference loop's tick
    p = AggregativeProblem(name="decoupled", c=[1.0, 2.0, 3.0], h=[0.0] * 3, s=[0.0] * 3,
                           p=np.zeros((3, 1)), l=np.ones((3, 1)), b=0.0, e=0.0, q=[0.0])
    channel = CommChannel(build_topology("ring", 3), noise_sigma=1e308, seed=1)
    for alg, momentum in FAMILIES:
        cfg = SolverConfig(alg, alpha=0.1, momentum=momentum, max_iter=20, tol=0.0,
                           delay_steps=delay)
        ticks = []
        for fn in (run, reference_run):
            with pytest.raises(DivergenceDetected) as exc:
                fn(p, channel, cfg, np.ones(3))
            ticks.append(exc.value.iteration)
        assert ticks[0] == ticks[1] > 0


# ---------------------------------------------------------------------------
# block edges: the diagnostics run per block of BLOCK recorded states, and
# match the reference's row-by-row record at every block boundary
# ---------------------------------------------------------------------------

BLOCK = solver.BLOCK
FAMILIES = (("dagt", 0.0), ("dagt_hb", 0.1), ("dagt_nes", 0.1))


def arrival_tick(row, delay):
    """The tick at which the state of recorded row `row` arrives."""
    return 0 if row == 0 else 1 + (row - 1) * (delay + 1)


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_edge_budgets_match_reference(rows, family, noise_sigma):
    p, g, cfg, x0 = delay_case(noise_sigma=noise_sigma, max_iter=rows - 1)
    alg, momentum = family
    cfg = replace(cfg, algorithm=alg, momentum=momentum)
    assert_runs_equal((p, g, cfg, x0))
    assert len(run(p, g, cfg, x0)) == rows


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("delay", [1, 2, 3])
# budgets that end inside the holds of a block's last row, on the arrival
# of the next block's first row, inside its holds, and one row later
@pytest.mark.parametrize("offset", [(BLOCK - 1, 1), (BLOCK, 0), (BLOCK, 1), (BLOCK + 1, 0)])
def test_holds_across_a_flush_match_reference(delay, noise_sigma, offset):
    row, extra = offset
    max_iter = arrival_tick(row, delay) + extra
    p, g, cfg, x0 = delay_case(delay, noise_sigma, max_iter=max_iter)
    assert_runs_equal((p, g, cfg, x0))
    trace = run(p, g, cfg, x0)
    assert trace.k == list(range(max_iter + 1))


def doubling_case(diverge_row, delay, noise_sigma):
    """Iterates that double in size with alternating sign every round,
    x_r = (-2)^r x0 exactly, and overflow in round `diverge_row`; with
    h = b = e = 0 the noisy trackers never reach the iterates."""
    p = AggregativeProblem(name="doubling", c=[1.0] * 3, h=[0.0] * 3, s=[0.0] * 3,
                           p=np.zeros((3, 1)), l=np.ones((3, 1)), b=0.0, e=0.0, q=[0.0])
    g = noisy(build_topology("ring", 3), noise_sigma, seed=3)
    cfg = SolverConfig("dagt", alpha=3.0, max_iter=4 * (BLOCK + 2) * (delay + 1), tol=0.0,
                       delay_steps=delay)
    return p, g, cfg, np.full(3, 2.0 ** (1024 - diverge_row))


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("delay", [0, 1, 3])
# inside the first block, its last row, the second block's first row
@pytest.mark.parametrize("diverge_row", [BLOCK // 2, BLOCK - 1, BLOCK])
def test_divergence_at_block_edges_matches_reference(diverge_row, delay, noise_sigma):
    p, g, cfg, x0 = doubling_case(diverge_row, delay, noise_sigma)
    ticks = []
    for fn in (run, reference_run, run_outcome_only):
        with pytest.raises(DivergenceDetected) as exc:
            fn(p, g, cfg, x0)
        ticks.append(exc.value.iteration)
    assert ticks == [arrival_tick(diverge_row, delay)] * 3


def test_budget_before_divergence_matches_reference():
    # a budget that ends one round before the overflow returns a trace
    p, g, cfg, x0 = doubling_case(BLOCK + 1, 0, 0.0)
    cfg = replace(cfg, max_iter=BLOCK)
    assert_runs_equal((p, g, cfg, x0))
    assert len(run(p, g, cfg, x0)) == BLOCK + 1


def converging_case(row, delay=0, noise_sigma=0.0, family=FAMILIES[1]):
    """delay_case with the tol that the run first meets on recorded row
    `row`; the norms fall on every row, so none before it meets tol."""
    p, g, cfg, x0 = delay_case(delay, noise_sigma, max_iter=10_000)
    alg, momentum = family
    cfg = replace(cfg, algorithm=alg, momentum=momentum)
    norms = run(p, g, replace(cfg, delay_steps=0, max_iter=row), x0).grad_norm
    tol = float(np.nextafter(norms[row], np.inf))
    assert min(norms[:row]) >= tol
    return p, g, replace(cfg, tol=tol), x0


# the stop test runs per block: the rounds stepped past the converged row
# are thrown away, and the trace ends where the row-by-row reference stops
@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("row", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_convergence_at_block_edges_matches_reference(row, family, noise_sigma):
    p, g, cfg, x0 = converging_case(row, noise_sigma=noise_sigma, family=family)
    ref = assert_runs_equal((p, g, cfg, x0))
    assert ref.converged and len(ref) == row + 1


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("delay", [1, 2, 3])
@pytest.mark.parametrize("row", [BLOCK // 2, BLOCK - 1, BLOCK])
def test_delayed_convergence_drops_the_converged_holds(row, delay, noise_sigma):
    # the converged state's holds were queued before the flush found it
    p, g, cfg, x0 = converging_case(row, delay, noise_sigma)
    ref = assert_runs_equal((p, g, cfg, x0))
    assert ref.converged and ref.k[-1] == arrival_tick(row, delay)


# a run without diagnostics ends as the full run does (assert_runs_equal
# checks both against the reference) for every family, delay and noise
# level, converging on either side of a block edge
@pytest.mark.parametrize("noise_sigma", [0.0, 1e-2])
@pytest.mark.parametrize("delay", [0, 1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("row", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_outcome_only_run_matches_the_full_run(row, family, delay, noise_sigma):
    p, g, cfg, x0 = converging_case(row, delay, noise_sigma, family)
    ref = assert_runs_equal((p, g, cfg, x0))
    assert ref.converged and ref.k[-1] == arrival_tick(row, delay)


def tracker_overflow_case(converged_offset):
    """Iterates that halve every round, x_r = 2^-r x0 exactly, while noise
    of scale 5e307 random-walks the trackers past the float range on row
    f, inside the first block; h = b = e = q = 0 keeps the iterates and
    their gradient norms off the trackers. tol is first met on row
    f + converged_offset. Returns the case and f."""
    p = AggregativeProblem(name="halving", c=[0.5] * 3, h=[0.0] * 3, s=[0.0] * 3,
                           p=np.zeros((3, 1)), l=np.ones((3, 1)), b=0.0, e=0.0, q=[0.0])
    graph = build_topology("ring", 3)
    channel = CommChannel(graph, noise_sigma=5e307, seed=2)
    cfg = SolverConfig("dagt", alpha=1.0, max_iter=10 * BLOCK, tol=0.0)
    x0 = np.ones(3)
    with pytest.raises(DivergenceDetected) as exc:
        reference_run(p, channel, cfg, x0)
    diverge_row = exc.value.iteration
    assert 1 < diverge_row < BLOCK - 1
    norms = run(p, graph, replace(cfg, max_iter=BLOCK), x0).grad_norm
    tol = float(np.nextafter(norms[diverge_row + converged_offset], np.inf))
    return (p, channel, replace(cfg, tol=tol), x0), diverge_row


def test_convergence_before_a_non_finite_row_returns_the_trace():
    # the block holds the converged row and, later, the overflowed one
    args, diverge_row = tracker_overflow_case(-1)
    ref = assert_runs_equal(args)
    assert ref.converged and len(ref) == diverge_row


@pytest.mark.parametrize("converged_offset", [0, 1], ids=["same-row", "next-row"])
def test_non_finite_row_at_or_before_convergence_raises(converged_offset):
    # a converged row with non-finite trackers raises, as does an earlier one
    args, diverge_row = tracker_overflow_case(converged_offset)
    assert assert_runs_equal(args) == diverge_row


def test_rounds_past_convergence_keep_the_noise_stream():
    # the converging run draws its block's rounds ahead of need; a second
    # run on the same channel still replays the stream a fresh channel draws
    p, channel, cfg, x0 = converging_case(BLOCK // 2, noise_sigma=1e-2)
    assert assert_runs_equal((p, channel, cfg, x0)).converged
    assert len(channel._rounds) == BLOCK - 1
    longer = replace(cfg, tol=0.0, max_iter=2 * BLOCK)
    assert len(assert_runs_equal((p, channel, longer, x0))) == \
        2 * BLOCK + 1


def test_record_called_once_per_distinct_state(monkeypatch):
    # record(state, ticks) queues each state once, with the ticks of its
    # row; the diagnostics and the stop test run per block, in flush
    recorded = []
    record = IterTrace.record

    def counting(self, state, ticks):
        recorded.append(ticks)
        return record(self, state, ticks)

    monkeypatch.setattr(IterTrace, "record", counting)
    p, g, cfg, x0 = delay_case(delay_steps=2, max_iter=62)
    trace = run(p, g, cfg, x0)
    # x0 at tick 0, then one record per arrival: ticks 1, 4, ..., 61; each
    # arrival tick is the sum of the earlier rows' ticks
    arrivals = list(accumulate(recorded, initial=0))
    assert arrivals[:-1] == [0] + list(range(1, 62, 3))
    assert arrivals[-1] == len(trace) == 63


def test_noise_bounded_floor():
    p = seeded_cournot(n=10, seed=6)
    g = build_topology("random", 10, edge_prob=0.5, seed=2)
    x0 = np.linspace(10, 30, 10)
    cfg = SolverConfig(algorithm="dagt_hb", alpha=0.01, momentum=0.05, max_iter=3000, tol=0.0)
    trace = run(p, CommChannel(g, noise_sigma=1e-3, seed=11), cfg, x0)
    r = np.asarray(trace.residual_msq)
    assert np.isfinite(r).all()
    floor = np.median(r[-300:])
    assert 0 < floor < r[0]


def test_noise_determinism_same_seed():
    p = seeded_cournot(n=6, seed=8)
    g = build_topology("ring", 6)
    x0 = np.linspace(1, 2, 6)
    cfg = SolverConfig(algorithm="dagt_nes", alpha=0.01, momentum=0.1, max_iter=100, tol=0.0)
    t0 = run(p, CommChannel(g, noise_sigma=1e-2, seed=5), cfg, x0)
    t1 = run(p, CommChannel(g, noise_sigma=1e-2, seed=5), cfg, x0)
    assert t0.grad_norm == t1.grad_norm
    assert t0.to_csv() == t1.to_csv()


def test_comm_channel_noise():
    g = build_topology("ring", 4)
    ch = CommChannel(g, noise_sigma=0.5, seed=1)
    assert ch.noise_sigma == 0.5
    for bad in ({"noise_sigma": -1.0}, {"noise_sigma": float("nan")},
                {"noise_sigma": float("inf")}, {"noise_sigma": 0.5, "seed": -1},
                {"noise_sigma": 0.0, "seed": -1}):
        with pytest.raises(InvalidArgument):
            CommChannel(g, **bad)


@pytest.mark.parametrize("d", [1, 2])
def test_channel_rounds_match_two_draw_reference(d):
    # one (2, N, N, d) draw and one einsum per round give the floats of a
    # draw and an einsum per tracker; a rewound channel replays them
    g = build_topology("random", 7, edge_prob=0.6, seed=1)
    rng = np.random.default_rng(0)
    trackers = [rng.standard_normal((2, 7, d)) for _ in range(6)]
    channel = CommChannel(g, noise_sigma=0.1, seed=4)
    for rewound in (False, True, True):
        ref = ReferenceChannel(g, 0.1, seed=4)
        for u, s in trackers[:4] if rewound else trackers:
            for ours, theirs in zip(channel.mix(u, s), ref.mix(u, s)):
                assert ours.tobytes() == theirs.tobytes()
        channel.rewind()
    assert len(channel._rounds) == 6
    # a recorded round never reaches trackers of another shape
    with pytest.raises(InvalidArgument):
        channel.mix(np.zeros((7, d + 1)), np.zeros((7, d + 1)))


@pytest.mark.parametrize("delay", [0, 1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_runs_sharing_a_channel_match_fresh_channels(family, delay):
    # a diverging run draws its rounds first; a shorter run replays part
    # of them, and a longer one replays them all and draws past the end
    alg, momentum = family
    p, channel, cfg, x0 = delay_case(delay, noise_sigma=1e-2)
    cfg = replace(cfg, algorithm=alg, momentum=momentum)

    def shared(config):
        # the reference draws the channel's stream afresh on every run
        outcome = assert_runs_equal((p, channel, config, x0))
        return outcome, len(channel._rounds)

    tick, drawn = shared(replace(cfg, alpha=10.0, max_iter=10_000))
    assert isinstance(tick, int) and drawn >= 40
    trace, rounds = shared(replace(cfg, max_iter=40))
    assert isinstance(trace, ReferenceTrace) and rounds == drawn
    # rounds arrive at ticks 1, delay + 2, ...: this budget is 40 rounds more
    trace, rounds = shared(replace(cfg, max_iter=(drawn + 40) * (delay + 1)))
    assert isinstance(trace, ReferenceTrace) and rounds == drawn + 40


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


def test_state_requires_its_evaluations():
    # every state carries phi(y) and grad2 f(y, u); none is built without
    # them, and none carries a tick, which run keeps
    required = [f.name for f in fields(SolverState) if f.default is MISSING]
    assert required == ["x", "x_prev", "y", "u", "s", "phi_y", "g2_y"]
    assert [f.name for f in fields(SolverState)] == required


def test_solver_config_validation():
    with pytest.raises(InvalidArgument):
        SolverConfig(algorithm="dagt", alpha=0.1, momentum=0.1)
    with pytest.raises(InvalidArgument):
        SolverConfig(algorithm="dagt_hb", alpha=-0.1)
    with pytest.raises(InvalidArgument):
        SolverConfig(algorithm="momentum", alpha=0.1)
    for bad in ({"alpha": float("nan")}, {"alpha": float("inf")}, {"tol": float("nan")},
                {"delay_steps": -1}, {"momentum": -0.1}, {"momentum": float("nan")}):
        with pytest.raises(InvalidArgument):
            SolverConfig(**{"algorithm": "dagt_hb", "alpha": 0.1, **bad})


def reference_csv_text(header, rows):
    """csv_text as it formatted each cell: floats by repr(float(v))."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


# "oracle": the problem's ground truth is solved before the run;
# "no-oracle": the run's first flush solves it
@pytest.mark.parametrize("solved_first", [True, False], ids=["oracle", "no-oracle"])
@pytest.mark.parametrize("converged", [False, True], ids=["budget", "tolerance"])
@pytest.mark.parametrize("delay", [0, 1, 2, 3])
def test_trace_csv_matches_csv_text_of_its_columns(delay, converged, solved_first):
    # to_csv formats a held row once; its text must still be csv_text's.
    # Rows 3 and 4 get every column zero, of opposite signs, so only the
    # rows' own formatting tells them apart
    if converged:
        p, g, cfg, x0 = converging_case(BLOCK + 3, delay)
    else:
        p, g, cfg, x0 = delay_case(delay, max_iter=arrival_tick(BLOCK + 3, delay) + delay // 2)
    p = replace(p)  # converging_case's runs solved p's ground truth
    if solved_first:
        p.ground_truth
    assert (p._truth is not None) == solved_first
    trace = run(p, g, cfg, x0)
    assert p._truth is not None
    assert trace.converged == converged
    for row, zero in ((3, 0.0), (4, -0.0)):
        start = arrival_tick(row, delay)
        for name in TRACE_COLUMNS[1:]:
            getattr(trace, name)[start:start + delay + 1] = [zero] * (delay + 1)
    rows = zip(*(getattr(trace, name) for name in TRACE_FIELDS[:6]))
    assert trace.to_csv() == csv_text(TRACE_COLUMNS, rows)
    assert ",-0.0," in trace.to_csv()


def test_csv_text_matches_per_cell_repr():
    rng = np.random.default_rng(11)
    floats = [0.1, 1 / 3, 1e16, 1e-5, 1e22, -0.0, 5e-324, 1.7976931348623157e308,
              float("nan"), float("inf"), -float("inf")]
    floats += (rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)).tolist()
    rows = [(f, i, i % 3 == 0, f"r{i}", np.float64(f)) for i, f in enumerate(floats)]
    header = ("float", "int", "bool", "str", "numpy_float")
    assert csv_text(header, rows) == reference_csv_text(header, rows)
