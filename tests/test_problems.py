import numpy as np
import pytest

from aggsim.config import ExperimentConfig
from aggsim.exceptions import InvalidArgument
from aggsim.oracle import solve
from aggsim.presets import get_preset
from aggsim.problems import (
    AggregativeProblem,
    RegularityConstants,
    make_cournot,
    make_placement,
    make_quadratic,
)

PAPER_ANCHORS = [[10, 4], [1, 3], [2, 7], [8, 10], [3, 9]]
FD_STEP = 1e-6


def finite_difference_gradient(fun, x, step=FD_STEP):
    """Central finite differences of a scalar function of a stacked vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def reference_global_gradient(problem, x):
    """The gradient composed from the per-agent evaluators: grad1 at the
    aggregate plus the aggregation Jacobian times the mean grad2. The
    problems compute it from the quadratic model; this is the reference."""
    xa = problem.as_agents(x)
    ub = np.broadcast_to(problem.aggregate(xa), xa.shape)
    g2_mean = problem.grad2_all(xa, ub).sum(axis=0) / problem.n_agents
    sb = np.broadcast_to(g2_mean, xa.shape)
    return (problem.grad1_all(xa, ub) + problem.dphi_all(xa, sb)).reshape(-1)


def reference_grad1_all(problem, x, u):
    """grad1_all as it was while b was multiplied as a Python float; the
    problem keeps b and e as 0-d arrays, checked against this bit for bit."""
    g = problem.c[:, None] * x
    if problem.b:
        g = g + problem.b * u
    return g + problem.p if problem.p.any() else g


def reference_grad2_all(problem, x, u):
    """grad2_all with the Python floats b and e (see reference_grad1_all)."""
    g = problem.b * x
    if problem.e:
        g = g + problem.e * u
    return g + problem.q if problem.q.any() else g


def paper_placement():
    return make_placement(PAPER_ANCHORS, 20.0)


def seeded_cournot(n=50, seed=42, omega1=200.0, omega2=0.01):
    rng = np.random.default_rng(seed)
    return make_cournot(
        rng.uniform(0.5, 2.5, n), rng.uniform(10, 20, n), rng.uniform(5, 20, n), omega1, omega2
    )


def sample_problems():
    return [
        paper_placement(),
        seeded_cournot(n=12, seed=5),
        make_quadratic([1.0, 4.0, 9.0], [0.5, 1.0, 0.0], [0.0, 0.2, -0.1]),
    ]


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_placement_optimal_aggregate_is_anchor_mean():
    sol = solve(paper_placement())
    u = paper_placement().aggregate(sol.x_star)
    assert u == pytest.approx([4.8, 6.6], abs=1e-12)


def test_placement_single_agent_minimizer_at_anchor():
    p = make_placement([[0.0, 0.0]], 1.0)
    sol = solve(p)
    assert np.abs(sol.x_star).max() < 1e-12


def test_placement_first_agent_position():
    sol = solve(paper_placement())
    assert sol.x_star[:2] == pytest.approx([9.7524, 4.1238], abs=1e-3)


def test_placement_gradient_single_agent():
    # with one agent the aggregate equals the state, so only the anchor
    # pull survives
    p = make_placement([[0.0, 0.0]], 1.0)
    g = p.global_gradient(np.array([1.0, 0.0]))
    assert g == pytest.approx([2.0, 0.0], abs=1e-14)


def test_placement_constants_from_exact_hessian():
    p = paper_placement()
    # uniform weights: Hessian is 42 I - 2 K (per coordinate), eigenvalues
    # 40 (mean direction) and 42
    assert p.constants.mu == pytest.approx(40.0, abs=1e-9)
    assert p.constants.L1 == pytest.approx(42.0, abs=1e-9)
    assert p.constants.L2 == 2.0
    assert p.constants.L3 == 1.0


def test_placement_rejects_bad_inputs():
    with pytest.raises(InvalidArgument):
        make_placement([[1, 2], [3, 4]], [1.0, -2.0])
    with pytest.raises(InvalidArgument):
        make_placement([[1, 2, 3]], 1.0)
    with pytest.raises(InvalidArgument):
        make_placement([[1, 2], [3, 4]], [1.0, 2.0, 3.0])


def test_placement_aggregate_of_identical_points():
    p = paper_placement()
    x = np.tile([1.0, 2.0], 5)
    assert p.aggregate(x) == pytest.approx([1.0, 2.0], abs=1e-15)


# ---------------------------------------------------------------------------
# cournot
# ---------------------------------------------------------------------------

def test_cournot_single_agent_scalar_calculus():
    p = make_cournot([1.0], [0.0], [0.0], 2.0, 1.0)
    # F(x) = x^2 - (2 - x) x, grad 4x - 2, minimizer 0.5
    assert p.objective(np.array([1.0])) == pytest.approx(0.0, abs=1e-15)
    assert p.global_gradient(np.array([1.0]))[0] == pytest.approx(2.0)
    assert solve(p).x_star[0] == pytest.approx(0.5, abs=1e-12)


def test_cournot_oracle_stationarity():
    p = seeded_cournot()
    sol = solve(p)
    assert np.linalg.norm(p.global_gradient(sol.x_star)) < 1e-10


def test_cournot_gradient_at_zero():
    # at x = 0 the aggregate vanishes, so grad1 = theta - omega1
    theta = np.array([1.0, 5.0, -2.0])
    p = make_cournot([1.0, 2.0, 3.0], theta, [0.0, 0.0, 0.0], 7.0, 0.5)
    g1 = p.grad1_all(p.as_agents(np.zeros(3)), np.zeros((3, 1)))
    assert g1[:, 0] == pytest.approx(theta - 7.0, abs=1e-15)


def test_cournot_aggregate_is_total_output():
    p = make_cournot([1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3, 1.0, 1.0)
    assert p.aggregate(np.array([1.0, 2.0, 3.0]))[0] == pytest.approx(6.0)


def test_cournot_rejects_bad_inputs():
    with pytest.raises(InvalidArgument):
        make_cournot([1.0, -1.0], [0.0, 0.0], [0.0, 0.0], 1.0, 1.0)
    with pytest.raises(InvalidArgument):
        make_cournot([1.0], [0.0], [0.0], 1.0, 0.0)
    with pytest.raises(InvalidArgument, match="equal length"):
        make_cournot([1.0, 1.0], [0.0], [0.0, 0.0], 1.0, 1.0)
    with np.errstate(over="ignore"), pytest.raises(InvalidArgument, match="Hessian"):
        make_cournot([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], 1.0, 1e308)


def test_problem_without_agents_is_rejected():
    # an empty config list reaches the constructors as no entries
    with pytest.raises(InvalidArgument, match="at least one entry"):
        make_quadratic([], [], [])
    with pytest.raises(InvalidArgument, match="N >= 1"):
        make_placement(np.zeros((0, 2)), 1.0)


def test_non_finite_linear_term_or_constant_is_rejected():
    # the Hessian 2 w + 2 stays finite while p = -2 w r and s = w |r|^2 overflow
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidArgument, match="non-finite linear or constant term"):
        make_placement([[10.0, 4.0], [1.0, 3.0]], 1e307)
    with np.errstate(over="ignore"), pytest.raises(InvalidArgument, match="linear or constant term"):
        make_cournot([1.0, 1.0], [1e308, 0.0], [0.0, 0.0], -1e308, 1.0)
    with np.errstate(over="ignore"), pytest.raises(InvalidArgument, match="linear or constant term"):
        make_cournot([1.0, 1.0], [0.0, 0.0], [1e308, 1e308], 1.0, 1.0)


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------

def test_quadratic_constants_and_trivial_minimizer():
    p = make_quadratic([1.0, 9.0], [0.0, 0.0], [0.0, 0.0])
    assert p.constants.mu == 1.0
    assert p.constants.L1 == 9.0
    assert np.abs(solve(p).x_star).max() < 1e-14


def test_quadratic_gradient_matches_finite_differences():
    p = make_quadratic([2.0, 2.0], [1.0, 1.0], [0.0, 0.0])
    x = np.array([0.3, -0.7])
    g = p.global_gradient(x)
    assert g == pytest.approx([2 * 0.3 + 0.5, 2 * -0.7 + 0.5], abs=1e-12)
    fd = finite_difference_gradient(p.objective, x)
    assert g == pytest.approx(fd, rel=1e-5)


def test_quadratic_aggregate_affine():
    p = make_quadratic([1.0, 1.0], [2.0, 2.0], [1.0, 1.0])
    assert p.aggregate(np.array([1.0, 1.0]))[0] == pytest.approx(3.0)


def test_quadratic_rejects_bad_inputs():
    with pytest.raises(InvalidArgument):
        make_quadratic([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidArgument):
        make_quadratic([1.0, 1.0], [-0.1, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidArgument):
        make_quadratic([1.0, 1.0], [0.0], [0.0, 0.0])


def test_regularity_constants_invariant():
    with pytest.raises(InvalidArgument):
        RegularityConstants(mu=2.0, L1=1.0, L2=0.0, L3=0.0)
    with pytest.raises(InvalidArgument, match="L2 and L3 must be nonnegative"):
        RegularityConstants(mu=1.0, L1=1.0, L2=-1.0, L3=0.0)


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem", sample_problems(), ids=lambda p: p.name)
def test_global_gradient_matches_finite_differences(problem):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-3, 3, problem.dim)
        g = problem.global_gradient(x)
        fd = finite_difference_gradient(problem.objective, x)
        denom = max(1.0, np.linalg.norm(fd))
        assert np.linalg.norm(g - fd) / denom < 1e-5


@pytest.mark.parametrize("problem", sample_problems(), ids=lambda p: p.name)
def test_strong_convexity_and_smoothness_probes(problem):
    mu, L1 = problem.constants.mu, problem.constants.L1
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.uniform(-5, 5, problem.dim)
        y = rng.uniform(-5, 5, problem.dim)
        gx, gy = problem.global_gradient(x), problem.global_gradient(y)
        assert (x - y) @ (gx - gy) >= mu * np.linalg.norm(x - y) ** 2 * (1 - 1e-9)
        assert np.linalg.norm(gx - gy) <= L1 * np.linalg.norm(x - y) * (1 + 1e-9)


def rowwise_jacobian(fun, x):
    """Central differences of a row-wise map of an (N, d) array: row i of
    the result depends on row i of x only, so moving one column of every
    row at once gives each agent's Jacobian column. Shape (N, d, d_out)."""
    n, d = x.shape
    cols = []
    for k in range(d):
        step = np.zeros_like(x)
        step[:, k] = FD_STEP
        diff = (np.asarray(fun(x + step)) - np.asarray(fun(x - step))) / (2.0 * FD_STEP)
        cols.append(diff.reshape(n, -1))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("problem", sample_problems(), ids=lambda p: p.name)
def test_aggregation_jacobian_bounded_by_L3(problem):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.uniform(-5, 5, (problem.n_agents, problem.local_dim))
        jac = rowwise_jacobian(problem.phi_all, x)
        assert jac.shape == (problem.n_agents, problem.local_dim, problem.agg_dim)
        for i in range(problem.n_agents):
            assert np.linalg.norm(jac[i], 2) <= problem.constants.L3 * (1 + 1e-6) + 1e-12


@pytest.mark.parametrize("problem", sample_problems(), ids=lambda p: p.name)
def test_agentwise_gradients_match_finite_differences(problem):
    rng = np.random.default_rng(14)
    shape = (problem.n_agents, problem.local_dim)
    for _ in range(5):
        x = rng.uniform(-2, 2, shape)
        u = rng.uniform(-2, 2, shape)
        s = rng.uniform(-2, 2, shape)
        fd1 = rowwise_jacobian(lambda z: problem.f_local_all(z, u), x)[:, :, 0]
        assert np.allclose(problem.grad1_all(x, u), fd1, rtol=1e-5, atol=1e-7)
        fd2 = rowwise_jacobian(lambda z: problem.f_local_all(x, z), u)[:, :, 0]
        assert np.allclose(problem.grad2_all(x, u), fd2, rtol=1e-5, atol=1e-7)
        # dphi applies the transposed aggregation Jacobian to a tracker
        jac = rowwise_jacobian(problem.phi_all, x)
        assert np.allclose(
            problem.dphi_all(x, s), np.einsum("ikj,ij->ik", jac, s), rtol=1e-5, atol=1e-7
        )


# ---------------------------------------------------------------------------
# derived model against hand-derived Hessians
# ---------------------------------------------------------------------------

def placement_reference(r, w):
    r = np.asarray(r, dtype=float)
    w = np.broadcast_to(np.asarray(w, dtype=float), (r.shape[0],))
    n = r.shape[0]
    hess = np.kron(2.0 * np.diag(w) + 2.0 * (np.eye(n) - np.full((n, n), 1.0 / n)), np.eye(2))
    lin = (-2.0 * w[:, None] * r).reshape(-1)
    return hess, lin, float((w[:, None] * r**2).sum()), 2.0, 1.0


def cournot_reference(kappa, theta, sigma, omega1, omega2):
    n = len(kappa)
    hess = 2.0 * np.diag(kappa) + 2.0 * omega2 * np.ones((n, n))
    return hess, np.asarray(theta) - omega1, float(np.sum(sigma)), omega2, float(n)


def quadratic_reference(c, h, l):
    c, h = np.asarray(c, dtype=float), np.asarray(h, dtype=float)
    return np.diag(c), h / c.size, float(np.mean(l)), 0.0, float(h.max())


def seeded_cournot_params(n, seed, omega1=200.0, omega2=0.01):
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(lo, hi, n) for lo, hi in ((0.5, 2.5), (10, 20), (5, 20))]
    return (*draws, omega1, omega2)


def preset_params(name):
    raw = get_preset(name)
    if raw["problem.kind"] == "placement":
        return placement_reference, (np.reshape(raw["problem.r"], (-1, 2)), raw["problem.omega"])
    if raw["problem.kind"] == "cournot":
        rng = np.random.default_rng(raw["problem.seed"])
        n = raw["problem.n_agents"]
        draws = [rng.uniform(*raw[f"problem.{k}_range"], n) for k in ("kappa", "theta", "sigma")]
        return cournot_reference, (*draws, raw["problem.omega1"], raw["problem.omega2"])
    return quadratic_reference, (raw["problem.c"], raw["problem.h"], raw["problem.l"])


HAND_DERIVED_CASES = [
    ("placement", paper_placement, placement_reference, (PAPER_ANCHORS, 20.0)),
    ("cournot", lambda: seeded_cournot(n=12, seed=5), cournot_reference,
     seeded_cournot_params(12, 5)),
    ("quadratic", lambda: sample_problems()[2], quadratic_reference,
     ([1.0, 4.0, 9.0], [0.5, 1.0, 0.0], [0.0, 0.2, -0.1])),
] + [
    (name, lambda name=name: ExperimentConfig(get_preset(name)).build_problem(),
     *preset_params(name))
    for name in ("placement-paper", "cournot-paper", "quadratic-demo")
]


@pytest.mark.parametrize(
    "build,reference,params", [c[1:] for c in HAND_DERIVED_CASES],
    ids=[c[0] for c in HAND_DERIVED_CASES],
)
def test_derived_model_matches_hand_derived_hessian(build, reference, params):
    problem = build()
    hess, lin, const, L2, L3 = reference(*params)
    model_hess, model_lin, model_const = problem.quadratic_model
    scale = np.abs(hess).max()
    assert np.allclose(model_hess, hess, rtol=0, atol=1e-13 * scale)
    assert np.allclose(model_lin, lin, rtol=1e-13, atol=1e-13)
    assert model_const == pytest.approx(const, rel=1e-13)
    ev = np.linalg.eigvalsh(hess)
    c = problem.constants
    assert c.mu == pytest.approx(ev[0], rel=1e-12)
    assert c.L1 == pytest.approx(ev[-1], rel=1e-12)
    assert (c.L2, c.L3) == (L2, L3)


def test_model_matches_evaluators_on_a_generic_instance():
    # every coefficient nonzero and h not constant, unlike the shipped families
    rng = np.random.default_rng(15)
    n, d = 6, 2
    problem = AggregativeProblem(
        name="generic", c=rng.uniform(5, 10, n), h=rng.uniform(0.5, 2, n),
        s=rng.uniform(-1, 1, n), p=rng.uniform(-1, 1, (n, d)), l=rng.uniform(-1, 1, (n, d)),
        b=0.7, e=-0.9, q=rng.uniform(-1, 1, d),
    )
    hess, lin, const = problem.quadratic_model
    for _ in range(10):
        x = rng.uniform(-3, 3, n * d)
        assert np.allclose(hess @ x + lin, reference_global_gradient(problem, x),
                           rtol=1e-12, atol=1e-12)
        model_value = 0.5 * x @ hess @ x + lin @ x + const
        assert model_value == pytest.approx(problem.objective(x), rel=1e-12, abs=1e-12)
    assert (problem.constants.L2, problem.constants.L3) == (0.9, problem.h.max())


def zero_coupling_problem():
    """b = e = q = 0, so grad2_all is 0 * x: -0.0 wherever x < 0."""
    return AggregativeProblem(name="uncoupled", c=[1.0, 2.0, 3.0], h=[0.5] * 3, s=[0.0] * 3,
                              p=np.zeros((3, 1)), l=np.ones((3, 1)), b=0.0, e=0.0, q=[0.0])


@pytest.mark.parametrize("problem", sample_problems() + [zero_coupling_problem()],
                         ids=lambda p: p.name)
def test_gradients_match_float_coefficient_references(problem):
    # b and e are 0-d arrays in the evaluators; each product keeps the
    # float's bits, the sign of a zero included
    rng = np.random.default_rng(4)
    shape = (problem.n_agents, problem.local_dim)
    for _ in range(5):
        x, u = rng.uniform(-3, 3, shape), rng.uniform(-3, 3, shape)
        for ours, ref in ((problem.grad1_all, reference_grad1_all),
                          (problem.grad2_all, reference_grad2_all)):
            a, b = ours(x, u), ref(problem, x, u)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if not problem.b and not problem.q.any():
        assert np.signbit(problem.grad2_all(-x, u)).any()


def test_dimension_mismatch_rejected():
    p = paper_placement()
    with pytest.raises(InvalidArgument):
        p.aggregate(np.zeros(7))
