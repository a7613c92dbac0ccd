import numpy as np
import pytest

from aggsim.oracle import OracleSolution, solve
from aggsim.problems import make_cournot, make_placement, make_quadratic

from test_problems import paper_placement, seeded_cournot


class NotConverged(RuntimeError):
    """An iterative routine hit its iteration budget before its tolerance."""


# ---------------------------------------------------------------------------
# independent cross-checks of the closed-form solve; they share no code with
# it or with the solvers under test
# ---------------------------------------------------------------------------

def solve_gradient_descent(problem, tol=1e-12, max_iter=200000):
    """Centralized gradient descent with step 1/L1 until the gradient norm
    falls below tol."""
    x = np.zeros(problem.dim)
    step = 1.0 / problem.constants.L1
    for _ in range(max_iter):
        g = problem.global_gradient(x)
        if np.linalg.norm(g) < tol:
            break
        x = x - step * g
    else:
        raise NotConverged(
            f"gradient descent at {np.linalg.norm(problem.global_gradient(x)):.3e} "
            f"after {max_iter} iterations (tol {tol:.1e})"
        )
    grad_norm = float(np.linalg.norm(problem.global_gradient(x)))
    return OracleSolution(x_star=x, f_star=problem.objective(x), grad_norm=grad_norm,
                          method="gradient_descent")


def brute_force_check(problem, x_star, radius, n_samples, seed):
    """True iff no sampled point in a ball around x_star beats its value.

    Uniform directions with uniform radius; the tolerance matches the
    float noise of objective evaluation.
    """
    rng = np.random.default_rng(seed)
    x_star = np.asarray(x_star, dtype=float)
    f_star = problem.objective(x_star)
    for _ in range(n_samples):
        direction = rng.normal(size=x_star.shape)
        direction /= np.linalg.norm(direction)
        pt = x_star + rng.uniform(0.0, radius) * direction
        if problem.objective(pt) < f_star - 1e-12:
            return False
    return True


def test_placement_closed_form_values():
    sol = solve(paper_placement())
    assert sol.method == "closed_form"
    # the anchor pull and the crowd pull balance at the anchor mean
    x = sol.x_star.reshape(5, 2)
    assert x.mean(axis=0) == pytest.approx([4.8, 6.6], abs=1e-12)
    anchors = np.array([[10, 4], [1, 3], [2, 7], [8, 10], [3, 9]], float)
    expected = (20 * anchors + x.mean(axis=0)) / 21
    assert np.allclose(x, expected, atol=1e-12)


def test_quadratic_zero_linear_term_solution_is_origin():
    p = make_quadratic([3.0, 7.0], [0.0, 0.0], [5.0, -1.0])
    sol = solve(p)
    assert np.abs(sol.x_star).max() < 1e-14


def test_cournot_single_agent():
    sol = solve(make_cournot([1.0], [0.0], [0.0], 2.0, 1.0))
    assert sol.x_star[0] == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize(
    "problem",
    [paper_placement(), seeded_cournot(n=10, seed=3), make_quadratic([1, 2, 5], [1, 0, 2], [0, 0, 0])],
    ids=lambda p: p.name,
)
def test_paths_agree_and_gradient_norm_cap(problem):
    closed = solve(problem)
    descent = solve_gradient_descent(problem, tol=1e-12)
    assert closed.method == "closed_form"
    assert descent.method == "gradient_descent"
    assert np.linalg.norm(closed.x_star - descent.x_star) < 1e-8
    assert closed.grad_norm <= 1e-10
    assert descent.grad_norm <= 1e-10


def test_not_converged_raises():
    with pytest.raises(NotConverged):
        solve_gradient_descent(seeded_cournot(n=10, seed=3), tol=1e-12, max_iter=2)


def test_brute_force_confirms_optimum():
    p = paper_placement()
    sol = solve(p)
    assert brute_force_check(p, sol.x_star, radius=1.0, n_samples=1000, seed=0)


def test_brute_force_rejects_perturbed_candidate():
    p = paper_placement()
    sol = solve(p)
    candidate = sol.x_star.copy()
    candidate[0] += 0.1
    assert not brute_force_check(p, candidate, radius=1.0, n_samples=1000, seed=0)
