"""Centralized ground-truth solver, independent of the distributed iterations.

Every instance carries its exact (Hessian, linear) model, so the ground
truth is one linear solve. Plain centralized gradient descent on the
global gradient is kept as an independent cross-check of that solve; it
shares no code with the solvers under test.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NotConverged


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    method: str  # 'closed_form' or 'gradient_descent'


def _solution(problem, x, method):
    grad_norm = float(np.linalg.norm(problem.global_gradient(x)))
    return OracleSolution(
        x_star=x, f_star=problem.objective(x), grad_norm=grad_norm, method=method
    )


def solve(problem):
    """Ground-truth minimizer of F with achieved gradient norm: one linear
    solve against the instance's exact quadratic model."""
    hess, lin, _ = problem.quadratic_model
    return _solution(problem, np.linalg.solve(hess, -lin), "closed_form")


def solve_gradient_descent(problem, tol=1e-12, max_iter=200000):
    """Centralized gradient descent with step 1/L1 until the gradient norm
    falls below tol; the independent cross-check of the closed form."""
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
    return _solution(problem, x, "gradient_descent")


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
