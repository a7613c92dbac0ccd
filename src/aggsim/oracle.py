"""Centralized ground-truth solver, independent of the distributed iterations.

Every instance carries its exact (Hessian, linear) model, so the ground
truth is one linear solve. The tests cross-check that solve against plain
centralized gradient descent and a sampled neighbourhood search.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidArgument


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    method: str  # 'closed_form'; the tests' cross-checks name their own


def solve(problem):
    """Ground-truth minimizer of F with achieved gradient norm: one linear
    solve against the instance's exact quadratic model. A minimizer that
    overflows, or at which the gradient norm or the objective is not finite,
    raises InvalidArgument."""
    hess, lin, _ = problem.quadratic_model
    x = np.linalg.solve(hess, -lin)
    if not np.isfinite(x).all():
        raise InvalidArgument("ground truth x* has a non-finite entry: the Hessian is too "
                              "close to singular")
    # an overflow shows as a value that is not finite, not as float warnings
    with np.errstate(over="ignore", invalid="ignore"):
        grad_norm = float(np.linalg.norm(problem.global_gradient(x)))
        f_star = problem.objective(x)
    if not (np.isfinite(grad_norm) and np.isfinite(f_star)):
        raise InvalidArgument(f"ground truth cannot be evaluated at x*: gradient norm {grad_norm}, "
                              f"objective {f_star}")
    return OracleSolution(x_star=x, f_star=f_star, grad_norm=grad_norm, method="closed_form")
