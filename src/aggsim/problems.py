"""Aggregative problem instances: local costs coupled through an aggregate.

Agent i owns a state x_i in R^d and a cost f_i(x_i, u) evaluated at the
network aggregate u(x) = mean_i phi_i(x_i). Every instance is one member of
a single affine-quadratic family:

    f_i(x_i, u) = c_i/2 |x_i|^2 + b x_i.u + e/2 |u|^2 + p_i.x_i + q.u + s_i
    phi_i(x_i)  = h_i x_i + l_i

with per-agent scalars c_i, h_i, s_i, per-agent vectors p_i, l_i in R^d,
shared scalars b, e and a shared vector q in R^d. The global objective
F(x) = sum_i f_i(x_i, u(x)) is then quadratic with Hessian

    kron(diag(c) + (b (h 1^T + 1 h^T) + e h h^T) / N, I_d),

whose extreme eigenvalues are the exact strong convexity and smoothness
constants, and whose linear solve is the closed-form minimizer. The three
families provided are coefficient maps onto this form: planar optimal
placement, a Nash-Cournot market, and a scalar quadratic family used for
rate analysis.
"""

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .exceptions import InvalidArgument


@dataclass(frozen=True)
class RegularityConstants:
    """Strong convexity / smoothness constants of the global objective.

    mu: strong convexity of F; L1: Lipschitz constant of the combined
    local-gradient map; L2: Lipschitz constant of the aggregate-partial;
    L3: bound on the aggregation-map Jacobian norm.
    """

    mu: float
    L1: float
    L2: float
    L3: float

    def __post_init__(self):
        if not (0 < self.mu <= self.L1):
            raise InvalidArgument(f"need 0 < mu <= L1, got mu={self.mu}, L1={self.L1}")
        if self.L2 < 0 or self.L3 < 0:
            raise InvalidArgument("L2 and L3 must be nonnegative")


@dataclass(frozen=True)
class AggregativeProblem:
    """Coefficients of one affine-quadratic aggregative instance.

    c, h, s: per-agent scalars, shape (N,); p, l: per-agent vectors,
    shape (N, d); b, e: scalars; q: shape (d,). The arrays are copied and
    made read-only, so instances are immutable and thread-safe. States
    are stacked 1-D vectors of length N * d or (N, d) arrays; trackers
    are (N, d) arrays. The Hessian model and the regularity constants are
    derived once at construction, the ground truth at its first use.
    """

    name: str
    c: np.ndarray
    h: np.ndarray
    s: np.ndarray
    p: np.ndarray
    l: np.ndarray
    b: float
    e: float
    q: np.ndarray
    constants: RegularityConstants = field(init=False)
    # (hessian, linear, constant) of F
    quadratic_model: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("c", "h", "s", "p", "l", "q"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n, d = self.n_agents, self.local_dim
        one = np.ones(n)
        coupling = (self.b * (np.outer(self.h, one) + np.outer(one, self.h))
                    + self.e * np.outer(self.h, self.h)) / n
        hess = np.kron(np.diag(self.c) + coupling, np.eye(d))
        if not np.isfinite(hess).all():
            raise InvalidArgument("Hessian has a non-finite entry: a coefficient is too large")
        # gradient and value of F at x = 0, where u = mean(l)
        l_bar = self.l.mean(axis=0)
        lin = self.p + self.b * l_bar + self.h[:, None] * (self.e * l_bar + self.q)
        const = float(self.s.sum() + n * (self.e / 2.0 * l_bar @ l_bar + self.q @ l_bar))
        if not (np.isfinite(lin).all() and np.isfinite(const)):
            raise InvalidArgument("non-finite linear or constant term: a coefficient is too large")
        ev = np.linalg.eigvalsh(hess)
        constants = RegularityConstants(
            mu=float(ev[0]), L1=float(ev[-1]),
            L2=float(max(abs(self.b), abs(self.e))), L3=float(np.abs(self.h).max()),
        )
        object.__setattr__(self, "quadratic_model", (hess, lin.reshape(-1), const))
        object.__setattr__(self, "constants", constants)
        # column views of c and h, b and e as 0-d arrays (a float's bits, not
        # converted per call), and each all-zero offset as None: every family
        # leaves some terms out, and the evaluators skip those
        object.__setattr__(self, "_c", self.c[:, None])
        object.__setattr__(self, "_h", self.h[:, None])
        for name in ("b", "e"):
            object.__setattr__(self, f"_{name}", np.array(getattr(self, name), float))
        for name in ("p", "l", "q"):
            offset = getattr(self, name)
            object.__setattr__(self, f"_{name}", offset if offset.any() else None)
        object.__setattr__(self, "_truth", None)  # see ground_truth

    @property
    def ground_truth(self):
        """oracle.solve(self), x* of F: solved at first use and kept in a slot
        made at construction (a key added later slows every attribute read)."""
        if self._truth is None:
            object.__setattr__(self, "_truth", oracle.solve(self))
        return self._truth

    # -- layout ------------------------------------------------------------
    @property
    def n_agents(self):
        return self.c.shape[0]

    @property
    def local_dim(self):
        return self.p.shape[1]

    agg_dim = local_dim  # the aggregate lives in the state space

    @property
    def dim(self):
        return self.n_agents * self.local_dim

    def as_agents(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape == (self.n_agents, self.local_dim):
            return x
        if x.size != self.dim:
            raise InvalidArgument(f"state has size {x.size}, expected {self.dim}")
        return x.reshape(self.n_agents, self.local_dim)

    # -- vectorized evaluators over (N, d) arrays --------------------------
    # a skipped term is an exact zero, so skipping changes no value
    def f_local_all(self, x_agents, u_agents):
        x, u = x_agents, u_agents
        xpart = (self._c / 2.0 * x + self.b * u + self.p) * x
        return (xpart + (self.e / 2.0 * u + self.q) * u).sum(axis=1) + self.s

    def phi_all(self, x_agents):
        y = self._h * x_agents
        return y if self._l is None else y + self._l

    def grad1_all(self, x_agents, u_agents):
        g = self._c * x_agents
        if self.b:
            g = g + self._b * u_agents
        return g if self._p is None else g + self._p

    def grad2_all(self, x_agents, u_agents):
        g = self._b * x_agents
        if self.e:
            g = g + self._e * u_agents
        return g if self._q is None else g + self._q

    def dphi_all(self, x_agents, s_agents):
        """Per-agent product of the aggregation Jacobian with a tracker."""
        return self._h * s_agents

    # -- global quantities -----------------------------------------------
    # sum / N is bit-identical to .mean(axis=0) at a fraction of its cost
    def aggregate(self, x):
        """Network aggregate u(x) = mean_i phi_i(x_i)."""
        return self.phi_all(self.as_agents(x)).sum(axis=0) / self.n_agents

    def global_gradient(self, x):
        """Exact gradient H x + lin of F as a stacked vector, from the model."""
        hess, lin, _ = self.quadratic_model
        return hess @ self.as_agents(x).reshape(-1) + lin

    def objective(self, x):
        xa = self.as_agents(x)
        ub = np.broadcast_to(self.aggregate(xa), xa.shape)
        return float(self.f_local_all(xa, ub).sum())


def make_placement(r, omega):
    """Planar placement: f_i = w_i ||x_i - r_i||^2 + ||x_i - u(x)||^2, phi = id.

    Parameters
    ----------
    r : (N, 2) array-like of anchors.
    omega : scalar or length-N positive weights.

    mu and L1 are the exact extreme eigenvalues of the global Hessian
    (the objective is jointly quadratic), which is sharper than generic
    analytic bounds. L2 = 2, L3 = 1.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[1] != 2 or not r.size:
        raise InvalidArgument("anchors r must be an (N, 2) array, N >= 1")
    n = r.shape[0]
    try:
        w = np.broadcast_to(np.asarray(omega, dtype=float), (n,))
    except ValueError:
        raise InvalidArgument("omega must broadcast to one weight per agent") from None
    if (w <= 0).any():
        raise InvalidArgument("placement weights must be positive")
    wcol = w[:, None]
    return AggregativeProblem(
        name="placement", c=2.0 * w + 2.0, h=np.ones(n), s=(wcol * r**2).sum(axis=1),
        p=-2.0 * wcol * r, l=np.zeros((n, 2)), b=-2.0, e=2.0, q=np.zeros(2),
    )


def make_cournot(kappa, theta, sigma, omega1, omega2):
    """Nash-Cournot market: f_i = k_i x_i^2 + t_i x_i + s_i - (w1 - w2 u) x_i.

    The aggregate is the total output u(x) = sum_i x_i, realized as
    phi_i(x_i) = N x_i so the network mean of phi equals the sum. This
    embedding changes no gradient value. mu and L1 are the exact extreme
    eigenvalues of the global Hessian; L2 = w2; L3 = N.
    """
    kappa = np.asarray(kappa, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = kappa.shape[0]
    if theta.shape != (n,) or sigma.shape != (n,):
        raise InvalidArgument("kappa, theta, sigma must have equal length")
    if (kappa <= 0).any():
        raise InvalidArgument("kappa entries must be positive")
    if omega2 <= 0:
        raise InvalidArgument("omega2 must be positive")
    return AggregativeProblem(
        name="cournot", c=2.0 * kappa, h=np.full(n, float(n)), s=sigma,
        p=(theta - float(omega1))[:, None], l=np.zeros((n, 1)), b=float(omega2), e=0.0,
        q=np.zeros(1),
    )


def make_quadratic(c, h, l):
    """Scalar quadratic family used for spectral-rate analysis.

    f_i = c_i/2 x_i^2 + u(x)/N with phi_i = h_i x_i + l_i; requires
    c_i > 0 and h_i >= 0 (negative h_i falls outside the analyzed family
    and is rejected). mu = min c, L1 = max c, L2 = 0, L3 = max h.
    """
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    l = np.asarray(l, dtype=float)
    n = c.shape[0]
    if h.shape != (n,) or l.shape != (n,):
        raise InvalidArgument("c, h, l must have equal length")
    if not c.size or (c <= 0).any():
        raise InvalidArgument("c needs at least one entry, all positive")
    if (h < 0).any():
        raise InvalidArgument("h entries must be nonnegative")
    return AggregativeProblem(
        name="quadratic", c=c, h=h, s=np.zeros(n), p=np.zeros((n, 1)), l=l[:, None],
        b=0.0, e=0.0, q=np.full(1, 1.0 / n),
    )

