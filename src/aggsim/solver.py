"""Synchronous-round distributed solvers with tracked aggregates.

One round: every agent takes a gradient step using its own aggregate and
gradient-sum trackers, then the trackers mix over the graph and absorb the
local increments. Momentum is either heavy-ball (step evaluated at the
current iterate) or Nesterov (step evaluated at an extrapolated point);
zero momentum recovers the plain tracked method, bit for bit.

Communication perturbations: additive Gaussian noise on received tracker
entries, and synchronous delay in which each communication round takes
``delay_steps + 1`` ticks (agents hold their state until the round's
messages arrive, so the tracker means stay conserved).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DivergenceDetected, InvalidArgument

ALGORITHMS = ("dagt", "dagt_hb", "dagt_nes")

TRACE_COLUMNS = ("iter", "residual_msq", "obj_gap", "grad_norm", "u_track_err", "s_track_err")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    max_iter: int = 1000
    tol: float = 1e-6
    delay_steps: int = 0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidArgument(f"unknown algorithm {self.algorithm!r}")
        for name in ("alpha", "beta", "gamma", "tol", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidArgument(f"{name} must be finite")
        if self.alpha <= 0:
            raise InvalidArgument("alpha must be positive")
        if self.beta < 0 or self.gamma < 0:
            raise InvalidArgument("momentum parameters must be nonnegative")
        if self.algorithm == "dagt" and (self.beta != 0 or self.gamma != 0):
            raise InvalidArgument("dagt requires beta = gamma = 0")
        if self.max_iter < 0 or self.delay_steps < 0 or self.noise_sigma < 0:
            raise InvalidArgument("max_iter, delay_steps, noise_sigma must be nonnegative")

    @property
    def momentum(self):
        return self.gamma if self.algorithm == "dagt_nes" else self.beta


@dataclass(frozen=True)
class SolverState:
    """Per-agent stacked iterates and trackers after k rounds.

    x, x_prev: (N, local_dim); y is the extrapolated point (Nesterov only,
    None otherwise); u, s: (N, agg_dim) trackers.
    """

    x: np.ndarray
    x_prev: np.ndarray
    u: np.ndarray
    s: np.ndarray
    k: int = 0
    y: np.ndarray = None

    def finite(self):
        parts = [self.x, self.x_prev, self.u, self.s] + ([self.y] if self.y is not None else [])
        return all(np.isfinite(p).all() for p in parts)


class CommChannel:
    """Mixing wrapper applying the configured communication perturbations.

    delay_steps > 0 stretches every communication round over
    ``delay_steps + 1`` ticks: updates fire only on ticks where the round's
    messages have arrived, and agents hold otherwise. noise_sigma > 0 adds
    i.i.d. zero-mean Gaussian noise to every received (off-diagonal)
    tracker entry; own values are never corrupted.
    """

    def __init__(self, graph, delay_steps=0, noise_sigma=0.0, seed=None):
        if delay_steps < 0 or noise_sigma < 0:
            raise InvalidArgument("delay_steps and noise_sigma must be nonnegative")
        self.weights = graph.weights
        self.off_weights = graph.weights.copy()
        np.fill_diagonal(self.off_weights, 0.0)
        self.period = int(delay_steps) + 1
        self.noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(seed)

    def updates_at(self, k):
        return k % self.period == 0

    def _received_noise(self, shape):
        n, d = shape
        eta = self._rng.normal(0.0, self.noise_sigma, size=(n, n, d))
        return np.einsum("ij,ijd->id", self.off_weights, eta)

    def mix(self, u, s):
        mix_u = self.weights @ u
        mix_s = self.weights @ s
        if self.noise_sigma > 0.0:
            mix_u = mix_u + self._received_noise(u.shape)
            mix_s = mix_s + self._received_noise(s.shape)
        return mix_u, mix_s


def init_state(problem, graph, x0, x_minus1=None, nesterov=False):
    """Initial state with trackers seeded from the local maps.

    u starts at each agent's own aggregation value and s at its own
    aggregate-partial, so the tracker means match the network means
    exactly at round zero. x_minus1 defaults to x0.
    """
    if graph.n_agents != problem.n_agents:
        raise InvalidArgument(
            f"graph has {graph.n_agents} agents, problem has {problem.n_agents}"
        )
    x = problem.as_agents(x0).copy()
    xm = x.copy() if x_minus1 is None else problem.as_agents(x_minus1).copy()
    y = x.copy() if nesterov else None
    z = y if nesterov else x
    u = problem.phi_all(z)
    s = problem.grad2_all(z, u)
    return SolverState(x=x, x_prev=xm, u=u, s=s, k=0, y=y)


def _mix(problem, graph, state, channel):
    if channel is not None:
        return channel.mix(state.u, state.s)
    return graph.weights @ state.u, graph.weights @ state.s


def step_hb(state, problem, graph, alpha, beta, channel=None):
    """One heavy-ball round (beta = 0 is the plain tracked method)."""
    x, u, s = state.x, state.u, state.s
    g = problem.grad1_all(x, u) + problem.dphi_all(x, s)
    if beta != 0.0:
        x_new = x - alpha * g + beta * (x - state.x_prev)
    else:
        x_new = x - alpha * g
    mix_u, mix_s = _mix(problem, graph, state, channel)
    u_new = mix_u + problem.phi_all(x_new) - problem.phi_all(x)
    s_new = mix_s + problem.grad2_all(x_new, u_new) - problem.grad2_all(x, u)
    return SolverState(x=x_new, x_prev=x, u=u_new, s=s_new, k=state.k + 1)


def step_nes(state, problem, graph, alpha, gamma, channel=None):
    """One Nesterov round (gamma = 0 matches the plain method bit for bit)."""
    x, y, u, s = state.x, state.y, state.u, state.s
    g = problem.grad1_all(y, u) + problem.dphi_all(y, s)
    x_new = y - alpha * g
    if gamma != 0.0:
        y_new = x_new + gamma * (x_new - x)
    else:
        y_new = x_new
    mix_u, mix_s = _mix(problem, graph, state, channel)
    u_new = mix_u + problem.phi_all(y_new) - problem.phi_all(y)
    s_new = mix_s + problem.grad2_all(y_new, u_new) - problem.grad2_all(y, u)
    return SolverState(x=x_new, x_prev=x, u=u_new, s=s_new, k=state.k + 1, y=y_new)


def step(state, problem, graph, config, channel=None):
    if config.algorithm == "dagt_nes":
        return step_nes(state, problem, graph, config.alpha, config.gamma, channel)
    return step_hb(state, problem, graph, config.alpha, config.beta, channel)


@dataclass
class IterTrace:
    """Per-tick diagnostics of one run (one record per tick, k = 0 first)."""

    k: list = field(default_factory=list)
    residual_msq: list = field(default_factory=list)
    obj_gap: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    u_track_err: list = field(default_factory=list)
    s_track_err: list = field(default_factory=list)
    # tracker-mean conservation residuals; diagnostics only, not in the CSV
    u_mean_err: list = field(default_factory=list)
    s_mean_err: list = field(default_factory=list)
    converged: bool = False
    final_state: SolverState = None

    def __len__(self):
        return len(self.k)

    def record(self, problem, state, oracle_solution, grad_vec):
        xa = state.x
        z = state.y if state.y is not None else state.x
        if oracle_solution is not None:
            dx = xa.reshape(-1) - np.asarray(oracle_solution.x_star, dtype=float)
            self.residual_msq.append(float((dx**2).sum() / problem.n_agents))
            self.obj_gap.append(problem.objective(xa) - oracle_solution.f_star)
        else:
            self.residual_msq.append(float("nan"))
            self.obj_gap.append(float("nan"))
        self.k.append(state.k)
        self.grad_norm.append(float(np.linalg.norm(grad_vec)))
        u_dev = state.u - state.u.mean(axis=0)
        s_dev = state.s - state.s.mean(axis=0)
        self.u_track_err.append(float(np.linalg.norm(u_dev)))
        self.s_track_err.append(float(np.linalg.norm(s_dev)))
        phi_mean = problem.phi_all(z).mean(axis=0)
        g2_mean = problem.grad2_all(z, state.u).mean(axis=0)
        self.u_mean_err.append(float(np.abs(state.u.mean(axis=0) - phi_mean).max()))
        self.s_mean_err.append(float(np.abs(state.s.mean(axis=0) - g2_mean).max()))

    def to_csv(self):
        lines = [",".join(TRACE_COLUMNS)]
        for i in range(len(self.k)):
            lines.append(
                ",".join(
                    [str(self.k[i])]
                    + [
                        repr(float(col[i]))
                        for col in (
                            self.residual_msq,
                            self.obj_gap,
                            self.grad_norm,
                            self.u_track_err,
                            self.s_track_err,
                        )
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def run(problem, graph, config, x0, x_minus1=None, oracle_solution=None):
    """Iterate until the central gradient-norm monitor passes tol or the
    tick budget max_iter runs out; returns the full per-tick trace.

    The stopping gradient is computed centrally for monitoring only; the
    agents never use it. Raises DivergenceDetected at the first tick with
    a non-finite state.
    """
    nesterov = config.algorithm == "dagt_nes"
    state = init_state(problem, graph, x0, x_minus1=x_minus1, nesterov=nesterov)
    channel = None
    if config.delay_steps > 0 or config.noise_sigma > 0:
        channel = CommChannel(
            graph,
            delay_steps=config.delay_steps,
            noise_sigma=config.noise_sigma,
            seed=config.seed,
        )
    trace = IterTrace()
    # divergence surfaces as NaN/Inf checks, not as float warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if not state.finite():
                raise DivergenceDetected(state.k)
            grad_vec = problem.global_gradient(state.x)
            trace.record(problem, state, oracle_solution, grad_vec)
            gnorm = trace.grad_norm[-1]
            if np.isfinite(gnorm) and gnorm < config.tol:
                trace.converged = True
                break
            if state.k >= config.max_iter:
                break
            if channel is None or channel.updates_at(state.k):
                state = step(state, problem, graph, config, channel)
            else:
                state = replace(state, k=state.k + 1)
    trace.final_state = state
    return trace
