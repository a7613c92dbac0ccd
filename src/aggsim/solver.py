"""Synchronous-round distributed solvers with tracked aggregates.

Every algorithm is one member of a single momentum family (Lessard, Recht
& Packard 2016). With y the point the gradient is taken at, one round is

    y   = x + gamma (x - x_prev)
    x+  = x + beta (x - x_prev) - alpha g(y)

after which the aggregate and gradient-sum trackers mix over the graph and
absorb the local increments at y. Each method is set by one step size and
one momentum m: the plain tracked method (dagt) is beta = gamma = 0,
heavy ball (dagt_hb) is (m, 0) and Nesterov (dagt_nes) is (m, m);
`momentum_family` maps an algorithm and its m onto (beta, gamma). Zero
momentum gives all three the same trajectory, bit for bit.

A SolverConfig holds the iteration alone. Mixing is one call,
``mix(u, s)``: a CommGraph mixes exactly, and a CommChannel, which owns
the noise level and seed, adds noise to received tracker entries. Under
delay a round takes ``delay_steps + 1`` ticks of the run's clock, and
agents hold their state until its messages arrive, so the tracker means
stay conserved.

The state carries phi(y) and grad2 f(y, u), so each round evaluates both
once, at the new point, as the methods do. Per tick `run` only steps the
round and queues its state; the stop test, the divergence check and every
diagnostic run per block of queued states (see IterTrace), and the rounds
stepped past the converged one are thrown away. diagnostics=False keeps only
grad_norm, for callers that read the outcome; `to_csv` needs the rest.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DivergenceDetected, InvalidArgument

ALGORITHMS = ("dagt", "dagt_hb", "dagt_nes")

TRACE_COLUMNS = ("iter", "residual_msq", "obj_gap", "grad_norm", "u_track_err", "s_track_err")

# recorded states per diagnostics block (see IterTrace). On cournot-paper
# (N d = 50) a block of 128 or 256 rows stacks arrays past the allocator's
# mmap threshold, mapped afresh on every block (about 0.5 minor page
# faults per row), and costs more per row than a block of 64; the block's
# gradients are one more (BLOCK, N d) array, a quarter of the finite check's
BLOCK = 64


def csv_text(header, rows):
    """CSV text of a table of Python scalars. str of a Python float is its
    repr, so floats round-trip exactly."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def momentum_family(algorithm, momentum):
    """The family's (beta, gamma) for an algorithm at momentum m: dagt is
    (0, 0), heavy ball (m, 0) and Nesterov (m, m)."""
    family = {"dagt": (0.0, 0.0), "dagt_hb": (momentum, 0.0), "dagt_nes": (momentum, momentum)}
    if algorithm not in family:
        raise InvalidArgument(f"unknown algorithm {algorithm!r}")
    return family[algorithm]


@dataclass(frozen=True)
class SolverConfig:
    """One method's iteration: step size, momentum, stopping rule, delay."""

    algorithm: str
    alpha: float
    momentum: float = 0.0
    max_iter: int = 1000
    tol: float = 1e-6
    delay_steps: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidArgument(f"unknown algorithm {self.algorithm!r}")
        for name in ("alpha", "momentum", "tol"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidArgument(f"{name} must be finite")
        if self.alpha <= 0:
            raise InvalidArgument("alpha must be positive")
        if self.momentum < 0:
            raise InvalidArgument("momentum parameters must be nonnegative")
        if self.algorithm == "dagt" and self.momentum != 0:
            raise InvalidArgument("dagt requires momentum = 0")
        if self.max_iter < 0 or self.tol < 0 or self.delay_steps < 0:
            raise InvalidArgument("max_iter, tol and delay_steps must be nonnegative")

    @cached_property
    def family(self):
        return momentum_family(self.algorithm, self.momentum)

    @cached_property
    def coefficients(self):
        """step's alpha, beta - gamma and gamma as 0-d arrays, None for a skipped
        term: a 0-d array multiplies to a float's bits with no per-call conversion."""
        beta, gamma = self.family
        drift = beta - gamma
        return (np.array(self.alpha, float), np.array(drift, float) if drift else None,
                np.array(gamma, float) if gamma else None)


@dataclass(slots=True)
class SolverState:
    """Per-agent stacked iterates and trackers after some round.

    x, x_prev, y: (N, local_dim), y the point the next gradient is taken
    at (x itself when gamma = 0); u, s: (N, agg_dim) trackers. phi_y and
    g2_y are phi(y) and grad2 f(y, u), carried so that `step` and the
    trace need not evaluate them again. `step` makes new arrays every
    round and nothing writes into a state's arrays. The state holds no
    tick: its arrival tick, past the round count under delay, is `run`'s.
    """

    x: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    u: np.ndarray
    s: np.ndarray
    phi_y: np.ndarray
    g2_y: np.ndarray

    def finite(self):
        return all(np.isfinite(p).all() for p in (self.x, self.x_prev, self.y, self.u, self.s))


def _stack(arrays):
    """np.stack of same-shape arrays, as one concatenate: np.stack makes a
    view of each array first, which costs more than the copy."""
    return np.concatenate(arrays).reshape((len(arrays),) + arrays[0].shape)


def _row_norms(v):
    """np.linalg.norm of each v[i], bit for bit: a stacked matmul of 1 x m
    by m x 1 runs the same BLAS dot per row that v[i].dot(v[i]) runs."""
    v = v.reshape(len(v), -1)
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


class CommChannel:
    """A graph whose received tracker entries carry noise.

    `mix` mixes over the graph, then adds i.i.d. zero-mean Gaussian noise
    of standard deviation noise_sigma to every received (off-diagonal)
    tracker entry; own values are never corrupted. `step` takes either a
    channel or the graph itself, which mixes without noise.

    The channel records the received noise of every mixing round it has
    drawn, one (2, N, d) array per round (u's noise, then s's), and
    `rewind` makes the next `mix` replay round 0. A round is drawn once,
    the first time a mix reaches it, so every run of one channel sees the
    same stream that a fresh channel of the same seed would draw. The
    record holds 2 N d floats per round (8 MB for 10,000 rounds at
    N d = 50) and lives as long as the channel.
    """

    def __init__(self, graph, noise_sigma=0.0, seed=None):
        if not np.isfinite(noise_sigma):
            raise InvalidArgument("noise_sigma must be finite")
        if noise_sigma < 0:
            raise InvalidArgument("noise_sigma must be nonnegative")
        if seed is not None and seed < 0:
            raise InvalidArgument("seed must be nonnegative")
        self.graph = graph
        self.off_weights = graph.weights.copy()
        np.fill_diagonal(self.off_weights, 0.0)
        self.noise_sigma = float(noise_sigma)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._rounds = []
        self._next = 0

    def rewind(self):
        """Make the next `mix` use round 0 again."""
        self._next = 0

    def _received_noise(self, shape):
        """The next round's noise: recorded, or drawn now. One draw of
        both trackers' entries gives the same floats as one draw per
        tracker, u's first."""
        if self._next == len(self._rounds):
            n, d = shape
            eta = self._rng.normal(0.0, self.noise_sigma, size=(2, n, n, d))
            self._rounds.append(np.einsum("ij,kijd->kid", self.off_weights, eta))
        noise = self._rounds[self._next]
        if noise.shape[1:] != shape:
            raise InvalidArgument(f"channel records noise of shape {noise.shape[1:]}, not {shape}")
        self._next += 1
        return noise

    def mix(self, u, s):
        mix_u, mix_s = self.graph.mix(u, s)
        if self.noise_sigma > 0.0:
            noise = self._received_noise(u.shape)
            mix_u = mix_u + noise[0]
            mix_s = mix_s + noise[1]
        return mix_u, mix_s


def init_state(problem, graph, x0, x_minus1=None):
    """Initial state with trackers seeded from the local maps.

    u starts at each agent's own aggregation value and s at its own
    aggregate-partial, so the tracker means match the network means
    exactly at round zero. x_minus1 defaults to x0; y starts at x0 for
    every algorithm.
    """
    if graph.n_agents != problem.n_agents:
        raise InvalidArgument(
            f"graph has {graph.n_agents} agents, problem has {problem.n_agents}"
        )
    x = problem.as_agents(x0).copy()
    xm = x.copy() if x_minus1 is None else problem.as_agents(x_minus1).copy()
    u = problem.phi_all(x)
    s = problem.grad2_all(x, u)
    return SolverState(x=x, x_prev=xm, y=x, u=u, s=s, phi_y=u, g2_y=s)


def step(state, problem, channel, config):
    """One round of the momentum family at the config's (alpha, beta, gamma),
    mixing the trackers over channel (a CommGraph or a CommChannel).

    The gradient is taken at y and x+ = y - alpha g + (beta - gamma)(x - x_prev),
    which equals x + beta (x - x_prev) - alpha g; the next gradient point is
    y+ = x+ + gamma (x+ - x). The x_prev term is skipped when beta = gamma and
    the extrapolation when gamma = 0, so zero momentum is the plain tracked
    method bit for bit. phi and grad2 f are evaluated once, at y+.
    """
    alpha, drift, gamma = config.coefficients
    x, y, u, s = state.x, state.y, state.u, state.s
    g = problem.grad1_all(y, u) + problem.dphi_all(y, s)
    x_new = y - alpha * g
    if drift is not None:
        x_new = x_new + drift * (x - state.x_prev)
    y_new = x_new if gamma is None else x_new + gamma * (x_new - x)
    mix_u, mix_s = channel.mix(u, s)
    phi_new = problem.phi_all(y_new)
    u_new = mix_u + phi_new - state.phi_y
    g2_new = problem.grad2_all(y_new, u_new)
    s_new = mix_s + g2_new - state.g2_y
    return SolverState(x_new, x, y_new, u_new, s_new, phi_new, g2_new)


@dataclass
class IterTrace:
    """Per-tick diagnostics of one run (one row per tick, k = 0 first).

    `record` queues a state with the ticks of its row, its arrival and its
    holds. `flush` computes every column for the queued states at once,
    stop test included, and checks that they are finite; without
    diagnostics it fills only grad_norm. `run` calls it when BLOCK states
    are queued and at its end, so a returned trace has one grad_norm entry
    per tick, holds included, and its length is that column's. Each column
    holds the same floats as a row-by-row computation: the stacked products
    run one BLAS dot or GEMV per row, as one row's would.
    """

    residual_msq: list = field(default_factory=list)
    obj_gap: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    u_track_err: list = field(default_factory=list)
    s_track_err: list = field(default_factory=list)
    # the largest tracker-mean conservation residuals of the run; 0.0 without diagnostics
    max_u_mean_err: float = 0.0
    max_s_mean_err: float = 0.0
    converged: bool = False
    final_state: SolverState = None
    # queued states not yet flushed, and the ticks of every row, flushed
    # or queued, its holds included
    _queue: list = field(default_factory=list, repr=False)
    _ticks: list = field(default_factory=list, repr=False)

    def __len__(self):
        return len(self.grad_norm)

    @property
    def k(self):
        """The tick of every row, 0 to the last: range(len)."""
        return range(len(self))

    @property
    def stop_reason(self):  # a divergence raises instead
        return "tolerance" if self.converged else "budget"

    def record(self, state, ticks):
        """Queue the state's row of `ticks` ticks; True once BLOCK states are
        queued. The queue keeps a reference, not a copy (see SolverState)."""
        self._ticks.append(ticks)
        self._queue.append(state)
        return len(self._queue) == BLOCK

    def flush(self, problem, tol, diagnostics):
        """Compute the queued rows and their holds, and make the last row's
        state the final_state; True, with converged set, if a queued state's
        gradient norm is below tol: the first such state ends the trace, and
        the rows after it, and its own holds, are dropped. Raises
        DivergenceDetected at the arrival tick of the first queued state
        that is not finite, if it comes at or before the converged one
        (x_prev is the x of the state before it, so x, u, s and y cover
        every new array); a NaN or infinite norm is never below the finite
        tol.
        """
        states = self._queue
        self._queue = []
        size = len(states)
        first = len(self._ticks) - size
        X = _stack([st.x for st in states]).reshape(size, -1)
        U = _stack([st.u for st in states])
        S = _stack([st.s for st in states])
        checked = [X, U.reshape(size, -1), S.reshape(size, -1)]
        if any(st.y is not st.x for st in states):
            checked.append(_stack([st.y for st in states]).reshape(size, -1))
        finite = np.isfinite(np.concatenate(checked, axis=1)).all(axis=1)
        # the stopping gradient H x + lin, a GEMV per row as in global_gradient
        hess, lin, _ = problem.quadratic_model
        grad_norm = _row_norms(np.matmul(hess, X[:, :, None])[:, :, 0] + lin)
        met = np.flatnonzero(grad_norm < tol)
        if met.size:
            # the rounds past the converged one ran ahead of the stop test
            size = int(met[0]) + 1
            states, X, U, S = states[:size], X[:size], U[:size], S[:size]
            grad_norm = grad_norm[:size]
            del self._ticks[first + size:]
            self._ticks[-1] = 1
            self.converged = True
        if not finite[:size].all():
            raise DivergenceDetected(sum(self._ticks[:first + int(finite.argmin())]))
        self.final_state = states[-1]
        columns = {"grad_norm": grad_norm}
        if diagnostics:
            n_agents = problem.n_agents
            dx = X - problem.ground_truth.x_star
            residual_msq = (dx**2).sum(axis=1) / n_agents
            # F is quadratic, so its exact gap is dx.H dx / 2; F(x) - f* would
            # cancel at the size of F and can come out negative. The 0.5
            # scales dx first, as in a row's 0.5 * dx @ (H @ dx)
            h_dx = np.matmul(hess, dx[:, :, None])
            obj_gap = np.matmul((0.5 * dx)[:, None, :], h_dx)[:, 0, 0]
            # every mean is sum / N, which is bit-identical to .mean(axis=0)
            u_mean = U.sum(axis=1) / n_agents
            s_mean = S.sum(axis=1) / n_agents
            columns.update({
                "residual_msq": residual_msq,
                "obj_gap": obj_gap,
                "u_track_err": _row_norms(U - u_mean[:, None, :]),
                "s_track_err": _row_norms(S - s_mean[:, None, :]),
            })
            # a held row repeats its residuals, so the rows alone give the maxima
            u_err = np.abs(u_mean - _stack([st.phi_y for st in states]).sum(axis=1) / n_agents)
            s_err = np.abs(s_mean - _stack([st.g2_y for st in states]).sum(axis=1) / n_agents)
            self.max_u_mean_err = float(u_err.max(initial=self.max_u_mean_err))
            self.max_s_mean_err = float(s_err.max(initial=self.max_s_mean_err))
        ticks = self._ticks[first:]
        if sum(ticks) > size:
            columns = {name: np.repeat(values, ticks) for name, values in columns.items()}
        for name, values in columns.items():
            getattr(self, name).extend(values.tolist())
        return self.converged

    def to_csv(self):
        """csv_text of the trace columns; a held row is formatted once and
        its text follows each of its ticks."""
        columns = [getattr(self, name) for name in TRACE_COLUMNS[1:]]
        lines = [",".join(TRACE_COLUMNS)]
        tick = 0
        for ticks in self._ticks:
            text = ",".join([str(column[tick]) for column in columns])
            lines.extend([f"{k},{text}" for k in range(tick, tick + ticks)])
            tick += ticks
        return "\n".join(lines) + "\n"


def run(problem, channel, config, x0, x_minus1=None, diagnostics=True):
    """Iterate until the central gradient-norm monitor passes tol or the
    tick budget max_iter runs out; returns the per-tick trace, whose residual
    and gap columns read problem.ground_truth. With diagnostics False the run
    ends alike, but its trace holds grad_norm alone, too few columns for
    `to_csv`, and the ground truth is not read.

    channel is a CommGraph, which mixes exactly, or a CommChannel, which
    adds its noise. A channel is rewound, so runs that share it replay one
    noise stream.

    The run alone keeps the clock. The first round fires at tick 0; each later
    state is recorded once, with its arrival tick and the delay_steps hold
    ticks after it, on which its row repeats. The stopping gradient is
    computed centrally for monitoring only; the agents never use it. The stop
    test runs per block of recorded states (see IterTrace.flush): the rounds
    stepped after the converged state, at most BLOCK - 1 of them, are thrown
    away, and the trace ends at that state's arrival tick. Raises
    DivergenceDetected at the first tick with a non-finite state, at or before
    the converged one: the initial state is checked whole, and each later one
    only in the arrays its step made. Rounds stepped after a divergence but
    before its block is flushed are NaN work whose trace is thrown away.
    """
    graph = channel
    if isinstance(channel, CommChannel):
        channel.rewind()
        graph = channel.graph
    trace = IterTrace()
    record, delay_steps, max_iter = trace.record, config.delay_steps, config.max_iter
    # divergence surfaces as NaN/Inf checks, not as float warnings, from the start on
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(problem, graph, x0, x_minus1=x_minus1)
        if not state.finite():
            raise DivergenceDetected(0)
        tick = 0  # the arrival tick of state
        while True:
            # a later state rests on delay_steps holds, cut at the budget
            ticks = min(delay_steps + 1 if tick else 1, max_iter + 1 - tick)
            full = record(state, ticks)
            tick += ticks
            spent = tick > max_iter
            if (full or spent) and (trace.flush(problem, config.tol, diagnostics) or spent):
                return trace
            state = step(state, problem, channel, config)
