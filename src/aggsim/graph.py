"""Symmetric doubly stochastic communication topologies.

Mixing matrices are built with Metropolis weights, which are symmetric and
doubly stochastic by construction, so no iterative balancing is needed.
The consensus contraction factor is the spectral norm of the deviation of
the mixing matrix from the uniform averaging matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConstructionFailed, InvalidArgument

STOCHASTIC_TOL = 1e-12
# entries below this are treated as absent edges in connectivity checks
EDGE_TOL = 1e-14
RANDOM_RETRIES = 100

TOPOLOGY_KINDS = ("ring", "star", "complete", "random")


@dataclass(frozen=True)
class CommGraph:
    """Validated mixing matrix plus its agent count and cached contraction
    factor, both derived from the weights.

    Immutable after construction; safe to share across threads.
    """

    weights: np.ndarray
    n_agents: int = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        problems = validate(w)
        if problems:
            raise InvalidArgument(f"invalid mixing matrix: {problems}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n_agents", w.shape[0])
        object.__setattr__(self, "rho", contraction_factor_of(w))

    def mix(self, u, s):
        """One noise-free mixing round of both trackers: (W u, W s), by
        `ndarray.dot`: the same BLAS gemv as `@`, without the gufunc's dispatch."""
        return self.weights.dot(u), self.weights.dot(s)

    def weights_csv(self):
        """Row-major CSV dump of the mixing matrix at full precision."""
        return "\n".join(",".join(repr(float(v)) for v in row) for row in self.weights) + "\n"


def _metropolis(adjacency):
    """Metropolis weights on a 0/1 adjacency pattern (no self-loops): the
    per-pair formula computed as arrays, bit for bit the per-pair loop."""
    deg = adjacency.sum(axis=1)
    off = (adjacency != 0) & ~np.eye(len(deg), dtype=bool)
    w = np.where(off, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def _is_connected(adjacency):
    """BFS on the nonzero off-diagonal pattern."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adjacency[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


def _pattern(kind, n, edge_prob, rng):
    adj = np.zeros((n, n), dtype=bool)
    if kind == "ring":
        for i in range(n):
            adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    elif kind == "star":
        adj[0, 1:] = adj[1:, 0] = True
    elif kind == "complete":
        adj[:] = True
        np.fill_diagonal(adj, False)
    elif kind == "random":
        upper = rng.random((n, n)) < edge_prob
        upper = np.triu(upper, 1)
        adj = upper | upper.T
    return adj


def build_topology(kind, n_agents, edge_prob=None, seed=None):
    """Construct a CommGraph of the requested kind.

    Parameters
    ----------
    kind : {'ring', 'star', 'complete', 'random'}
    n_agents : int
        At least 2.
    edge_prob : float, optional
        Edge probability in (0, 1]; required iff kind == 'random'.
    seed : int, optional
        Nonnegative seed of the random pattern; only used for kind == 'random'.

    Random patterns are redrawn until connected, up to a fixed retry
    budget, after which ConstructionFailed is raised.
    """
    if kind not in TOPOLOGY_KINDS:
        raise InvalidArgument(f"unknown topology kind {kind!r}")
    if n_agents < 2:
        raise InvalidArgument("n_agents must be >= 2")
    if kind == "random":
        if edge_prob is None or not (0.0 < edge_prob <= 1.0):
            raise InvalidArgument("random topology requires edge_prob in (0, 1]")
    elif edge_prob is not None:
        raise InvalidArgument(f"edge_prob is only meaningful for kind='random', got kind={kind!r}")
    if seed is not None and seed < 0:
        raise InvalidArgument("seed must be nonnegative")

    rng = np.random.default_rng(seed)
    attempts = RANDOM_RETRIES if kind == "random" else 1
    for _ in range(attempts):
        adj = _pattern(kind, n_agents, edge_prob, rng)
        if _is_connected(adj):
            return CommGraph(_metropolis(adj))
    raise ConstructionFailed(
        f"no connected pattern after {RANDOM_RETRIES} retries "
        f"(n_agents={n_agents}, edge_prob={edge_prob})"
    )


def validate(weights):
    """List of properties a mixing matrix violates; empty means valid.

    Checks symmetry, nonnegativity, row/column sums (tolerance 1e-12) and
    connectivity of the nonzero off-diagonal pattern. Violations are data,
    not errors.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidArgument("weights must be a square matrix")
    violations = []
    if not np.array_equal(w, w.T):
        violations.append("not symmetric")
    if (w < -STOCHASTIC_TOL).any():
        violations.append("negative entries")
    if np.abs(w.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
        violations.append("row sums != 1")
    if np.abs(w.sum(axis=0) - 1.0).max() > STOCHASTIC_TOL:
        violations.append("column sums != 1")
    off = np.abs(w) > EDGE_TOL
    np.fill_diagonal(off, False)
    if not _is_connected(off):
        violations.append("not connected")
    return violations


def contraction_factor_of(weights):
    """Spectral norm of (weights - averaging matrix) for a symmetric matrix."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    dev = w - np.full((n, n), 1.0 / n)
    return float(np.abs(np.linalg.eigvalsh(dev)).max())
