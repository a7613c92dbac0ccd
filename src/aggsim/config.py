"""Flat key-value experiment configs.

Grammar (one statement per line):

    # comment                      blank lines and '#' comments are skipped
    section.key = value            keys are dotted lowercase identifiers

Values are parsed by first match: int, float, true/false, a comma list of
scalars, else a bare string (no quoting). Serialization writes floats with
repr so parse -> serialize -> parse round-trips losslessly.
"""

from contextlib import contextmanager

import numpy as np

from .exceptions import ConfigError, ConstructionFailed, InvalidArgument
from .graph import TOPOLOGY_KINDS, build_topology
from .problems import make_cournot, make_placement, make_quadratic
from .solver import ALGORITHMS, SolverConfig


def _parse_scalar(text):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text):
    """Parse config text into a flat {dotted key: value} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or any(not part.isidentifier() for part in key.split(".")):
            raise ConfigError(f"malformed key {key!r}", line=lineno)
        if key in out:
            raise ConfigError("duplicate key", line=lineno, key=key)
        value = value.strip()
        if "," in value:
            out[key] = [_parse_scalar(v) for v in value.split(",")]
        else:
            out[key] = _parse_scalar(value)
    return out


def _format_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg):
    """Config dict back to text, keys sorted, values at full precision."""
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, (list, tuple, np.ndarray)):
            lines.append(f"{key} = {','.join(_format_scalar(x) for x in v)}")
        else:
            lines.append(f"{key} = {_format_scalar(v)}")
    return "\n".join(lines) + "\n"


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


_REQUIRED = object()
RANGE = "range"
INDEX_MAX = np.iinfo(np.intp).max  # more than numpy can index
AT_LEAST_0, SIZE, COUNT = (0, None), (0, INDEX_MAX), (1, INDEX_MAX)

# every config key: (kind, default, domain). A kind is float, int, bool, a
# tuple of allowed strings, [kind] for a comma list of that kind, or RANGE:
# two floats lo <= hi. A domain (lo, hi) bounds every number from below and,
# unless hi is None, from above. A default of None is computed at the read
# site, or means the key is unset.
KEYS = {
    "problem.kind": (("placement", "cournot", "quadratic"), _REQUIRED, None),
    "problem.r": ([float], _REQUIRED, None),
    "problem.omega": ([float], [1.0], None),
    "problem.n_agents": (int, _REQUIRED, COUNT),
    "problem.seed": (int, 0, AT_LEAST_0),
    "problem.kappa_range": (RANGE, (0.5, 2.5), None),
    "problem.theta_range": (RANGE, (10.0, 20.0), None),
    "problem.sigma_range": (RANGE, (5.0, 20.0), None),
    "problem.omega1": (float, _REQUIRED, None),
    "problem.omega2": (float, _REQUIRED, None),
    "problem.c": ([float], _REQUIRED, None),
    "problem.h": ([float], None, None),  # zeros of problem.c's size
    "problem.l": ([float], None, None),  # zeros of problem.c's size
    "topology.kind": (TOPOLOGY_KINDS, _REQUIRED, None),
    "topology.n_agents": (int, _REQUIRED, None),
    "topology.edge_prob": (float, None, None),
    "topology.seed": (int, None, AT_LEAST_0),
    "solver.algorithm": (ALGORITHMS, "dagt_hb", None),
    "solver.alpha": (float, _REQUIRED, None),  # bounds takes its box's alpha_eval
    "solver.beta": (float, 0.0, AT_LEAST_0),
    "solver.gamma": (float, 0.0, AT_LEAST_0),
    "solver.max_iter": (int, 5000, AT_LEAST_0),
    "solver.tol": (float, 1e-6, AT_LEAST_0),
    "solver.delay_steps": (int, 0, AT_LEAST_0),
    "solver.noise_sigma": (float, 0.0, AT_LEAST_0),
    "solver.seed": (int, 0, AT_LEAST_0),
    "init.x0": ([float], None, None),
    "init.x0_range": (RANGE, (0.0, 1.0), None),
    "init.x_prev": ([float], None, None),
    "init.seed": (int, 0, AT_LEAST_0),
    "sweep.values": ([float], [], AT_LEAST_0),
    "topology_compare.kinds": ([("star", "ring", "complete")], ["star", "ring", "complete"], None),
    "robustness.delay_steps": (int, 2, AT_LEAST_0),
    "robustness.noise_sigma": (float, 0.001, AT_LEAST_0),
    "robustness.noise_max_iter": (int, 10000, AT_LEAST_0),
    "region.algorithm": (("dagt_hb", "dagt_nes"), "dagt_hb", None),
    "region.alpha_min": (float, 1e-4, None),
    "region.alpha_max": (float, None, None),  # 1 / L1
    "region.alpha_steps": (int, 20, SIZE),
    "region.momentum_min": (float, 1e-4, None),
    "region.momentum_max": (float, 0.5, None),
    "region.momentum_steps": (int, 20, SIZE),
    "bounds.mu": (float, None, None),  # bounds.*: the problem's constants
    "bounds.L1": (float, None, None),
    "bounds.L2": (float, None, None),
    "bounds.L3": (float, None, None),
    "bounds.rho": (float, None, None),
    "output.export_graph": (bool, False, None),
    "run.compare": (bool, False, None),
}


def convert(kind, value, key, domain=None):
    """value as a key of that kind and domain (see KEYS); a comma list takes
    a scalar as one entry and an empty value as none, and names each choice
    at most once. Any failed check is a ConfigError of key."""
    if isinstance(kind, list):
        entries = [] if value == "" else value if isinstance(value, (list, tuple)) else [value]
        out = [convert(kind[0], v, key, domain) for v in entries]
        if isinstance(kind[0], tuple) and len(set(out)) < len(out):
            raise ConfigError(f"repeated choices {out}", key=key)
        return out
    if kind == RANGE:
        out = convert([float], value, key)
        if len(out) != 2:
            raise ConfigError(f"expected 2 entries, got {len(out)}", key=key)
        lo, hi = _finite_span(*out, key)
        if lo > hi:
            raise ConfigError(f"range {lo!r} to {hi!r} is reversed: need lo <= hi", key=key)
        return lo, hi
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"expected one of {', '.join(kind)}, got {value!r}", key=key)
        return value
    if kind is bool or isinstance(value, bool):
        if kind is not bool or not isinstance(value, bool):
            raise ConfigError(f"expected {'true or false' if kind is bool else kind.__name__}, "
                              f"got {value!r}", key=key)
        return value
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", key=key) from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"expected a finite float, got {value!r}", key=key)
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(f"expected an integer, got {value!r}", key=key)
    lo, hi = domain or (None, None)
    if lo is not None and out < lo:
        raise ConfigError(f"must be at least {lo}, got {value!r}", key=key)
    if hi is not None and out > hi:
        raise ConfigError(f"must be at most {hi}, got {value!r}", key=key)
    return out


@contextmanager
def keyed(key):
    """Report an InvalidArgument raised in the block as a ConfigError of key."""
    try:
        yield
    except InvalidArgument as exc:
        raise ConfigError(str(exc), key=key) from exc


def _finite_span(lo, hi, key):
    """(lo, hi) as floats; a width hi - lo that overflows is a ConfigError."""
    lo, hi = float(lo), float(hi)
    if not np.isfinite(hi - lo):
        raise ConfigError(f"range {lo!r} to {hi!r} is too wide: its width overflows", key=key)
    return lo, hi


class ExperimentConfig:
    """Checked view over a flat config dict: problem + topology + solver + init.

    Every key is converted and checked against KEYS when the config is
    built, whether or not a command reads it; an unknown key is a
    ConfigError. `values` holds the checked value of each key given, and
    cfg[key] is that value, else the key's default. Checks across keys, or
    against the model, run where the experiment objects are built; every
    error is a ConfigError naming the offending key.
    """

    def __init__(self, raw):
        self.raw = dict(raw)
        self.values = {}
        for key, value in self.raw.items():
            if key not in KEYS:
                raise ConfigError("unknown key", key=key)
            kind, _, domain = KEYS[key]
            self.values[key] = convert(kind, value, key, domain)

    def __getitem__(self, key):
        value = self.values.get(key, KEYS[key][1])
        if value is _REQUIRED:
            raise ConfigError("missing required key", key=key)
        return value

    def grid(self, axis, max_default=None):
        """The region grid along one axis, from region.<axis>_min/_max/_steps;
        max_default stands in for an unset max."""
        hi = self[f"region.{axis}_max"]
        lo, hi = _finite_span(self[f"region.{axis}_min"], max_default if hi is None else hi,
                              f"region.{axis}_*")
        return np.linspace(lo, hi, self[f"region.{axis}_steps"])

    # -- problem ---------------------------------------------------------
    # an overflowing coefficient is reported by the Hessian check, not by numpy warnings
    @np.errstate(over="ignore", invalid="ignore")
    def build_problem(self):
        kind = self["problem.kind"]
        with keyed("problem.*"):
            if kind == "placement":
                r = np.array(self["problem.r"])
                if r.size % 2:
                    raise ConfigError("expected x,y anchor pairs", key="problem.r")
                return make_placement(r.reshape(-1, 2), self["problem.omega"])
            if kind == "cournot":
                n = self["problem.n_agents"]
                rng = np.random.default_rng(self["problem.seed"])
                kappa = rng.uniform(*self["problem.kappa_range"], n)
                theta = rng.uniform(*self["problem.theta_range"], n)
                sigma = rng.uniform(*self["problem.sigma_range"], n)
                return make_cournot(kappa, theta, sigma, self["problem.omega1"],
                                    self["problem.omega2"])
            c, h, l = self["problem.c"], self["problem.h"], self["problem.l"]
            zeros = [0.0] * len(c)
            return make_quadratic(c, zeros if h is None else h, zeros if l is None else l)

    # -- topology ----------------------------------------------------------
    def build_graph(self):
        kind, n = self["topology.kind"], self["topology.n_agents"]
        # edge_prob/seed only apply to random patterns; a preset may carry
        # them while the kind is overridden
        is_random = kind == "random"
        edge_prob = self["topology.edge_prob"] if is_random else None
        seed = self["topology.seed"] if is_random else None
        if is_random and seed is None:
            # an unseeded draw would give a different graph on every run
            raise ConfigError("a random topology needs a seed", key="topology.seed")
        try:
            return build_topology(kind, n, edge_prob=edge_prob, seed=seed)
        except (InvalidArgument, ConstructionFailed) as exc:
            raise ConfigError(str(exc), key="topology.*") from exc

    def build_problem_and_graph(self):
        """The problem and the graph, whose agent counts are compared first."""
        problem = self.build_problem()
        n = self["topology.n_agents"]
        if n != problem.n_agents:
            raise ConfigError(f"graph has {n} agents, problem has {problem.n_agents}",
                              key="topology.n_agents")
        return problem, self.build_graph()

    # -- solver ------------------------------------------------------------
    def build_solver_config(self, algorithm=None, **overrides):
        """The SolverConfig of one run. Heavy ball takes its momentum from
        solver.beta and Nesterov from solver.gamma."""
        algorithm = algorithm or self["solver.algorithm"]
        kw = dict(
            algorithm=algorithm,
            alpha=self["solver.alpha"],
            momentum={"dagt_hb": self["solver.beta"],
                      "dagt_nes": self["solver.gamma"]}.get(algorithm, 0.0),
            max_iter=self["solver.max_iter"],
            tol=self["solver.tol"],
            delay_steps=self["solver.delay_steps"],
        )
        kw.update(overrides)
        with keyed("solver.*"):
            return SolverConfig(**kw)

    # -- initial point -------------------------------------------------------
    def build_x0(self, problem):
        x0, x_prev = self["init.x0"], self["init.x_prev"]
        for key, value in (("init.x0", x0), ("init.x_prev", x_prev)):
            if value is not None and len(value) != problem.dim:
                raise ConfigError(f"expected {problem.dim} entries, got {len(value)}", key=key)
        if x0 is None:
            rng = np.random.default_rng(self["init.seed"])
            x0 = rng.uniform(*self["init.x0_range"], problem.dim)
        return np.array(x0), None if x_prev is None else np.array(x_prev)
