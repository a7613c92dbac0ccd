"""Flat key-value experiment configs.

Grammar (one statement per line):

    # comment                      blank lines and '#' comments are skipped
    section.key = value            keys are dotted lowercase identifiers

Values are parsed by first match: int, float, true/false, a comma list of
scalars, else a bare string (no quoting). Serialization writes floats with
repr so parse -> serialize -> parse round-trips losslessly.
"""

import numpy as np

from .exceptions import ConfigError, ConstructionFailed, InvalidArgument
from .graph import build_topology
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


def convert(kind, value, key):
    """kind(value) for a config value; a failed conversion, a float that
    is not finite and a fractional value for an int is a ConfigError."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", key=key) from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"expected a finite float, got {value!r}", key=key)
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(f"expected an integer, got {value!r}", key=key)
    return out


def _finite_span(lo, hi, key):
    """(lo, hi) as floats; a width hi - lo that overflows is a ConfigError."""
    lo, hi = float(lo), float(hi)
    if not np.isfinite(hi - lo):
        raise ConfigError(f"range {lo!r} to {hi!r} is too wide: its width overflows", key=key)
    return lo, hi


_REQUIRED = object()


class ExperimentConfig:
    """Typed view over a flat config dict: problem + topology + solver + init.

    Building the experiment objects validates every referenced parameter
    against the module preconditions; errors surface as ConfigError with
    the offending key.
    """

    def __init__(self, raw):
        self.raw = dict(raw)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise ConfigError("missing required key", key=key)
        return self.raw[key]

    def value(self, key, kind, default=_REQUIRED):
        """The key's value converted by kind (float or int); a missing
        required key or a failed conversion is a ConfigError. A default
        of None passes through unconverted."""
        value = self.require(key) if default is _REQUIRED else self.raw.get(key, default)
        return None if value is None else convert(kind, value, key)

    def flag(self, key):
        """The key's true or false, default false; any other value is a ConfigError."""
        value = self.raw.get(key, False)
        if not isinstance(value, bool):
            raise ConfigError(f"expected true or false, got {value!r}", key=key)
        return value

    def seed(self, key, default):
        """The key's int seed, or default; numpy rejects a negative one."""
        seed = self.value(key, int, default)
        if seed is not None and seed < 0:
            raise ConfigError("seed must be nonnegative", key=key)
        return seed

    def array(self, key, default=_REQUIRED, size=None):
        """The key's number or comma list as a float array; like value, and
        with size given, any other entry count is a ConfigError."""
        value = self.require(key) if default is _REQUIRED else self.raw.get(key, default)
        if isinstance(value, (int, float)):
            value = [value]
        if not isinstance(value, (list, tuple)):
            raise ConfigError("expected a number or comma list", key=key)
        arr = np.array([convert(float, v, key) for v in value])
        if size is not None and arr.size != size:
            raise ConfigError(f"expected {size} entries, got {arr.size}", key=key)
        return arr

    def range(self, key, default):
        """The key's two-entry range as floats (lo, hi), lo <= hi; see array
        and _finite_span."""
        lo, hi = _finite_span(*self.array(key, default, size=2), key)
        if lo > hi:
            raise ConfigError(f"range {lo!r} to {hi!r} is reversed: need lo <= hi", key=key)
        return lo, hi

    def grid(self, axis, default_max):
        """The region grid along one axis, from region.<axis>_min/_max/_steps."""
        lo, hi = _finite_span(self.value(f"region.{axis}_min", float, 1e-4),
                              self.value(f"region.{axis}_max", float, default_max),
                              f"region.{axis}_*")
        steps = self.value(f"region.{axis}_steps", int, 20)
        if steps < 0:
            raise ConfigError("grid size must be nonnegative", key=f"region.{axis}_steps")
        if steps > np.iinfo(np.intp).max:  # more than numpy can index
            raise ConfigError(f"grid size must be at most {np.iinfo(np.intp).max}",
                              key=f"region.{axis}_steps")
        return np.linspace(lo, hi, steps)

    # -- problem ---------------------------------------------------------
    # an overflowing coefficient is reported by the Hessian check, not by numpy warnings
    @np.errstate(over="ignore", invalid="ignore")
    def build_problem(self):
        kind = self.require("problem.kind")
        try:
            if kind == "placement":
                r = self.array("problem.r")
                if r.size % 2:
                    raise ConfigError("expected x,y anchor pairs", key="problem.r")
                return make_placement(r.reshape(-1, 2), self.array("problem.omega", 1.0))
            if kind == "cournot":
                n = self.value("problem.n_agents", int)
                if n < 1:
                    raise ConfigError("n_agents must be positive", key="problem.n_agents")
                if n > np.iinfo(np.intp).max:  # more than numpy can index
                    raise ConfigError(f"n_agents must be at most {np.iinfo(np.intp).max}",
                                      key="problem.n_agents")
                rng = np.random.default_rng(self.seed("problem.seed", 0))
                kappa = rng.uniform(*self.range("problem.kappa_range", [0.5, 2.5]), n)
                theta = rng.uniform(*self.range("problem.theta_range", [10, 20]), n)
                sigma = rng.uniform(*self.range("problem.sigma_range", [5, 20]), n)
                return make_cournot(
                    kappa, theta, sigma,
                    self.value("problem.omega1", float),
                    self.value("problem.omega2", float),
                )
            if kind == "quadratic":
                c = self.array("problem.c")
                h = self.array("problem.h", [0.0] * c.size)
                l = self.array("problem.l", [0.0] * c.size)
                return make_quadratic(c, h, l)
        except InvalidArgument as exc:
            raise ConfigError(str(exc), key="problem.*") from exc
        raise ConfigError(f"unknown problem kind {kind!r}", key="problem.kind")

    # -- topology ----------------------------------------------------------
    def build_graph(self):
        kind = self.require("topology.kind")
        n = self.value("topology.n_agents", int)
        # edge_prob/seed only apply to random patterns; a preset may carry
        # them while the kind is overridden
        is_random = kind == "random"
        edge_prob = self.value("topology.edge_prob", float, None) if is_random else None
        seed = self.seed("topology.seed", None) if is_random else None
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
        n = self.value("topology.n_agents", int)
        if n != problem.n_agents:
            raise ConfigError(f"graph has {n} agents, problem has {problem.n_agents}",
                              key="topology.n_agents")
        return problem, self.build_graph()

    # -- solver ------------------------------------------------------------
    def build_solver_config(self, algorithm=None, **overrides):
        """The SolverConfig of one run. Heavy ball takes its momentum from
        solver.beta and Nesterov from solver.gamma; both keys are checked
        for every algorithm."""
        algorithm = algorithm or self.get("solver.algorithm", "dagt_hb")
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algorithm!r}", key="solver.algorithm")
        kw = dict(
            algorithm=algorithm,
            alpha=self.value("solver.alpha", float),
            momentum={"dagt_hb": self.value("solver.beta", float, 0.0),
                      "dagt_nes": self.value("solver.gamma", float, 0.0)}.get(algorithm, 0.0),
            max_iter=self.value("solver.max_iter", int, 5000),
            tol=self.value("solver.tol", float, 1e-6),
            delay_steps=self.value("solver.delay_steps", int, 0),
        )
        kw.update(overrides)
        try:
            return SolverConfig(**kw)
        except InvalidArgument as exc:
            raise ConfigError(str(exc), key="solver.*") from exc

    # -- initial point -------------------------------------------------------
    def build_x0(self, problem):
        if "init.x0" in self.raw:
            x0 = self.array("init.x0", size=problem.dim)
        else:
            lo, hi = self.range("init.x0_range", [0.0, 1.0])
            rng = np.random.default_rng(self.seed("init.seed", 0))
            x0 = rng.uniform(lo, hi, problem.dim)
        x_prev = None
        if "init.x_prev" in self.raw:
            x_prev = self.array("init.x_prev", size=problem.dim)
        return x0, x_prev
