"""Experiment harness: config-driven runs with CSV traces and JSON summaries.

Commands: run, sweep, topology, robustness, bounds, region, rates.
Every command takes --config or --preset (plus repeatable --set overrides)
and writes machine-readable outputs under --out once it completes. Exit
codes: 0 success, 2 config error, 3 divergence, demanded convergence not
reached, or a failed numerical cross-check.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, convert, load_config, parse_config, serialize_config
from .exceptions import (
    ConfigError,
    DivergenceDetected,
    InconsistentResult,
    InvalidArgument,
)
from .graph import build_topology
from .oracle import solve
from .presets import get_preset, preset_names
from .solver import ALGORITHMS, csv_text, run as run_solver
from .stability import (
    StabilityConstants,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    error_matrix_nes,
    optimal_params,
    quadratic_rates,
    region_member_hb,
    region_member_nes,
)

TAIL_FRACTION = 0.2
TAIL_MIN_POINTS = 30


def measured_tail_rate(trace, fraction=TAIL_FRACTION, min_points=TAIL_MIN_POINTS):
    """Per-iteration contraction factor fitted on the trace tail.

    Least-squares slope of log10 RMS state residual over the final
    `fraction` of pre-threshold iterations (at least `min_points` when
    available); returns 10**slope, or nan if too few usable points.
    """
    r = np.asarray(trace.residual_msq, dtype=float)
    k = np.asarray(trace.k, dtype=float)
    ok = np.isfinite(r) & (r > 1e-280)
    idx = np.nonzero(ok)[0]
    if idx.size < 3:
        return float("nan")
    n_tail = max(min_points, math.ceil(fraction * idx.size))
    sel = idx[-min(n_tail, idx.size):]
    slope = np.polyfit(k[sel], 0.5 * np.log10(r[sel]), 1)[0]
    return float(10.0**slope)


def _json_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _list(cfg, key, default):
    """The key's comma list; a scalar is one entry, an empty value none."""
    value = cfg.get(key, default)
    if value in ("", None):
        return []
    return value if isinstance(value, list) else [value]


def _has_exact_rates(problem):
    """The exact-rate matrices model scalar states whose curvature does not
    depend on the aggregate (b = e = 0): the quadratic family."""
    return problem.b == 0 and problem.e == 0 and problem.local_dim == 1


def _per_tick(rate, solver_cfg):
    # a round takes delay_steps + 1 ticks; at delay 0 the power 1.0 keeps the rate
    return rate ** (1.0 / (solver_cfg.delay_steps + 1))


def _outcome(trace):
    return {"iterations": int(trace.k[-1]), "converged": bool(trace.converged)}


class Experiment:
    """The problem, graph, start point and oracle of one config, built
    once; each run varies only the solver config (and maybe the graph)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.problem = cfg.build_problem()
        self.graph = cfg.build_graph()
        self.x0, self.x_prev = cfg.build_x0(self.problem)
        self.oracle = solve(self.problem)

    def run(self, graph=None, **overrides):
        solver_cfg = self.cfg.build_solver_config(**overrides)
        trace = run_solver(
            self.problem, self.graph if graph is None else graph, solver_cfg, self.x0,
            x_minus1=self.x_prev, oracle_solution=self.oracle,
        )
        return solver_cfg, trace


def _run_summary(exp, solver_cfg, trace):
    problem, graph, oracle = exp.problem, exp.graph, exp.oracle
    summary = {
        "algorithm": solver_cfg.algorithm,
        "alpha": solver_cfg.alpha,
        "momentum": solver_cfg.momentum,
        **_outcome(trace),
        "final_grad_norm": trace.grad_norm[-1],
        "final_residual_msq": trace.residual_msq[-1],
        "final_obj_gap": trace.obj_gap[-1],
        "final_u_mean": [float(v) for v in trace.final_state.u.mean(axis=0)],
        "oracle_f_star": oracle.f_star,
        "oracle_method": oracle.method,
        "rho_graph": graph.rho,
        "measured_tail_rate": measured_tail_rate(trace),
        "max_u_mean_err": max(trace.u_mean_err),
        "max_s_mean_err": max(trace.s_mean_err),
    }
    if _has_exact_rates(problem) and solver_cfg.noise_sigma == 0:
        report = quadratic_rates(
            problem, graph, solver_cfg.alpha, solver_cfg.momentum, solver_cfg.algorithm
        )
        summary["predicted_rate"] = _per_tick(report.predicted_rate, solver_cfg)
        summary["reduced_radius"] = report.reduced_radius
    return summary


def cmd_run(cfg):
    exp = Experiment(cfg)
    solver_cfg, trace = exp.run()
    files = {"trace.csv": trace.to_csv()}
    summary = _run_summary(exp, solver_cfg, trace)
    if cfg.get("output.export_graph", False):
        files["weights.csv"] = exp.graph.weights_csv()
    if cfg.get("run.compare", False):
        rows = []
        for alg in ALGORITHMS:
            atrace = trace if alg == solver_cfg.algorithm else exp.run(algorithm=alg)[1]
            rows += [(alg, int(k), float(r)) for k, r in zip(atrace.k, atrace.residual_msq)]
        files["compare.csv"] = csv_text(("algorithm", "iter", "residual"), rows)
    return summary, files, 0


def cmd_sweep(cfg):
    values = _list(cfg, "sweep.values", [])
    algorithm = cfg.get("solver.algorithm", "dagt_hb")
    if algorithm not in ("dagt_hb", "dagt_nes"):
        raise ConfigError("sweep needs a momentum algorithm", key="solver.algorithm")
    exp = Experiment(cfg)
    rows = []
    for v in (convert(float, v, "sweep.values") for v in values):
        try:
            # the algorithm's config keeps the parameter it uses
            rows.append({"momentum": v, **_outcome(exp.run(beta=v, gamma=v)[1])})
        except DivergenceDetected as exc:
            rows.append({"momentum": v, "iterations": int(exc.iteration), "converged": False})
    files = {"sweep.csv": csv_text(("momentum", "iterations", "converged"), map(dict.values, rows))}
    return {"algorithm": algorithm, "rows": rows}, files, 0


def cmd_topology(cfg):
    kinds = _list(cfg, "topology_compare.kinds", ["star", "ring", "complete"])
    bad = [k for k in kinds if k not in ("star", "ring", "complete")]
    if bad:
        raise ConfigError(f"unsupported topology kinds {bad}", key="topology_compare.kinds")
    exp = Experiment(cfg)
    rows, per_topology = [], {}
    for kind in kinds:
        graph = build_topology(kind, exp.problem.n_agents)
        _, trace = exp.run(graph=graph)
        rows += [(kind, int(k), float(r)) for k, r in zip(trace.k, trace.residual_msq)]
        per_topology[kind] = {"rho": graph.rho, **_outcome(trace)}
    files = {"topology.csv": csv_text(("topology", "iter", "residual_msq"), rows)}
    return {"per_topology": per_topology}, files, 0


def cmd_robustness(cfg):
    delay = cfg.value("robustness.delay_steps", int, 2)
    sigma = cfg.value("robustness.noise_sigma", float, 0.001)
    noise_iters = cfg.value("robustness.noise_max_iter", int, 10000)
    exp = Experiment(cfg)
    files, summary = {}, {"delay": {}, "noise": {}, "delay_steps": delay, "noise_sigma": sigma}
    code = 0
    # a diverged run is reported at its divergence tick, with no trace and
    # null for the value it could not reach; the command then exits 3
    for alg in ALGORITHMS:
        try:
            _, trace = exp.run(algorithm=alg, delay_steps=delay)
            files[f"robustness_delay_{alg}.csv"] = trace.to_csv()
            summary["delay"][alg] = {**_outcome(trace), "final_grad_norm": trace.grad_norm[-1]}
        except DivergenceDetected as exc:
            summary["delay"][alg] = {"iterations": int(exc.iteration), "converged": False,
                                     "final_grad_norm": None}
            code = 3
        try:
            _, trace = exp.run(algorithm=alg, noise_sigma=sigma, max_iter=noise_iters, tol=0.0)
            files[f"robustness_noise_{alg}.csv"] = trace.to_csv()
            res = np.asarray(trace.residual_msq)
            summary["noise"][alg] = {
                "iterations": int(trace.k[-1]),
                "bounded": bool(np.isfinite(res).all()),
                "floor_residual_msq": float(np.median(res[-max(1, len(res) // 10):])),
            }
        except DivergenceDetected as exc:
            summary["noise"][alg] = {"iterations": int(exc.iteration), "bounded": False,
                                     "floor_residual_msq": None}
            code = 3
    return summary, files, code


def _constants(cfg):
    c = StabilityConstants.from_problem(cfg.build_problem(), cfg.build_graph())
    names = ("mu", "L1", "L2", "L3", "rho")
    return StabilityConstants(**{k: cfg.value(f"bounds.{k}", float, getattr(c, k)) for k in names})


def _bounds_entry(bounds, member):
    return {
        "alpha_bar": bounds.alpha_bar,
        "momentum_bar": bounds.momentum_bar,
        "alpha_eval": bounds.alpha_eval,
        "witness": [float(v) for v in bounds.witness],
        "step_terms": bounds.step_terms,
        "momentum_terms": bounds.momentum_terms,
        "configured_member": member,
    }


def cmd_bounds(cfg):
    constants = _constants(cfg)
    hb = conservative_bounds_hb(constants)
    nes = conservative_bounds_nes(constants)
    alpha = cfg.value("solver.alpha", float, hb.alpha_eval)
    beta = cfg.value("solver.beta", float, 0.0)
    gamma = cfg.value("solver.gamma", float, 0.0)
    summary = {
        "constants": {k: getattr(constants, k) for k in ("mu", "L1", "L2", "L3", "rho")},
        "hb": _bounds_entry(hb, region_member_hb(constants, alpha, beta)),
        "nes": _bounds_entry(nes, region_member_nes(constants, alpha, gamma)),
    }
    return summary, {"bounds.json": _json_dump(summary)}, 0


def _grid(cfg, axis, default_max):
    """The region grid along one axis, from region.<axis>_min/_max/_steps."""
    lo = cfg.value(f"region.{axis}_min", float, 1e-4)
    hi = cfg.value(f"region.{axis}_max", float, default_max)
    steps = cfg.value(f"region.{axis}_steps", int, 20)
    if steps < 0:
        raise ConfigError("grid size must be nonnegative", key=f"region.{axis}_steps")
    return np.linspace(lo, hi, steps)


def _region_rows(constants, member_fn, matrix_fn, a_grid, m_grid):
    """(alpha, momentum, member, spectral radius) rows of the grid,
    alpha-major: one matrix stack, whose one eigensolve serves both the
    radius column and membership. The rows come as an iterator over four
    column lists, so the arrays are freed before the row tuples are made."""
    c = constants
    A, M = np.meshgrid(a_grid, m_grid, indexing="ij")
    mat = matrix_fn(c.mu, c.L1, c.L2, c.L3, c.rho, A, M)
    radius = mat.spectral_radius()
    member = member_fn(c, A, M, matrix=mat)
    return zip(*[v.ravel().tolist() for v in (A, M, member, radius)])


def cmd_region(cfg):
    constants = _constants(cfg)
    algorithm = cfg.get("region.algorithm", "dagt_hb")
    if algorithm not in ("dagt_hb", "dagt_nes"):
        raise ConfigError("region.algorithm must be dagt_hb or dagt_nes", key="region.algorithm")
    fns = ((region_member_hb, error_matrix_hb) if algorithm == "dagt_hb"
           else (region_member_nes, error_matrix_nes))
    rows = list(_region_rows(constants, *fns, _grid(cfg, "alpha", 1.0 / constants.L1),
                             _grid(cfg, "momentum", 0.5)))
    summary = {"algorithm": algorithm, "members": sum(1 for r in rows if r[2]), "points": len(rows)}
    files = {"region.csv": csv_text(("alpha", "momentum", "member", "spectral_radius"), rows)}
    return summary, files, 0


def cmd_rates(cfg):
    exp = Experiment(cfg)
    if not _has_exact_rates(exp.problem):
        raise ConfigError("rates requires problem.kind = quadratic", key="problem.kind")
    mu, L1 = exp.problem.constants.mu, exp.problem.constants.L1
    rows, details = [], {}
    code = 0
    for alg in ALGORITHMS:
        alpha, momentum = optimal_params(alg, mu, L1)
        m = 0.0 if momentum is None else momentum
        report = quadratic_rates(exp.problem, exp.graph, alpha, m, alg)
        solver_cfg, trace = exp.run(algorithm=alg, alpha=alpha, beta=m, gamma=m)
        predicted = _per_tick(report.predicted_rate, solver_cfg)
        measured = measured_tail_rate(trace)
        rel = abs(measured - predicted) / predicted
        rows.append((alg, alpha, m, report.reduced_radius, report.rho_graph,
                     predicted, measured, rel))
        details[alg] = {"predicted": predicted, "measured": measured, "rel_error": rel}
        if not trace.converged:
            code = 3
    header = ("algorithm", "alpha", "momentum", "reduced_radius", "rho_graph",
              "predicted_rate", "measured_rate", "rel_error")
    files = {"rates.csv": csv_text(header, rows)}
    return {"per_algorithm": details}, files, code


COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "topology": cmd_topology,
    "robustness": cmd_robustness,
    "bounds": cmd_bounds,
    "region": cmd_region,
    "rates": cmd_rates,
}


def build_config(args):
    raw = {}
    if args.preset:
        raw.update(get_preset(args.preset))
    if args.config:
        try:
            raw.update(load_config(args.config))
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc.strerror}") from None
    for item in args.set or []:
        raw.update(parse_config(item))
    if not raw:
        raise ConfigError("provide --config and/or --preset")
    return ExperimentConfig(raw)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="aggsim",
        description="Distributed aggregative optimization experiments and stability analysis.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a flat key=value config file")
    parser.add_argument("--preset", choices=preset_names(), help="built-in experiment preset")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a config key (repeatable)"
    )
    parser.add_argument(
        "--dump-config", action="store_true", help="print the effective config and exit"
    )
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args)
        if args.dump_config:
            sys.stdout.write(serialize_config(cfg.raw))
            return 0
        summary, files, code = COMMANDS[args.command](cfg)
    except (ConfigError, InvalidArgument) as exc:
        # every object a command builds comes from the config, so a
        # violated precondition is a rejected configuration
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceDetected, InconsistentResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # summaries list dir-relative names so byte-identical reruns stay
    # byte-identical regardless of the output location
    summary["outputs"] = list(files)
    files["summary.json"] = _json_dump(summary)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    print(files["summary.json"], end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
