"""Experiment harness: config-driven runs with CSV traces and JSON summaries.

Commands: run, sweep, topology, robustness, bounds, region, rates.
Every command takes --config or --preset (plus repeatable --set overrides)
and writes machine-readable outputs under --out. Exit codes: 0 success,
2 config error, 3 divergence or demanded convergence not reached.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, convert, load_config, parse_config, serialize_config
from .exceptions import ConfigError, DivergenceDetected, InvalidArgument, NotConverged
from .graph import build_topology
from .oracle import solve
from .presets import get_preset, preset_names
from .solver import ALGORITHMS, run as run_solver
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


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    # summaries list dir-relative names so byte-identical reruns stay
    # byte-identical regardless of the output location
    return name


def _json_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def _has_exact_rates(problem):
    """The exact-rate matrices model scalar states whose curvature does not
    depend on the aggregate (b = e = 0): the quadratic family."""
    return problem.b == 0 and problem.e == 0 and problem.local_dim == 1


def _single_run(cfg, algorithm=None, **overrides):
    problem = cfg.build_problem()
    graph = cfg.build_graph()
    solver_cfg = cfg.build_solver_config(algorithm=algorithm, **overrides)
    x0, x_prev = cfg.build_x0(problem)
    oracle = solve(problem)
    trace = run_solver(problem, graph, solver_cfg, x0, x_minus1=x_prev, oracle_solution=oracle)
    return problem, graph, solver_cfg, oracle, trace


def _run_summary(problem, graph, solver_cfg, oracle, trace):
    final = trace.final_state
    u_mean = final.u.mean(axis=0)
    summary = {
        "algorithm": solver_cfg.algorithm,
        "alpha": solver_cfg.alpha,
        "momentum": solver_cfg.momentum,
        "iterations": int(trace.k[-1]),
        "converged": bool(trace.converged),
        "final_grad_norm": trace.grad_norm[-1],
        "final_residual_msq": trace.residual_msq[-1],
        "final_obj_gap": trace.obj_gap[-1],
        "final_u_mean": [float(v) for v in u_mean],
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
        summary["predicted_rate"] = report.predicted_rate
        summary["reduced_radius"] = report.reduced_radius
    return summary


def cmd_run(cfg, out_dir):
    problem, graph, solver_cfg, oracle, trace = _single_run(cfg)
    outputs = [_write(out_dir, "trace.csv", trace.to_csv())]
    summary = _run_summary(problem, graph, solver_cfg, oracle, trace)
    if cfg.get("output.export_graph", False):
        outputs.append(_write(out_dir, "weights.csv", graph.weights_csv()))
    if cfg.get("run.compare", False):
        rows = []
        for alg in ALGORITHMS:
            _, _, acfg, _, atrace = _single_run(cfg, algorithm=alg)
            rows += [(alg, int(k), float(r)) for k, r in zip(atrace.k, atrace.residual_msq)]
        outputs.append(_write(out_dir, "compare.csv", _csv(("algorithm", "iter", "residual"), rows)))
    summary["outputs"] = outputs
    _write(out_dir, "summary.json", _json_dump(summary))
    return summary, 0


def cmd_sweep(cfg, out_dir):
    values = cfg.get("sweep.values", [])
    if values in ("", None):
        values = []
    if not isinstance(values, list):
        values = [values]
    algorithm = cfg.get("solver.algorithm", "dagt_hb")
    if algorithm not in ("dagt_hb", "dagt_nes"):
        raise ConfigError("sweep needs a momentum algorithm", key="solver.algorithm")
    rows = []
    for v in (convert(float, v, "sweep.values") for v in values):
        try:
            # the algorithm's config keeps the parameter it uses
            _, _, scfg, _, trace = _single_run(cfg, beta=v, gamma=v)
            rows.append((v, int(trace.k[-1]), bool(trace.converged)))
        except DivergenceDetected as exc:
            rows.append((v, int(exc.iteration), False))
    outputs = [_write(out_dir, "sweep.csv", _csv(("momentum", "iterations", "converged"), rows))]
    summary = {
        "algorithm": algorithm,
        "rows": [{"momentum": m, "iterations": i, "converged": c} for m, i, c in rows],
        "outputs": outputs,
    }
    _write(out_dir, "summary.json", _json_dump(summary))
    return summary, 0


def cmd_topology(cfg, out_dir):
    kinds = cfg.get("topology_compare.kinds", ["star", "ring", "complete"])
    if not isinstance(kinds, list):
        kinds = [kinds]
    allowed = {"star", "ring", "complete"}
    bad = [k for k in kinds if k not in allowed]
    if bad:
        raise ConfigError(f"unsupported topology kinds {bad}", key="topology_compare.kinds")
    problem = cfg.build_problem()
    solver_cfg = cfg.build_solver_config()
    x0, x_prev = cfg.build_x0(problem)
    oracle = solve(problem)
    rows, per_topology = [], {}
    for kind in kinds:
        graph = build_topology(kind, problem.n_agents)
        trace = run_solver(problem, graph, solver_cfg, x0, x_minus1=x_prev, oracle_solution=oracle)
        rows += [(kind, int(k), float(r)) for k, r in zip(trace.k, trace.residual_msq)]
        per_topology[kind] = {
            "rho": graph.rho,
            "iterations": int(trace.k[-1]),
            "converged": bool(trace.converged),
        }
    outputs = [_write(out_dir, "topology.csv", _csv(("topology", "iter", "residual_msq"), rows))]
    summary = {"per_topology": per_topology, "outputs": outputs}
    _write(out_dir, "summary.json", _json_dump(summary))
    return summary, 0


def cmd_robustness(cfg, out_dir):
    delay = cfg.value("robustness.delay_steps", int, 2)
    sigma = cfg.value("robustness.noise_sigma", float, 0.001)
    noise_iters = cfg.value("robustness.noise_max_iter", int, 10000)
    outputs, summary = [], {"delay": {}, "noise": {}}
    for alg in ALGORITHMS:
        _, _, scfg, _, trace = _single_run(cfg, algorithm=alg, delay_steps=delay)
        outputs.append(_write(out_dir, f"robustness_delay_{alg}.csv", trace.to_csv()))
        summary["delay"][alg] = {
            "iterations": int(trace.k[-1]),
            "converged": bool(trace.converged),
            "final_grad_norm": trace.grad_norm[-1],
        }
        _, _, scfg, _, trace = _single_run(
            cfg, algorithm=alg, noise_sigma=sigma, max_iter=noise_iters, tol=0.0
        )
        outputs.append(_write(out_dir, f"robustness_noise_{alg}.csv", trace.to_csv()))
        res = np.asarray(trace.residual_msq)
        summary["noise"][alg] = {
            "iterations": int(trace.k[-1]),
            "bounded": bool(np.isfinite(res).all()),
            "floor_residual_msq": float(np.median(res[-max(1, len(res) // 10):])),
        }
    summary["delay_steps"] = delay
    summary["noise_sigma"] = sigma
    summary["outputs"] = outputs
    _write(out_dir, "summary.json", _json_dump(summary))
    return summary, 0


def _constants(cfg):
    problem = cfg.build_problem()
    graph = cfg.build_graph()
    c = StabilityConstants.from_problem(problem, graph)
    overrides = {k: f"bounds.{k}" for k in ("mu", "L1", "L2", "L3", "rho")}
    vals = {k: cfg.value(key, float, getattr(c, k)) for k, key in overrides.items()}
    return StabilityConstants(**vals), problem, graph


def cmd_bounds(cfg, out_dir):
    constants, problem, graph = _constants(cfg)
    hb = conservative_bounds_hb(constants)
    nes = conservative_bounds_nes(constants)
    alpha = cfg.value("solver.alpha", float, hb.alpha_eval)
    beta = cfg.value("solver.beta", float, 0.0)
    gamma = cfg.value("solver.gamma", float, 0.0)
    summary = {
        "constants": {k: getattr(constants, k) for k in ("mu", "L1", "L2", "L3", "rho")},
        "hb": {
            "alpha_bar": hb.alpha_bar,
            "momentum_bar": hb.momentum_bar,
            "alpha_eval": hb.alpha_eval,
            "witness": [float(v) for v in hb.witness],
            "step_terms": hb.step_terms,
            "momentum_terms": hb.momentum_terms,
            "configured_member": region_member_hb(constants, alpha, beta),
        },
        "nes": {
            "alpha_bar": nes.alpha_bar,
            "momentum_bar": nes.momentum_bar,
            "alpha_eval": nes.alpha_eval,
            "witness": [float(v) for v in nes.witness],
            "step_terms": nes.step_terms,
            "momentum_terms": nes.momentum_terms,
            "configured_member": region_member_nes(constants, alpha, gamma),
        },
    }
    outputs = [_write(out_dir, "bounds.json", _json_dump(summary))]
    summary["outputs"] = outputs
    return summary, 0


def _grid(cfg, axis, default_max):
    """The region grid along one axis, from region.<axis>_min/_max/_steps."""
    lo = cfg.value(f"region.{axis}_min", float, 1e-4)
    hi = cfg.value(f"region.{axis}_max", float, default_max)
    steps = cfg.value(f"region.{axis}_steps", int, 20)
    if steps < 0:
        raise ConfigError("grid size must be nonnegative", key=f"region.{axis}_steps")
    return np.linspace(lo, hi, steps)


def cmd_region(cfg, out_dir):
    constants, _, _ = _constants(cfg)
    algorithm = cfg.get("region.algorithm", "dagt_hb")
    member_fn = {"dagt_hb": region_member_hb, "dagt_nes": region_member_nes}.get(algorithm)
    if member_fn is None:
        raise ConfigError("region.algorithm must be dagt_hb or dagt_nes", key="region.algorithm")
    matrix_fn = error_matrix_hb if algorithm == "dagt_hb" else error_matrix_nes
    a_grid = _grid(cfg, "alpha", 1.0 / constants.L1)
    m_grid = _grid(cfg, "momentum", 0.5)
    rows = []
    for a in a_grid:
        for m in m_grid:
            mat = matrix_fn(constants.mu, constants.L1, constants.L2, constants.L3,
                            constants.rho, a, m)
            rows.append((float(a), float(m), member_fn(constants, a, m), mat.spectral_radius()))
    outputs = [
        _write(out_dir, "region.csv", _csv(("alpha", "momentum", "member", "spectral_radius"), rows))
    ]
    summary = {
        "algorithm": algorithm,
        "members": sum(1 for r in rows if r[2]),
        "points": len(rows),
        "outputs": outputs,
    }
    _write(out_dir, "summary.json", _json_dump(summary))
    return summary, 0


def cmd_rates(cfg, out_dir):
    problem = cfg.build_problem()
    if not _has_exact_rates(problem):
        raise ConfigError("rates requires problem.kind = quadratic", key="problem.kind")
    graph = cfg.build_graph()
    x0, x_prev = cfg.build_x0(problem)
    oracle = solve(problem)
    mu, L1 = problem.constants.mu, problem.constants.L1
    rows, details = [], {}
    code = 0
    for alg in ALGORITHMS:
        alpha, momentum = optimal_params(alg, mu, L1)
        m = 0.0 if momentum is None else momentum
        report = quadratic_rates(problem, graph, alpha, m, alg)
        scfg = cfg.build_solver_config(algorithm=alg, alpha=alpha, beta=m, gamma=m)
        trace = run_solver(problem, graph, scfg, x0, x_minus1=x_prev, oracle_solution=oracle)
        measured = measured_tail_rate(trace)
        rel = abs(measured - report.predicted_rate) / report.predicted_rate
        rows.append((alg, alpha, m, report.reduced_radius, report.rho_graph,
                     report.predicted_rate, measured, rel))
        details[alg] = {"predicted": report.predicted_rate, "measured": measured, "rel_error": rel}
        if not trace.converged:
            code = 3
    outputs = [
        _write(
            out_dir, "rates.csv",
            _csv(("algorithm", "alpha", "momentum", "reduced_radius", "rho_graph",
                  "predicted_rate", "measured_rate", "rel_error"), rows),
        )
    ]
    summary = {"per_algorithm": details, "outputs": outputs}
    _write(out_dir, "summary.json", _json_dump(summary))
    return summary, code


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
        summary, code = COMMANDS[args.command](cfg, args.out)
    except (ConfigError, InvalidArgument) as exc:
        # every object a command builds comes from the config, so a
        # violated precondition is a rejected configuration
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceDetected, NotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(_json_dump(summary), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
