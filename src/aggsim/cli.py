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

from .config import ExperimentConfig, keyed, load_config, parse_config, serialize_config
from .exceptions import (
    ConfigError,
    DivergenceDetected,
    InconsistentResult,
    InvalidArgument,
)
from .graph import build_topology
from .presets import get_preset, preset_names
from .solver import ALGORITHMS, CommChannel, csv_text, run as run_solver
from .stability import (
    StabilityConstants,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    error_matrix_nes,
    quadratic_rates,
    region_member_hb,
    region_member_nes,
    tuned_point,
)

TAIL_FRACTION = 0.2
TAIL_MIN_POINTS = 30


def measured_tail_rate(trace):
    """Per-iteration contraction factor fitted on the trace tail.

    Least-squares slope of log10 RMS state residual over the final
    TAIL_FRACTION of pre-threshold iterations (at least TAIL_MIN_POINTS
    when available); returns 10**slope, or nan if too few usable points.
    """
    r = np.asarray(trace.residual_msq, dtype=float)
    k = np.arange(r.size, dtype=float)  # the tick of every row
    ok = np.isfinite(r) & (r > 1e-280)
    idx = np.nonzero(ok)[0]
    if idx.size < 3:
        return float("nan")
    n_tail = max(TAIL_MIN_POINTS, math.ceil(TAIL_FRACTION * idx.size))
    sel = idx[-min(n_tail, idx.size):]
    slope = np.polyfit(k[sel], 0.5 * np.log10(r[sel]), 1)[0]
    return float(10.0**slope)


def _strict(obj):
    """obj with None for every float that is not finite: strict JSON has no
    NaN or Infinity, so such a value is written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _json_dump(obj):
    return json.dumps(_strict(obj), indent=2, sort_keys=True) + "\n"


def _has_exact_rates(problem):
    """The exact-rate matrices model scalar states whose curvature does not
    depend on the aggregate (b = e = 0): the quadratic family."""
    return problem.b == 0 and problem.e == 0 and problem.local_dim == 1


def _outcome(trace):
    return {"iterations": len(trace) - 1, "converged": bool(trace.converged)}


class Experiment:
    """The problem, graph, start point and noise of one config, built
    once; each run varies only the solver config (and maybe the graph or
    the noise level), and the first solves the problem's ground truth.

    The experiment is where noisy channels are built: solver.noise_sigma
    and solver.seed are read here, once. Noisy runs on one graph with one
    noise_sigma share a CommChannel, so the command draws their noise
    stream once and every run replays it. The channels, and the noise they record, live as
    long as the experiment: one command.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.problem, self.graph = cfg.build_problem_and_graph()
        self.x0, self.x_prev = cfg.build_x0(self.problem)
        self.noise_sigma, self.seed = cfg["solver.noise_sigma"], cfg["solver.seed"]
        self._channels = {}

    def run(self, graph=None, noise_sigma=None, diagnostics=True, **overrides):
        """One run at the config's solver settings, with overrides; graph
        and noise_sigma default to the experiment's, diagnostics to solver.run's."""
        solver_cfg = self.cfg.build_solver_config(**overrides)
        graph = self.graph if graph is None else graph
        noise_sigma = self.noise_sigma if noise_sigma is None else noise_sigma
        if noise_sigma != 0:
            # each channel holds its graph, so no other graph takes its id
            key = (id(graph), noise_sigma)
            if key not in self._channels:
                self._channels[key] = CommChannel(graph, noise_sigma, self.seed)
            graph = self._channels[key]
        with keyed("problem.*"):  # x* at the first run, even an outcome-only one
            self.problem.ground_truth
        return solver_cfg, run_solver(self.problem, graph, solver_cfg, self.x0,
                                      x_minus1=self.x_prev, diagnostics=diagnostics)


def _run_summary(exp, solver_cfg, trace):
    problem, graph, oracle = exp.problem, exp.graph, exp.problem.ground_truth
    summary = {
        "algorithm": solver_cfg.algorithm,
        "alpha": solver_cfg.alpha,
        "momentum": solver_cfg.momentum,
        **_outcome(trace),
        "stop_reason": trace.stop_reason,
        "final_grad_norm": trace.grad_norm[-1],
        "final_residual_msq": trace.residual_msq[-1],
        "final_obj_gap": trace.obj_gap[-1],
        "final_u_mean": [float(v) for v in trace.final_state.u.mean(axis=0)],
        "oracle_f_star": oracle.f_star,
        "oracle_method": oracle.method,
        "rho_graph": graph.rho,
        "measured_tail_rate": measured_tail_rate(trace),
        "max_u_mean_err": trace.max_u_mean_err,
        "max_s_mean_err": trace.max_s_mean_err,
    }
    if _has_exact_rates(problem) and exp.noise_sigma == 0:
        report = quadratic_rates(problem, graph, solver_cfg)
        summary["predicted_rate"] = report.predicted_rate
        summary["reduced_radius"] = report.reduced_radius
    return summary


def cmd_run(cfg):
    exp = Experiment(cfg)
    solver_cfg, trace = exp.run()
    files = {"trace.csv": trace.to_csv()}
    summary = _run_summary(exp, solver_cfg, trace)
    if cfg["output.export_graph"]:
        files["weights.csv"] = exp.graph.weights_csv()
    if cfg["run.compare"]:
        rows = []
        for alg in ALGORITHMS:
            atrace = trace if alg == solver_cfg.algorithm else exp.run(algorithm=alg)[1]
            rows += [(alg, k, float(r)) for k, r in enumerate(atrace.residual_msq)]
        files["compare.csv"] = csv_text(("algorithm", "iter", "residual"), rows)
    return summary, files, 0


def cmd_sweep(cfg):
    algorithm = cfg["solver.algorithm"]
    if algorithm not in ("dagt_hb", "dagt_nes"):
        raise ConfigError("sweep needs a momentum algorithm", key="solver.algorithm")
    exp = Experiment(cfg)
    rows = []
    for v in cfg["sweep.values"]:
        try:
            trace = exp.run(momentum=v, diagnostics=False)[1]
            rows.append({"momentum": v, **_outcome(trace), "stop_reason": trace.stop_reason})
        except DivergenceDetected as exc:
            rows.append({"momentum": v, "iterations": int(exc.iteration), "converged": False,
                         "stop_reason": "divergence"})
    header = ("momentum", "iterations", "converged", "stop_reason")
    files = {"sweep.csv": csv_text(header, map(dict.values, rows))}
    return {"algorithm": algorithm, "rows": rows}, files, 0


def cmd_topology(cfg):
    exp = Experiment(cfg)
    rows, per_topology = [], {}
    for kind in cfg["topology_compare.kinds"]:
        graph = build_topology(kind, exp.problem.n_agents)
        _, trace = exp.run(graph=graph)
        rows += [(kind, k, float(r)) for k, r in enumerate(trace.residual_msq)]
        per_topology[kind] = {"rho": graph.rho, **_outcome(trace)}
    files = {"topology.csv": csv_text(("topology", "iter", "residual_msq"), rows)}
    return {"per_topology": per_topology}, files, 0


def cmd_robustness(cfg):
    delay, sigma = cfg["robustness.delay_steps"], cfg["robustness.noise_sigma"]
    noise_iters = cfg["robustness.noise_max_iter"]
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
                "iterations": len(trace) - 1,
                "bounded": bool(np.isfinite(res).all()),
                "floor_residual_msq": float(np.median(res[-max(1, len(res) // 10):])),
            }
        except DivergenceDetected as exc:
            summary["noise"][alg] = {"iterations": int(exc.iteration), "bounded": False,
                                     "floor_residual_msq": None}
            code = 3
    return summary, files, code


def _constants(cfg):
    with keyed("problem.*"):  # a problem's own L3 can overflow, as an override can
        c = StabilityConstants.from_problem(*cfg.build_problem_and_graph())
    given = {k: cfg.values[f"bounds.{k}"] for k in vars(c) if f"bounds.{k}" in cfg.values}
    with keyed("bounds.*"):
        return StabilityConstants(**{**vars(c), **given})


def _bounds_entry(bounds, member):
    """The box's fields, its witness as a list, and the configured pair's membership."""
    return {**vars(bounds), "witness": bounds.witness.tolist(), "configured_member": member}


def cmd_bounds(cfg):
    constants = _constants(cfg)
    with keyed("bounds.*"):  # the constants' box can be empty, as at L2 = 0
        hb, nes = conservative_bounds_hb(constants), conservative_bounds_nes(constants)
    alpha = cfg.values.get("solver.alpha", hb.alpha_eval)
    beta, gamma = cfg["solver.beta"], cfg["solver.gamma"]
    with keyed("solver.*"):  # the constants pass, so only the configured pair can overflow
        hb_member = region_member_hb(constants, alpha, beta)
        nes_member = region_member_nes(constants, alpha, gamma)
    summary = {
        "constants": vars(constants),
        "hb": _bounds_entry(hb, hb_member),
        "nes": _bounds_entry(nes, nes_member),
    }
    return summary, {"bounds.json": _json_dump(summary)}, 0


# grid points per region slab: a slab's ~40 live arrays of this length fit in L2
REGION_SLAB = 2048


def _region_csv(constants, member_fn, matrix_fn, a_grid, m_grid):
    """region.csv of the grid, alpha-major, as a list of pieces (the header
    line, then one piece of whole lines per slab), and its member count.

    The flattened grid is walked in slabs of REGION_SLAB points, so no
    array but the radius and member columns (9 bytes a point, allocated
    first: a grid too large to hold fails before any work) grows with the
    grid. Each slab is one matrix stack, whose characteristic coefficients,
    read off its entries once, serve both membership and the radius. Every
    kernel works point by point, so a slab has the bits of the whole grid.
    The pieces are never joined: `main` writes them one by one. Joined, they
    are csv_text's text: each axis value is formatted once and every row
    joins the two axis strings, the member flag and the radius."""
    c = constants
    n_m = m_grid.size
    radius = np.empty((a_grid.size, n_m))
    member = np.empty(radius.shape, dtype=bool)
    flat_radius, flat_member = radius.reshape(-1), member.reshape(-1)
    a_text = [f"{a}," for a in a_grid.tolist()]
    m_text = [f"{m}," for m in m_grid.tolist()]
    flags = ("False,", "True,")
    chunks = ["alpha,momentum,member,spectral_radius\n"]
    for lo in range(0, radius.size, REGION_SLAB):
        hi = min(lo + REGION_SLAB, radius.size)
        rows, cols = np.divmod(np.arange(lo, hi), n_m)
        A, M = a_grid[rows], m_grid[cols]
        mat = matrix_fn(c.mu, c.L1, c.L2, c.L3, c.rho, A, M)
        flat_radius[lo:hi] = mat.spectral_radius()
        flat_member[lo:hi] = member_fn(c, A, M, matrix=mat)
        del mat
        # the slab's part of each alpha row, the row split only at a slab border
        prefixes = [a_text[i] + m for i in range(lo // n_m, (hi - 1) // n_m + 1)
                    for m in m_text[max(lo - i * n_m, 0):hi - i * n_m]]
        # the empty last line gives the slab's final newline without another copy of its text
        chunks.append("\n".join([p + flags[f] + str(r) for p, f, r in zip(
            prefixes, flat_member[lo:hi].tolist(), flat_radius[lo:hi].tolist())] + [""]))
    return chunks, int(member.sum())


def cmd_region(cfg):
    constants = _constants(cfg)
    algorithm = cfg["region.algorithm"]
    fns = ((region_member_hb, error_matrix_hb) if algorithm == "dagt_hb"
           else (region_member_nes, error_matrix_nes))
    a_grid, m_grid = cfg.grid("alpha", 1.0 / constants.L1), cfg.grid("momentum")
    with keyed("region.*"):  # the constants pass, so only a grid point can overflow
        pieces, members = _region_csv(constants, *fns, a_grid, m_grid)
    summary = {"algorithm": algorithm, "members": members, "points": a_grid.size * m_grid.size}
    return summary, {"region.csv": pieces}, 0


def cmd_rates(cfg):
    exp = Experiment(cfg)
    if not _has_exact_rates(exp.problem):
        raise ConfigError("rates requires problem.kind = quadratic", key="problem.kind")
    mu, L1 = exp.problem.constants.mu, exp.problem.constants.L1
    with keyed("problem.c"):  # every tuned point is checked before the first run
        tuned = {alg: tuned_point(alg, mu, L1) for alg in ALGORITHMS}
    rows, details = [], {}
    code = 0
    for alg, point in tuned.items():
        solver_cfg, trace = exp.run(algorithm=alg, alpha=point.alpha, momentum=point.momentum)
        report = quadratic_rates(exp.problem, exp.graph, solver_cfg)
        predicted, measured = report.predicted_rate, measured_tail_rate(trace)
        # a relative error to a zero prediction is undefined
        rel = abs(measured - predicted) / predicted if predicted else math.nan
        rows.append((alg, point.alpha, point.momentum, report.reduced_radius, report.rho_graph,
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
    except (ConfigError, InvalidArgument, MemoryError) as exc:
        # every object a command builds comes from the config, so a violated
        # precondition or a size numpy cannot allocate is a rejected configuration
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
        # a file given as a list of pieces is written piece by piece, never joined
        with (out / name).open("w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
    print(files["summary.json"], end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
