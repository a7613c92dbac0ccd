import contextlib
import io
import json
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aggsim.cli as cli
import aggsim.oracle as oracle
import aggsim.stability as stability
from aggsim.cli import main, measured_tail_rate
from aggsim.config import KEYS, ExperimentConfig, serialize_config
from aggsim.graph import CommGraph
from aggsim.presets import get_preset
from aggsim.solver import TRACE_COLUMNS, SolverConfig, csv_text
from aggsim.stability import StabilityConstants

from test_config import bad_values
from test_stability import reference_region_csv


def assert_same_lines(text, expected):
    """text == expected, reported as the two line counts or as the first
    differing line and its two rows: pytest's diff of two long strings
    can take minutes."""
    ours, theirs = text.split("\n"), expected.split("\n")
    assert len(ours) == len(theirs), f"{len(ours)} lines, expected {len(theirs)}"
    first = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), None)
    assert first is None, f"line {first}: {ours[first]!r}, expected {theirs[first]!r}"


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# quadratic-demo with mu = 1e-320: 3 L1 / mu overflows the tuned Nesterov momentum
TINY_MU = f"problem.c=1e-320,{','.join(['1'] * 7)}"
# mu = L1 = 6e307: (sqrt(L1) + sqrt(mu))^2 overflows though mu + L1 does not
HB_STEP_OVERFLOW = f"problem.c={','.join(['6e307'] * 8)}"
# quadratic-demo with L3 = max h = 1e120: the problem's own L3 (1 + L3)^2 overflows
HUGE_H = f"problem.h={','.join(['1e120'] * 8)}"
# (key, lo, hi) of each range given with lo > hi
REVERSED_RANGES = (("problem.kappa_range", 2, 1), ("problem.theta_range", 20, 10),
                   ("problem.sigma_range", 5, -5), ("init.x0_range", 1, 0))


def reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which strict JSON parsers reject")


def run_cli(*args):
    """main(args); every summary.json it writes must parse as strict JSON."""
    code = main(list(args))
    if "--out" in args:
        summary = Path(args[args.index("--out") + 1]) / "summary.json"
        if summary.is_file():
            json.loads(summary.read_text(), parse_constant=reject_constant)
    return code


def test_run_quadratic_demo(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "--preset", "quadratic-demo", "--out", str(out)) == 0
    header, rows = read_csv(out / "trace.csv")
    assert tuple(header) == TRACE_COLUMNS
    assert len(rows) >= 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["stop_reason"] == "tolerance"
    assert summary["predicted_rate"] == pytest.approx(0.8, abs=1e-9)
    assert abs(summary["measured_tail_rate"] - 0.8) / 0.8 < 0.05


def test_predicted_rate_is_per_tick_under_delay(tmp_path):
    # a communication round takes delay_steps + 1 ticks, and the trace is per tick
    out = tmp_path / "o"
    sets = ["--set", "solver.delay_steps=2"]
    assert run_cli("run", "--preset", "quadratic-demo", *sets, "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["predicted_rate"] == pytest.approx(0.8 ** (1 / 3), rel=1e-12)
    # criterion 08's tolerance
    assert abs(summary["measured_tail_rate"] / summary["predicted_rate"] - 1) < 0.05
    assert run_cli("rates", "--preset", "quadratic-demo", *sets, "--out", str(out / "r")) == 0
    summary = json.loads((out / "r" / "summary.json").read_text())
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        assert summary["per_algorithm"][alg]["rel_error"] < 0.05


@pytest.mark.parametrize("delay", [0, 1])
def test_rates_and_run_describe_one_iteration(tmp_path, delay):
    # run at an algorithm's tuned point writes that algorithm's rates.csv row
    delay_set = ["--set", f"solver.delay_steps={delay}"]
    assert run_cli("rates", "--preset", "quadratic-demo", *delay_set, "--out", str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "rates.csv")
    constants = ExperimentConfig(get_preset("quadratic-demo")).build_problem().constants
    for row in rows:
        alg = row[0]
        alpha, momentum = stability.tuned_point(alg, constants.mu, constants.L1)[:2]
        sets = [f"solver.algorithm={alg}", f"solver.alpha={alpha!r}",
                f"solver.beta={momentum!r}", f"solver.gamma={momentum!r}"]
        args = [arg for kv in sets for arg in ("--set", kv)] + delay_set
        out = tmp_path / alg
        assert run_cli("run", "--preset", "quadratic-demo", *args, "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        for key, column in (("predicted_rate", "predicted_rate"),
                            ("reduced_radius", "reduced_radius"),
                            ("measured_tail_rate", "measured_rate")):
            assert summary[key] == float(row[header.index(column)]), (alg, key)


@pytest.mark.parametrize("algorithm", ["dagt", "dagt_hb", "dagt_nes"])
def test_placement_objective_gap_nonnegative(tmp_path, algorithm):
    # the gap is (x - x*).H(x - x*) / 2 from the quadratic model; F(x) - f*
    # cancels at the size of F = 95.2 and dips below zero near x*
    out = tmp_path / "o"
    sets = ["--set", f"solver.algorithm={algorithm}"]
    assert run_cli("run", "--preset", "placement-paper", *sets, "--out", str(out)) == 0
    header, rows = read_csv(out / "trace.csv")
    gaps = [float(row[header.index("obj_gap")]) for row in rows]
    assert min(gaps) >= 0.0
    cfg = ExperimentConfig(get_preset("placement-paper"))
    problem = cfg.build_problem()
    x0, _ = cfg.build_x0(problem)
    f_star = json.loads((out / "summary.json").read_text())["oracle_f_star"]
    assert gaps[0] == pytest.approx(problem.objective(x0) - f_star, rel=1e-12)


def test_run_placement_preset_final_aggregate(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "--preset", "placement-paper", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert abs(summary["final_u_mean"][0] - 4.8) < 1e-3
    assert abs(summary["final_u_mean"][1] - 6.6) < 1e-3


def test_run_cournot_preset_converges(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "--preset", "cournot-paper", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["final_grad_norm"] < 1e-6
    assert (summary["alpha"], summary["momentum"]) == (0.003, 0.006)


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--preset", "quadratic-demo", "--out", str(a))
    run_cli("run", "--preset", "quadratic-demo", "--out", str(b))
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_run_max_iter_zero_flags_not_converged(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--preset", "quadratic-demo", "--set", "solver.max_iter = 0", "--out", str(out)
    )
    assert code == 0
    header, rows = read_csv(out / "trace.csv")
    assert len(rows) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["converged"]
    assert summary["stop_reason"] == "budget"


def test_run_exports_graph_on_request(tmp_path):
    out = tmp_path / "o"
    run_cli(
        "run", "--preset", "quadratic-demo", "--set", "output.export_graph = true",
        "--out", str(out),
    )
    w = np.array([[float(v) for v in row] for _, row in
                  ((None, line.split(",")) for line in (out / "weights.csv").read_text().strip().split("\n"))])
    assert w.shape == (8, 8)
    assert np.abs(w.sum(axis=1) - 1).max() < 1e-12


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.kind = unknown_kind\n")
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("command,preset,overrides", [
    pytest.param("run", "placement-paper", ["solver.alpha=abc"], id="alpha-abc"),
    pytest.param("run", "placement-paper", ["topology.n_agents=7"], id="agent-count-mismatch"),
    # a problem and a graph of different agent counts, in every command
    pytest.param("rates", "quadratic-demo", ["topology.n_agents=3"], id="rates-fewer-agents"),
    pytest.param("rates", "quadratic-demo", ["problem.c=1,2", "problem.h=1,1", "problem.l=0,0"],
                 id="rates-two-entry-problem"),
    pytest.param("bounds", "cournot-paper", ["topology.n_agents=3"], id="bounds-fewer-agents"),
    pytest.param("region", "cournot-paper", ["topology.n_agents=5"], id="region-fewer-agents"),
    pytest.param("sweep", "placement-paper", ["topology.n_agents=7", "sweep.values=0.1"],
                 id="sweep-more-agents"),
    pytest.param("topology", "placement-paper", ["topology.n_agents=4"],
                 id="topology-fewer-agents"),
    pytest.param("robustness", "quadratic-demo", ["topology.n_agents=9"],
                 id="robustness-more-agents"),
    pytest.param("run", "placement-paper", ["solver.alpha=nan"], id="alpha-nan"),
    pytest.param("run", "placement-paper", ["solver.alpha=inf"], id="alpha-inf"),
    pytest.param("run", "quadratic-demo", ["solver.tol=nan"], id="tol-nan"),
    pytest.param("run", "quadratic-demo", ["topology.kind=random", "topology.edge_prob=1e-9"],
                 id="unconnectable-random-graph"),
    # alpha_bar is 0 because L2 = 0: the conservative box is empty
    pytest.param("bounds", "quadratic-demo", [], id="bounds-quadratic-demo"),
    # ranges hold exactly two entries, grid sizes are nonnegative
    pytest.param("run", "cournot-paper", ["problem.kappa_range=3"], id="one-entry-kappa-range"),
    pytest.param("run", "cournot-paper", ["problem.theta_range=5"], id="one-entry-theta-range"),
    pytest.param("run", "cournot-paper", ["init.x0_range=1"], id="one-entry-x0-range"),
    pytest.param("run", "cournot-paper", ["init.x0_range=1,2,3"], id="three-entry-x0-range"),
    pytest.param("region", "placement-paper", ["region.alpha_steps=-1"], id="negative-grid-size"),
    pytest.param("sweep", "cournot-paper", ["solver.algorithm=sgd"], id="sweep-unknown-algorithm"),
    # an integer key whose value overflows int()
    pytest.param("run", "quadratic-demo", ["solver.max_iter=1e400"], id="max-iter-overflow"),
    pytest.param("run", "quadratic-demo", ["solver.max_iter=-1e400"], id="max-iter-underflow"),
    pytest.param("run", "quadratic-demo", ["topology.n_agents=1e400"], id="n-agents-overflow"),
    pytest.param("region", "quadratic-demo", ["region.alpha_steps=1e400"], id="grid-size-overflow"),
    # numpy rejects negative seeds
    pytest.param("run", "cournot-paper", ["problem.seed=-5"], id="negative-problem-seed"),
    pytest.param("run", "cournot-paper", ["init.seed=-1"], id="negative-init-seed"),
    pytest.param("run", "quadratic-demo", ["topology.seed=-1"], id="negative-topology-seed"),
    pytest.param("run", "quadratic-demo", ["solver.noise_sigma=0.01", "solver.seed=-1"],
                 id="negative-solver-seed"),
    pytest.param("region", "quadratic-demo", ["region.algorithm=dagt_hb,dagt_nes"],
                 id="region-algorithm-list"),
    # an error matrix entry that overflows to inf
    pytest.param("region", "cournot-paper", ["region.alpha_max=1e308"], id="region-matrix-overflow"),
    pytest.param("bounds", "cournot-paper", ["solver.alpha=1e308"], id="bounds-matrix-overflow"),
    pytest.param("bounds", "placement-paper", ["solver.beta=1e308"],
                 id="bounds-momentum-matrix-overflow"),
    # a constant whose square overflows
    pytest.param("bounds", "placement-paper", ["bounds.L3=1e200"], id="bounds-L3-square-overflow"),
    pytest.param("region", "placement-paper", ["bounds.L3=1e200"], id="region-L3-square-overflow"),
    # L3 (1 + L3)^2 overflows though (1 + L3)^2 does not
    pytest.param("bounds", "placement-paper", ["bounds.L3=1e120"], id="bounds-L3-cube-overflow"),
    pytest.param("region", "placement-paper", ["bounds.L3=1e120"], id="region-L3-cube-overflow"),
    # an integer key is not truncated
    pytest.param("run", "quadratic-demo", ["solver.max_iter=2.7"], id="fractional-max-iter"),
    pytest.param("run", "cournot-paper", ["problem.n_agents=0.5"], id="fractional-n-agents"),
    # a boolean key takes only true or false
    pytest.param("run", "quadratic-demo", ["run.compare=no"], id="compare-not-boolean"),
    pytest.param("run", "quadratic-demo", ["output.export_graph=nope"],
                 id="export-graph-not-boolean"),
    # a range whose width overflows
    *[pytest.param("run", "cournot-paper", [f"problem.{name}=-1e308,1e308"], id=f"{name}-width")
      for name in ("kappa_range", "theta_range", "sigma_range")],
    pytest.param("run", "quadratic-demo", ["init.x0_range=-1e308,1e308"], id="x0_range-width"),
    # a reversed range
    *[pytest.param("run", "cournot-paper", [f"{key}={lo},{hi}"], id=f"{key.split('.')[1]}-reversed")
      for key, lo, hi in REVERSED_RANGES],
    # grid sizes numpy cannot index or allocate; 1e18 floats are refused
    # before anything is allocated
    pytest.param("region", "placement-paper", ["region.alpha_steps=1e308"],
                 id="grid-size-past-index"),
    pytest.param("region", "placement-paper", ["region.alpha_steps=1e18"],
                 id="grid-size-past-memory"),
    # a grid whose linspaces fit but whose radius column numpy cannot allocate
    pytest.param("region", "cournot-paper", ["region.alpha_steps=1000000",
                                             "region.momentum_steps=1000000"],
                 id="region-grid-past-memory"),
    pytest.param("run", "cournot-paper", ["problem.n_agents=1e18", "topology.n_agents=1e18"],
                 id="cournot-count-past-memory"),
    # a linear coefficient that overflows though the Hessian does not
    pytest.param("run", "placement-paper", ["problem.omega=1e307"], id="linear-term-overflow"),
    # no agents, no preset or config, a negative bounds.* constant, and a
    # tuned step size that underflows
    pytest.param("run", "cournot-paper", ["problem.n_agents=0"], id="cournot-zero-agents"),
    pytest.param("run", None, [], id="no-preset-or-config"),
    pytest.param("bounds", "placement-paper", ["bounds.L2=-1"], id="bounds-negative-L2"),
    pytest.param("region", "placement-paper", ["bounds.L2=-1"], id="region-negative-L2"),
    pytest.param("rates", "quadratic-demo", [f"problem.c={','.join(['1e308'] * 8)}"],
                 id="rates-tuned-step-underflow"),
    # a tuned heavy-ball step whose denominator overflows
    pytest.param("rates", "quadratic-demo", [HB_STEP_OVERFLOW], id="rates-tuned-hb-step-overflow"),
    # a tuned Nesterov momentum that is not finite
    pytest.param("rates", "quadratic-demo", [TINY_MU], id="rates-tuned-momentum-not-finite"),
    # a ground truth that overflows: -lin / c at c = 1e-320
    pytest.param("run", "quadratic-demo", [TINY_MU], id="oracle-not-finite"),
    # a finite x* whose gradient norm overflows and whose objective is NaN
    pytest.param("run", "cournot-paper", ["problem.omega1=1e308", "solver.max_iter=3"],
                 id="oracle-not-evaluable"),
    # a momentum grid whose error matrix entries overflow
    pytest.param("region", "placement-paper", ["region.momentum_max=1e308",
                                               "region.momentum_steps=3", "region.alpha_steps=3"],
                 id="region-momentum-overflow"),
    # a problem whose own L3 (1 + L3)^2 overflows
    pytest.param("bounds", "quadratic-demo", [HUGE_H], id="bounds-problem-L3-overflow"),
    pytest.param("region", "quadratic-demo", [HUGE_H], id="region-problem-L3-overflow"),
    # a negative sweep value, after a valid one: rejected before any run
    pytest.param("sweep", "cournot-paper", ["sweep.values=0.5,-0.5"], id="sweep-negative-value"),
    # a repeated topology kind
    pytest.param("topology", "quadratic-demo", ["topology_compare.kinds=ring,ring",
                                                "solver.max_iter=20"], id="topology-repeated-kind"),
])
def test_config_boundary_errors_exit_2(tmp_path, capsys, command, preset, overrides):
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    source = ["--preset", preset] if preset else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(command, *source, *sets, "--out", str(tmp_path / "o"))
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err
    for kv in overrides:
        assert CAUSES.get((command, kv), CAUSES.get(kv, "")) in err


# an overflow or underflow names its cause: the constant, the step size or
# momentum, or L1; a bad bounds.* constant or agent count names its key. A
# (command, override) entry takes precedence over the override's own
CAUSES = {
    "bounds.L3=1e200": "L3 = 1e+200 too large: L3 (1 + L3)^2 overflows (key 'bounds.*')",
    "bounds.L3=1e120": "L3 = 1e+120 too large: L3 (1 + L3)^2 overflows (key 'bounds.*')",
    "region.alpha_max=1e308": "step size or momentum too large (key 'region.*')",
    "region.momentum_max=1e308": "step size or momentum too large (key 'region.*')",
    "solver.alpha=1e308": "step size or momentum too large (key 'solver.*')",
    "solver.beta=1e308": "step size or momentum too large (key 'solver.*')",
    "region.alpha_steps=1000000": "Unable to allocate 7.28 TiB for an array with shape "
                                  "(1000000, 1000000) and data type float64",
    "bounds.L2=-1": "L2 and L3 must be nonnegative (key 'bounds.*')",
    "problem.n_agents=0": "must be at least 1, got 0 (key 'problem.n_agents')",
    f"problem.c={','.join(['1e308'] * 8)}":
        "tuned dagt step size underflows to 0: L1 = 1e+308 too large (key 'problem.c')",
    HB_STEP_OVERFLOW:
        "tuned dagt_hb step size underflows to 0: L1 = 6e+307 too large (key 'problem.c')",
    ("rates", TINY_MU): "tuned dagt_nes momentum is not finite: 3 L1 / mu overflows "
                        "(mu = 1e-320, L1 = 1.0) (key 'problem.c')",
    ("run", TINY_MU): "ground truth x* has a non-finite entry: the Hessian is too close to "
                      "singular (key 'problem.*')",
    "problem.omega1=1e308": "ground truth cannot be evaluated at x*: gradient norm inf, "
                            "objective nan (key 'problem.*')",
    HUGE_H: "L3 = 1e+120 too large: L3 (1 + L3)^2 overflows (key 'problem.*')",
    "sweep.values=0.5,-0.5": "must be at least 0, got -0.5 (key 'sweep.values')",
    "topology_compare.kinds=ring,ring": "repeated choices ['ring', 'ring'] "
                                        "(key 'topology_compare.kinds')",
    **{f"{key}={lo},{hi}": f"range {float(lo)!r} to {float(hi)!r} is reversed: need lo <= hi "
                           f"(key '{key}')"
       for key, lo, hi in REVERSED_RANGES},
}


def test_start_that_is_not_finite_reports_only_its_error(tmp_path, capsys):
    # phi at x0 overflows; the start is checked as a divergence at tick 0,
    # with no float warning on the way
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--preset", "cournot-paper", "--set", "init.x0_range=0,1e308",
                       "--set", "solver.max_iter=3", "--out", str(out))
    assert [str(w.message) for w in caught] == []
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite state at iteration 0\n"
    assert not out.exists()


def test_rates_checks_every_tuned_point_before_any_solve(tmp_path, capsys, monkeypatch):
    # dagt and dagt_hb are tuned fine at mu = 1e-320; the Nesterov point
    # stops the command before the oracle or any run is computed
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the tuned points were checked")

    # problem.ground_truth looks solve up in aggsim.oracle
    monkeypatch.setattr(oracle, "solve", no_solve)
    monkeypatch.setattr(cli, "run_solver", no_solve)
    assert run_cli("rates", "--preset", "quadratic-demo", "--set", TINY_MU,
                   "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {CAUSES['rates', TINY_MU]}\n"
    assert not (tmp_path / "o").exists()


HESSIAN_OVERFLOW = "Hessian has a non-finite entry: a coefficient is too large"


# the config boundary of the run parameters: each case is rejected with
# exit 2 and this exact stderr line, no numpy warning, and writes nothing
@pytest.mark.parametrize("command,preset,overrides,message", [
    pytest.param("run", "quadratic-demo", ["solver.seed=-1"],
                 "must be at least 0, got -1 (key 'solver.seed')", id="seed-at-sigma-0"),
    pytest.param("run", "quadratic-demo", ["solver.noise_sigma=-1"],
                 "must be at least 0, got -1 (key 'solver.noise_sigma')",
                 id="negative-sigma"),
    pytest.param("run", "quadratic-demo", ["solver.noise_sigma=1e400"],
                 "expected a finite float, got inf (key 'solver.noise_sigma')", id="infinite-sigma"),
    # placement-paper runs heavy ball, which does not use solver.gamma
    pytest.param("run", "placement-paper", ["solver.gamma=nanx"],
                 "expected float, got 'nanx' (key 'solver.gamma')", id="unparsable-unused-gamma"),
    pytest.param("run", "placement-paper", ["solver.beta=-1"],
                 "must be at least 0, got -1 (key 'solver.beta')", id="negative-beta"),
    pytest.param("run", "placement-paper", ["solver.algorithm=dagt_nes", "solver.gamma=-1"],
                 "must be at least 0, got -1 (key 'solver.gamma')", id="negative-gamma"),
    pytest.param("sweep", "quadratic-demo", ["solver.algorithm=dagt_hb", "sweep.values=-0.5"],
                 "must be at least 0, got -0.5 (key 'sweep.values')",
                 id="negative-sweep-value"),
    pytest.param("bounds", "cournot-paper", ["topology.n_agents=3"],
                 "graph has 3 agents, problem has 50 (key 'topology.n_agents')",
                 id="agent-count-mismatch"),
    pytest.param("robustness", "quadratic-demo", ["robustness.noise_sigma=-1"],
                 "must be at least 0, got -1 (key 'robustness.noise_sigma')",
                 id="negative-robustness-sigma"),
    # a coefficient whose Hessian entry overflows
    *[pytest.param("run", preset, [kv], f"{HESSIAN_OVERFLOW} (key 'problem.*')", id=kv)
      for preset, kv in (("placement-paper", "problem.omega=1e308"),
                         ("cournot-paper", "problem.omega2=1e308"),
                         ("cournot-paper", "problem.kappa_range=1e308,1e308"))],
    *[pytest.param(command, preset, ["solver.algorithm=1,2"],
                   "expected one of dagt, dagt_hb, dagt_nes, got [1, 2] (key 'solver.algorithm')",
                   id=f"{command}-algorithm-list")
      for command, preset in (("run", "cournot-paper"), ("topology", "placement-paper"))],
    # agent counts numpy cannot allocate are rejected before anything is built
    pytest.param("run", "cournot-paper", ["topology.n_agents=1e308"],
                 f"graph has {int(1e308)} agents, problem has 50 (key 'topology.n_agents')",
                 id="run-graph-count-1e308"),
    pytest.param("rates", "quadratic-demo", ["topology.n_agents=1e308"],
                 f"graph has {int(1e308)} agents, problem has 8 (key 'topology.n_agents')",
                 id="rates-graph-count-1e308"),
    pytest.param("run", "cournot-paper", ["problem.n_agents=1e308"],
                 f"must be at most {np.iinfo(np.intp).max}, got 1e+308 (key 'problem.n_agents')",
                 id="cournot-count-1e308"),
    # the problem's linear term overflows, its Hessian does not
    pytest.param("run", "placement-paper", ["problem.omega=1e307"],
                 "non-finite linear or constant term: a coefficient is too large (key 'problem.*')",
                 id="linear-term-overflow"),
    *[pytest.param(command, preset, [f"{key}=-1e308,1e308"],
                   f"range -1e+308 to 1e+308 is too wide: its width overflows (key '{key}')",
                   id=f"{key}-width")
      for command, preset, key in (("run", "cournot-paper", "problem.kappa_range"),
                                   ("run", "cournot-paper", "problem.theta_range"),
                                   ("run", "cournot-paper", "problem.sigma_range"),
                                   ("run", "quadratic-demo", "init.x0_range"))],
    *[pytest.param("region", "placement-paper", [f"region.{axis}_min=-1e308",
                                                  f"region.{axis}_max=1e308"],
                   f"range -1e+308 to 1e+308 is too wide: its width overflows "
                   f"(key 'region.{axis}_*')", id=f"grid-{axis}-span-width")
      for axis in ("alpha", "momentum")],
    pytest.param("region", "placement-paper", ["region.alpha_steps=1e308"],
                 f"must be at most {np.iinfo(np.intp).max}, got 1e+308 (key 'region.alpha_steps')",
                 id="grid-size-past-index"),
    *[pytest.param("run", "quadratic-demo", [f"{key}={value}"],
                   f"expected true or false, got {value!r} (key '{key}')", id=f"{key}-{value}")
      for key, value in (("run.compare", "no"), ("output.export_graph", "nope"),
                         ("run.compare", 1))],
    # a bounds.* constant is checked as a problem's constants are
    pytest.param("bounds", "placement-paper", ["bounds.mu=100"],
                 "need 0 < mu <= L1, got mu=100.0, L1=42.00000000000003 (key 'bounds.*')",
                 id="bounds-mu-above-L1"),
    # checked before the first run, so a bad noise budget is not found
    # only after the delay runs
    pytest.param("robustness", "quadratic-demo", ["robustness.delay_steps=-1"],
                 "must be at least 0, got -1 (key 'robustness.delay_steps')",
                 id="negative-robustness-delay"),
    pytest.param("robustness", "quadratic-demo", ["robustness.noise_max_iter=-1"],
                 "must be at least 0, got -1 (key 'robustness.noise_max_iter')",
                 id="negative-robustness-noise-budget"),
])
def test_run_parameter_errors_name_their_key(tmp_path, capsys, command, preset, overrides,
                                             message):
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--preset", preset, *sets, "--out", str(out)) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_run_parameters_have_one_owner():
    # the solver config holds the iteration alone, the channel the noise,
    # and a graph is built from its weights alone
    assert [f.name for f in fields(SolverConfig)] == [
        "algorithm", "alpha", "momentum", "max_iter", "tol", "delay_steps"]
    assert [f.name for f in fields(CommGraph) if f.init] == ["weights"]


def test_unseeded_random_topology_exit_2(tmp_path, capsys):
    # an unseeded random graph would make the outputs differ run to run
    raw = get_preset("quadratic-demo")
    del raw["topology.seed"]
    cfg = tmp_path / "unseeded.cfg"
    cfg.write_text(serialize_config(raw))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "topology.seed" in err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "absent.cfg")) == 2
    assert capsys.readouterr().err.startswith("config error:")


MU_EQUALS_L1 = ("0.7", "3.3", "6.1")


@pytest.mark.parametrize("command,preset,overrides", [
    ("run", "quadratic-demo", ["run.compare=true", "output.export_graph=true"]),
    ("sweep", "quadratic-demo", ["solver.algorithm=dagt_hb", "sweep.values=0.0,0.2"]),
    ("topology", "quadratic-demo", []),
    ("robustness", "quadratic-demo", ["robustness.noise_max_iter=50"]),
    ("bounds", "placement-paper", []),
    ("region", "placement-paper", ["region.alpha_steps=3", "region.momentum_steps=3"]),
    ("rates", "quadratic-demo", []),
    # mu = L1, where 3 L1 / mu rounds below 3 (see tuned_point)
    *[("rates", "quadratic-demo", [f"problem.c={','.join([c] * 8)}"]) for c in MU_EQUALS_L1],
], ids=["run", "sweep", "topology", "robustness", "bounds", "region", "rates",
        *[f"rates-mu-equal-L1-{c}" for c in MU_EQUALS_L1]])
def test_printed_summary_equals_written_file(tmp_path, capsys, command, preset, overrides):
    out = tmp_path / "o"
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert run_cli(command, "--preset", preset, *sets, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert printed == (out / "summary.json").read_text()
    assert "summary.json" not in json.loads(printed)["outputs"]


# rho_graph of the 4-ring is 1/3, the tuned heavy-ball radius at these
# parameters: a root that the full matrix's diagonal blocks share
RATES_SHARED_ROOT = [
    "problem.c=4,1,1,1", "problem.h=0.5,0.5,0.5,0.5", "problem.l=0,0,0,0",
    "topology.n_agents=4", "topology.kind=ring", "solver.algorithm=dagt_hb",
    "solver.alpha=0.4444444444444444", "solver.beta=0.1111111111111111",
]


@pytest.mark.parametrize("command", ["run", "rates"])
def test_rates_shared_root_passes_the_gate(tmp_path, command):
    out = tmp_path / "o"
    sets = [arg for kv in RATES_SHARED_ROOT for arg in ("--set", kv)]
    assert run_cli(command, "--preset", "quadratic-demo", *sets, "--out", str(out)) == 0
    if command == "run":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reduced_radius"] == pytest.approx(1 / 3, rel=1e-12)


@pytest.mark.parametrize("command", ["run", "rates"])
def test_rates_gate_disagreement_exits_3(tmp_path, capsys, monkeypatch, command):
    # a reduced radius off by 1e-6 stands in for a full/reduced mismatch
    reduced = stability.quad_reduced_radius
    monkeypatch.setattr(stability, "quad_reduced_radius", lambda *args: reduced(*args) + 1e-6)
    out = tmp_path / "o"
    sets = [arg for kv in RATES_SHARED_ROOT for arg in ("--set", kv)]
    assert run_cli(command, "--preset", "quadratic-demo", *sets, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: full/reduced spectral radii disagree")
    assert "Traceback" not in err
    # outputs are written only once a command completes
    assert not out.exists()


@pytest.mark.parametrize("command,overrides,runs", [
    ("sweep", ["solver.algorithm=dagt_hb", "sweep.values=0.0,0.2"], 2),
    ("robustness", ["robustness.noise_max_iter=50"], 6),
    ("run", ["run.compare=true"], 3),
], ids=["sweep", "robustness", "run-compare"])
def test_one_oracle_solve_per_command(tmp_path, monkeypatch, command, overrides, runs):
    calls = {"solve": 0, "run_solver": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # problem.ground_truth looks solve up in aggsim.oracle
    counted(oracle, "solve")
    counted(cli, "run_solver")
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert run_cli(command, "--preset", "quadratic-demo", *sets, "--out", str(tmp_path / "o")) == 0
    assert calls == {"solve": 1, "run_solver": runs}


def test_divergence_exit_code(tmp_path):
    code = run_cli(
        "run", "--preset", "quadratic-demo", "--set", "solver.alpha = 1000.0",
        "--out", str(tmp_path / "o"),
    )
    assert code == 3


def test_compare_csv_long_format(tmp_path):
    out = tmp_path / "o"
    run_cli("run", "--preset", "quadratic-demo", "--set", "run.compare = true", "--out", str(out))
    header, rows = read_csv(out / "compare.csv")
    assert header == ["algorithm", "iter", "residual"]
    assert {r[0] for r in rows} == {"dagt", "dagt_hb", "dagt_nes"}


def test_sweep_empty_values_header_only(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "sweep", "--preset", "quadratic-demo",
        "--set", "solver.algorithm = dagt_hb", "--set", "sweep.values =",
        "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["momentum", "iterations", "converged", "stop_reason"]
    assert rows == []
    out = tmp_path / "t"
    code = run_cli(
        "topology", "--preset", "quadratic-demo", "--set", "topology_compare.kinds =",
        "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out / "topology.csv")
    assert header == ["topology", "iter", "residual_msq"]
    assert rows == []


def test_sweep_zero_momentum_matches_plain_run(tmp_path):
    out = tmp_path / "o"
    run_cli(
        "sweep", "--preset", "quadratic-demo",
        "--set", "solver.algorithm = dagt_hb", "--set", "sweep.values = 0.0,0.2",
        "--out", str(out),
    )
    _, rows = read_csv(out / "sweep.csv")
    run_cli("run", "--preset", "quadratic-demo", "--set", "solver.algorithm = dagt",
            "--out", str(out / "plain"))
    plain = json.loads((out / "plain" / "summary.json").read_text())
    assert int(rows[0][1]) == plain["iterations"]


def test_sweep_names_each_stop_reason(tmp_path):
    # 0.0 converges, 0.9 runs out of its 300 ticks and 50 overflows at 183
    out = tmp_path / "o"
    assert run_cli(
        "sweep", "--preset", "quadratic-demo", "--set", "solver.algorithm = dagt_hb",
        "--set", "sweep.values = 0.0,0.9,50", "--set", "solver.max_iter = 300",
        "--out", str(out),
    ) == 0
    expected = [["0.0", "135", "True", "tolerance"], ["0.9", "300", "False", "budget"],
                ["50.0", "183", "False", "divergence"]]
    assert read_csv(out / "sweep.csv")[1] == expected
    rows = json.loads((out / "summary.json").read_text())["rows"]
    assert [r["stop_reason"] for r in rows] == ["tolerance", "budget", "divergence"]


def test_sweep_cournot_unimodal_iterations(tmp_path):
    out = tmp_path / "o"
    assert run_cli("sweep", "--preset", "cournot-paper", "--out", str(out)) == 0
    _, rows = read_csv(out / "sweep.csv")
    iters = [int(r[1]) if r[2] == "True" else 10**9 for r in rows]
    # smooth with a 3-point median, then require a single descent/ascent turn
    med = [iters[0]] + [sorted(iters[i - 1:i + 2])[1] for i in range(1, len(iters) - 1)] + [iters[-1]]
    lo = int(np.argmin(med))
    assert 0 < lo < len(med) - 1
    assert all(med[i] >= med[i + 1] for i in range(lo))
    assert all(med[i] <= med[i + 1] for i in range(lo, len(med) - 1))


def test_topology_comparison_placement(tmp_path):
    out = tmp_path / "o"
    assert run_cli("topology", "--preset", "placement-paper", "--out", str(out)) == 0
    header, rows = read_csv(out / "topology.csv")
    assert header == ["topology", "iter", "residual_msq"]
    summary = json.loads((out / "summary.json").read_text())
    per = summary["per_topology"]
    # more interaction, faster convergence; mixing factors descend with it
    assert per["complete"]["iterations"] <= per["ring"]["iterations"] <= per["star"]["iterations"]
    assert per["star"]["rho"] > per["ring"]["rho"] > per["complete"]["rho"]


def test_topology_single_kind_matches_run(tmp_path):
    out = tmp_path / "o"
    run_cli("topology", "--preset", "placement-paper",
            "--set", "topology_compare.kinds = ring", "--out", str(out))
    _, rows = read_csv(out / "topology.csv")
    run_cli("run", "--preset", "placement-paper", "--set", "topology.kind = ring",
            "--out", str(out / "single"))
    _, trace_rows = read_csv(out / "single" / "trace.csv")
    assert len(rows) == len(trace_rows)
    assert [r[2] for r in rows] == [t[1] for t in trace_rows]


def test_topology_rejects_unknown_kind(tmp_path):
    code = run_cli("topology", "--preset", "placement-paper",
                   "--set", "topology_compare.kinds = torus", "--out", str(tmp_path / "o"))
    assert code == 2


def test_robustness_quadratic(tmp_path):
    out = tmp_path / "o"
    assert run_cli(
        "robustness", "--preset", "quadratic-demo",
        "--set", "robustness.noise_max_iter = 1500", "--out", str(out),
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        assert summary["delay"][alg]["converged"]
        assert summary["noise"][alg]["bounded"]
        assert (out / f"robustness_delay_{alg}.csv").exists()
        assert (out / f"robustness_noise_{alg}.csv").exists()


def test_robustness_draws_each_noise_round_once(tmp_path, monkeypatch):
    # the three noisy runs share one channel, so a command draws its
    # noise_max_iter rounds once, not once per algorithm; a second command
    # builds its own channels and draws them afresh
    draws = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, rng):
            self._rng = rng

        def normal(self, *args, **kwargs):
            draws.append(kwargs["size"])
            return self._rng.normal(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: CountingGenerator(default_rng(*a, **k)))
    sets = ["--set", "robustness.noise_max_iter = 50"]
    texts = []
    for name in ("a", "b"):
        draws.clear()
        assert run_cli("robustness", "--preset", "quadratic-demo", *sets,
                       "--out", str(tmp_path / name)) == 0
        assert draws == [(2, 8, 8, 1)] * 50
        texts.append(sorted((p.name, p.read_text()) for p in (tmp_path / name).iterdir()))
    assert texts[0] == texts[1]


def test_bounds_command(tmp_path):
    out = tmp_path / "o"
    assert run_cli("bounds", "--preset", "placement-paper", "--out", str(out)) == 0
    b = json.loads((out / "bounds.json").read_text())
    assert 0 < b["hb"]["alpha_bar"] <= 1 / 42.0 + 1e-12
    assert b["hb"]["momentum_bar"] > 0
    assert 0 < b["nes"]["alpha_bar"] <= 1 / 42.0 + 1e-12
    # same order of magnitude as the reported bound values for this instance
    assert 1e-4 < b["hb"]["alpha_bar"] < 1e-1


def test_region_command_members_are_contractive(tmp_path):
    out = tmp_path / "o"
    assert run_cli(
        "region", "--preset", "placement-paper",
        "--set", "region.alpha_steps = 12", "--set", "region.momentum_steps = 12",
        "--set", "region.momentum_max = 0.2",
        "--out", str(out),
    ) == 0
    header, rows = read_csv(out / "region.csv")
    assert header == ["alpha", "momentum", "member", "spectral_radius"]
    members = [r for r in rows if r[2] == "True"]
    assert members
    assert all(float(r[3]) < 1.0 for r in members)


# momenta that overflow the Jury table (and, for Nesterov, the
# characteristic polynomial) of their unstable polynomials, with finite
# error matrices: no warning is printed, and membership still matches the
# spectral radius
@pytest.mark.parametrize("algorithm,momentum_max", [("dagt_hb", 1e300), ("dagt_nes", 1e150)])
def test_region_with_overflowing_jury_tables_is_quiet(tmp_path, capsys, algorithm,
                                                      momentum_max):
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("region", "--preset", "placement-paper", *[
            arg for kv in (f"region.algorithm={algorithm}", f"region.momentum_max={momentum_max}",
                           "region.momentum_steps=3", "region.alpha_steps=3")
            for arg in ("--set", kv)], "--out", str(out)) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out / "region.csv")
    assert len(rows) == 9
    assert [r[2] == "True" for r in rows] == [float(r[3]) < 1.0 for r in rows]
    assert any(r[2] == "True" for r in rows)


# cournot-paper's default grid has no members, so its grids take the
# benchmark's ranges, which straddle the region boundary
COURNOT_REGION_RANGES = {"dagt_hb": (1e-10, 4e-8, 1e-6, 1e-3), "dagt_nes": (1e-10, 5e-6, 1e-6, 1e-3)}


@pytest.mark.parametrize("algorithm", ["dagt_hb", "dagt_nes"])
@pytest.mark.parametrize("preset", ["placement-paper", "quadratic-demo", "cournot-paper"])
def test_region_csv_matches_per_point_reference(tmp_path, capsys, preset, algorithm):
    cfg = ExperimentConfig(get_preset(preset))
    c = StabilityConstants.from_problem(cfg.build_problem(), cfg.build_graph())
    a_lo, a_hi, m_lo, m_hi = COURNOT_REGION_RANGES[algorithm] if preset == "cournot-paper" else (
        1e-4, 1.0 / c.L1, 1e-4, 0.5)
    sets = {
        "region.algorithm": algorithm, "region.alpha_steps": 30, "region.momentum_steps": 30,
        "region.alpha_min": repr(a_lo), "region.alpha_max": repr(a_hi),
        "region.momentum_min": repr(m_lo), "region.momentum_max": repr(m_hi),
    }
    args = [arg for key, value in sets.items() for arg in ("--set", f"{key}={value}")]
    out = tmp_path / "o"
    assert run_cli("region", "--preset", preset, *args, "--out", str(out)) == 0
    text = (out / "region.csv").read_text()
    assert_same_lines(text, reference_region_csv(c, algorithm, np.linspace(a_lo, a_hi, 30),
                                                 np.linspace(m_lo, m_hi, 30)))
    members = json.loads(capsys.readouterr().out)["members"]
    assert 0 < members == text.count(",True,")


# placement-paper step sizes from 1e-4 to twice 1/mu: past 1/mu entry (1, 1)
# is negative, so those rows take the eigensolve; momenta from below 0
PLACEMENT_REGION_RANGES = (1e-4, 0.05, -1e-3, 0.05)
SLAB = cli.REGION_SLAB


@pytest.mark.parametrize("preset,algorithm,a_steps,m_steps", [
    # the benchmark grids, and their empty and one-point edges
    *[pytest.param("cournot-paper", alg, steps, steps, id=f"{steps}-{alg}")
      for steps in (0, 1, 100) for alg in ("dagt_hb", "dagt_nes")],
    # slab borders: an alpha row longer than a slab, and point counts one
    # below and one above a multiple of the slab (45 x 91 = 2 x 2048 - 1 and
    # 17 x 241 = 2 x 2048 + 1)
    pytest.param("cournot-paper", "dagt_hb", 2, 2 * SLAB + 3, id="row-past-slab-dagt_hb"),
    pytest.param("cournot-paper", "dagt_nes", 45, 91, id="slab-multiple-minus-1-dagt_nes"),
    pytest.param("cournot-paper", "dagt_hb", 17, 241, id="slab-multiple-plus-1-dagt_hb"),
    # the border at two slabs splits row 40, past 1/mu: the eigensolve on both sides
    *[pytest.param("placement-paper", alg, 45, 101, id=f"placement-past-inverse-mu-{alg}")
      for alg in ("dagt_hb", "dagt_nes")],
])
def test_region_csv_matches_csv_text(preset, algorithm, a_steps, m_steps):
    # the region text formats each axis value once and walks the grid in
    # slabs; csv_text of the (alpha, momentum, member, radius) rows of one
    # whole-grid stack is the same text
    a_lo, a_hi, m_lo, m_hi = (COURNOT_REGION_RANGES[algorithm] if preset == "cournot-paper"
                              else PLACEMENT_REGION_RANGES)
    cfg = ExperimentConfig({
        **get_preset(preset), "region.algorithm": algorithm,
        "region.alpha_min": a_lo, "region.alpha_max": a_hi, "region.alpha_steps": a_steps,
        "region.momentum_min": m_lo, "region.momentum_max": m_hi, "region.momentum_steps": m_steps,
    })
    summary, files, code = cli.cmd_region(cfg)
    pieces = files["region.csv"]
    # one header piece, then one piece of whole lines per slab
    assert all(piece.endswith("\n") for piece in pieces)
    assert len(pieces) == 1 + -(-a_steps * m_steps // SLAB)
    c = cli._constants(cfg)
    matrix_fn, member_fn = ((stability.error_matrix_hb, stability.region_member_hb)
                            if algorithm == "dagt_hb"
                            else (stability.error_matrix_nes, stability.region_member_nes))
    A, M = np.meshgrid(np.linspace(a_lo, a_hi, a_steps), np.linspace(m_lo, m_hi, m_steps),
                       indexing="ij")
    mat = matrix_fn(c.mu, c.L1, c.L2, c.L3, c.rho, A, M)
    columns = [v.ravel().tolist() for v in (A, M, member_fn(c, A, M, matrix=mat),
                                           mat.spectral_radius())]
    rows = list(zip(*columns))
    expected = csv_text(("alpha", "momentum", "member", "spectral_radius"), rows)
    assert_same_lines("".join(pieces), expected)
    points = a_steps * m_steps
    # every grid past one slab has a slab border inside an alpha row
    assert points <= SLAB or any(b % m_steps for b in range(SLAB, points, SLAB))
    assert (summary["points"], summary["members"]) == (points, sum(r[2] for r in rows))
    assert code == 0
    if points > 1:
        assert 0 < summary["members"] < points
    if preset == "placement-paper":
        negative = (mat.entries < 0).any(axis=(-2, -1)).ravel()
        assert negative[2 * SLAB - 1] and negative[2 * SLAB] and (2 * SLAB) % m_steps


def test_region_memory_per_point():
    # the grid is walked in slabs: no array but the radius and member
    # columns grows with it, so the traced peak per point stays far below
    # the ~560 bytes of one whole-grid stack; the text, about 69 bytes a
    # point here, is held once, as its slab pieces, and never joined
    def config(steps):
        a_lo, a_hi, m_lo, m_hi = COURNOT_REGION_RANGES["dagt_hb"]
        return ExperimentConfig({
            **get_preset("cournot-paper"),
            "region.alpha_min": a_lo, "region.alpha_max": a_hi, "region.alpha_steps": steps,
            "region.momentum_min": m_lo, "region.momentum_max": m_hi,
            "region.momentum_steps": steps,
        })

    steps = 200
    cli.cmd_region(config(2))  # untraced: numpy's one-time allocations
    cfg = config(steps)
    tracemalloc.start()
    try:
        cli.cmd_region(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 130 * steps**2, f"{peak / steps**2:.0f} bytes per point"


def test_region_grid_too_large_is_rejected_before_any_slab(tmp_path, capsys, monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a slab was built before the grid was allocated")

    monkeypatch.setattr(cli, "error_matrix_hb", no_matrix)
    assert run_cli("region", "--preset", "cournot-paper", "--set", "region.alpha_steps=1000000",
                   "--set", "region.momentum_steps=1000000", "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        "config error: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
        "and data type float64\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,preset,overrides,path", [
    # one row: no tail to fit a rate to
    ("run", "cournot-paper", ["solver.max_iter=0"], ("measured_tail_rate",)),
    # mu = L1: each tuned run converges within a few rows, too few to fit a rate to
    ("rates", "quadratic-demo", [f"problem.c={','.join(['0.7'] * 8)}"],
     ("per_algorithm", "dagt_nes", "rel_error")),
])
def test_summary_writes_null_for_a_value_that_is_not_finite(tmp_path, command, preset,
                                                             overrides, path):
    out = tmp_path / "o"
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert run_cli(command, "--preset", preset, *sets, "--out", str(out)) == 0
    value = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    for key in path:
        value = value[key]
    assert value is None


def test_rates_command_quadratic_only(tmp_path):
    out = tmp_path / "o"
    assert run_cli("rates", "--preset", "quadratic-demo", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        assert summary["per_algorithm"][alg]["rel_error"] < 0.05
    assert run_cli("rates", "--preset", "placement-paper", "--out", str(out / "bad")) == 2


@pytest.mark.parametrize("offset", ["1e12", "1e17"])
def test_rates_and_run_hold_their_cross_check_at_large_offsets(tmp_path, offset):
    # the round matrix is the same at any aggregation offset l
    sets = ["--set", "problem.l=" + ",".join([offset] * 8)]
    assert run_cli("rates", "--preset", "quadratic-demo", "--out", str(tmp_path / "base")) == 0
    assert run_cli("rates", "--preset", "quadratic-demo", *sets, "--out", str(tmp_path / "r")) == 0
    base, large = (read_csv(tmp_path / name / "rates.csv") for name in ("base", "r"))
    at = base[0].index("predicted_rate")
    assert [row[at] for row in large[1]] == [row[at] for row in base[1]]
    assert run_cli("run", "--preset", "quadratic-demo", *sets, "--out", str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] and summary["predicted_rate"] == 0.8


def test_rates_with_an_unconverged_run_exits_3_and_writes_its_outputs(tmp_path):
    out = tmp_path / "o"
    sets = ["--set", "solver.max_iter=3"]
    assert run_cli("rates", "--preset", "quadratic-demo", *sets, "--out", str(out)) == 3
    assert sorted(p.name for p in out.iterdir()) == ["rates.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outputs"] == ["rates.csv"]
    assert list(summary["per_algorithm"]) == ["dagt", "dagt_hb", "dagt_nes"]


def test_dump_config_round_trip(tmp_path, capsys):
    assert run_cli("run", "--preset", "quadratic-demo", "--dump-config") == 0
    text = capsys.readouterr().out
    from aggsim.config import parse_config

    assert parse_config(text)["problem.kind"] == "quadratic"


def test_measured_tail_rate_requires_points():
    class T:
        residual_msq = [1.0]
        k = [0]

    assert np.isnan(measured_tail_rate(T()))


def test_robustness_records_diverged_runs(tmp_path, capsys):
    # at alpha = 0.5 the noisy runs diverge within their 2,000 ticks; the
    # 20-tick delay runs stop before they do
    out = tmp_path / "o"
    sets = ["solver.alpha=0.5", "solver.max_iter=20", "robustness.noise_max_iter=2000"]
    args = [arg for kv in sets for arg in ("--set", kv)]
    assert run_cli("robustness", "--preset", "quadratic-demo", *args, "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads((out / "summary.json").read_text())
    assert captured.out == (out / "summary.json").read_text()
    assert summary["noise"]["dagt"] == {
        "iterations": 566, "bounded": False, "floor_residual_msq": None,
    }
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        noise = summary["noise"][alg]
        assert not noise["bounded"] and noise["floor_residual_msq"] is None
        assert 20 < noise["iterations"] < 2000
        assert not (out / f"robustness_noise_{alg}.csv").exists()
        delay = summary["delay"][alg]
        assert (delay["iterations"], delay["converged"]) == (20, False)
        assert (out / f"robustness_delay_{alg}.csv").exists()
    assert summary["outputs"] == [f"robustness_delay_{alg}.csv"
                                  for alg in ("dagt", "dagt_hb", "dagt_nes")]


def test_robustness_diverged_delay_run_reports_its_arrival_tick(tmp_path):
    # placement-paper at alpha = 5 diverges at tick 400 under delay 2
    out = tmp_path / "o"
    sets = ["solver.alpha=5", "robustness.noise_max_iter=10", "solver.algorithm=dagt_hb"]
    args = [arg for kv in sets for arg in ("--set", kv)]
    assert run_cli("robustness", "--preset", "placement-paper", *args, "--out", str(out)) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["delay"]["dagt_hb"] == {
        "iterations": 400, "converged": False, "final_grad_norm": None,
    }
    assert not (out / "robustness_delay_dagt_hb.csv").exists()
    assert summary["noise"]["dagt_hb"]["bounded"]


@pytest.mark.parametrize("key", KEYS)
def test_each_bad_value_of_each_key_exits_2_naming_it(tmp_path, capsys, key):
    out = tmp_path / "o"
    for name, text in bad_values(key).items():
        assert run_cli("run", "--preset", "quadratic-demo", "--set", f"{key}={text}",
                       "--out", str(out)) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.endswith(f"(key '{key}')\n"), err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--dump-config"]], ids=["run", "dump-config"])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, extra):
    assert run_cli("run", "--preset", "quadratic-demo", "--set", "solver.alhpa=100", *extra,
                   "--out", str(tmp_path / "o")) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: unknown key (key 'solver.alhpa')\n"
    assert captured.out == ""


@pytest.mark.parametrize("preset,overrides,key", [
    ("quadratic-demo", ["topology.kind=ring", "topology.seed=-1"], "topology.seed"),
    ("placement-paper", ["init.x0_range=5,1"], "init.x0_range"),
], ids=["unused-topology-seed", "x0-range-beside-x0"])
def test_invalid_value_of_an_unread_key_exits_2(tmp_path, capsys, preset, overrides, key):
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert run_cli("run", "--preset", preset, *sets, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.endswith(f"(key '{key}')\n")


OVERRIDE_VALUES = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["1e400", "-1e400", "1e200", "nan", "", "abc", "1,2", "0.5", "dagt_nes",
                     "true", "ring"]),
)
# caps that keep every run short; a drawn override comes after them and wins,
# but a run budget is not drawn at 1e200: a noisy run at tol = 0 would never stop
SHORT_RUNS = ["solver.max_iter=100", "robustness.noise_max_iter=100", "sweep.values=0.0,0.5",
              "region.alpha_steps=4", "region.momentum_steps=4"]
BUDGETS = ("solver.max_iter", "robustness.noise_max_iter")
# the keys an error may name besides the drawn ones: the groups whose
# objects check their own preconditions, and the keys that checks across
# keys name (agent counts, tuned points, start sizes, the command's
# algorithm or problem kind, a random topology's seed)
GROUP_KEYS = {"problem.*", "solver.*", "bounds.*", "topology.*", "region.*",
              "region.alpha_*", "region.momentum_*"}
CROSS_KEYS = {"topology.n_agents", "problem.c", "init.x0", "init.x_prev", "solver.algorithm",
              "problem.kind", "topology.seed"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(cli.COMMANDS)),
    st.sampled_from(["placement-paper", "cournot-paper", "quadratic-demo"]),
    st.lists(st.tuples(st.sampled_from(list(KEYS)), OVERRIDE_VALUES), min_size=1, max_size=2,
             unique_by=lambda kv: kv[0]).filter(
        lambda kvs: not any(key in BUDGETS and value == "1e200" for key, value in kvs)),
)
def test_random_overrides_exit_0_2_or_3(tmp_path_factory, command, preset, overrides):
    sets = SHORT_RUNS + [f"{key}={value}" for key, value in overrides]
    args = [arg for kv in sets for arg in ("--set", kv)]
    out = tmp_path_factory.mktemp("o")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(command, "--preset", preset, *args, "--out", str(out))
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        named = err.getvalue().rpartition("(key '")[2].removesuffix("')\n")
        assert named in {key for key, _ in overrides} | GROUP_KEYS | CROSS_KEYS, err.getvalue()
