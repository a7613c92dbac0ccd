import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aggsim.cli as cli
import aggsim.stability as stability
from aggsim.cli import main, measured_tail_rate
from aggsim.config import ExperimentConfig, serialize_config
from aggsim.presets import get_preset
from aggsim.solver import TRACE_COLUMNS
from aggsim.stability import StabilityConstants

from test_stability import reference_region_csv


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def run_cli(*args):
    return main(list(args))


def test_run_quadratic_demo(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "--preset", "quadratic-demo", "--out", str(out)) == 0
    header, rows = read_csv(out / "trace.csv")
    assert tuple(header) == TRACE_COLUMNS
    assert len(rows) >= 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
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
    # a constant whose square overflows
    pytest.param("bounds", "placement-paper", ["bounds.L3=1e200"], id="bounds-L3-square-overflow"),
    pytest.param("region", "placement-paper", ["bounds.L3=1e200"], id="region-L3-square-overflow"),
    # an integer key is not truncated
    pytest.param("run", "quadratic-demo", ["solver.max_iter=2.7"], id="fractional-max-iter"),
    pytest.param("run", "cournot-paper", ["problem.n_agents=0.5"], id="fractional-n-agents"),
])
def test_config_boundary_errors_exit_2(tmp_path, capsys, command, preset, overrides):
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    code = run_cli(command, "--preset", preset, *sets, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err
    for kv in overrides:
        assert OVERFLOW_CAUSES.get(kv, "") in err


# an overflow names its cause: the constant, or the step size or momentum
OVERFLOW_CAUSES = {
    "bounds.L3=1e200": "L3 = 1e+200 too large",
    "region.alpha_max=1e308": "step size or momentum too large",
    "solver.alpha=1e308": "step size or momentum too large",
}


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


@pytest.mark.parametrize("command,preset,overrides", [
    ("run", "quadratic-demo", ["run.compare=true", "output.export_graph=true"]),
    ("sweep", "quadratic-demo", ["solver.algorithm=dagt_hb", "sweep.values=0.0,0.2"]),
    ("topology", "quadratic-demo", []),
    ("robustness", "quadratic-demo", ["robustness.noise_max_iter=50"]),
    ("bounds", "placement-paper", []),
    ("region", "placement-paper", ["region.alpha_steps=3", "region.momentum_steps=3"]),
    ("rates", "quadratic-demo", []),
], ids=["run", "sweep", "topology", "robustness", "bounds", "region", "rates"])
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

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "solve", counted("solve"))
    monkeypatch.setattr(cli, "run_solver", counted("run_solver"))
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
    assert header == ["momentum", "iterations", "converged"]
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
    assert text == reference_region_csv(c, algorithm, np.linspace(a_lo, a_hi, 30),
                                        np.linspace(m_lo, m_hi, 30))
    members = json.loads(capsys.readouterr().out)["members"]
    assert 0 < members == text.count(",True,")


def test_rates_command_quadratic_only(tmp_path):
    out = tmp_path / "o"
    assert run_cli("rates", "--preset", "quadratic-demo", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        assert summary["per_algorithm"][alg]["rel_error"] < 0.05
    assert run_cli("rates", "--preset", "placement-paper", "--out", str(out / "bad")) == 2


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


# the documented config keys (README, "Config format") the exit-code property
# overrides, with values from a bounded domain: no draw allocates much or
# runs long, and the failures it reaches are config errors or divergence
DOCUMENTED_KEYS = (
    "problem.kind", "problem.n_agents", "problem.seed", "problem.kappa_range",
    "problem.theta_range", "problem.sigma_range", "problem.omega1", "problem.omega2",
    "problem.r", "problem.omega", "problem.c", "problem.h", "problem.l",
    "topology.kind", "topology.n_agents", "topology.edge_prob", "topology.seed",
    "solver.algorithm", "solver.alpha", "solver.beta", "solver.gamma", "solver.max_iter",
    "solver.tol", "solver.delay_steps", "solver.noise_sigma", "solver.seed",
    "init.x0", "init.x0_range", "init.x_prev", "init.seed",
    "sweep.values", "region.algorithm", "region.alpha_min", "region.alpha_max",
    "region.alpha_steps", "region.momentum_min", "region.momentum_max",
    "region.momentum_steps", "bounds.mu", "bounds.L1", "bounds.L2", "bounds.L3", "bounds.rho",
    "output.export_graph", "run.compare",
)
OVERRIDE_VALUES = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["1e400", "-1e400", "1e200", "nan", "", "abc", "1,2", "0.5", "dagt_nes"]),
)
# caps that keep every run short; a drawn override comes after them and wins
SHORT_RUNS = ["solver.max_iter=100", "sweep.values=0.0,0.5",
              "region.alpha_steps=4", "region.momentum_steps=4"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(["run", "bounds", "region", "sweep"]),
    st.sampled_from(["placement-paper", "cournot-paper", "quadratic-demo"]),
    st.lists(st.tuples(st.sampled_from(DOCUMENTED_KEYS), OVERRIDE_VALUES),
             min_size=1, max_size=2, unique_by=lambda kv: kv[0]),
)
def test_random_overrides_exit_0_2_or_3(tmp_path_factory, command, preset, overrides):
    sets = SHORT_RUNS + [f"{key}={value}" for key, value in overrides]
    args = [arg for kv in sets for arg in ("--set", kv)]
    out = tmp_path_factory.mktemp("o")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(command, "--preset", preset, *args, "--out", str(out))
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
