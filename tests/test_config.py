import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim.config import ExperimentConfig, parse_config, serialize_config
from aggsim.exceptions import ConfigError
from aggsim.presets import get_preset, preset_names

SAMPLE = """
# experiment description
problem.kind = quadratic
problem.c = 1.0,2.0,4.0
problem.h = 0.5,0.0,1.0

topology.kind = ring
topology.n_agents = 3

solver.algorithm = dagt_hb
solver.alpha = 0.05
solver.beta = 0.1
solver.max_iter = 500
solver.tol = 1e-8
output.export_graph = true
"""


def test_parse_types():
    cfg = parse_config(SAMPLE)
    assert cfg["problem.kind"] == "quadratic"
    assert cfg["problem.c"] == [1.0, 2.0, 4.0]
    assert cfg["topology.n_agents"] == 3
    assert cfg["solver.tol"] == 1e-8
    assert cfg["output.export_graph"] is True


def test_round_trip_lossless():
    cfg = parse_config(SAMPLE)
    assert parse_config(serialize_config(cfg)) == cfg
    # full-precision floats survive
    cfg2 = {"a.b": 0.1 + 0.2, "c.d": [1e-17, 3.0]}
    assert parse_config(serialize_config(cfg2)) == cfg2


def test_parse_error_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("problem.kind = ok\nnot a statement\n")
    assert "line 2" in str(exc.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("a.b = 1\na.b = 2\n")


def test_malformed_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("solver alpha = 1\n")


def test_presets_build_cleanly():
    for name in preset_names():
        cfg = ExperimentConfig(get_preset(name))
        problem = cfg.build_problem()
        graph = cfg.build_graph()
        assert graph.n_agents == problem.n_agents
        scfg = cfg.build_solver_config()
        x0, x_prev = cfg.build_x0(problem)
        assert x0.size == problem.dim
        assert scfg.alpha > 0
    with pytest.raises(KeyError, match="unknown preset 'nope'"):
        get_preset("nope")


def test_presets_round_trip_through_text():
    for name in preset_names():
        raw = get_preset(name)
        assert parse_config(serialize_config(raw)) == raw


def test_unknown_problem_kind():
    cfg = ExperimentConfig({"problem.kind": "lasso"})
    with pytest.raises(ConfigError):
        cfg.build_problem()


def test_missing_required_key():
    cfg = ExperimentConfig({"problem.kind": "placement"})
    with pytest.raises(ConfigError) as exc:
        cfg.build_problem()
    assert "problem.r" in str(exc.value)


def test_bad_solver_algorithm():
    raw = get_preset("quadratic-demo")
    raw["solver.algorithm"] = "adam"
    with pytest.raises(ConfigError):
        ExperimentConfig(raw).build_solver_config()


def test_dagt_forces_zero_momentum():
    raw = get_preset("placement-paper")
    cfg = ExperimentConfig(raw)
    scfg = cfg.build_solver_config(algorithm="dagt")
    assert scfg.momentum == 0.0 and scfg.family == (0.0, 0.0)


def test_each_momentum_algorithm_takes_its_key():
    # heavy ball is configured by solver.beta and Nesterov by solver.gamma
    raw = get_preset("placement-paper")
    cfg = ExperimentConfig(raw)
    assert cfg.build_solver_config(algorithm="dagt_hb").family == (raw["solver.beta"], 0.0)
    assert cfg.build_solver_config(algorithm="dagt_nes").family == (raw["solver.gamma"],) * 2


def test_x0_size_mismatch():
    raw = get_preset("placement-paper")
    raw["init.x0"] = [1.0, 2.0]
    with pytest.raises(ConfigError):
        ExperimentConfig(raw).build_x0(ExperimentConfig(raw).build_problem())


@pytest.mark.parametrize("key,value", [
    ("solver.max_iter", 2.7), ("problem.n_agents", 0.5), ("topology.n_agents", 8.5),
])
def test_fractional_int_value_rejected(key, value):
    cfg = ExperimentConfig({key: value})
    with pytest.raises(ConfigError) as exc:
        cfg.value(key, int)
    assert key in str(exc.value) and "integer" in str(exc.value)
    # an integral float and an int string still convert
    assert ExperimentConfig({key: 3.0}).value(key, int) == 3
    assert ExperimentConfig({key: "3"}).value(key, int) == 3


def test_preset_fidelity_to_published_numbers():
    place = get_preset("placement-paper")
    assert place["problem.r"] == [10, 4, 1, 3, 2, 7, 8, 10, 3, 9]
    assert place["problem.omega"] == 20
    assert place["init.x0"] == [2, 9, 8, 6, 7, 3, 4, 7, 8, 3]
    assert place["init.x_prev"] == [0, 11, 9, 8, 9, 1, 1, 4, 3, 1]
    assert (place["solver.alpha"], place["solver.beta"], place["solver.gamma"]) == (
        0.005, 0.009, 0.008,
    )
    cournot = get_preset("cournot-paper")
    assert cournot["problem.n_agents"] == 50
    assert cournot["problem.kappa_range"] == [0.5, 2.5]
    assert cournot["problem.theta_range"] == [10, 20]
    assert cournot["problem.sigma_range"] == [5, 20]
    assert (cournot["problem.omega1"], cournot["problem.omega2"]) == (200.0, 0.01)
    assert (cournot["solver.alpha"], cournot["solver.beta"], cournot["solver.gamma"]) == (
        0.003, 0.006, 0.005,
    )
    assert cournot["init.x0_range"] == [50, 100]


def test_cournot_problem_seeded_reproducible():
    raw = get_preset("cournot-paper")
    p1 = ExperimentConfig(raw).build_problem()
    p2 = ExperimentConfig(raw).build_problem()
    x = np.linspace(1, 2, p1.dim)
    assert p1.objective(x) == p2.objective(x)


SCALAR_TEXTS = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["true", "False", "nan", "-inf", "1e400", "1_000", "+7", "007", "", "-"]),
    st.text("abcxyz_.-+0123456789 ", max_size=8),
)
VALUE_TEXTS = st.one_of(SCALAR_TEXTS, st.lists(SCALAR_TEXTS, min_size=2, max_size=4).map(",".join))
KEYS = st.lists(st.sampled_from(["solver", "alpha", "k2", "x_0", "problem"]),
                min_size=1, max_size=3).map(".".join)


def same_config(a, b):
    """Equal config dicts, NaN equal to NaN."""
    def norm(v):
        if isinstance(v, list):
            return [norm(x) for x in v]
        return "nan" if isinstance(v, float) and v != v else (type(v), v)
    return a.keys() == b.keys() and all(norm(a[k]) == norm(b[k]) for k in a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(KEYS, VALUE_TEXTS, max_size=6))
def test_parse_serialize_parse_round_trips(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    parsed = parse_config(text)
    assert same_config(parse_config(serialize_config(parsed)), parsed)
