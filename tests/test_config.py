import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim.config import _REQUIRED, KEYS, RANGE, ExperimentConfig, parse_config, serialize_config
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
    with pytest.raises(ConfigError, match="problem.kind"):
        ExperimentConfig({"problem.kind": "lasso"})


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
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig({key: value})
    assert key in str(exc.value) and "integer" in str(exc.value)
    # an integral float and an int string still convert
    assert ExperimentConfig({key: 3.0})[key] == 3
    assert ExperimentConfig({key: "3"})[key] == 3


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
KEY_TEXTS = st.lists(st.sampled_from(["solver", "alpha", "k2", "x_0", "problem"]),
                     min_size=1, max_size=3).map(".".join)


def same_config(a, b):
    """Equal config dicts, NaN equal to NaN."""
    def norm(v):
        if isinstance(v, list):
            return [norm(x) for x in v]
        return "nan" if isinstance(v, float) and v != v else (type(v), v)
    return a.keys() == b.keys() and all(norm(a[k]) == norm(b[k]) for k in a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(KEY_TEXTS, VALUE_TEXTS, max_size=6))
def test_parse_serialize_parse_round_trips(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    parsed = parse_config(text)
    assert same_config(parse_config(serialize_config(parsed)), parsed)


def bad_values(key):
    """{class: config text} of each class of value that KEYS rejects for key:
    a wrong kind, a value that is not finite, a bool for a number, a value
    below or above the domain, a wrong entry count, and a value that is not
    one of the choices."""
    kind, _, domain = KEYS[key]
    entry = kind[0] if isinstance(kind, list) else kind
    cases = {}
    if entry in (float, int) or kind == RANGE:
        cases.update({"wrong-kind": "abc", "not-finite": "nan", "bool": "true"})
    if entry is int:
        cases["fractional"] = "2.5"
    if entry in (float, int) and not isinstance(kind, list):
        cases["list"] = "1,2"
    if domain is not None:
        cases["below-domain"] = str(domain[0] - 1)
        if domain[1] is not None:
            cases["above-domain"] = "1e300"
    if kind == RANGE:
        cases.update({"one-entry": "1", "three-entries": "1,2,3", "reversed": "2,1",
                      "too-wide": "-1e308,1e308"})
    if entry is bool:
        cases.update({"not-a-bool": "yes", "number": "1"})
    if isinstance(entry, tuple):
        cases.update({"not-a-choice": "nope", "number": "1"})
        cases["repeated" if isinstance(kind, list) else "list"] = f"{entry[0]},{entry[0]}"
    return cases


@pytest.mark.parametrize("key", KEYS)
def test_every_key_has_bad_values_and_passes_its_own_default(key):
    # tests/test_cli.py runs each bad value through the CLI
    assert bad_values(key)
    default = KEYS[key][1]
    if isinstance(default, (bool, int, float, str, list, tuple)):
        assert ExperimentConfig({key: default})[key] == default


def test_missing_required_key_raises_where_it_is_read():
    cfg = ExperimentConfig({"problem.kind": "cournot"})
    with pytest.raises(ConfigError, match="missing required key") as exc:
        cfg["problem.n_agents"]
    assert exc.value.key == "problem.n_agents"
    assert cfg["problem.seed"] == 0 and cfg["topology.seed"] is None


def describe(key):
    """One line of the README's key list: key, kind and domain, default."""
    kind, default, domain = KEYS[key]

    def kind_text(kind):
        if isinstance(kind, list):
            return f"list of {kind_text(kind[0])}"
        if isinstance(kind, tuple):
            return "|".join(kind)
        return {bool: "true|false", RANGE: "range lo,hi"}.get(kind, getattr(kind, "__name__", ""))

    text = kind_text(kind)
    if domain is not None:
        text += f", >= {domain[0]}" + ("" if domain[1] is None else ", <= intp max")
    if default is _REQUIRED or default is None:
        shown = "required" if default is _REQUIRED else "unset"
    elif isinstance(default, (list, tuple)):
        shown = ",".join(map(str, default)) or "(empty)"
    else:
        shown = str(default).lower() if isinstance(default, bool) else default
    return f"{key:26} {text:36} {shown}"


def test_readme_key_list_is_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"<!-- keys -->\n```text\n(.*?)```", readme, re.S)
    assert block, "README has no key list"
    assert block.group(1).splitlines() == [describe(key).rstrip() for key in KEYS]
