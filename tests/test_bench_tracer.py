"""The functions the benchmark traces exist under the names it patches.

bench/tracer.py wraps aggsim functions and methods by name and raises
LookupError when one is missing, so a renamed or deleted layer would
otherwise show only in a benchmark run. These tests load the tracer by
path and patch every target it names, without running a workload.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_and_member(module_name, attr):
    owner_name, _, member = attr.rpartition(".")
    module = importlib.import_module(module_name)
    return (getattr(module, owner_name) if owner_name else module), member


def snapshot(targets):
    """Every attribute the tracer may replace: each target on its owner and
    every attribute of every loaded aggsim module."""
    attrs = {}
    for module_name, attr, _ in targets:
        owner, member = owner_and_member(module_name, attr)
        attrs[(id(owner), member)] = owner.__dict__[member]
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "aggsim" or key.startswith("aggsim.")):
            for name, value in vars(module).items():
                attrs[(id(module), name)] = value
    return attrs


def test_every_traced_target_exists_and_is_restored(tracer):
    targets = tracer.LAYER_TARGETS + tracer.TICK_TARGETS
    before = snapshot(targets)
    with tracer.Tracer().patched(targets):
        for module_name, attr, _ in targets:
            owner, member = owner_and_member(module_name, attr)
            assert owner.__dict__[member] is not before[(id(owner), member)], attr
    after = snapshot(targets)
    assert all(after.get(key) is value for key, value in before.items())


def test_missing_target_raises_and_restores(tracer):
    targets = tracer.LAYER_TARGETS
    before = snapshot(targets)
    missing = targets + (("aggsim.solver", "IterTrace.renamed_away", "solver.renamed"),)
    with pytest.raises(LookupError):
        with tracer.Tracer().patched(missing):
            pass
    after = snapshot(targets)
    assert all(after.get(key) is value for key, value in before.items())


def test_ticks_are_the_iterations_the_commands_report(tracer, tmp_path):
    # the benchmark's ticks_per_s counts k[-1] of each trace run returns, or
    # the divergence tick; converged runs end their trace at the converged
    # state though they step past it, so the count must still match
    from aggsim.cli import main

    commands = {
        "robustness": ["--preset", "quadratic-demo", "--set", "robustness.noise_max_iter=50"],
        # three converging values and a diverging one
        "sweep": ["--preset", "quadratic-demo", "--set", "solver.algorithm=dagt_hb",
                  "--set", "sweep.values=0.0,0.25,0.9,5.0"],
    }
    runs = []
    with tracer.Tracer().patched(tracer.TICK_TARGETS) as traced:
        for command, args in commands.items():
            out = tmp_path / command
            assert main([command, *args, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            if command == "robustness":
                runs += [*summary["delay"].values(), *summary["noise"].values()]
            else:
                runs += summary["rows"]
    assert len(runs) == 10 and any(row.get("stop_reason") == "divergence" for row in runs)
    assert traced.counts["solver.ticks"] == sum(row["iterations"] for row in runs)
