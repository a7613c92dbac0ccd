"""Quick self-test of the benchmark harness at tiny size.

    python3 bench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks
that every metric named in BENCHMARK.json is printed with its unit, that
the output checks run (and catch a wrong value), that traced counts
repeat exactly, that the tracer restores every patched attribute, that an
exception escaping ``main`` is counted instead of stopping the harness,
and that the benchmark refuses to run without the package sources.
Exits 0 when every check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import run
import workloads

ROOT = run.ROOT
SEED = 3
# commands that fail at the reference commit: a known defect, kept visible
KNOWN_FAILURES = {"stability-scan": {"bounds-quadratic-demo"}}

failures = []


def expect(condition, message):
    print(f"{'PASS' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def bench(workload, trace, seed=SEED):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    lines = buf.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def check_metrics(spec):
    for workload in workloads.NAMES:
        n_commands = len(workloads.build(workload, SEED, "tiny").commands)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(code == 0, f"{tag}: exits 0")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result has exactly the four keys")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{tag}: every {key} metric printed with its unit")
            table = "\n".join(lines[:-1])
            expect(all(f" {name} " in table for name in want),
                   f"{tag}: the table names every metric")
            known = KNOWN_FAILURES.get(workload, set())
            passes = result["attempted"] // n_commands
            expect(result["attempted"] == passes * n_commands and passes >= 1,
                   f"{tag}: attempted counts whole passes")
            expect(result["correct"], f"{tag}: output checks pass")
            expect(result["failed"] == passes * len(known),
                   f"{tag}: failed = {len(known)} known failure(s) per pass")
            expect(all(any(f"failed: {k}:" in line for line in lines) for k in known),
                   f"{tag}: known failures are reported by name")


def check_trace_repeats():
    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    for workload in workloads.NAMES:
        first, second = counts(bench(workload, 1)[2]), counts(bench(workload, 1)[2])
        expect(first == second, f"{workload}: traced counts repeat exactly")
        expect(first["solver.ticks"] > 0, f"{workload}: solver ticks are counted")


def check_restore():
    import aggsim.cli
    import aggsim.solver
    import aggsim.stability
    import tracer

    before = {(m.__name__, k): v for m in tracer._aggsim_modules() for k, v in vars(m).items()}
    record = aggsim.solver.IterTrace.record
    t = tracer.Tracer()
    with t.patched(tracer.LAYER_TARGETS):
        expect(aggsim.cli.run_solver is aggsim.solver.run
               and aggsim.solver.run is not before[("aggsim.solver", "run")],
               "by-name import and defining attribute share one wrapper")
        expect(aggsim.cli.region_member_hb is aggsim.stability.region_member_hb
               and aggsim.cli.region_member_hb.__wrapped__ is before[("aggsim.stability",
                                                                      "region_member_hb")],
               "stability functions imported by cli are wrapped")
        expect(aggsim.solver.IterTrace.record is not record, "methods are wrapped")
    after = {(m.__name__, k): v for m in tracer._aggsim_modules() for k, v in vars(m).items()}
    expect(all(after[key] is value for key, value in before.items()),
           "every patched attribute is restored")
    expect(aggsim.solver.IterTrace.record is record, "every patched method is restored")
    try:
        with tracer.Tracer().patched(tracer.TICK_TARGETS + (("aggsim.solver", "gone", "x"),)):
            pass
        raised = False
    except LookupError:
        raised = True
    expect(raised and aggsim.solver.run is before[("aggsim.solver", "run")],
           "a missing layer target raises, and what was patched is restored")


def check_checks():
    import checks

    wl = workloads.build("cournot-sweep", SEED, "tiny")
    command = wl.commands[0]
    ref = run.load_reference(wl)[command.label][checks.reference_key(command)]
    good = dict(ref, max_u_mean_err=0.0, max_s_mean_err=0.0, trace_rows=ref["iterations"] + 1)
    expect(checks.check(command, good, ref) == [], "a matching run passes its check")
    bad = dict(good, iterations=ref["iterations"] + 50, trace_rows=ref["iterations"] + 51)
    expect(checks.check(command, bad, ref) != [], "a wrong iteration count is caught")
    drift = dict(good, max_u_mean_err=1e-3)
    expect(checks.check(command, drift, ref) != [], "tracker-mean drift is caught")

    def broken_main(argv):
        raise RuntimeError("boom")

    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        outcome = harness.execute(broken_main, ["run"], Path(tmp) / "o")
    expect(outcome.code is None and "RuntimeError: boom" in outcome.error,
           "an exception escaping main is caught and reported")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "cournot-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120, check=False,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package sources it exits non-zero and prints no result")


def main():
    harness.pin_blas()
    sys.path.insert(0, str(run.SRC))
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_trace_repeats()
    check_restore()
    check_checks()
    check_bare_directory()
    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
