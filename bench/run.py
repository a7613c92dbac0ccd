"""aggsim benchmark: one workload, end to end or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and drives the CLI in-process through ``aggsim.cli.main(argv)``,
with BLAS pinned to one thread. Each pass runs the workload's command
list once and checks every output (see checks.py); passes repeat while
at least half of the next one fits in ``--seconds``, and each timing is
the median of its samples.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
passes for half the time, then one pass with every layer wrapped (see
tracer.py), and reports the per-layer metrics. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``attempted`` counts CLI commands; ``failed`` counts those with an exit
code other than 0, an exception escaping ``main``, or a failed output
check; ``correct`` is false when an output check found a wrong value.

Workloads, their reasons and each layer metric's predicted effect are in
README.md next to this file.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
import tracer as tracing
import workloads
from checks import CheckError, check, observe, reference_key

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "aggsim-bench"
REFERENCE = BENCH_DIR / "reference.json"

# fresh interpreters per untraced run, spread over the run's passes
SETUP_SAMPLES = {"full": 30, "tiny": 1}
COMMAND_KINDS = ("run", "sweep", "robustness", "region", "bounds", "rates")

# span names whose calls and self time are reported; order is output order
LAYER_SPANS = (
    "cli.main",
    "config.build",
    "graph.build_topology",
    "oracle.solve",
    "solver.run",
    "solver.step",
    "solver.record",
    "solver.mix",
    "solver.to_csv",
    "problems.global_gradient",
    "problems.objective",
    "problems.phi_all",
    "problems.grad1_all",
    "problems.grad2_all",
    "problems.dphi_all",
    "stability.jury_stable",
    "stability.region_member",
    "stability.error_matrix",
    "stability.spectral_radius",
    "stability.quadratic_rates",
    "stability.conservative_bounds",
)


class Pass:
    """Timings, counts and verdicts of one pass over the command list."""

    def __init__(self):
        self.wall_s = 0.0
        self.command_s = dict.fromkeys(COMMAND_KINDS, 0.0)
        self.ticks = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.output_bytes = 0
        self.region_points = 0
        self.failures = []


def verify(command, outcome, out_dir, reference):
    """(failed, incorrect, message) for one command's outcome."""
    if outcome.code is None:
        return True, False, f"exception escaped main: {outcome.error.strip().splitlines()[-1]}"
    if outcome.code != 0:
        contract = "" if outcome.code in harness.ALLOWED_CODES else " (outside the 0/2/3 contract)"
        return True, False, f"exit code {outcome.code}{contract}: {outcome.error[-200:]}"
    try:
        observed = observe(command.kind, outcome, out_dir)
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        return True, True, f"unreadable output: {exc!r}"
    ref = reference.get(command.label, {}).get(reference_key(command))
    problems = check(command, observed, ref)
    if problems:
        return True, True, "; ".join(problems)
    return False, False, ""


def run_pass(main, workload, reference, work_dir, tick_counts):
    p = Pass()
    ticks0 = tick_counts["solver.ticks"]
    for i, command in enumerate(workload.commands):
        out_dir = work_dir / f"cmd{i}"
        outcome = harness.execute(main, command.argv, out_dir)
        failed, incorrect, message = verify(command, outcome, out_dir, reference)
        shutil.rmtree(out_dir, ignore_errors=True)
        p.wall_s += outcome.seconds
        p.command_s[command.kind] += outcome.seconds
        p.attempted += 1
        p.failed += failed
        p.incorrect += incorrect
        p.output_bytes += outcome.output_bytes
        if command.kind == "region" and not failed:
            p.region_points += command.params["points"]
        if failed:
            p.failures.append(f"{command.label}: {message}")
    p.ticks = tick_counts["solver.ticks"] - ticks0
    return p


def end_to_end(passes, setup_samples):
    """{name: (samples, unit)} of the end-to-end metrics; each reports the
    median of its samples."""
    attempted = sum(p.attempted for p in passes)
    ok = attempted - sum(p.failed for p in passes)
    return {
        "setup_s": (setup_samples, "s"),
        "wall_s": ([p.wall_s for p in passes], "s"),
        "ticks_per_s": ([p.ticks / p.wall_s for p in passes], "1/s"),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
        "ops_ok_frac": ([ok / attempted], "frac"),
    }


def source_lines():
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((SRC / "aggsim").rglob("*.py"))
    )


def per_layer(passes, tracer, traced):
    """{name: (samples, unit)} of the per-layer metrics."""
    metrics = {}
    for kind in COMMAND_KINDS:
        metrics[f"cli.{kind}.s"] = ([p.command_s[kind] for p in passes], "s")
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = ([tracer.calls[name]], "count")
        metrics[f"{name}.self_s"] = ([tracer.self_s[name]], "s")
    counts = tracer.counts
    steps, records = tracer.calls["solver.step"], tracer.calls["solver.record"]
    metrics["solver.ticks"] = ([counts["solver.ticks"]], "count")
    metrics["solver.steps"] = ([steps], "count")
    metrics["solver.hold_ticks"] = ([counts["solver.ticks"] - steps], "count")
    metrics["solver.useful_record_ratio"] = ([steps / records if records else 0.0], "ratio")
    metrics["solver.noise_draws"] = ([counts["solver.noise_draws"]], "count")
    metrics["stability.quadratic_rates.max_dim"] = (
        [counts["stability.quadratic_rates.max_dim"]], "count"
    )
    grid = [p.region_points / p.command_s["region"] for p in passes if p.command_s["region"] > 0]
    metrics["stability.grid_points_per_s"] = (grid or [0.0], "1/s")
    metrics["cli.output_bytes"] = ([p.output_bytes for p in passes], "bytes")
    untraced = statistics.median(p.wall_s for p in passes)
    metrics["trace.overhead_frac"] = ([traced.wall_s / untraced - 1.0], "frac")
    metrics["trace.uncovered_s"] = ([traced.wall_s - sum(tracer.self_s.values())], "s")
    metrics["source_lines"] = ([source_lines()], "count")
    return metrics


def print_table(title, metrics):
    print(title)
    print(f"  {'metric':36s} {'unit':>6s} {'n':>3s} {'median':>13s} {'q1':>13s} {'q3':>13s}")
    for name, (samples, unit) in metrics.items():
        q1, q2, q3 = harness.quartiles(samples)
        print(f"  {name:36s} {unit:>6s} {len(samples):3d} {q2:13.6g} {q1:13.6g} {q3:13.6g}")


def load_reference(workload):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload.name][workload.size]


def benchmark(args):
    workload = workloads.build(args.workload, args.seed, args.size)
    reference = load_reference(workload)
    from aggsim import cli  # after pin_blas; compiles the package once

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        n_setup = 0 if args.trace else SETUP_SAMPLES[workload.size]
        setup = []
        ticks = tracing.Tracer()
        passes = []
        with ticks.patched(tracing.TICK_TARGETS):
            deadline = time.perf_counter() + budget
            # start another pass only if at least half of it fits the budget,
            # so a run overruns its budget by at most half a pass
            while not passes or time.perf_counter() + passes[-1].wall_s / 2 < deadline:
                passes.append(run_pass(cli.main, workload, reference, work_dir, ticks.counts))
                if len(setup) < n_setup:
                    # a batch of set-up samples after each pass spreads them
                    # over the run; their time does not count against the budget
                    batch = math.ceil(n_setup * passes[0].wall_s / max(budget, passes[0].wall_s))
                    t0 = time.perf_counter()
                    setup += harness.measure_setup(SRC, workload.setup_argv, work_dir,
                                                   min(batch, n_setup - len(setup)))
                    deadline += time.perf_counter() - t0
        if len(setup) < n_setup:
            setup += harness.measure_setup(SRC, workload.setup_argv, work_dir,
                                           n_setup - len(setup))
        all_passes = list(passes)
        if args.trace:
            layers = tracing.Tracer()
            with layers.patched(tracing.LAYER_TARGETS):
                main = layers.wrap("cli.main", cli.main)
                traced = run_pass(main, workload, reference, work_dir, layers.counts)
            all_passes.append(traced)
            metrics = per_layer(passes, layers, traced)
            spans_path = WORK_ROOT / f"spans-{workload.name}-{args.seed}.npz"
            layers.save(spans_path)
        else:
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    incorrect = sum(p.incorrect for p in all_passes)
    print(f"workload {workload.name} ({workload.size}), seed {args.seed}: inputs "
          f"{json.dumps(workload.inputs)[:160]}")
    print(f"{len(passes)} untraced passes{', 1 traced pass' if args.trace else ''}; "
          f"{attempted} commands, {failed} failed, {incorrect} with wrong output")
    for message in sorted({m for p in all_passes for m in p.failures}):
        print(f"  failed: {message}")
    print_table("per-layer metrics" if args.trace else "end-to-end metrics", metrics)
    if args.trace:
        print(f"spans saved to {spans_path.relative_to(ROOT)}")
    result = {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(samples), "unit": unit}
            for name, (samples, unit) in metrics.items()
        },
    }
    if args.detail:
        detail = dict(result, workload=workload.name, seed=args.seed, size=workload.size,
                      inputs=workload.inputs, passes=len(passes),
                      samples={name: samples for name, (samples, _) in metrics.items()})
        Path(args.detail).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the same command shapes at toy size (self-test)")
    parser.add_argument("--detail", help="also write every sample to this JSON file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aggsim" / "__init__.py").is_file():
        print(f"error: no aggsim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if "numpy" not in sys.modules:
        harness.pin_blas()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
