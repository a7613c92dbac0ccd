"""Diff the outputs of a fixed list of aggsim CLI invocations between two trees.

    python tools/diff_outputs.py OLD_TREE NEW_TREE [--only NAME ...]

Each invocation runs in a fresh interpreter per tree, in an empty working
directory, with PYTHONPATH=<tree>/src and BLAS pinned to one thread. The
exit code, stdout, stderr and every file written under --out are compared
byte for byte. Every difference is printed, and the exit code is 1 if
there is any, else 0. --only (repeatable) restricts the run to the named
invocations.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SHOW_CHARS = 160


def _sets(*pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


def _region(algorithm, alpha_max, alpha_steps, momentum_steps):
    return ["region", "--preset", "cournot-paper", *_sets(
        f"region.algorithm={algorithm}", "region.alpha_min=1e-10",
        f"region.alpha_max={alpha_max}", f"region.alpha_steps={alpha_steps}",
        "region.momentum_min=1e-6", "region.momentum_max=1e-3",
        f"region.momentum_steps={momentum_steps}")]


INVOCATIONS = {
    **{f"run-compare-{p}": ["run", "--preset", p, *_sets("run.compare=true")]
       for p in ("cournot-paper", "placement-paper", "quadratic-demo")},
    "run-diverge": ["run", "--preset", "placement-paper", *_sets("solver.alpha=5")],
    "run-diverge-delay-noise": ["run", "--preset", "placement-paper", *_sets(
        "solver.alpha=5", "solver.delay_steps=2", "solver.noise_sigma=0.001")],
    **{f"run-cournot-{n}": ["run", "--preset", "cournot-paper", *_sets(f"solver.max_iter={n}")]
       for n in (0, 64, 65)},
    "run-cournot-delay": ["run", "--preset", "cournot-paper", *_sets(
        "solver.delay_steps=1", "solver.max_iter=257")],
    # the row arriving at tick 97 keeps one of its two hold ticks
    "run-cournot-delay-cut": ["run", "--preset", "cournot-paper", *_sets(
        "solver.delay_steps=2", "solver.max_iter=98")],
    "sweep-cournot": ["sweep", "--preset", "cournot-paper", *_sets(
        "init.seed=3", "sweep.values=0.0,0.5,0.9,0.99")],
    "sweep-quadratic-hb": ["sweep", "--preset", "quadratic-demo", *_sets(
        "solver.algorithm=dagt_hb", "sweep.values=0.0,0.25,0.5")],
    "sweep-placement-nes": ["sweep", "--preset", "placement-paper", *_sets(
        "solver.algorithm=dagt_nes", "sweep.values=0.0,0.5,1.5")],
    # the cournot-robustness benchmark command at init seed 1, noise seed 2
    "robustness-cournot": ["robustness", "--preset", "cournot-paper", *_sets(
        "init.seed=1", "solver.seed=2", "robustness.delay_steps=2",
        "robustness.noise_sigma=0.001", "robustness.noise_max_iter=1000",
        "solver.max_iter=3000")],
    **{f"robustness-{p}": ["robustness", "--preset", p]
       for p in ("placement-paper", "quadratic-demo")},
    "topology": ["topology", "--preset", "placement-paper"],
    "topology-noisy": ["topology", "--preset", "placement-paper",
                       *_sets("solver.noise_sigma=1e-9")],
    "rates": ["rates", "--preset", "quadratic-demo"],
    "bounds-placement-paper": ["bounds", "--preset", "placement-paper"],
    "region-cournot": ["region", "--preset", "cournot-paper"],
    "robustness-negative-delay": ["robustness", "--preset", "quadratic-demo", *_sets(
        "robustness.delay_steps=-1")],
    "robustness-negative-noise-iters": ["robustness", "--preset", "quadratic-demo", *_sets(
        "robustness.noise_max_iter=-1")],
    "run-quadratic-delay": ["run", "--preset", "quadratic-demo", *_sets("solver.delay_steps=3")],
    "run-placement-delay-compare": ["run", "--preset", "placement-paper", *_sets(
        "solver.delay_steps=1", "run.compare=true")],
    "run-quadratic-delay-noise": ["run", "--preset", "quadratic-demo", *_sets(
        "solver.delay_steps=2", "solver.noise_sigma=1e-10", "solver.tol=1e-8",
        "run.compare=true")],
    "run-placement-nes-delay-noise": ["run", "--preset", "placement-paper", *_sets(
        "solver.algorithm=dagt_nes", "solver.delay_steps=1", "solver.noise_sigma=1e-9",
        "solver.tol=1e-6")],
    # the benchmark's region grids, and their empty and one-point edges
    **{f"region-{alg}-{steps}": _region(alg, alpha_max, steps, steps)
       for alg, alpha_max in (("dagt_hb", 4e-8), ("dagt_nes", 5e-6)) for steps in (0, 1, 100)},
    **{f"run-{kind}": ["run", "--preset", "placement-paper", *_sets(f"topology.kind={kind}")]
       for kind in ("ring", "star", "complete")},
    "bounds-quadratic-demo": ["bounds", "--preset", "quadratic-demo"],
    # outcome-only sweep runs under holds and channel replay: one converges,
    # one spends its budget and one diverges
    "sweep-cournot-delay-noise": ["sweep", "--preset", "cournot-paper", *_sets(
        "solver.delay_steps=2", "solver.noise_sigma=0.001", "solver.tol=1e-2",
        "sweep.values=0.0,0.5,1.5")],
    # a problem and a graph of different agent counts
    "run-fewer-agents": ["run", "--preset", "cournot-paper", *_sets("topology.n_agents=5")],
    "rates-fewer-agents": ["rates", "--preset", "quadratic-demo", *_sets("topology.n_agents=3")],
    "rates-two-entry-problem": ["rates", "--preset", "quadratic-demo", *_sets(
        "problem.c=1,2", "problem.h=1,1", "problem.l=0,0")],
    "bounds-fewer-agents": ["bounds", "--preset", "cournot-paper", *_sets("topology.n_agents=3")],
    "region-fewer-agents": ["region", "--preset", "cournot-paper", *_sets("topology.n_agents=5")],
    "topology-fewer-agents": ["topology", "--preset", "placement-paper",
                              *_sets("topology.n_agents=4")],
    # coefficients whose Hessian entries overflow
    "run-placement-omega-overflow": ["run", "--preset", "placement-paper",
                                     *_sets("problem.omega=1e308")],
    "run-cournot-omega2-overflow": ["run", "--preset", "cournot-paper",
                                    *_sets("problem.omega2=1e308")],
    "run-cournot-kappa-overflow": ["run", "--preset", "cournot-paper",
                                   *_sets("problem.kappa_range=1e308,1e308")],
    # an algorithm given as a list
    "run-algorithm-list": ["run", "--preset", "cournot-paper", *_sets("solver.algorithm=1,2")],
    "topology-algorithm-list": ["topology", "--preset", "placement-paper",
                                *_sets("solver.algorithm=1,2")],
    # agent counts numpy cannot allocate
    "run-graph-count-overflow": ["run", "--preset", "cournot-paper",
                                 *_sets("topology.n_agents=1e308")],
    "rates-graph-count-overflow": ["rates", "--preset", "quadratic-demo",
                                   *_sets("topology.n_agents=1e308")],
    "run-cournot-count-overflow": ["run", "--preset", "cournot-paper",
                                   *_sets("problem.n_agents=1e308")],
    # aggregation offsets far larger than the round's coefficients
    "rates-large-offsets": ["rates", "--preset", "quadratic-demo",
                            *_sets(f"problem.l={','.join(['1e17'] * 8)}")],
    # the benchmark's rates shape: 64 agents, 256 x 256 round matrices
    "rates-64-agents": ["rates", "--preset", "quadratic-demo", *_sets(
        f"problem.c={','.join(map(repr, np.linspace(1.0, 9.0, 64).tolist()))}",
        f"problem.h={','.join(['0.5'] * 64)}", f"problem.l={','.join(['0.25'] * 64)}",
        "topology.n_agents=64")],
    # momenta whose characteristic polynomials overflow the Jury table
    **{f"region-overflow-{alg}": ["region", "--preset", "placement-paper", *_sets(
        f"region.algorithm={alg}", f"region.momentum_max={momentum_max}",
        "region.momentum_steps=3", "region.alpha_steps=3")]
       for alg, momentum_max in (("dagt_hb", "1e300"), ("dagt_nes", "1e150"))},
    # a momentum grid whose error matrix entries overflow
    "region-matrix-overflow": ["region", "--preset", "placement-paper", *_sets(
        "region.momentum_max=1e308", "region.momentum_steps=3", "region.alpha_steps=3")],
    # step sizes from below 0 to past 1/mu and momenta from below 0: matrices
    # with a negative entry, whose radius takes the eigensolve
    "region-negative-entries": ["region", "--preset", "placement-paper", *_sets(
        "region.alpha_min=-1e-3", "region.alpha_max=0.05", "region.alpha_steps=12",
        "region.momentum_min=-1e-3", "region.momentum_max=0.05", "region.momentum_steps=12")],
    # boolean keys given a value other than true or false
    "run-compare-not-boolean": ["run", "--preset", "quadratic-demo", *_sets("run.compare=no")],
    "run-export-graph-not-boolean": ["run", "--preset", "quadratic-demo",
                                     *_sets("output.export_graph=nope")],
    # ranges and grid spans whose width overflows
    **{f"run-cournot-{name}-width": ["run", "--preset", "cournot-paper",
                                     *_sets(f"problem.{name}_range=-1e308,1e308")]
       for name in ("kappa", "theta", "sigma")},
    "run-x0-range-width": ["run", "--preset", "quadratic-demo",
                           *_sets("init.x0_range=-1e308,1e308")],
    "region-span-width": ["region", "--preset", "placement-paper", *_sets(
        "region.alpha_min=-1e308", "region.alpha_max=1e308")],
    # sizes numpy cannot index, and sizes it refuses to allocate
    "region-steps-past-index": ["region", "--preset", "placement-paper",
                                *_sets("region.alpha_steps=1e308")],
    "region-steps-past-memory": ["region", "--preset", "placement-paper",
                                 *_sets("region.alpha_steps=1e18")],
    "run-cournot-count-past-memory": ["run", "--preset", "cournot-paper", *_sets(
        "problem.n_agents=1e18", "topology.n_agents=1e18")],
    # a linear coefficient that overflows though the Hessian does not
    "run-placement-linear-overflow": ["run", "--preset", "placement-paper",
                                      *_sets("problem.omega=1e307")],
    # mu = L1, where 3 L1 / mu rounds below 3, and a tuned step that underflows
    **{f"rates-mu-equal-L1-{c}": ["rates", "--preset", "quadratic-demo",
                                  *_sets(f"problem.c={','.join([c] * 8)}")]
       for c in ("0.7", "3.3", "6.1")},
    "rates-tuned-step-underflow": ["rates", "--preset", "quadratic-demo",
                                   *_sets(f"problem.c={','.join(['1e308'] * 8)}")],
    # a heavy-ball step whose denominator overflows, a Nesterov momentum that is not finite
    "rates-tuned-hb-step-overflow": ["rates", "--preset", "quadratic-demo",
                                     *_sets(f"problem.c={','.join(['6e307'] * 8)}")],
    "rates-tuned-momentum-not-finite": ["rates", "--preset", "quadratic-demo",
                                        *_sets(f"problem.c=1e-320,{','.join(['1'] * 7)}")],
    # a ground truth x* that overflows
    "run-oracle-not-finite": ["run", "--preset", "quadratic-demo",
                              *_sets(f"problem.c=1e-320,{','.join(['1'] * 7)}")],
    # bounds.* constants that fail their checks
    **{f"bounds-{name}": ["bounds", "--preset", "placement-paper", *_sets(kv)]
       for name, kv in (("negative-L2", "bounds.L2=-1"), ("L3-square-overflow", "bounds.L3=1e200"),
                        ("L3-cube-overflow", "bounds.L3=1e120"))},
    # grids whose slab borders split alpha rows: 7 rows of 1,000, and 45 rows
    # of 101 past 1/mu, whose matrices with a negative entry take the eigensolve
    "region-slab-rows": _region("dagt_hb", 4e-8, 7, 1000),
    "region-slab-past-inverse-mu": ["region", "--preset", "placement-paper", *_sets(
        "region.algorithm=dagt_nes", "region.alpha_min=1e-4", "region.alpha_max=0.05",
        "region.alpha_steps=45", "region.momentum_min=-1e-3", "region.momentum_max=0.05",
        "region.momentum_steps=101")],
    # a grid whose axes fit but whose radius column numpy cannot allocate
    "region-grid-past-memory": ["region", "--preset", "cournot-paper", *_sets(
        "region.alpha_steps=1000000", "region.momentum_steps=1000000")],
    # a configured step size or momentum whose error matrix entry overflows
    "bounds-alpha-overflow": ["bounds", "--preset", "cournot-paper", *_sets("solver.alpha=1e308")],
    "bounds-beta-overflow": ["bounds", "--preset", "placement-paper", *_sets("solver.beta=1e308")],
    # no agents, and no preset or config
    "run-cournot-zero-agents": ["run", "--preset", "cournot-paper", *_sets("problem.n_agents=0")],
    "run-no-source": ["run"],
    # a reversed range, a start whose phi overflows, and a ground truth whose
    # gradient norm overflows and whose objective is NaN
    **{f"run-{name}-reversed": ["run", "--preset", "cournot-paper", *_sets(f"{key}={lo},{hi}")]
       for name, key, lo, hi in (("kappa-range", "problem.kappa_range", 2, 1),
                                 ("theta-range", "problem.theta_range", 20, 10),
                                 ("sigma-range", "problem.sigma_range", 5, -5),
                                 ("x0-range", "init.x0_range", 1, 0))},
    "run-x0-not-finite": ["run", "--preset", "cournot-paper", *_sets(
        "init.x0_range=0,1e308", "solver.max_iter=3")],
    "run-oracle-not-evaluable": ["run", "--preset", "cournot-paper", *_sets(
        "problem.omega1=1e308", "solver.max_iter=3")],
}


def outputs(tree, argv):
    """Exit code, stdout, stderr and the written files of one invocation."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "aggsim.cli", *argv, "--out", "out"],
                              cwd=work, env=env, capture_output=True)
        out = Path(work, "out")
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def _first_difference(old, new):
    """The first line at which two byte strings differ, shown shortened."""
    a, b = old.splitlines(), new.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    shown = [repr(lines[i][:SHOW_CHARS]) if i < len(lines) else "end of output"
             for lines in (a, b)]
    return f"line {i + 1}: {shown[0]} != {shown[1]}"


def differences(old, new):
    """Every way two invocations' outputs differ, one line each."""
    found = []
    if old["exit code"] != new["exit code"]:
        found.append(f"exit code: {old['exit code']} != {new['exit code']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found.append(f"{stream}: {_first_difference(old[stream], new[stream])}")
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            found.append(f"{name}: only in the {'new' if a is None else 'old'} tree")
        elif a != b:
            found.append(f"{name}: {_first_difference(a, b)}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--only", action="append", choices=sorted(INVOCATIONS), metavar="NAME",
                        help="run only this invocation (repeatable)")
    args = parser.parse_args(argv)
    names = args.only or list(INVOCATIONS)
    differing = 0
    for name in names:
        old = outputs(args.old_tree, INVOCATIONS[name])
        found = differences(old, outputs(args.new_tree, INVOCATIONS[name]))
        print(f"{'DIFFERENT' if found else 'same':9}  {name} (old exit {old['exit code']})",
              flush=True)
        for line in found:
            print(f"           {line}")
        differing += bool(found)
    print(f"{len(names) - differing} of {len(names)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
