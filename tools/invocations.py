"""The fixed list of aggsim CLI invocations, name -> argv (without --out).

tools/diff_outputs.py runs them to compare two source trees and records
their outputs into tools/cli_manifest.json; tests/test_cli_manifest.py runs
them in-process and compares each with its manifest entry.
"""

import hashlib

import numpy as np


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
    # a problem whose own L3 overflows, a negative sweep value and a repeated topology kind
    **{f"{command}-problem-L3-overflow": [command, "--preset", "quadratic-demo",
                                          *_sets(f"problem.h={','.join(['1e120'] * 8)}")]
       for command in ("bounds", "region")},
    "sweep-negative-value": ["sweep", "--preset", "cournot-paper", *_sets("sweep.values=-0.5")],
    "topology-repeated-kind": ["topology", "--preset", "quadratic-demo", *_sets(
        "topology_compare.kinds=ring,ring", "solver.max_iter=20")],
    # a misspelled key, read by no command
    "run-misspelled-key": ["run", "--preset", "quadratic-demo", *_sets("solver.alhpa=100")],
    "dump-config-misspelled-key": ["run", "--preset", "quadratic-demo", "--dump-config",
                                   *_sets("solver.alhpa=100")],
    # a boolean for a float key and for an int key
    "run-alpha-boolean": ["run", "--preset", "quadratic-demo", *_sets(
        "solver.alpha=true", "solver.max_iter=20")],
    "run-max-iter-boolean": ["run", "--preset", "quadratic-demo", *_sets("solver.max_iter=true")],
    # a negative tolerance, which no gradient norm can fall below
    "run-negative-tol": ["run", "--preset", "quadratic-demo", *_sets("solver.tol=-1")],
    # invalid values in keys the command does not read
    "run-unused-negative-topology-seed": ["run", "--preset", "quadratic-demo", *_sets(
        "topology.kind=ring", "topology.seed=-1")],
    "run-unused-reversed-x0-range": ["run", "--preset", "placement-paper",
                                     *_sets("init.x0_range=5,1")],
    # a negative momentum in a key the algorithm does not read (dagt reads neither)
    **{f"run-negative-unused-{key}": ["run", "--preset", "quadratic-demo", *_sets(
        f"solver.{key}=-1", "solver.max_iter=20")] for key in ("beta", "gamma")},
    "bounds-negative-beta": ["bounds", "--preset", "placement-paper", *_sets("solver.beta=-1")],
    # a zero predicted rate (rho_graph and every tuned radius are 0), and a
    # step whose reduced radius squares past the float range
    "rates-zero-prediction": ["rates", "--preset", "quadratic-demo", *_sets(
        "problem.c=1,1,1,1,1,1,1,1", "topology.kind=complete")],
    "run-huge-step": ["run", "--preset", "quadratic-demo", *_sets(
        "solver.alpha=1e200", "solver.max_iter=0")],
    # paths no other invocation reaches: the exported graph, the dumped
    # config, a robustness run whose delay and noise runs all diverge, a
    # sweep of a method with no momentum, rates on a non-quadratic problem
    # and rates with an unconverged run
    "run-export-graph": ["run", "--preset", "placement-paper", *_sets("output.export_graph=true")],
    "dump-config": ["run", "--preset", "quadratic-demo", "--dump-config"],
    "robustness-all-diverge": ["robustness", "--preset", "placement-paper", *_sets(
        "solver.alpha=5", "solver.max_iter=500", "robustness.noise_max_iter=200")],
    "sweep-dagt": ["sweep", "--preset", "quadratic-demo", *_sets("solver.algorithm=dagt")],
    "rates-cournot": ["rates", "--preset", "cournot-paper"],
    "rates-unconverged": ["rates", "--preset", "quadratic-demo", *_sets("solver.max_iter=2")],
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def manifest_entry(outputs):
    """An invocation's outputs as recorded in the manifest: the exit code,
    the stderr text and a sha256 of stdout and of each written file."""
    return {"exit code": outputs["exit code"], "stdout sha256": sha256(outputs["stdout"]),
            "stderr": outputs["stderr"].decode(),
            "files": {name: sha256(data) for name, data in sorted(outputs["files"].items())}}
