"""Benchmark workloads: the aggsim CLI commands of one pass, drawn from a seed.

The program receives only the generated ``--set`` values. Seed-drawn
values that change a checked result (``init.seed``, ``solver.seed``) come
from small ranges whose results were recorded in ``reference.json``;
the quadratic ``c`` vector of ``rates`` is drawn freely, because its
checks are closed-form.

Each workload has a ``full`` size, the benchmark proper, and a ``tiny``
size with the same command shapes, used by the self-test.
"""

import random
from dataclasses import dataclass, field

SIZES = ("full", "tiny")

# init.seed values with a recorded reference, per workload
SWEEP_INIT_SEEDS = 8
ROBUST_INIT_SEEDS = 4
ROBUST_NOISE_SEEDS = 4

# four of the CLI's twelve default momentum values, from the slowest to the
# fastest converging and the oscillating end: a full-size pass of run and
# sweep then takes about 3 s instead of 6-8 s (2-vCPU Xeon VM), so a run
# holds about ten passes
SWEEP_VALUES = "0.0,0.5,0.9,0.99"

# tick budgets per run: the delay runs stop after ROBUST_DELAY_ITERS ticks,
# before they converge (at about 15k ticks), and the noisy runs do
# ROBUST_NOISE_ITERS ticks instead of the preset's 10000; a full-size pass
# then takes 2-3 s instead of about 14 s (2-vCPU Xeon VM), so a run holds
# about ten passes
ROBUST_DELAY_ITERS = {"full": 3000, "tiny": 150}
ROBUST_NOISE_ITERS = {"full": 1000, "tiny": 50}
ROBUST_DELAY = 2
ROBUST_SIGMA = 0.001

# (alpha_max, momentum_max) per algorithm: both grids straddle the region
# boundary of the cournot-paper constants, so members and non-members occur
REGION_RANGES = {"dagt_hb": (4e-8, 1e-3), "dagt_nes": (5e-6, 1e-3)}
REGION_ALPHA_MIN = 1e-10
REGION_MOMENTUM_MIN = 1e-6
REGION_STEPS = {"full": 100, "tiny": 8}

BOUNDS_PRESETS = ("cournot-paper", "placement-paper", "quadratic-demo")

# at fewer agents the tuned heavy-ball runs converge in too few ticks for the
# tail-rate fit: over 40 seeds the worst rel_error is 0.036 at N=64, 0.52 at N=8
RATES_AGENTS = 64
# the seed draws c inside this range and its first two entries are its ends,
# so the condition number, and with it the tuned parameters and the ticks
# to converge (251-252 over 20 seeds, worst rel_error 0.028), is the same
# for every seed; freely drawn ends moved the ticks by 12% between seeds
RATES_C_RANGE = (1.0, 9.0)
RATES_H = 0.5
RATES_L = 0.25


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` omits ``--out``."""

    kind: str  # the CLI command, which selects the output check
    label: str
    argv: tuple
    params: dict = field(default_factory=dict)  # values the check needs


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    commands: tuple
    setup_argv: tuple  # a zero-tick run of the workload's main instance
    inputs: dict  # the seed-drawn inputs


def _sets(pairs):
    out = ()
    for key, value in pairs:
        out += ("--set", f"{key}={value}")
    return out


def _zero_tick(argv):
    return ("run",) + argv + _sets([("solver.max_iter", 0)])


def cournot_sweep(init_seed, size):
    base = ("--preset", "cournot-paper") + _sets([("init.seed", init_seed)])
    if size == "tiny":
        base += _sets([("solver.max_iter", 200), ("sweep.values", "0.0,0.5")])
    else:
        base += _sets([("sweep.values", SWEEP_VALUES)])
    commands = (
        Command("run", "run", ("run",) + base, {"init_seed": init_seed}),
        Command("sweep", "sweep", ("sweep",) + base, {"init_seed": init_seed}),
    )
    return Workload("cournot-sweep", size, commands, _zero_tick(base), {"init.seed": init_seed})


def cournot_robustness(init_seed, noise_seed, size):
    noise_iters = ROBUST_NOISE_ITERS[size]
    base = ("--preset", "cournot-paper") + _sets(
        [
            ("init.seed", init_seed),
            ("solver.seed", noise_seed),
            ("robustness.delay_steps", ROBUST_DELAY),
            ("robustness.noise_sigma", ROBUST_SIGMA),
            ("robustness.noise_max_iter", noise_iters),
            ("solver.max_iter", ROBUST_DELAY_ITERS[size]),
        ]
    )
    params = {"init_seed": init_seed, "noise_seed": noise_seed, "noise_iters": noise_iters}
    commands = (Command("robustness", "robustness", ("robustness",) + base, params),)
    inputs = {"init.seed": init_seed, "solver.seed": noise_seed}
    return Workload("cournot-robustness", size, commands, _zero_tick(base), inputs)


def rates_argv(c):
    n = len(c)
    return ("--preset", "quadratic-demo") + _sets(
        [
            ("problem.c", ",".join(repr(v) for v in c)),
            ("problem.h", ",".join([repr(RATES_H)] * n)),
            ("problem.l", ",".join([repr(RATES_L)] * n)),
            ("topology.n_agents", n),
        ]
    )


def stability_scan(c, size):
    steps = REGION_STEPS[size]
    commands = []
    for algorithm, (alpha_max, momentum_max) in REGION_RANGES.items():
        argv = ("region", "--preset", "cournot-paper") + _sets(
            [
                ("region.algorithm", algorithm),
                ("region.alpha_min", REGION_ALPHA_MIN),
                ("region.alpha_max", alpha_max),
                ("region.alpha_steps", steps),
                ("region.momentum_min", REGION_MOMENTUM_MIN),
                ("region.momentum_max", momentum_max),
                ("region.momentum_steps", steps),
            ]
        )
        commands.append(
            Command("region", f"region-{algorithm}", argv, {"algorithm": algorithm, "points": steps**2})
        )
    for preset in BOUNDS_PRESETS:
        commands.append(
            Command("bounds", f"bounds-{preset}", ("bounds", "--preset", preset), {"preset": preset})
        )
    commands.append(Command("rates", "rates", ("rates",) + rates_argv(c), {"c": tuple(c)}))
    base = ("--preset", "cournot-paper")
    return Workload("stability-scan", size, tuple(commands), _zero_tick(base), {"rates.c": list(c)})


def _rng(name, seed):
    # str seeding is deterministic across interpreters (it does not use hash())
    return random.Random(f"{name}:{seed}")


def build(name, seed, size="full"):
    """The workload `name` for benchmark seed `seed`."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = _rng(name, seed)
    if name == "cournot-sweep":
        return cournot_sweep(rng.randrange(SWEEP_INIT_SEEDS), size)
    if name == "cournot-robustness":
        return cournot_robustness(
            rng.randrange(ROBUST_INIT_SEEDS), rng.randrange(ROBUST_NOISE_SEEDS), size
        )
    if name == "stability-scan":
        lo, hi = RATES_C_RANGE
        c = [lo, hi] + [rng.uniform(lo, hi) for _ in range(RATES_AGENTS - 2)]
        return stability_scan(c, size)
    raise ValueError(f"unknown workload {name!r}; available: {', '.join(NAMES)}")


NAMES = ("cournot-sweep", "cournot-robustness", "stability-scan")
