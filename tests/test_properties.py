"""Property tests of the momentum-family step, the run loop and the
stopping gradient on generated inputs.

Each example draws a generic affine-quadratic problem (every coefficient
nonzero, local dimension 1 or 2), a ring, star or complete graph, a step
size and a momentum value, optionally a seeded noisy channel, and runs
about 20 rounds, or up to two diagnostics blocks of ticks.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from aggsim.graph import build_topology
from aggsim.problems import AggregativeProblem
from aggsim.solver import ALGORITHMS, BLOCK, CommChannel, SolverConfig, init_state, run, step

from test_problems import reference_global_gradient
from test_solver import assert_runs_equal, assert_states_equal, reference_step

ROUNDS = 20
PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def signed(rng, lo, hi, size=None):
    """Uniform magnitudes in [lo, hi] with random signs: never zero."""
    return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = AggregativeProblem(
        name="generic", c=rng.uniform(10.0, 20.0, n), h=signed(rng, 0.5, 2.0, n),
        s=signed(rng, 0.1, 1.0, n), p=signed(rng, 0.1, 1.0, (n, d)),
        l=signed(rng, 0.1, 1.0, (n, d)), b=signed(rng, 0.1, 1.0), e=signed(rng, 0.1, 1.0),
        q=signed(rng, 0.1, 1.0, d),
    )
    graph = build_topology(draw(st.sampled_from(["ring", "star", "complete"])), n)
    x0 = rng.uniform(-3.0, 3.0, n * d)
    x_minus1 = rng.uniform(-3.0, 3.0, n * d)
    alpha = draw(st.floats(1e-3, 0.05))
    momentum = draw(st.floats(0.0, 0.95))
    return problem, graph, x0, x_minus1, alpha, momentum


def configs(alpha, momentum):
    return [
        SolverConfig("dagt", alpha=alpha),
        SolverConfig("dagt_hb", alpha=alpha, momentum=momentum),
        SolverConfig("dagt_nes", alpha=alpha, momentum=momentum),
    ]


def channel(graph, noise_seed):
    return None if noise_seed is None else CommChannel(graph, noise_sigma=1e-2, seed=noise_seed)


@PROPERTY_SETTINGS
@given(instances(), st.none() | st.integers(0, 1000))
def test_step_matches_reference_steps_bitwise(instance, noise_seed):
    problem, graph, x0, x_minus1, alpha, momentum = instance
    for cfg in configs(alpha, momentum):
        ours = ref = init_state(problem, graph, x0, x_minus1=x_minus1)
        ch_ours, ch_ref = channel(graph, noise_seed), channel(graph, noise_seed)
        for _ in range(ROUNDS):
            ours = step(ours, problem, ch_ours or graph, cfg)
            ref = reference_step(ref, problem, graph, cfg, ch_ref)
            assert_states_equal(ours, ref)


@PROPERTY_SETTINGS
@given(instances(), st.none() | st.integers(0, 1000), st.integers(0, 3), st.integers(0, 30),
       st.sampled_from([0.0, 1.0, 10.0]), st.booleans())
def test_run_matches_reference_run_bitwise(instance, noise_seed, delay, max_iter, tol, blow_up):
    problem, graph, x0, x_minus1, alpha, momentum = instance
    # a step size of 1e19 overflows the state within the budget, so the
    # runs must name the same divergence tick
    for cfg in configs(1e19 if blow_up else alpha, momentum):
        cfg = replace(cfg, max_iter=max_iter, tol=tol, delay_steps=delay)
        assert_runs_equal((problem, channel(graph, noise_seed) or graph, cfg, x0),
                          x_minus1=x_minus1)
        # the evaluations a step carries are the ones a fresh call gives
        state = init_state(problem, graph, x0, x_minus1=x_minus1)
        ch = channel(graph, noise_seed)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(ROUNDS):
                state = step(state, problem, ch or graph, cfg)
                assert state.phi_y.tobytes() == problem.phi_all(state.y).tobytes()
                assert state.g2_y.tobytes() == problem.grad2_all(state.y, state.u).tobytes()


# budgets from 0 to past two blocks, so that runs end on a block edge, one
# tick either side of it and inside a row's holds
@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(ALGORITHMS), st.none() | st.integers(0, 1000),
       st.integers(0, 4), st.integers(0, 2 * BLOCK + 3), st.none() | st.integers(0, 2 * BLOCK + 3),
       st.booleans())
def test_run_keeps_the_reference_clock(instance, algorithm, noise_seed, delay, max_iter, tol_row,
                                       blow_up):
    # run derives every tick from the rows it records; the reference
    # appends each one. Both give the same CSV, k, outcome and divergence tick
    problem, graph, x0, x_minus1, alpha, momentum = instance
    cfg = replace({c.algorithm: c for c in configs(alpha, momentum)}[algorithm],
                  max_iter=max_iter, tol=0.0, delay_steps=delay)
    if tol_row is not None:
        # the tol that the undelayed noise-free run first meets on row tol_row or before
        norms = run(problem, graph, replace(cfg, delay_steps=0, max_iter=tol_row), x0,
                    x_minus1=x_minus1, diagnostics=False).grad_norm
        cfg = replace(cfg, tol=float(np.nextafter(norms[-1], np.inf)))
    if blow_up:
        cfg = replace(cfg, alpha=1e19)
    assert_runs_equal((problem, channel(graph, noise_seed) or graph, cfg, x0), x_minus1=x_minus1)


@PROPERTY_SETTINGS
@given(instances())
def test_tracker_means_conserved(instance):
    problem, graph, x0, x_minus1, alpha, momentum = instance
    for cfg in configs(alpha, momentum):
        state = init_state(problem, graph, x0, x_minus1=x_minus1)
        for _ in range(ROUNDS):
            state = step(state, problem, graph, cfg)
            phi = problem.phi_all(state.y)
            g2 = problem.grad2_all(state.y, state.u)
            u_scale = max(1.0, np.abs(state.u).max(), np.abs(phi).max())
            s_scale = max(1.0, np.abs(state.s).max(), np.abs(g2).max())
            assert np.abs(state.u.mean(axis=0) - phi.mean(axis=0)).max() <= 1e-12 * u_scale
            assert np.abs(state.s.mean(axis=0) - g2.mean(axis=0)).max() <= 1e-12 * s_scale


@PROPERTY_SETTINGS
@given(instances(), st.none() | st.integers(0, 1000))
def test_zero_momentum_bitwise_equal_across_algorithms(instance, noise_seed):
    problem, graph, x0, x_minus1, alpha, _ = instance
    cfgs = configs(alpha, 0.0)
    states = [init_state(problem, graph, x0, x_minus1=x_minus1) for _ in cfgs]
    channels = [channel(graph, noise_seed) for _ in cfgs]
    for _ in range(ROUNDS):
        states = [step(s, problem, ch or graph, c) for s, c, ch in zip(states, cfgs, channels)]
        assert_states_equal(states[0], states[1])
        assert_states_equal(states[0], states[2])


@PROPERTY_SETTINGS
@given(instances())
def test_model_gradient_matches_evaluator_composition(instance):
    problem, _, x0, x_minus1, _, _ = instance
    hess, lin, _ = problem.quadratic_model
    for x in (x0, x_minus1, 100.0 * x0, np.zeros(problem.dim)):
        scale = np.linalg.norm(hess, 2) * np.linalg.norm(x) + np.linalg.norm(lin)
        error = np.linalg.norm(problem.global_gradient(x) - reference_global_gradient(problem, x))
        assert error <= 1e-12 * scale
