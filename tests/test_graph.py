import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim.exceptions import ConstructionFailed, InvalidArgument
from aggsim.graph import (
    CommGraph,
    _metropolis,
    _pattern,
    build_topology,
    contraction_factor_of,
    validate,
)
from aggsim.solver import CommChannel


def reference_metropolis(adjacency):
    """The per-pair loop that `_metropolis` computes as arrays."""
    n = adjacency.shape[0]
    deg = adjacency.sum(axis=1)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and adjacency[i, j]:
                w[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
        w[i, i] = 1.0 - w[i].sum()
    return w


def assert_same_bytes(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def test_complete_three_agents_is_uniform():
    g = build_topology("complete", 3)
    assert np.allclose(g.weights, 1.0 / 3.0, atol=1e-15)
    assert g.rho < 1e-12


def test_ring_four_agents_circulant():
    g = build_topology("ring", 4)
    expected = np.array(
        [
            [1 / 3, 1 / 3, 0, 1 / 3],
            [1 / 3, 1 / 3, 1 / 3, 0],
            [0, 1 / 3, 1 / 3, 1 / 3],
            [1 / 3, 0, 1 / 3, 1 / 3],
        ]
    )
    assert np.allclose(g.weights, expected, atol=1e-15)
    # oracle: circulant eigenvalues (1/3)(1 + 2 cos(2 pi k / 4)), second
    # largest magnitude is 1/3
    eigs = [(1 + 2 * np.cos(2 * np.pi * k / 4)) / 3 for k in range(4)]
    second = sorted(np.abs(eigs))[-2]
    assert g.rho == pytest.approx(second, abs=1e-12)
    assert g.rho == pytest.approx(1 / 3, abs=1e-12)


def test_star_three_agents_weights():
    g = build_topology("star", 3)
    assert g.weights[0, 1] == pytest.approx(1 / 3)
    assert g.weights[0, 2] == pytest.approx(1 / 3)
    assert g.weights[1, 1] == pytest.approx(2 / 3)
    assert g.weights[2, 2] == pytest.approx(2 / 3)
    assert validate(g.weights) == []


def test_validate_identity_not_connected():
    assert validate(np.eye(2)) == ["not connected"]


def test_validate_uniform_two_agents_clean():
    assert validate(np.array([[0.5, 0.5], [0.5, 0.5]])) == []


def test_validate_reports_one_entry_per_violation():
    out = validate(np.array([[0.6, 0.5], [0.4, 0.5]]))
    assert out == ["not symmetric", "row sums != 1"]
    assert validate(np.array([[1.5, -0.5], [-0.5, 1.5]])) == ["negative entries"]
    assert validate(np.array([[0.5, 0.5], [0.0, 1.0]])) == ["not symmetric", "column sums != 1"]


def test_validate_rejects_non_square():
    with pytest.raises(InvalidArgument):
        validate(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_contraction_complete_is_zero(n):
    g = build_topology("complete", n)
    assert g.rho < 1e-12


def test_contraction_matches_independent_svd():
    g = build_topology("random", 10, edge_prob=0.4, seed=7)
    dev = g.weights - np.full((10, 10), 1.0 / 10)
    oracle = np.linalg.svd(dev, compute_uv=False)[0]
    assert 0 < g.rho < 1
    assert g.rho == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("kind,kwargs", [
    ("ring", {}),
    ("star", {}),
    ("complete", {}),
    ("random", {"edge_prob": 0.5, "seed": 3}),
])
def test_generated_graph_invariants(kind, kwargs):
    g = build_topology(kind, 8, **kwargs)
    w = g.weights
    n = g.n_agents
    assert np.abs(w.sum(axis=1) - 1).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - 1).max() <= 1e-12
    k = np.full((n, n), 1.0 / n)
    assert np.abs(w @ k - k).max() <= 1e-12
    assert np.abs(k @ w - k).max() <= 1e-12
    assert np.linalg.norm(w - np.eye(n), 2) <= 2 + 1e-12

    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=n)
        kx = np.full(n, x.mean())
        assert np.linalg.norm(w @ x - kx) <= g.rho * np.linalg.norm(x - kx) + 1e-10


def test_rho_below_one_for_connected():
    for seed in range(5):
        g = build_topology("random", 12, edge_prob=0.3, seed=seed)
        assert g.rho < 1


def test_too_few_agents_rejected():
    with pytest.raises(InvalidArgument):
        build_topology("ring", 1)


def test_random_requires_edge_prob():
    with pytest.raises(InvalidArgument):
        build_topology("random", 5)
    with pytest.raises(InvalidArgument):
        build_topology("ring", 5, edge_prob=0.5)


def test_negative_seed_rejected():
    # numpy's default_rng raises a plain ValueError on a negative seed
    with pytest.raises(InvalidArgument):
        build_topology("random", 5, edge_prob=0.5, seed=-1)


def test_unconnectable_random_raises():
    with pytest.raises(ConstructionFailed):
        build_topology("random", 40, edge_prob=1e-4, seed=0)


def test_comm_graph_rejects_invalid_matrix():
    with pytest.raises(InvalidArgument):
        CommGraph(np.eye(3))


def test_weights_csv_roundtrip():
    g = build_topology("ring", 5)
    rows = [line.split(",") for line in g.weights_csv().strip().split("\n")]
    back = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(back, g.weights)


def test_graph_is_immutable():
    g = build_topology("ring", 4)
    with pytest.raises(ValueError):
        g.weights[0, 0] = 2.0


# the array rewrites against their per-call references, bit for bit


@pytest.mark.parametrize("kind", ["ring", "star", "complete"])
@pytest.mark.parametrize("n", range(2, 13))
def test_metropolis_matches_loop_on_named_patterns(kind, n):
    adj = _pattern(kind, n, None, None)
    assert_same_bytes(_metropolis(adj), reference_metropolis(adj))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 80), edge_prob=st.floats(0.02, 1.0), seed=st.integers(0, 2**32 - 1))
def test_metropolis_matches_loop_on_random_patterns(n, edge_prob, seed):
    adj = _pattern("random", n, edge_prob, np.random.default_rng(seed))
    assert_same_bytes(_metropolis(adj), reference_metropolis(adj))


def test_metropolis_counts_a_self_loop_as_the_loop_did():
    # a True diagonal entry raises that agent's degree but gets no weight
    clean = _pattern("random", 9, 0.4, np.random.default_rng(5))
    adj = clean.copy()
    adj[3, 3] = True
    w = _metropolis(adj)
    assert_same_bytes(w, reference_metropolis(adj))
    assert not np.array_equal(w, _metropolis(clean))


def _layouts(n, d, rng):
    """An (n, d) tracker as C-ordered, Fortran-ordered and strided arrays."""
    base = rng.standard_normal((n, d))
    strided = np.zeros((2 * n, 3 * d))
    strided[::2, ::3] = base
    return base, np.asfortranarray(base), strided[::2, ::3]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 7, 50])
def test_graph_mix_equals_matmul(n, d):
    g = build_topology("random", n, edge_prob=0.5, seed=n)
    rng = np.random.default_rng(d)
    for u in _layouts(n, d, rng):
        for s in _layouts(n, d, rng):
            mix_u, mix_s = g.mix(u, s)
            assert_same_bytes(mix_u, g.weights @ u)
            assert_same_bytes(mix_s, g.weights @ s)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_noisy_channel_mix_equals_matmul_plus_recorded_noise(d):
    g = build_topology("random", 12, edge_prob=0.4, seed=d)
    channel = CommChannel(g, noise_sigma=0.3, seed=d)
    rng = np.random.default_rng(d)
    for k, (u, s) in enumerate(zip(_layouts(12, d, rng), _layouts(12, d, rng))):
        mix_u, mix_s = channel.mix(u, s)
        noise = channel._rounds[k]
        assert_same_bytes(mix_u, g.weights @ u + noise[0])
        assert_same_bytes(mix_s, g.weights @ s + noise[1])
