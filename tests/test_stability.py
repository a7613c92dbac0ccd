import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsim.config import ExperimentConfig
from aggsim.exceptions import InconsistentResult, InvalidArgument, OutOfValidityRegion, UnsupportedDegree
from aggsim.graph import build_topology
from aggsim.oracle import solve
from aggsim.presets import get_preset
from aggsim.problems import make_quadratic
from aggsim.solver import SolverConfig, csv_text, init_state, step
from aggsim.stability import (
    StabilityConstants,
    _companion2_radius,
    attained_optimal_radius,
    char_poly,
    char_poly_4x4,
    compare_char_coeffs,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    error_matrix_nes,
    error_matrix_nes_relaxed,
    jury_stable,
    momentum_threshold_bound,
    optimal_params,
    optimal_rate_formula,
    quad_full_matrix,
    quad_reduced_radius,
    quadratic_rates,
    region_member_hb,
    region_member_nes,
)

PLACEMENT = dict(mu=40.0, L1=42.0, L2=2.0, L3=1.0)


def spectral_radius(m):
    entries = m.entries if hasattr(m, "entries") else m
    return float(np.abs(np.linalg.eigvals(entries)).max())


def random_constants(rng, l3_below_l2=False):
    mu = rng.uniform(0.2, 3.0)
    L1 = mu * rng.uniform(1.2, 20.0)
    L2 = rng.uniform(0.1, 4.0)
    L3 = rng.uniform(0.1, min(L2, 4.0)) if l3_below_l2 else rng.uniform(0.1, 4.0)
    rho = rng.uniform(0.0, 0.9)
    return StabilityConstants(mu=mu, L1=L1, L2=L2, L3=L3, rho=rho)


# ---------------------------------------------------------------------------
# Jury criterion
# ---------------------------------------------------------------------------

def random_quartic_with_roots(rng):
    """Real quartic from sampled roots with magnitudes outside the
    indeterminate band (1 - 1e-6, 1 + 1e-6)."""
    def magnitude():
        while True:
            r = rng.uniform(0.0, 2.0)
            if abs(r - 1.0) > 1e-6:
                return r

    n_pairs = rng.integers(0, 3)  # 0, 1 or 2 conjugate pairs
    roots = []
    for _ in range(n_pairs):
        r, phase = magnitude(), rng.uniform(0.05, np.pi - 0.05)
        roots += [r * np.exp(1j * phase), r * np.exp(-1j * phase)]
    while len(roots) < 4:
        roots.append(magnitude() * rng.choice([-1.0, 1.0]))
    coeffs = np.real(np.poly(np.array(roots)))[::-1]  # ascending, monic
    return coeffs, np.array(roots)


def test_jury_pure_power_is_stable():
    v = jury_stable([0.0, 0.0, 0.0, 0.0, 1.0])
    assert v.stable
    assert v.failed_condition == ""
    assert v.margin > 0


def test_jury_root_outside_unstable():
    v = jury_stable([0.0, 0.0, 0.0, -1.1, 1.0])
    assert not v.stable
    assert v.failed_condition == "H(1) > 0"


def test_jury_matches_companion_oracle_on_1000_quartics():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        coeffs, roots = random_quartic_with_roots(rng)
        verdict = jury_stable(coeffs)
        assert verdict.stable == bool(np.abs(roots).max() < 1.0)


def test_jury_general_degree_against_roots():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 8))
        roots = rng.uniform(-1.6, 1.6, n) + 1j * 0
        coeffs = np.real(np.poly(roots))[::-1]
        if np.abs(np.abs(roots) - 1.0).min() < 1e-6:
            continue
        assert jury_stable(coeffs).stable == bool(np.abs(roots).max() < 1.0)


def test_jury_degree_and_leading_coefficient_guards():
    with pytest.raises(UnsupportedDegree):
        jury_stable([1.0, 0.5, 1.0])
    with pytest.raises(InvalidArgument):
        jury_stable([0.0, 0.0, 0.0, 0.0, -1.0])


def test_jury_margin_reports_smallest_slack():
    v = jury_stable([0.5, 0.0, 0.0, 0.0, 1.0])
    # |a0| < an slack is 0.5; H(+-1) slacks are 1.5; row slacks dominate
    assert v.margin <= 0.75
    assert v.stable


# ---------------------------------------------------------------------------
# error-bound matrices
# ---------------------------------------------------------------------------

def test_hb_matrix_at_zero_step():
    rho, L2 = 0.55, 1.7
    m = error_matrix_hb(1.0, 2.0, L2, 0.8, rho, 0.0, 0.0).entries
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, rho, 0], [0, 0, 2 * L2, rho]], float
    )
    assert np.array_equal(m, expected)
    assert spectral_radius(m) == pytest.approx(1.0, abs=1e-12)


def test_hb_matrix_double_entry():
    # same entries retyped in expanded form
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = random_constants(rng)
        a, b = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        L1, L2, L3, mu, rho = c.L1, c.L2, c.L3, c.mu, c.rho
        m = error_matrix_hb(mu, L1, L2, L3, rho, a, b).entries
        retyped = np.array(
            [
                [1 - a * mu, b, a * L1, a * L3],
                [a * L1 + a * L1 * L3, b, a * L1, a * L3],
                [a * L1 * L3 + a * L1 * L3**2, b * L3, rho + a * L1 * L3, a * L3 * L3],
                [
                    a * L1 * L3 * (1 + 2 * L3 + L3**2),
                    b * L2 + b * L2 * L3,
                    a * L1 * L3 + a * L1 * L3**2 + 2 * L2,
                    rho + a * L2 * L3 + a * L2 * L3**2,
                ],
            ]
        )
        assert np.allclose(m, retyped, rtol=1e-12, atol=1e-14)


def test_nes_matrix_double_entry_and_zero_limits():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = random_constants(rng)
        a, g = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        L1, L2, L3, mu, rho = c.L1, c.L2, c.L3, c.mu, c.rho
        m = error_matrix_nes(mu, L1, L2, L3, rho, a, g).entries
        lift = 1 + a * L1 + a * L1 * L3
        inner = (1 + g) * lift + 1
        retyped = np.array(
            [
                [1 - a * mu, g - a * mu * g, a * L1, a * L3],
                [a * L1 + a * L1 * L3, g * lift, a * L1, a * L3],
                [
                    (a * L1 * L3 + a * L1 * L3**2) * (g + 1),
                    g * L3 * inner,
                    rho + a * L1 * L3 * g + a * L1 * L3,
                    a * L3**2 * g + a * L3**2,
                ],
                [
                    a * L1 * L2 * (1 + 2 * L3 + L3**2) * (g + 1),
                    g * (L2 * L3 + L2) * inner,
                    (a * L1 * L2 + a * L1 * L2 * L3) * (g + 1) + 2 * L2,
                    rho + (a * L2 * L3 + a * L2 * L3**2) * (1 + g),
                ],
            ]
        )
        assert np.allclose(m, retyped, rtol=1e-12, atol=1e-14)
    m = error_matrix_nes(1.0, 2.0, 1.5, 0.5, 0.3, 0.0, 0.0).entries
    assert spectral_radius(m) == pytest.approx(1.0, abs=1e-12)


def test_nes_matrix_gamma_zero_momentum_column():
    c = StabilityConstants(mu=1.0, L1=3.0, L2=0.7, L3=1.2, rho=0.4)
    q = error_matrix_nes(c.mu, c.L1, c.L2, c.L3, c.rho, 0.05, 0.0).entries
    p = error_matrix_hb(c.mu, c.L1, c.L2, c.L3, c.rho, 0.05, 0.0).entries
    # momentum column vanishes in both; remaining columns agree except the
    # structurally distinct row-4 first/third entries
    assert np.array_equal(q[:, 1], np.zeros(4))
    assert np.array_equal(p[:, 1], np.zeros(4))
    assert np.array_equal(q[:3, [0, 2, 3]], p[:3, [0, 2, 3]])
    assert q[3, 3] == p[3, 3]


def test_relaxed_matrix_preconditions():
    with pytest.raises(OutOfValidityRegion):
        error_matrix_nes_relaxed(1.0, 4.0, 1.0, 1.0, 0.2, 0.5, 0.1)
    with pytest.raises(OutOfValidityRegion):
        error_matrix_nes_relaxed(1.0, 4.0, 2.0, 1.0, 0.2, 0.1, 0.9)


def test_relaxed_matrix_zero_limit_radius_one():
    m = error_matrix_nes_relaxed(1.0, 2.0, 1.5, 0.5, 0.3, 0.0, 0.0).entries
    assert spectral_radius(m) == pytest.approx(1.0, abs=1e-12)


def test_relaxed_majorizes_exact_in_chain_region():
    # entries (3,1) and (4,2) of the relaxed display majorize the exact
    # matrix only under the two extra chain conditions; inside them the
    # relaxation dominates elementwise
    rng = np.random.default_rng(5)
    done = 0
    while done < 100:
        c = random_constants(rng)
        a = rng.uniform(0, 1.0 / c.L1)
        g_cap = min(1.0 / c.L2, 1.0 / c.L3, 1.0 / (1.0 + c.L3))
        g = rng.uniform(0, g_cap)
        if g + a * c.L1 * (1 + c.L3) * (1 + g) > c.L3 + (c.L3 + 1) / c.L2:
            continue
        q = error_matrix_nes(c.mu, c.L1, c.L2, c.L3, c.rho, a, g).entries
        r = error_matrix_nes_relaxed(c.mu, c.L1, c.L2, c.L3, c.rho, a, g).entries
        assert (r >= q - 1e-12).all()
        done += 1


def test_relaxed_matrix_double_entry():
    rng = np.random.default_rng(16)
    for _ in range(100):
        c = random_constants(rng)
        a = rng.uniform(0, 1.0 / c.L1)
        g = rng.uniform(0, min(1.0 / c.L2, 1.0 / c.L3))
        L1, L2, L3, mu, rho = c.L1, c.L2, c.L3, c.mu, c.rho
        r = error_matrix_nes_relaxed(mu, L1, L2, L3, rho, a, g).entries
        retyped = np.array(
            [
                [1 - a * mu, g - a * mu * g, a * L1, a * L3],
                [a * L1 + a * L1 * L3, 2 * g + g * L3, a * L1, a * L3],
                [
                    2 * a * L1 * L3 + a * L1 * L3**2,
                    g * L3**2 + 4 * g * L3 + 2 * g,
                    rho + a * L1 * L3 + a * L1,
                    a * L3**2 + a * L3,
                ],
                [
                    (a * L1 + a * L1 * L2) * (1 + 2 * L3 + L3**2),
                    g * (L3 + 1) * (L2 * L3 + 2 * L2 + L3 + 1),
                    a * L1 * L2 + a * L1 * L2 * L3 + a * L1 + a * L1 * L3 + 2 * L2,
                    rho + a * L2 + 2 * a * L2 * L3 + a * L2 * L3**2,
                ],
            ]
        )
        assert np.allclose(r, retyped, rtol=1e-12, atol=1e-14)


def test_relaxed_majorization_fails_outside_chain_region():
    # documented counterexample: large L2/L3 ratio breaks entry (4,2)
    mu, L1, L2, L3, rho = 1.0, 4.0, 5.0, 0.2, 0.3
    a, g = 0.5 / L1, 0.1
    q = error_matrix_nes(mu, L1, L2, L3, rho, a, g).entries
    r = error_matrix_nes_relaxed(mu, L1, L2, L3, rho, a, g).entries
    assert q[3, 1] > r[3, 1]


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_identity():
    assert char_poly_4x4(np.eye(4)) == pytest.approx([1.0, -4.0, 6.0, -4.0], abs=1e-12)


def test_char_poly_diagonal_symmetric_functions():
    coeffs = char_poly_4x4(np.diag([0.1, 0.2, 0.3, 0.4]))
    assert coeffs == pytest.approx([0.0024, -0.05, 0.35, -1.0], abs=1e-12)


def test_char_poly_roots_match_eigenvalues():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = rng.normal(size=(4, 4))
        coeffs = np.concatenate([char_poly_4x4(m), [1.0]])
        roots = np.roots(coeffs[::-1])
        eigs = np.linalg.eigvals(m)
        assert np.allclose(np.sort_complex(roots), np.sort_complex(eigs), atol=1e-9)


def test_closed_form_coeffs_reported_not_trusted():
    # the transcribed cubic coefficient swaps rho for alpha; the numeric
    # polynomial is the source of truth and the comparison reports deltas
    mu, L1, L2, L3, rho, a, b = 1.0, 3.0, 0.8, 1.1, 0.45, 0.07, 0.02
    cmp_hb = compare_char_coeffs("dagt_hb", mu, L1, L2, L3, rho, a, b)
    numeric_a3 = cmp_hb.numeric[3]
    trace = np.trace(error_matrix_hb(mu, L1, L2, L3, rho, a, b).entries)
    assert numeric_a3 == pytest.approx(-trace, abs=1e-12)
    assert cmp_hb.deltas[3] == pytest.approx(2 * (a - rho), abs=1e-12)
    assert np.isfinite(cmp_hb.max_abs_delta)

    cmp_nes = compare_char_coeffs("dagt_nes", mu, L1, L2, L3, rho, a, 0.05)
    trace_q = np.trace(error_matrix_nes(mu, L1, L2, L3, rho, a, 0.05).entries)
    assert cmp_nes.numeric[3] == pytest.approx(-trace_q, abs=1e-12)
    assert np.isfinite(cmp_nes.max_abs_delta)


# ---------------------------------------------------------------------------
# region membership
# ---------------------------------------------------------------------------

def test_membership_implies_contraction():
    rng = np.random.default_rng(8)
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    found = 0
    while found < 500:
        a = rng.uniform(0, 0.01)
        b = rng.uniform(0, 0.05)
        if region_member_hb(c, a, b):
            found += 1
            sr = spectral_radius(error_matrix_hb(c.mu, c.L1, c.L2, c.L3, c.rho, a, b))
            assert sr < 1.0


def test_membership_nes_implies_contraction():
    rng = np.random.default_rng(9)
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    found = 0
    while found < 200:
        a = rng.uniform(0, 0.01)
        g = rng.uniform(0, 0.05)
        if region_member_nes(c, a, g):
            found += 1
            sr = spectral_radius(error_matrix_nes(c.mu, c.L1, c.L2, c.L3, c.rho, a, g))
            assert sr < 1.0


def test_origin_not_a_member():
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    assert not region_member_hb(c, 0.0, 0.0)
    assert not region_member_nes(c, 0.0, 0.0)


def test_published_placement_step_sizes_admissible_at_small_mixing():
    # the published bound values for this instance imply a near-zero
    # contraction factor; at rho = 0 the published (alpha, beta) and
    # (alpha, gamma) pairs are members
    c = StabilityConstants(rho=0.0, **PLACEMENT)
    assert region_member_hb(c, 0.005, 0.009)
    assert region_member_nes(c, 0.005, 0.008)


# ---------------------------------------------------------------------------
# batched region path against its per-point reference
# ---------------------------------------------------------------------------

REGION_BUILDERS = {
    "dagt_hb": (error_matrix_hb, region_member_hb),
    "dagt_nes": (error_matrix_nes, region_member_nes),
}
# roots this close to the unit circle are left out of the Jury property
JURY_BAND = 1e-9


def reference_jury(coeffs):
    """The scalar Jury loop the batched table replaced: (stable, margin)
    of one ascending coefficient vector."""
    a = np.asarray(coeffs, dtype=float)
    n = a.size - 1
    slacks = [
        float(a.sum()),
        float((-1) ** n * (a * (-1.0) ** np.arange(n + 1)).sum()),
        float(a[-1] - abs(a[0])),
    ]
    row = a
    while row.size > 3:
        m = row.size
        row = row[0] * row[: m - 1] - row[m - 1] * row[::-1][: m - 1]
        slacks.append(float(abs(row[0]) - abs(row[-1])))
    return all(slack > 0 for slack in slacks), min(slacks)


def reference_region_point(algorithm, c, alpha, momentum):
    """(member, spectral radius) of one grid point as the per-point loop
    computed them: a 4x4 matrix and one eigensolve for the radius; for
    membership, positivity, then np.poly and the scalar Jury loop."""
    builder = REGION_BUILDERS[algorithm][0]
    entries = builder(c.mu, c.L1, c.L2, c.L3, c.rho, alpha, momentum).entries
    radius = float(np.abs(np.linalg.eigvals(entries)).max())
    member = alpha > 0 and momentum > 0 and reference_jury(np.poly(entries)[::-1])[0]
    return bool(member), radius


def reference_region_csv(c, algorithm, a_grid, m_grid):
    """region.csv as the per-point loop wrote it."""
    rows = [
        (float(a), float(m), *reference_region_point(algorithm, c, float(a), float(m)))
        for a in a_grid for m in m_grid
    ]
    return csv_text(("alpha", "momentum", "member", "spectral_radius"), rows)


@st.composite
def stability_constants(draw):
    mu = draw(st.floats(0.05, 5.0))
    return StabilityConstants(
        mu=mu, L1=mu * draw(st.floats(1.0, 50.0)), L2=draw(st.floats(0.0, 5.0)),
        L3=draw(st.floats(0.0, 5.0)), rho=draw(st.floats(0.0, 0.95)),
    )


# grid values spread over six decades, so the points straddle the region
# boundary; zero and negative ones exercise the positivity mask
GRID_AXIS = st.lists(
    st.floats(-6.0, 0.0).map(lambda e: 10.0**e) | st.sampled_from([0.0, -1e-3]),
    min_size=1, max_size=6,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stability_constants(), GRID_AXIS, GRID_AXIS, st.sampled_from(sorted(REGION_BUILDERS)))
def test_batched_region_matches_per_point_reference(c, alpha_fracs, momenta, algorithm):
    builder, member_fn = REGION_BUILDERS[algorithm]
    A, M = np.meshgrid(np.array(alpha_fracs) / c.L1, momenta, indexing="ij")
    matrix = builder(c.mu, c.L1, c.L2, c.L3, c.rho, A, M)
    radius = matrix.spectral_radius()
    member = member_fn(c, A, M, matrix=matrix)
    # lending the built matrix changes nothing
    assert np.array_equal(member, member_fn(c, A, M))
    for idx in np.ndindex(A.shape):
        a, m = float(A[idx]), float(M[idx])
        assert np.array_equal(matrix.entries[idx], builder(c.mu, c.L1, c.L2, c.L3, c.rho, a, m).entries)
        assert member_fn(c, a, m) is bool(member[idx])
        assert (bool(member[idx]), float(radius[idx])) == reference_region_point(algorithm, c, a, m)


@st.composite
def monic_roots(draw, degree):
    """Roots of a real monic polynomial: conjugate pairs and real roots,
    with moduli in [0, 2] outside the band around the unit circle."""
    modulus = st.floats(0.0, 2.0).filter(lambda r: abs(r - 1.0) > JURY_BAND)
    roots = []
    for _ in range(draw(st.integers(0, degree // 2))):
        r, phase = draw(modulus), draw(st.floats(0.01, math.pi - 0.01))
        roots += [r * np.exp(1j * phase), r * np.exp(-1j * phase)]
    while len(roots) < degree:
        roots.append(draw(modulus) * draw(st.sampled_from([-1.0, 1.0])))
    return roots


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(3, 6).flatmap(lambda n: st.lists(monic_roots(n), min_size=1, max_size=8)))
def test_batched_jury_agrees_with_roots(root_sets):
    coeffs = np.array([np.real(np.poly(roots))[::-1] for roots in root_sets])
    verdict = jury_stable(coeffs)
    assert verdict.stable.tolist() == [bool(np.abs(roots).max() < 1.0) for roots in root_sets]
    for i, row in enumerate(coeffs):
        # each row reads the same verdict as a scalar call and the reference loop
        single = jury_stable(row)
        assert (single.stable, single.failed_condition, single.margin) == (
            bool(verdict.stable[i]), str(verdict.failed_condition[i]), float(verdict.margin[i]))
        assert (single.stable, single.margin) == reference_jury(row)


def test_batched_jury_names_the_first_failed_condition():
    verdict = jury_stable([[0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.1, 1.0]])
    assert verdict.stable.tolist() == [True, False]
    assert verdict.failed_condition.tolist() == ["", "H(1) > 0"]
    assert verdict.margin.tolist() == [jury_stable([0.0, 0.0, 0.0, 0.0, 1.0]).margin,
                                       jury_stable([0.0, 0.0, 0.0, -1.1, 1.0]).margin]


def test_error_matrix_with_overflowing_entry_rejected():
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    with pytest.raises(InvalidArgument, match="non-finite"):
        error_matrix_hb(c.mu, c.L1, c.L2, c.L3, c.rho, np.array([1e-3, 1e308]), 0.1)
    with pytest.raises(InvalidArgument, match="non-finite"):
        region_member_nes(c, 1e308, 0.1)
    # a nonpositive point is no member and builds no matrix
    assert region_member_hb(c, -1e308, 0.1) is False


# ---------------------------------------------------------------------------
# conservative bounds
# ---------------------------------------------------------------------------

def test_witness_completion_rules():
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    b = conservative_bounds_hb(c)
    z1, z2, z3, z4 = b.witness
    assert z2 == 1.0 and z3 == 1.0
    assert z4 == pytest.approx(3 * c.L2 / (1 - c.rho), abs=1e-14)
    assert z1 == pytest.approx((2 * c.L1 * z3 + c.L3 * z4) / c.mu, abs=1e-12)
    assert z1 > (c.L1 * z3 + c.L3 * z4) / c.mu
    assert z4 > 2 * c.L2 * z3 / (1 - c.rho)


def test_alpha_bar_never_exceeds_inverse_smoothness():
    rng = np.random.default_rng(10)
    for _ in range(50):
        c = random_constants(rng)
        assert conservative_bounds_hb(c).alpha_bar <= 1.0 / c.L1
        assert conservative_bounds_nes(c).alpha_bar <= 1.0 / c.L1


def test_witness_contraction_at_half_bounds():
    # the defining property of the bounds: the error matrix strictly
    # shrinks the witness; the display form of the heavy-ball matrix makes
    # this hold in the L3 <= L2 regime (its row 4 carries L3 where the
    # underlying one-step inequalities carry L2)
    rng = np.random.default_rng(11)
    cases = [StabilityConstants(rho=0.4, **PLACEMENT), StabilityConstants(rho=0.0, **PLACEMENT)]
    cases += [random_constants(rng, l3_below_l2=True) for _ in range(50)]
    for c in cases:
        b = conservative_bounds_hb(c)
        a = b.alpha_bar / 2
        beta = b.momentum_bar / 2
        m = error_matrix_hb(c.mu, c.L1, c.L2, c.L3, c.rho, a, beta).entries
        assert ((m @ b.witness) < b.witness).all()


def test_nes_witness_contraction_inside_bounds():
    # near alpha_bar the row-4 term G4 shrinks toward zero and can bind
    rng = np.random.default_rng(13)
    cases = [StabilityConstants(rho=0.4, **PLACEMENT), StabilityConstants(rho=0.0, **PLACEMENT)]
    cases += [random_constants(rng) for _ in range(50)]
    for c in cases:
        alpha_bar = conservative_bounds_nes(c).alpha_bar
        for a in (alpha_bar / 2, 0.99 * alpha_bar):
            b = conservative_bounds_nes(c, alpha=a)
            gamma = b.momentum_bar / 2
            m = error_matrix_nes_relaxed(c.mu, c.L1, c.L2, c.L3, c.rho, a, gamma).entries
            assert ((m @ b.witness) < b.witness).all()


def preset_constants(name):
    cfg = ExperimentConfig(get_preset(name))
    return StabilityConstants.from_problem(cfg.build_problem(), cfg.build_graph())


def step_bounds(matrix_at, z, unit):
    """Each row's step-size bound of M(a, 0) z < z, and each diagonal
    entry's bound of M_ii(a, 0) < 1, for a matrix affine in a; the slope is
    taken between a = 0 and a = unit."""
    m0 = matrix_at(0.0, 0.0)
    slope = (matrix_at(unit, 0.0) - m0) / unit
    with np.errstate(divide="ignore"):
        return (z - m0 @ z) / (slope @ z), (1 - np.diag(m0)) / np.diag(slope)


def momentum_bounds(matrix_at, z, alpha, unit):
    """Each row's momentum bound of M(alpha, m) z < z, for M affine in m."""
    m0 = matrix_at(alpha, 0.0)
    return (z - m0 @ z) / ((matrix_at(alpha, unit) - m0) @ z / unit)


def hb_matrix_with_l2_in_row_4(c, alpha, beta):
    """error_matrix_hb with L2 in place of L3 at entries (4,1) and (4,3)."""
    m = error_matrix_hb(c.mu, c.L1, c.L2, c.L3, c.rho, alpha, beta).entries.copy()
    m[3, 0] = alpha * c.L1 * c.L2 * (1 + c.L3) ** 2
    m[3, 2] = alpha * c.L1 * c.L2 * (1 + c.L3) + 2 * c.L2
    return m


@pytest.mark.parametrize("preset", ["cournot-paper", "placement-paper"])
def test_hb_row_4_terms_follow_the_matrix_with_l2_in_row_4(preset):
    # J5 and M4 are the row-4 bounds of the heavy-ball matrix with a*L1*L2
    # where error_matrix_hb transcribes a*L1*L3, as the Nesterov matrix has
    c = preset_constants(preset)
    b = conservative_bounds_hb(c)
    z, unit = b.witness, 1.0 / c.L1
    rows, _ = step_bounds(lambda a, m: hb_matrix_with_l2_in_row_4(c, a, m), z, unit)
    assert b.step_terms["J5"] == pytest.approx(rows[3], rel=1e-14)
    momentum = momentum_bounds(lambda a, m: hb_matrix_with_l2_in_row_4(c, a, m), z,
                               b.alpha_eval, unit)
    assert b.momentum_terms["M4"] == pytest.approx(momentum[3], rel=1e-14)
    if preset == "cournot-paper":
        # with the transcribed entries row 4 allows only alpha < 1.17e-9, so
        # the reported box is not certified by error_matrix_hb: the
        # misprint sits in the matrix, not in the terms
        def transcribed(a, m):
            return error_matrix_hb(c.mu, c.L1, c.L2, c.L3, c.rho, a, m).entries

        rows, _ = step_bounds(transcribed, z, unit)
        assert rows[3] == pytest.approx(1.17e-9, rel=1e-2)
        slack = z[3] - (transcribed(b.alpha_eval, 0.0) @ z)[3]
        assert slack == pytest.approx(-7.34, rel=1e-2)


@pytest.mark.parametrize("preset", ["cournot-paper", "placement-paper", "random"])
def test_nes_terms_follow_the_relaxed_matrix(preset):
    rng = np.random.default_rng(14)
    cases = [preset_constants(preset)] if preset != "random" else [
        random_constants(rng) for _ in range(50)
    ]
    for c in cases:
        b = conservative_bounds_nes(c)
        t, T, G = b.witness, b.step_terms, b.momentum_terms

        def relaxed(a, g):
            return error_matrix_nes_relaxed(c.mu, c.L1, c.L2, c.L3, c.rho, a, g).entries

        rows, diag = step_bounds(relaxed, t, 1.0 / c.L1)
        derived = {"T1": rows[1], "T2": diag[2], "T3": rows[2], "T4": diag[3], "T5": rows[3]}
        momentum = momentum_bounds(relaxed, t, b.alpha_eval, min(1.0 / c.L2, 1.0 / c.L3))
        derived.update({f"G{i + 1}": momentum[i] for i in range(4)})
        for name, value in derived.items():
            assert (T | G)[name] == pytest.approx(value, rel=1e-12), name
        # T4 never binds: row 4's full bound T5 includes its diagonal
        assert T["T5"] <= T["T4"]

        # the printed T4 is the exact matrix's gamma = 0 diagonal bound, and
        # exceeds the relaxed one by (1 + L3) / L3
        printed_t4 = (1 - c.rho) / (c.L2 * c.L3 * (1 + c.L3))
        _, exact_diag = step_bounds(
            lambda a, g: error_matrix_nes(c.mu, c.L1, c.L2, c.L3, c.rho, a, g).entries,
            t, 1.0 / c.L1,
        )
        assert printed_t4 == pytest.approx(exact_diag[3], rel=1e-12)
        assert printed_t4 > T["T4"]
        # the printed G4 divides by L2 (1 + L3), below even the exact (4,2)
        # coefficient; where it is positive, row 4 of neither matrix holds there
        a, (t1, t2, t3, t4) = b.alpha_eval, t
        mu, L1, L2, L3, rho = c.mu, c.L1, c.L2, c.L3, c.rho
        printed_g4 = (
            (1 - rho - a * L2 * (1 + L3) ** 2) * t4
            - a * L1 * (L2 + 1) * (1 + L3) ** 2 * t1
            - (a * L1 * (L2 + 1) * (1 + L3) + 2 * L2) * t3
        ) / (L2 * (1 + L3) * t2)
        assert printed_g4 > G["G4"] or G["G4"] <= 0
        if printed_g4 > 0:
            exact = error_matrix_nes(mu, L1, L2, L3, rho, a, printed_g4).entries
            assert (exact @ t)[3] > t4
            if printed_g4 <= min(1 / L2, 1 / L3):
                assert (relaxed(a, printed_g4) @ t)[3] > t4


def test_conservative_box_inside_region():
    rng = np.random.default_rng(12)
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    hb = conservative_bounds_hb(c)
    nes = conservative_bounds_nes(c)
    for _ in range(200):
        a = rng.uniform(0, hb.alpha_bar)
        bb = conservative_bounds_hb(c, alpha=a).momentum_bar
        if bb > 0:
            assert region_member_hb(c, a, rng.uniform(0, bb) or bb / 2)
        a = rng.uniform(0, nes.alpha_bar)
        gb = conservative_bounds_nes(c, alpha=a).momentum_bar
        if gb > 0:
            assert region_member_nes(c, a, rng.uniform(0, gb) or gb / 2)


def test_bounds_reject_bad_witness_or_alpha():
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    with pytest.raises(InvalidArgument):
        conservative_bounds_hb(c, z2=-1.0)
    with pytest.raises(InvalidArgument):
        conservative_bounds_hb(c, alpha=1.0)


def test_bounds_handle_vanishing_lipschitz_constants():
    # quadratic instances have L2 = 0; rows whose coefficients vanish are
    # vacuous and must not produce divisions by zero
    c = StabilityConstants(mu=1.0, L1=9.0, L2=0.0, L3=0.5, rho=0.3)
    b = conservative_bounds_hb(c)
    assert 0 < b.alpha_bar <= 1.0 / 9.0
    assert b.momentum_bar > 0
    alpha_bar, momentum_bar, J, M = hand_bounds_hb(c, b.alpha_eval)
    assert b.alpha_bar == pytest.approx(alpha_bar, rel=1e-14)
    assert b.momentum_bar == pytest.approx(momentum_bar, rel=1e-14)
    assert b.step_terms["J4"] == b.step_terms["J5"] == J["J5"] == math.inf
    assert b.momentum_terms["M4"] == M["M4"] == math.inf
    # the relaxed Nesterov row 4 keeps an alpha slope against zero slack
    assert hand_bounds_nes(c)[0] == 0.0
    with pytest.raises(InvalidArgument, match=r"alpha must lie in \(0, 0\.0\)"):
        conservative_bounds_nes(c)


# the terms written out row by row, as the boxes were first derived; the
# certificate that reads them off the matrices must reproduce every one

def safe_div(num, den):
    # a vanishing denominator means the constraint row is vacuous
    return num / den if den > 0 else math.inf


def hand_bounds_hb(constants, alpha=None):
    """(alpha_bar, momentum_bar, J, M) of the heavy-ball box, z2 = z3 = 1."""
    mu, L1, L2, L3, rho = (getattr(constants, k) for k in ("mu", "L1", "L2", "L3", "rho"))
    z2 = z3 = 1.0
    z4 = 3 * L2 * z3 / (1 - rho)
    z1 = (2 * L1 * z3 + L3 * z4) / mu
    load = L1 * (1 + L3) * z1 + L1 * z3 + L3 * z4
    J = {
        "J1": safe_div(z2, load),
        "J2": safe_div(1 - rho, L1 * L3),
        "J3": safe_div((1 - rho) * z3, L1 * L3 * (1 + L3) * z1 + L1 * L3 * z3 + L3**2 * z4),
        "J4": safe_div(1 - rho, L2 * L3 * (1 + L3)),
        "J5": safe_div((1 - rho) * z4 - 2 * L2 * z3, L2 * (1 + L3) * load),
    }
    alpha_bar = min(list(J.values()) + [1.0 / L1])
    a = alpha_bar / 2 if alpha is None else alpha
    M = {
        "M1": a * (mu * z1 - L1 * z3 - L3 * z4) / z2,
        "M2": (z2 - a * L1 * (1 + L3) * z1 - a * L1 * z3 - a * L3 * z4) / z2,
        "M3": safe_div(
            (1 - rho - a * L1 * L3) * z3 - a * L1 * L3 * (1 + L3) * z1 - a * L3**2 * z4,
            L3 * z2,
        ),
        "M4": safe_div(
            (1 - rho - a * L2 * L3 * (1 + L3)) * z4
            - a * L1 * L2 * (1 + L3) ** 2 * z1
            - (a * L1 * L2 * (1 + L3) + 2 * L2) * z3,
            L2 * (1 + L3) * z2,
        ),
    }
    return alpha_bar, min(M.values()), J, M


def hand_bounds_nes(constants, alpha=None):
    """(alpha_bar, momentum_bar, T, G) of the Nesterov box, t2 = t3 = 1."""
    mu, L1, L2, L3, rho = (getattr(constants, k) for k in ("mu", "L1", "L2", "L3", "rho"))
    t2 = t3 = 1.0
    t4 = 3 * L2 * t3 / (1 - rho)
    t1 = (2 * L1 * t3 + L3 * t4) / mu
    load = L1 * (1 + L3) * t1 + L1 * t3 + L3 * t4
    T = {
        "T1": safe_div(t2, load),
        "T2": safe_div(1 - rho, L1 * (L3 + 1)),
        "T3": safe_div(
            (1 - rho) * t3,
            L1 * L3 * (2 + L3) * t1 + L1 * (L3 + 1) * t3 + (L3**2 + L3) * t4,
        ),
        "T4": safe_div(1 - rho, L2 * (1 + L3) ** 2),
        "T5": safe_div(
            (1 - rho) * t4 - 2 * L2 * t3,
            L1 * (L2 + 1) * (1 + L3) * ((1 + L3) * t1 + t3) + L2 * (1 + L3) ** 2 * t4,
        ),
    }
    alpha_bar = min(list(T.values()) + [1.0 / L1])
    a = alpha_bar / 2 if alpha is None else alpha
    G = {
        "G1": a * (mu * t1 - L1 * t3 - L3 * t4) / ((1 - mu * a) * t2),
        "G2": (t2 - a * L1 * (1 + L3) * t1 - a * L1 * t3 - a * L3 * t4) / ((2 + L3) * t2),
        "G3": (
            (1 - rho - a * L1 * (L3 + 1)) * t3
            - a * L1 * L3 * (2 + L3) * t1
            - a * L3 * (L3 + 1) * t4
        )
        / ((L3**2 + 4 * L3 + 2) * t2),
        "G4": safe_div(
            (1 - rho - a * L2 * (1 + L3) ** 2) * t4
            - a * L1 * (L2 + 1) * (1 + L3) ** 2 * t1
            - (a * L1 * (L2 + 1) * (1 + L3) + 2 * L2) * t3,
            (L3 + 1) * (L2 * L3 + 2 * L2 + L3 + 1) * t2,
        ),
    }
    caps = [safe_div(1.0, L2), safe_div(1.0, L3)]
    return alpha_bar, min(list(G.values()) + caps), T, G


def assert_matches_hand_terms(c, rel):
    for certified, hand in ((conservative_bounds_hb, hand_bounds_hb),
                            (conservative_bounds_nes, hand_bounds_nes)):
        b = certified(c)
        alpha_bar, momentum_bar, step, momentum = hand(c, b.alpha_eval)
        assert list(b.step_terms) == list(step) and list(b.momentum_terms) == list(momentum)
        for name, value in (b.step_terms | b.momentum_terms).items():
            assert value == pytest.approx((step | momentum)[name], rel=rel), name
        assert b.alpha_bar == pytest.approx(alpha_bar, rel=rel)
        assert b.momentum_bar == pytest.approx(momentum_bar, rel=rel)


@pytest.mark.parametrize("preset", ["cournot-paper", "placement-paper"])
def test_certificate_matches_hand_terms_on_presets(preset):
    assert_matches_hand_terms(preset_constants(preset), rel=1e-14)


def test_certificate_matches_hand_terms_on_random_constants():
    rng = np.random.default_rng(15)
    for _ in range(60):
        assert_matches_hand_terms(random_constants(rng), rel=1e-12)


# ---------------------------------------------------------------------------
# quadratic-case rates
# ---------------------------------------------------------------------------

def quad_instance(rng, n=None):
    n = n or int(rng.integers(3, 21))
    c = rng.uniform(0.5, 6.0, n)
    h = rng.uniform(0.0, 2.0, n)
    return make_quadratic(c, h, rng.uniform(-1, 1, n))


def test_reduced_identity_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(20):
        qp = quad_instance(rng)
        g = build_topology("random", qp.n_agents, edge_prob=0.6, seed=int(rng.integers(1000)))
        for alg in ("dagt", "dagt_hb", "dagt_nes"):
            a = rng.uniform(0.01, 1.0 / qp.constants.L1)
            mom = 0.0 if alg == "dagt" else rng.uniform(0.01, 0.9)
            full = quad_full_matrix(qp, g, a, mom, alg)
            sr = float(np.abs(np.linalg.eigvals(full)).max())
            shortcut = max(g.rho, quad_reduced_radius(qp.c, a, mom, alg))
            assert abs(sr - shortcut) <= 1e-9


def test_full_matrix_propagates_the_solver_error():
    # on the quadratic family the error (x - x*, x_prev - x*, (I - K) u,
    # (I - K) s) after a solver round is the full matrix times the error
    # before it; dagt has no x_prev block. This holds from the second round
    # on: the first starts from y_0 = x_0, not x_0 + gamma (x_0 - x_-1)
    rng = np.random.default_rng(8)
    qp = quad_instance(rng, n=6)
    g = build_topology("random", 6, edge_prob=0.6, seed=4)
    x_star = qp.as_agents(solve(qp).x_star)
    K = np.full((6, 6), 1.0 / 6)

    def error(st, with_prev):
        parts = [st.x - x_star, st.x_prev - x_star, st.u - K @ st.u, st.s - K @ st.s]
        return np.concatenate(parts if with_prev else parts[:1] + parts[2:])[:, 0]

    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        mom = 0.0 if alg == "dagt" else 0.3
        cfg = SolverConfig(alg, alpha=0.1, beta=mom, gamma=mom)
        full = quad_full_matrix(qp, g, 0.1, mom, alg)
        st = step(init_state(qp, g, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)), qp, g, cfg)
        for _ in range(10):
            before = error(st, alg != "dagt")
            st = step(st, qp, g, cfg)
            after = error(st, alg != "dagt")
            assert np.abs(after - full @ before).max() <= 1e-12 * np.abs(before).max(), alg


def reference_quad_reduced_radius(c, alpha, momentum, algorithm):
    """The separate plain, heavy-ball and Nesterov companions that the one
    momentum-family companion replaced, kept to check it."""
    c = np.asarray(c, dtype=float)
    if algorithm == "dagt":
        return float(np.abs(1.0 - alpha * c).max())
    if algorithm == "dagt_hb":
        return max(_companion2_radius(1.0 + momentum - alpha * ci, momentum) for ci in c)
    return max(
        _companion2_radius((1.0 + momentum) * (1.0 - alpha * ci), momentum * (1.0 - alpha * ci))
        for ci in c
    )


def test_reduced_radius_matches_reference_companions():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        c = rng.uniform(0.1, 10.0, int(rng.integers(1, 9)))
        alpha = rng.uniform(0.01, 2.5) / c.max()
        momentum = rng.choice([0.0, rng.uniform(0.0, 1.0)])
        for alg in ("dagt", "dagt_hb"):
            mom = 0.0 if alg == "dagt" else momentum
            assert quad_reduced_radius(c, alpha, mom, alg) == reference_quad_reduced_radius(
                c, alpha, mom, alg
            )
        ref = reference_quad_reduced_radius(c, alpha, momentum, "dagt_nes")
        assert quad_reduced_radius(c, alpha, momentum, "dagt_nes") == pytest.approx(
            ref, rel=1e-14, abs=0
        )


def test_dagt_optimal_step_reduced_rate():
    mu, L1 = 1.0, 9.0
    a, _ = optimal_params("dagt", mu, L1)
    assert a == pytest.approx(0.2)
    c = np.linspace(mu, L1, 7)
    assert quad_reduced_radius(c, a, 0.0, "dagt") == pytest.approx((L1 - mu) / (L1 + mu), abs=1e-14)


def test_hb_tuned_radius_attains_target():
    mu, L1 = 1.0, 9.0
    a, b = optimal_params("dagt_hb", mu, L1)
    assert a == pytest.approx(0.25)
    # tuned momentum is the squared target ratio; at it the radius equals
    # the ratio itself (both boundary blocks coalesce)
    assert b == pytest.approx(0.25)
    c = np.linspace(mu, L1, 7)
    assert quad_reduced_radius(c, a, b, "dagt_hb") == pytest.approx(0.5, abs=1e-12)


def test_nes_tuned_radius_attained_value():
    mu, L1 = 1.0, 9.0
    a, g = optimal_params("dagt_nes", mu, L1)
    q = math.sqrt(28.0)
    assert a == pytest.approx(1.0 / 7.0)
    assert g == pytest.approx((q - 2) / (q + 2), abs=1e-12)
    assert g == pytest.approx(0.45142, abs=1e-5)
    c = np.linspace(mu, L1, 7)
    attained = quad_reduced_radius(c, a, g, "dagt_nes")
    # the attained radius is 1 - 2/sqrt(3k+1): the extrapolated-gradient
    # family cannot reach the quoted (q-2)/(q+2) target (no two-step
    # stationary method beats the heavy-ball ratio)
    assert attained == pytest.approx(1.0 - 2.0 / q, abs=1e-10)
    assert attained == pytest.approx(attained_optimal_radius("dagt_nes", mu, L1), abs=1e-12)
    assert attained > optimal_rate_formula("dagt_nes", mu, L1)


def test_rate_formula_ordering_over_condition_grid():
    for kappa in np.linspace(1.4, 200.0, 80):
        mu, L1 = 1.0, kappa
        nes = optimal_rate_formula("dagt_nes", mu, L1)
        hb = optimal_rate_formula("dagt_hb", mu, L1)
        dagt = optimal_rate_formula("dagt", mu, L1)
        assert nes < hb < dagt


def test_quadratic_rates_report_consistency():
    qp = make_quadratic(np.linspace(1, 9, 8), np.full(8, 0.5), np.zeros(8))
    g = build_topology("random", 8, edge_prob=0.8, seed=3)
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        a, m = optimal_params(alg, 1.0, 9.0)
        rep = quadratic_rates(qp, g, a, m or 0.0, alg)
        assert rep.predicted_rate == max(rep.rho_graph, rep.reduced_radius)
        assert rep.spectral_radius == pytest.approx(rep.predicted_rate, abs=1e-7)
        assert rep.matrix.entries.shape[0] == (24 if alg == "dagt" else 32)


def test_quadratic_rates_where_the_graph_shares_the_reduced_root():
    # rho_graph of the 4-ring and the tuned heavy-ball radius are both 1/3;
    # taken whole, the dense eigensolve of the full matrix is off by 2e-6
    qp = make_quadratic(np.array([4.0, 1.0, 1.0, 1.0]), np.full(4, 0.5), np.zeros(4))
    g = build_topology("ring", 4)
    a, m = optimal_params("dagt_hb", 1.0, 4.0)
    rep = quadratic_rates(qp, g, a, m, "dagt_hb")
    assert rep.predicted_rate == pytest.approx(1 / 3, rel=1e-15)
    assert rep.spectral_radius == pytest.approx(1 / 3, abs=1e-9)
    assert rep.matrix.entries.shape == (16, 16)


def test_quadratic_rates_checks_the_block_structure(monkeypatch):
    import aggsim.stability as stability

    qp = make_quadratic(np.linspace(1, 9, 5), np.full(5, 0.5), np.zeros(5))
    g = build_topology("ring", 5)
    full = quad_full_matrix(qp, g, 0.1, 0.2, "dagt_hb")
    # in the state order (s; x, x_prev; u) every block above the diagonal is
    # exactly zero
    assert not full[15:, :15].any() and not full[:10, 10:15].any()
    full[0, 12] = 1e-300
    monkeypatch.setattr(stability, "quad_full_matrix", lambda *args: full)
    with pytest.raises(InconsistentResult, match="block lower-triangular"):
        quadratic_rates(qp, g, 0.1, 0.2, "dagt_hb")


def test_optimal_params_validation():
    with pytest.raises(InvalidArgument):
        optimal_params("dagt_hb", 2.0, 1.0)
    with pytest.raises(InvalidArgument):
        optimal_params("sgd", 1.0, 2.0)


# ---------------------------------------------------------------------------
# threshold-form rate bounds
# ---------------------------------------------------------------------------

def test_nes_threshold_bound_valid_at_smoothness_boundary():
    rng = np.random.default_rng(14)
    for _ in range(100):
        mu = rng.uniform(0.2, 2.0)
        L1 = mu * rng.uniform(1.5, 30.0)
        a = 1.0 / L1
        thr = (1 - math.sqrt(a * mu)) / (1 + math.sqrt(a * mu))
        g = rng.uniform(thr, 0.99)
        bound = momentum_threshold_bound("dagt_nes", mu, L1, a, g)
        c = np.linspace(mu, L1, 9)
        assert quad_reduced_radius(c, a, g, "dagt_nes") <= bound + 1e-12


def test_nes_threshold_bound_tight_at_tuned_parameters():
    for mu, L1 in [(1.0, 9.0), (0.5, 4.0), (2.0, 50.0)]:
        a, g = optimal_params("dagt_nes", mu, L1)
        bound = momentum_threshold_bound("dagt_nes", mu, L1, a, g)
        assert bound == pytest.approx(attained_optimal_radius("dagt_nes", mu, L1), abs=1e-12)
        c = np.linspace(mu, L1, 9)
        assert quad_reduced_radius(c, a, g, "dagt_nes") == pytest.approx(bound, abs=1e-10)


def test_nes_threshold_values_at_matched_step():
    # at alpha = 2/(mu+L1) the threshold momentum gives bound 1 - sqrt(alpha mu),
    # well below the unaccelerated ratio
    mu, L1 = 1.0, 9.0
    a = 2.0 / (mu + L1)
    thr = (1 - math.sqrt(a * mu)) / (1 + math.sqrt(a * mu))
    bound = momentum_threshold_bound("dagt_nes", mu, L1, a, thr)
    assert thr == pytest.approx(0.3819660112501051, abs=1e-12)
    assert bound == pytest.approx(1 - math.sqrt(a * mu), abs=1e-12)
    assert bound < (L1 - mu) / (L1 + mu)


def test_hb_threshold_bound_quoted_form_below_root_product_floor():
    # the quoted heavy-ball form returns beta, but every 2x2 block has
    # root product beta, so the radius can never drop below sqrt(beta);
    # the quoted bound is therefore unattainable whenever beta < 1
    mu, L1 = 1.0, 9.0
    a = 2.0 / (mu + L1)
    beta = (1 - math.sqrt(a * L1)) ** 2
    bound = momentum_threshold_bound("dagt_hb", mu, L1, a, beta)
    assert bound == pytest.approx(beta)
    assert bound < (L1 - mu) / (L1 + mu)
    c = np.linspace(mu, L1, 9)
    radius = quad_reduced_radius(c, a, beta, "dagt_hb")
    assert radius >= math.sqrt(beta) - 1e-12
    assert radius > bound


def test_hb_radius_never_below_sqrt_momentum():
    rng = np.random.default_rng(15)
    for _ in range(200):
        mu = rng.uniform(0.2, 2.0)
        L1 = mu * rng.uniform(1.2, 30.0)
        a = rng.uniform(0.01, 1.5) / L1
        beta = rng.uniform(0.01, 0.99)
        c = np.linspace(mu, L1, 5)
        assert quad_reduced_radius(c, a, beta, "dagt_hb") >= math.sqrt(beta) - 1e-12


def test_threshold_bound_preconditions():
    with pytest.raises(OutOfValidityRegion):
        momentum_threshold_bound("dagt_hb", 1.0, 9.0, 0.01, 0.0)
    with pytest.raises(OutOfValidityRegion):
        momentum_threshold_bound("dagt_nes", 1.0, 9.0, 0.01, 0.9)
    with pytest.raises(OutOfValidityRegion):
        momentum_threshold_bound("dagt_nes", 1.0, 9.0, 0.5, 0.0)
