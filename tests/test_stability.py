import math
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aggsim.config import ExperimentConfig
from aggsim.exceptions import InconsistentResult, InvalidArgument, OutOfValidityRegion, UnsupportedDegree
from aggsim.graph import build_topology
from aggsim.oracle import solve
from aggsim.presets import get_preset
from aggsim.problems import make_quadratic
from aggsim.solver import SolverConfig, SolverState, csv_text, init_state, momentum_family, step
import aggsim.stability as stability
from aggsim.stability import (
    ErrorSystemMatrix,
    StabilityConstants,
    _companion2_radius,
    char_poly,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    error_matrix_nes,
    error_matrix_nes_relaxed,
    jury_stable,
    quad_reduced_radius,
    quadratic_rates,
    region_member_hb,
    region_member_nes,
    tuned_point,
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
    assert char_poly(np.eye(4))[:4] == pytest.approx([1.0, -4.0, 6.0, -4.0], abs=1e-12)


def test_char_poly_diagonal_symmetric_functions():
    coeffs = char_poly(np.diag([0.1, 0.2, 0.3, 0.4]))[:4]
    assert coeffs == pytest.approx([0.0024, -0.05, 0.35, -1.0], abs=1e-12)


def test_char_poly_roots_match_eigenvalues():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = rng.normal(size=(4, 4))
        coeffs = char_poly(m)
        roots = np.roots(coeffs[::-1])
        eigs = np.linalg.eigvals(m)
        assert np.allclose(np.sort_complex(roots), np.sort_complex(eigs), atol=1e-9)


# ---------------------------------------------------------------------------
# transcribed closed forms: the published characteristic coefficients and
# momentum threshold bound, kept executable as records of where the paper's
# printed forms deviate from the matrices
# ---------------------------------------------------------------------------

def char_coeffs_hb_closed_form(mu, L1, L2, L3, rho, alpha, beta):
    """Closed-form (a0, a1, a2, a3) for the heavy-ball matrix, transcribed
    from the published display. Known to deviate from the numeric
    polynomial (the cubic coefficient mixes up rho and alpha); kept only
    so compare_char_coeffs can report the discrepancy.
    """
    a, b = alpha, beta
    d1 = 1 - mu * a - a * L1 * (1 + L3)
    d2 = L3 * (1 + L3) * (L2 - L3)
    d3 = -2 * a * L2 + rho * (1 + L3)
    a0 = b * d1 * rho * (rho + 2 * a * d2)
    a1 = (
        b * (-d1 * rho + (d1 + rho) * (-rho + 2 * a * d2))
        + (mu * a - 1) * rho * (rho + a * d2)
        - a * L3 * d1 * (a * L1 * (rho + a * L3 * d2) + a * L3 * d3)
    )
    a2 = (
        b * (d1 + 2 * rho + a * d2)
        + (1 - mu * a) * (2 * rho + a * d2)
        + rho * (rho + a * d2)
        + a * L3 * d1 * (L1 + L3 * (1 + L3))
        + L3 * (a * L1 * (rho + a * d2) + a * L3 * d3)
    )
    a3 = -b + (mu - 2) * a - 1 - a * L3 * (L2 * (1 + L3) + L1)
    return np.array([a0, a1, a2, a3])


def char_coeffs_nes_closed_form(mu, L1, L2, L3, rho, alpha, gamma):
    """Closed-form (a0, a1, a2, a3) for the Nesterov matrix, transcribed
    from the published display; cross-check only (see compare_char_coeffs).
    """
    a, g = alpha, gamma
    e1 = a * (mu + L1 * (1 + L3))
    e2 = a * L2 * (rho * (1 + L3) - 2 * L3)
    e3 = g * (1 + a * L1 + a * L1 * L3)
    e4 = a * L2 * L3 * (1 + L3)
    a0 = (e1 - 1) * (a * L3 * (rho * a * L1 - e2) + rho**2 * e3) + rho**2 * a * g * e1 * L1 * (1 + L3)
    a1 = (
        (e1 - 1) * (L3 * e2 * (1 + g) - e4 * g + rho * (2 * e3 + rho - a * L3**2))
        + g * L3 * (e2 + a * L3 * (e1 + rho * e1 - 1 - 2 * rho))
        - rho**2 * e3
        - a * L1 * (1 + L3) * rho * (2 * g * e1 + rho)
    )
    a2 = (
        (1 + g) * L3 * e2
        + (e1 - 1) * ((1 + g) * e4 + 2 * rho + e3)
        + a * L1 * ((1 + L3) * (2 * rho + g * e1) + L3 * g + L3 * (1 + g) * (e1 - 1 - rho))
        - g * e4
        + rho * (2 * e3 + rho)
    )
    a3 = e1 - e2 - 1 - 2 * rho - (1 + g) * e4 - a * L1 * (L3 * (2 + g) + 1)
    return np.array([a0, a1, a2, a3])


@dataclass(frozen=True)
class CoeffComparison:
    numeric: np.ndarray
    closed_form: np.ndarray
    deltas: np.ndarray
    max_abs_delta: float


def compare_char_coeffs(algorithm, mu, L1, L2, L3, rho, alpha, momentum):
    """Numeric vs transcribed characteristic coefficients; the numeric side
    is authoritative, deviations are reported rather than resolved."""
    if algorithm in ("dagt", "dagt_hb"):
        numeric = char_poly(error_matrix_hb(mu, L1, L2, L3, rho, alpha, momentum))[:4]
        closed = char_coeffs_hb_closed_form(mu, L1, L2, L3, rho, alpha, momentum)
    elif algorithm == "dagt_nes":
        numeric = char_poly(error_matrix_nes(mu, L1, L2, L3, rho, alpha, momentum))[:4]
        closed = char_coeffs_nes_closed_form(mu, L1, L2, L3, rho, alpha, momentum)
    else:
        raise InvalidArgument(f"unknown algorithm {algorithm!r}")
    deltas = numeric - closed
    return CoeffComparison(
        numeric=numeric, closed_form=closed, deltas=deltas,
        max_abs_delta=float(np.abs(deltas).max()),
    )




def momentum_threshold_bound(algorithm, mu, L1, alpha, momentum):
    """Quoted radius bound for momentum above its coalescence threshold.

    Both forms are kept verbatim for reference; neither is a valid bound
    on the whole region it states.

    dagt_hb: requires beta >= (1 - sqrt(alpha L1))^2 and returns beta
    itself. The heavy-ball reduced radius never falls below sqrt(beta)
    (the root product of every 2x2 block is beta), so the returned value
    understates the attainable radius whenever 0 < beta < 1. The
    precondition is also off: for alpha <= 1/L1 the binding end is mu,
    and Polyak's threshold is beta >= (1 - sqrt(alpha mu))^2, on which
    the radius equals sqrt(beta). Below it the radius exceeds sqrt(beta).

    dagt_nes: requires 1/L1 <= alpha <= 1/mu and
    gamma >= (1 - sqrt(alpha mu))/(1 + sqrt(alpha mu)) and returns
    sqrt((1 - alpha mu) gamma), the modulus of the mu-end block, which is
    tight at the tuned parameters. For alpha > 1/L1 the L1-end block has
    a negative real root of magnitude
    r_L = ((1+gamma) t + sqrt((1+gamma)^2 t^2 + 4 gamma t))/2,
    t = alpha L1 - 1, and the radius is the larger of the two. The form
    therefore fails wherever r_L exceeds it, which covers most of the
    stated box; it holds at alpha = 1/L1, where r_L = 0.
    """
    slack = 1e-12  # tuned parameters sit exactly on the threshold
    if algorithm == "dagt_hb":
        if momentum < (1.0 - math.sqrt(alpha * L1)) ** 2 - slack:
            raise OutOfValidityRegion("requires beta >= (1 - sqrt(alpha L1))^2")
        return float(momentum)
    if algorithm == "dagt_nes":
        if not (1.0 / L1 - slack <= alpha <= 1.0 / mu + slack):
            raise OutOfValidityRegion("requires 1/L1 <= alpha <= 1/mu")
        thr = (1.0 - math.sqrt(alpha * mu)) / (1.0 + math.sqrt(alpha * mu))
        if momentum < thr - slack:
            raise OutOfValidityRegion("requires gamma >= (1-sqrt(alpha mu))/(1+sqrt(alpha mu))")
        return math.sqrt((1.0 - alpha * mu) * momentum)
    raise InvalidArgument(f"unknown algorithm {algorithm!r}")


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


def left_sum(terms):
    """The terms added left to right."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def reference_coefficients(m):
    """Ascending characteristic coefficients a0..a3, 1 of one 4x4 matrix
    given as nested lists of floats: the power traces tr M^k from M^2, then
    Newton's identities, every sum left to right."""
    n = range(4)
    sq = [[left_sum(m[i][k] * m[k][j] for k in n) for j in n] for i in n]
    p1 = left_sum(m[i][i] for i in n)
    p2 = left_sum(sq[i][i] for i in n)
    p3 = left_sum(sq[i][j] * m[j][i] for i in n for j in n)
    p4 = left_sum(sq[i][j] * sq[j][i] for i in n for j in n)
    e2 = (p1 * p1 - p2) / 2
    e3 = (e2 * p1 - p1 * p2 + p3) / 3
    e4 = (e3 * p1 - e2 * p2 + p1 * p3 - p4) / 4
    return [e4, -e3, e2, -p1, 1.0]


def reference_perron_radius(m, coeffs):
    """The Perron root of one nonnegative 4x4 matrix by scalar Newton on
    its characteristic polynomial from the largest row sum, or None where
    the iteration does not settle, within the package's step budget, on a
    finite value at a root whose slope is at least z^3 / _ROOT_CONDITION."""
    z = max(left_sum(row) for row in m)
    for _ in range(stability._NEWTON_STEPS):
        value, slope = 1.0, 0.0
        for k in (3, 2, 1, 0):
            slope = slope * z + value
            value = value * z + coeffs[k]
        step = value / slope if slope != 0 else math.nan
        new = z - step if 0 < step <= z else z
        if new == z:
            conditioned = math.isfinite(value) and z * z * z <= stability._ROOT_CONDITION * slope
            return z if conditioned else None
        z = new
    return None


def reference_region_point(algorithm, c, alpha, momentum):
    """(member, spectral radius) of one grid point by scalar code on the
    4x4 matrix as nested lists of floats. Membership: positivity, then the
    scalar Jury loop on reference_coefficients. Radius: the Perron root by
    reference_perron_radius where every entry is >= 0 and the coefficients
    are finite, else (and where the root does not settle) one eigensolve.
    The radius is held to that eigensolve: bit for bit where it gave it,
    within 1e-12 relative where Newton did."""
    builder = REGION_BUILDERS[algorithm][0]
    entries = builder(c.mu, c.L1, c.L2, c.L3, c.rho, alpha, momentum).entries
    m = entries.tolist()
    coeffs = reference_coefficients(m)
    member = alpha > 0 and momentum > 0 and reference_jury(coeffs)[0]
    eig_radius = float(np.abs(np.linalg.eigvals(entries)).max())
    radius = None
    if all(x >= 0 for row in m for x in row) and all(map(math.isfinite, coeffs)):
        radius = reference_perron_radius(m, coeffs)
    if radius is None:
        radius = eig_radius
    else:
        assert abs(radius - eig_radius) <= 1e-12 * eig_radius
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
        single = builder(c.mu, c.L1, c.L2, c.L3, c.rho, a, m)
        assert np.array_equal(matrix.entries[idx], single.entries)
        assert np.array_equal(matrix.coefficients[idx], single.coefficients, equal_nan=True)
        assert np.array_equal(matrix.coefficients[idx], reference_coefficients(single.entries.tolist()),
                              equal_nan=True)
        assert member_fn(c, a, m) is bool(member[idx])
        assert single.spectral_radius() == float(radius[idx])
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


# step-size fractions of 1/mu up to past 1/mu, where entry (1, 1) turns negative
ALPHA_MU_AXIS = st.lists(
    st.floats(-6.0, 0.5).map(lambda e: 10.0**e) | st.sampled_from([0.0, -1e-3]),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stability_constants(), ALPHA_MU_AXIS, GRID_AXIS, st.sampled_from(sorted(REGION_BUILDERS)))
def test_jury_on_entry_coefficients_agrees_with_eigenvalues(c, alpha_fracs, momenta, algorithm):
    # the coefficients come from the entries, so the Jury verdict is checked
    # against an eigensolve it never saw
    A, M = np.meshgrid(np.array(alpha_fracs) / c.mu, momenta, indexing="ij")
    matrix = REGION_BUILDERS[algorithm][0](c.mu, c.L1, c.L2, c.L3, c.rho, A, M)
    radius = np.abs(np.linalg.eigvals(matrix.entries)).max(axis=-1)
    clear = np.abs(radius - 1.0) > JURY_BAND
    stable = jury_stable(char_poly(matrix)).stable
    assert np.array_equal(stable[clear], radius[clear] < 1.0)


# nonnegative entries, zeros included, so that reducible matrices, ties and
# repeated roots are drawn
NONNEGATIVE_STACKS = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(4), st.just(4)),
                            elements=st.just(0.0) | st.floats(0.1, 10.0))


def assert_radius_matches_eigensolve(matrix):
    radius = matrix.spectral_radius()
    eig = np.abs(np.linalg.eigvals(matrix.entries)).max(axis=-1)
    assert np.all(np.abs(radius - eig) <= 1e-12 * eig)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(NONNEGATIVE_STACKS)
def test_perron_newton_radius_agrees_with_eigenvalues(stack):
    assert_radius_matches_eigensolve(ErrorSystemMatrix(stack))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stability_constants(), GRID_AXIS, GRID_AXIS, st.sampled_from(sorted(REGION_BUILDERS)))
def test_perron_newton_radius_on_reducible_error_matrices(c, alpha_fracs, momenta, algorithm):
    # at L2 = L3 = 0 rows 3 and 4 decouple: rho is a double root
    c = replace(c, L2=0.0, L3=0.0)
    A, M = np.meshgrid(np.array(alpha_fracs) / c.L1, momenta, indexing="ij")
    assert_radius_matches_eigensolve(REGION_BUILDERS[algorithm][0](c.mu, c.L1, c.L2, c.L3, c.rho, A, M))


# entries of both signs: the radius takes the eigensolve
SIGNED_STACKS = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(4), st.just(4)),
                       elements=st.just(0.0) | st.floats(-10.0, 10.0))


@st.composite
def near_multiple_stacks(draw):
    """Nonnegative stacks whose two largest roots are r and r (1 + delta),
    coupled by a small entry: at small delta a root that Newton leaves to
    the eigensolve, so one stack mixes both paths."""
    count = draw(st.integers(1, 8))
    stack = np.zeros((count, 4, 4))
    for m in stack:
        r = draw(st.floats(0.1, 10.0))
        delta = 10.0 ** draw(st.floats(-15.0, 0.0))
        m[np.diag_indices(4)] = [r, r * (1 + delta), *(r * draw(st.floats(0.0, 0.9)) for _ in "ab")]
        m[0, 1], m[2, 0] = draw(st.floats(0.0, 1e-3)), draw(st.floats(0.0, 1.0))
    return stack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(NONNEGATIVE_STACKS | SIGNED_STACKS | near_multiple_stacks(), st.data())
def test_split_stack_reads_the_bits_of_the_whole(stack, data):
    # region walks its grid in slabs: any split of a stack gives the whole
    # stack's coefficients, radii and memberships, bit for bit
    split = data.draw(st.integers(0, len(stack)), label="split")
    positive = np.array(data.draw(st.lists(st.booleans(), min_size=len(stack),
                                           max_size=len(stack)), label="positive"))
    alpha, momentum = np.where(positive, 1e-3, 0.0), np.full(len(stack), 0.1)
    c = StabilityConstants(rho=0.4, **PLACEMENT)
    whole = ErrorSystemMatrix(stack)
    parts = [(ErrorSystemMatrix(stack[s]), s) for s in (slice(None, split), slice(split, None))]

    def joined(read):
        return np.concatenate([np.asarray(read(part, s)) for part, s in parts]).tobytes()

    assert joined(lambda part, s: part.coefficients) == whole.coefficients.tobytes()
    assert joined(lambda part, s: part.spectral_radius()) == whole.spectral_radius().tobytes()
    for member_fn in (region_member_hb, region_member_nes):
        assert joined(lambda part, s: member_fn(c, alpha[s], momentum[s], matrix=part)) == (
            member_fn(c, alpha, momentum, matrix=whole).tobytes())


@pytest.mark.parametrize("algorithm", sorted(REGION_BUILDERS))
def test_nonnegative_grid_radius_needs_no_eigensolve(monkeypatch, algorithm):
    # every point of a benchmark grid takes Newton: the radius is found with
    # the eigensolver unavailable
    c = StabilityConstants(mu=1.2, L1=5.1, L2=0.01, L3=50.0, rho=0.71)
    A, M = np.meshgrid(np.linspace(1e-10, 4e-8, 100), np.linspace(1e-6, 1e-3, 100), indexing="ij")
    matrix = REGION_BUILDERS[algorithm][0](c.mu, c.L1, c.L2, c.L3, c.rho, A, M)
    eig = np.abs(np.linalg.eigvals(matrix.entries)).max(axis=-1)

    def no_eigensolve(entries):
        raise AssertionError(f"eigensolve of {len(entries)} matrices")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigensolve)
    radius = matrix.spectral_radius()
    assert np.all(np.abs(radius - eig) <= 1e-12 * eig)


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
    assert z4 == 3 * c.L2 / (1 - c.rho)
    assert z1 == (2 * c.L1 + c.L3 * z4) / c.mu
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


def test_bounds_reject_alpha_outside_the_box():
    c = StabilityConstants(rho=0.4, **PLACEMENT)
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


def quad_full_matrix(qp, graph, alpha, momentum, algorithm):
    """Full coupling matrix of the quadratic-instance error recursion
    (3N x 3N for dagt, 4N x 4N with momentum) on the error (x - x*,
    x_prev - x*, (I - K) u, (I - K) s), assembled from its two displayed
    block factors: the reference that `quadratic_rates`, which reads the
    round off `step`, is held to. Its aggregate row follows from
    y_{k+1} - y_k = (1 + gamma) x_{k+1} - (1 + 2 gamma) x_k + gamma x_{k-1}.
    """
    beta, gamma = momentum_family(algorithm, momentum)
    c = np.asarray(qp.c, dtype=float)
    h = np.asarray(qp.h, dtype=float)
    n = c.size
    eye = np.eye(n)
    zero = np.zeros((n, n))
    A = graph.weights
    K = np.full((n, n), 1.0 / n)
    aC = alpha * np.diag(c)
    H = np.diag(h)
    KHmH = K @ H - H

    left = [
        [eye, zero, zero, zero],
        [zero, eye, zero, zero],
        [(1 + gamma) * KHmH, zero, eye, zero],
        [zero, zero, zero, eye],
    ]
    right = [
        [(1 + beta) * eye - (1 + gamma) * aC, gamma * aC - beta * eye, zero, -alpha * H],
        [eye, zero, zero, zero],
        [(1 + 2 * gamma) * KHmH, -gamma * KHmH, A - K, zero],
        [zero, zero, zero, A - K],
    ]
    if algorithm == "dagt":
        # without momentum the previous state feeds nothing: drop its block
        left, right = ([r[:1] + r[2:] for i, r in enumerate(m) if i != 1] for m in (left, right))
    # the left factor is I + N with N one block below the diagonal, so
    # N @ N = 0 and its inverse is I - N exactly: the product keeps the
    # zero blocks of the right factor exactly zero
    full = np.block(right)
    return full - (np.block(left) - np.eye(len(full))) @ full


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
        cfg = SolverConfig(alg, alpha=0.1, momentum=mom)
        full = quad_full_matrix(qp, g, 0.1, mom, alg)
        st = step(init_state(qp, g, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)), qp, g, cfg)
        for _ in range(10):
            before = error(st, alg != "dagt")
            st = step(st, qp, g, cfg)
            after = error(st, alg != "dagt")
            assert np.abs(after - full @ before).max() <= 1e-12 * np.abs(before).max(), alg


def diagonal_blocks(full, order):
    """The s, x (with x_prev) and u diagonal blocks of a matrix whose
    coordinates come in `order`, a string of s, x, p (x_prev) and u."""
    n = len(full) // len(order)
    at = {name: np.arange(i * n, (i + 1) * n) for i, name in enumerate(order)}
    x = np.concatenate([at[name] for name in "xp" if name in at])
    return [full[np.ix_(b, b)] for b in (at["s"], x, at["u"])]


def test_rates_read_off_step_match_the_full_matrix_reference():
    # 100 random instances, every tenth with offsets l of size 1e12 or 1e17
    # (the round's linear part does not depend on l), and the shared-root
    # 4-ring, where rho_graph and the tuned heavy-ball radius are both 1/3
    # and each x block has a defective double root
    rng = np.random.default_rng(31)
    cases = []
    for i in range(100):
        qp = quad_instance(rng)
        if i % 10 == 0:
            qp = make_quadratic(qp.c, qp.h, qp.l[:, 0] * (1e12 if i % 20 else 1e17))
        g = build_topology("random", qp.n_agents, edge_prob=0.6, seed=int(rng.integers(1000)))
        for alg in ("dagt", "dagt_hb", "dagt_nes"):
            a = rng.uniform(0.01, 1.0 / qp.constants.L1)
            cases.append((qp, g, a, 0.0 if alg == "dagt" else rng.uniform(0.01, 0.9), alg))
    ring = make_quadratic(np.array([4.0, 1.0, 1.0, 1.0]), np.full(4, 0.5), np.zeros(4))
    tuned = tuned_point("dagt_hb", 1.0, 4.0)
    cases.append((ring, build_topology("ring", 4), tuned.alpha, tuned.momentum, "dagt_hb"))
    for qp, g, a, mom, alg in cases:
        rep = quadratic_rates(qp, g, SolverConfig(alg, a, mom))
        orders = ("sxu", "xus") if alg == "dagt" else ("sxpu", "xpus")
        ref = diagonal_blocks(quad_full_matrix(qp, g, a, mom, alg), orders[1])
        assert abs(rep.spectral_radius - max(map(spectral_radius, ref))) <= 1e-12
        for ours, theirs in zip(diagonal_blocks(rep.matrix.entries, orders[0]), ref):
            # each entry sums a few rounded terms of size at most 2
            assert np.abs(ours - theirs).max() <= 8 * np.finfo(float).eps


def test_rates_read_only_the_iteration_of_the_config():
    # the stopping rule changes no bit; the delay changes only
    # predicted_rate, which is per tick of the run at the config
    qp = make_quadratic(np.linspace(1, 9, 5), np.full(5, 0.5), np.zeros(5))
    g = build_topology("ring", 5)
    radii = lambda r: (r.spectral_radius, r.reduced_radius, r.rho_graph)
    for alg, momentum in (("dagt", 0.0), ("dagt_hb", 0.3), ("dagt_nes", 0.3)):
        base = quadratic_rates(qp, g, SolverConfig(alg, 0.1, momentum))
        assert base.predicted_rate == max(base.rho_graph, base.reduced_radius)
        for kw in ({"max_iter": 0}, {"max_iter": 7, "tol": 0.5}, {"tol": 0.0}, {"delay_steps": 0},
                   {"delay_steps": 1}, {"delay_steps": 2, "max_iter": 3}, {"delay_steps": 5}):
            rep = quadratic_rates(qp, g, SolverConfig(alg, 0.1, momentum, **kw))
            assert rep.matrix.entries.tobytes() == base.matrix.entries.tobytes()
            assert radii(rep) == radii(base)
            delay = kw.get("delay_steps", 0)
            assert rep.predicted_rate == base.predicted_rate ** (1.0 / (delay + 1))


@pytest.mark.parametrize("alpha,momentum,algorithm", [
    (0.0, 0.2, "dagt_hb"), (-0.1, 0.2, "dagt_nes"), (math.inf, 0.0, "dagt"),
    (math.nan, 0.2, "dagt_hb"), (0.1, -0.2, "dagt_hb"), (0.1, math.nan, "dagt_nes"),
])
def test_rates_reject_what_the_solver_config_rejects(alpha, momentum, algorithm):
    # the rates take only a built SolverConfig, so no point the run refuses
    # reaches them
    qp = make_quadratic(np.linspace(1, 9, 5), np.full(5, 0.5), np.zeros(5))
    with pytest.raises(InvalidArgument):
        quadratic_rates(qp, build_topology("ring", 5), SolverConfig(algorithm, alpha, momentum))


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
    a = tuned_point("dagt", mu, L1).alpha
    assert a == pytest.approx(0.2)
    c = np.linspace(mu, L1, 7)
    assert quad_reduced_radius(c, a, 0.0, "dagt") == pytest.approx((L1 - mu) / (L1 + mu), abs=1e-14)


def test_hb_tuned_radius_attains_target():
    mu, L1 = 1.0, 9.0
    a, b = tuned_point("dagt_hb", mu, L1)[:2]
    assert a == pytest.approx(0.25)
    # tuned momentum is the squared target ratio; at it the radius equals
    # the ratio itself (both boundary blocks coalesce)
    assert b == pytest.approx(0.25)
    c = np.linspace(mu, L1, 7)
    assert quad_reduced_radius(c, a, b, "dagt_hb") == pytest.approx(0.5, abs=1e-12)


def test_nes_tuned_radius_attained_value():
    mu, L1 = 1.0, 9.0
    tuned = tuned_point("dagt_nes", mu, L1)
    a, g = tuned[:2]
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
    assert attained == pytest.approx(tuned.attained_radius, abs=1e-12)
    assert attained > tuned.quoted_rate


def test_rate_formula_ordering_over_condition_grid():
    for kappa in np.linspace(1.4, 200.0, 80):
        mu, L1 = 1.0, kappa
        nes, hb, dagt = (tuned_point(alg, mu, L1).quoted_rate
                         for alg in ("dagt_nes", "dagt_hb", "dagt"))
        assert nes < hb < dagt


def test_quadratic_rates_report_consistency():
    qp = make_quadratic(np.linspace(1, 9, 8), np.full(8, 0.5), np.zeros(8))
    g = build_topology("random", 8, edge_prob=0.8, seed=3)
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        a, m = tuned_point(alg, 1.0, 9.0)[:2]
        rep = quadratic_rates(qp, g, SolverConfig(alg, a, m))
        assert rep.predicted_rate == max(rep.rho_graph, rep.reduced_radius)
        assert rep.spectral_radius == pytest.approx(rep.predicted_rate, abs=1e-7)
        assert rep.matrix.entries.shape[0] == (24 if alg == "dagt" else 32)


def test_quadratic_rates_where_the_graph_shares_the_reduced_root():
    # rho_graph of the 4-ring and the tuned heavy-ball radius are both 1/3;
    # taken whole, the dense eigensolve of the full matrix is off by 2e-6
    qp = make_quadratic(np.array([4.0, 1.0, 1.0, 1.0]), np.full(4, 0.5), np.zeros(4))
    g = build_topology("ring", 4)
    a, m = tuned_point("dagt_hb", 1.0, 4.0)[:2]
    rep = quadratic_rates(qp, g, SolverConfig("dagt_hb", a, m))
    assert rep.predicted_rate == pytest.approx(1 / 3, rel=1e-15)
    assert rep.spectral_radius == pytest.approx(1 / 3, abs=1e-9)
    assert rep.matrix.entries.shape == (16, 16)


def reference_round_matrix(qp, graph, config):
    """The round matrix as one `step` on every unit state at once: the unit
    states of all 4N columns side by side, an (N, 4N) array per coordinate
    cut from one identity, and the new coordinates concatenated. The
    reference that `_round_matrix`, which steps one coordinate block at a
    time, is held to bit for bit."""
    qp = replace(qp, **{k: np.zeros_like(getattr(qp, k)) for k in ("p", "l", "q")})
    names = ("s", "x", "u") if config.algorithm == "dagt" else ("s", "x", "x_prev", "u")
    m = len(names) * qp.n_agents
    z = dict(zip(names, np.eye(m).reshape(len(names), qp.n_agents, m)))
    x, x_prev, u, gamma = z["x"], z.get("x_prev", z["x"]), z["u"], config.coefficients[2]
    y = x if gamma is None else x + gamma * (x - x_prev)
    state = SolverState(x, x_prev, y, u, z["s"], qp.phi_all(y), qp.grad2_all(y, u))
    new = step(state, qp, graph, config)
    return np.concatenate([getattr(new, k) for k in names])


def test_round_matrix_by_blocks_matches_one_step_on_all_columns():
    # 40 generated instances, every fourth with offsets of size 1e17, on
    # random graphs and on a ring, at drawn step sizes and momenta for all
    # three algorithms: the same bits, signs of zeros included
    rng = np.random.default_rng(41)
    for i in range(40):
        qp = quad_instance(rng)
        if i % 4 == 0:
            qp = make_quadratic(qp.c, qp.h, qp.l[:, 0] * 1e17)
        g = (build_topology("ring", qp.n_agents) if i % 5 == 0 else
             build_topology("random", qp.n_agents, edge_prob=0.6, seed=int(rng.integers(1000))))
        for alg in ("dagt", "dagt_hb", "dagt_nes"):
            a = rng.uniform(0.01, 2.0 / qp.constants.L1)
            config = SolverConfig(alg, a, 0.0 if alg == "dagt" else rng.uniform(0.0, 0.99))
            ours, ref = stability._round_matrix(qp, g, config), reference_round_matrix(qp, g, config)
            assert ours.shape == ref.shape == (qp.n_agents * (3 if alg == "dagt" else 4),) * 2
            assert np.array_equal(ours, ref), (i, alg)
            assert np.array_equal(np.signbit(ours), np.signbit(ref)), (i, alg)


def test_quadratic_rates_memory_is_a_few_matrices():
    # the round is stepped one coordinate block at a time on (N, N) unit
    # states, so no 4N identity or (N, 4N) state sits beside the matrix;
    # one step on all 4N columns at once peaked at 3.8-4.5 matrices here
    def instance(n):
        qp = make_quadratic(np.linspace(1.0, 9.0, n), np.full(n, 0.5), np.full(n, 0.25))
        return qp, build_topology("random", n, edge_prob=0.8, seed=3)

    small, (qp, g) = instance(8), instance(128)
    for alg in ("dagt", "dagt_hb", "dagt_nes"):
        config = SolverConfig(alg, *tuned_point(alg, 1.0, 9.0)[:2])
        quadratic_rates(*small, config)  # untraced: numpy's one-time allocations
        tracemalloc.start()
        try:
            report = quadratic_rates(qp, g, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / report.matrix.entries.nbytes
        assert ratio <= 3.5, f"{alg}: peak {ratio:.2f} times the matrix"


def test_quadratic_rates_checks_the_block_structure(monkeypatch):
    qp = make_quadratic(np.linspace(1, 9, 5), np.full(5, 0.5), np.zeros(5))
    g = build_topology("ring", 5)
    config = SolverConfig("dagt_hb", alpha=0.1, momentum=0.2)
    full = stability._round_matrix(qp, g, config)
    # in the state order (s; x, x_prev; u) every block above the diagonal is
    # exactly zero
    assert not full[:5, 5:].any() and not full[5:15, 15:].any()
    full[5, 15] = 1e-300
    monkeypatch.setattr(stability, "_round_matrix", lambda *args: full)
    with pytest.raises(InconsistentResult, match="block lower-triangular"):
        quadratic_rates(qp, g, config)


def test_tuned_point_validation():
    with pytest.raises(InvalidArgument):
        tuned_point("dagt_hb", 2.0, 1.0)
    with pytest.raises(InvalidArgument):
        tuned_point("sgd", 1.0, 2.0)


@pytest.mark.parametrize("algorithm,mu,L1,message", [
    ("dagt", 1e308, 1e308, "tuned dagt step size underflows to 0: L1 = 1e+308 too large"),
    # (sqrt(L1) + sqrt(mu))^2 overflows though mu + L1 does not
    ("dagt_hb", 6e307, 6e307, "tuned dagt_hb step size underflows to 0: L1 = 6e+307 too large"),
    ("dagt_nes", 6e307, 6e307, "tuned dagt_nes step size underflows to 0: L1 = 6e+307 too large"),
    ("dagt_nes", 1e-320, 1.0, "tuned dagt_nes momentum is not finite: 3 L1 / mu overflows "
                              "(mu = 1e-320, L1 = 1.0)"),
])
def test_tuned_point_that_cannot_be_given_is_rejected(algorithm, mu, L1, message):
    with pytest.raises(InvalidArgument) as exc:
        tuned_point(algorithm, mu, L1)
    assert str(exc.value) == message


def reference_tuned(algorithm, mu, L1):
    """The tuned point, quoted rate and attained radius, each expression
    as first written, one chain per quantity, with the Nesterov momentum
    and radius clamped at 0 where mu = L1 rounds them below it."""
    kappa = L1 / mu
    if algorithm == "dagt":
        rate = (kappa - 1.0) / (kappa + 1.0)
        return (2.0 / (mu + L1), 0.0), rate, rate
    if algorithm == "dagt_hb":
        ratio = (math.sqrt(L1) - math.sqrt(mu)) / (math.sqrt(L1) + math.sqrt(mu))
        rate = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
        return (4.0 / (math.sqrt(L1) + math.sqrt(mu)) ** 2, ratio**2), rate, rate
    q = math.sqrt(3.0 * L1 / mu + 1.0)
    quoted = math.sqrt(3.0 * kappa + 1.0)
    return ((4.0 / (3.0 * L1 + mu), max((q - 2.0) / (q + 2.0), 0.0)),
            (quoted - 2.0) / (quoted + 2.0), max(1.0 - 2.0 / math.sqrt(3.0 * L1 / mu + 1.0), 0.0))


@pytest.mark.parametrize("algorithm", ["dagt", "dagt_hb", "dagt_nes"])
def test_tuned_point_is_bit_identical_to_the_reference(algorithm):
    # log-uniform mu and condition numbers over many decades, plus mu = L1;
    # 3 L1 / mu rounds below 3 for 9 of the 100 drawn and for the four
    # given, whose Nesterov momentum and radius the clamp holds at 0
    rng = np.random.default_rng(19)
    mu = 10.0 ** rng.uniform(-8, 8, 10_000)
    L1 = mu * 10.0 ** rng.uniform(0, 8, 10_000)
    points = list(zip(mu.tolist(), L1.tolist())) + [
        (m, m) for m in mu[:100].tolist() + [0.7, 3.3, 6.1, 3e307]]
    for m, l in points:
        (alpha, momentum), quoted, attained = reference_tuned(algorithm, m, l)
        got = tuple(tuned_point(algorithm, m, l))
        assert [v.hex() for v in got] == [v.hex() for v in (alpha, momentum, quoted, attained)]


@pytest.mark.parametrize("algorithm", ["dagt", "dagt_hb", "dagt_nes"])
@pytest.mark.parametrize("mu,L1", [(2.0, 1.0), (0.0, 1.0), (-1.0, 1.0)])
def test_tuned_point_rejects_mu_outside_0_to_L1(algorithm, mu, L1):
    with pytest.raises(InvalidArgument, match="need 0 < mu <= L1"):
        tuned_point(algorithm, mu, L1)


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
        a, g, _, attained = tuned_point("dagt_nes", mu, L1)
        bound = momentum_threshold_bound("dagt_nes", mu, L1, a, g)
        assert bound == pytest.approx(attained, abs=1e-12)
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


@pytest.mark.parametrize("p,q", [(1e200, 0.0), (-1e200, 3.0), (2e154, -1e300), (3e200, 1e300),
                                 (2e154, 1.5e308), (2e154, 1e308), (-1e308, 0.5)])
def test_companion_radius_where_p_squared_overflows(p, q):
    # scaling p by 2^-k and q by 4^-k scales every root by 2^-k, so the
    # unscaled tests on the scaled pair give the radius to rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius = _companion2_radius(p, q)
    k = 520
    unscaled = _companion2_radius(math.ldexp(p, -k), math.ldexp(q, -2 * k))
    assert radius == pytest.approx(math.ldexp(unscaled, k), rel=1e-15, abs=0)


def test_reduced_radius_of_a_huge_step_is_finite_and_quiet():
    # p = 1 + beta - alpha c (1 + gamma) overflows when squared, and q is
    # negligible beside p^2: the radius is |p|, 9e200 (1 + gamma) to rounding
    c = np.linspace(1.0, 9.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alg in ("dagt", "dagt_hb", "dagt_nes"):
            momentum = 0.0 if alg == "dagt" else 0.5
            radius = quad_reduced_radius(c, 1e200, momentum, alg)
            assert type(radius) is float
            gamma = momentum_family(alg, momentum)[1]
            assert radius == pytest.approx(9e200 * (1.0 + gamma), rel=1e-15), alg


def test_threshold_bound_preconditions():
    with pytest.raises(OutOfValidityRegion):
        momentum_threshold_bound("dagt_hb", 1.0, 9.0, 0.01, 0.0)
    with pytest.raises(OutOfValidityRegion):
        momentum_threshold_bound("dagt_nes", 1.0, 9.0, 0.01, 0.9)
    with pytest.raises(OutOfValidityRegion):
        momentum_threshold_bound("dagt_nes", 1.0, 9.0, 0.5, 0.0)
