"""Parameter-stability machinery for the tracked momentum iterations.

Contents: the Jury criterion for discrete-time polynomial stability, the
4x4 one-step error-bound matrices of the heavy-ball and Nesterov schemes,
conservative step/momentum bounds from a positive-witness argument, exact
stability-region membership via the Jury table, and exact convergence
rates on the quadratic family, read off the solver's own round.

The error matrices, spectral radii, characteristic polynomials, Jury test
and region membership work on arrays: a grid of (step size, momentum)
points is one (..., 4, 4) stack whose characteristic coefficients are
read off its entries once. They serve the Jury table and, by Newton on
the polynomial, the spectral radius of every entrywise nonnegative matrix;
only the other matrices go through an eigensolve.

The 4x4 matrices are transcribed verbatim from their published display
forms. Where a published closed form is internally inconsistent (the
characteristic coefficients and the momentum threshold bound, which the
tests keep as records), the numerically computed quantity is
authoritative.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .exceptions import InconsistentResult, InvalidArgument, OutOfValidityRegion, UnsupportedDegree
from .problems import RegularityConstants
from .solver import SolverState, momentum_family, step

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
    # a stable monic polynomial has |a_k| <= C(n, k), so only an unstable one
    # overflows the table, and a NaN or inf slack reads as not stable anyway
    with np.errstate(over="ignore", invalid="ignore"):
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
class StabilityConstants(RegularityConstants):
    """Problem regularity constants plus the graph contraction factor."""

    rho: float

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.rho < 1):
            raise InvalidArgument("rho must lie in [0, 1)")
        with np.errstate(over="ignore"):
            L3 = np.float64(self.L3)
            if not np.isfinite(L3 * (1 + L3) ** 2):  # the matrices' largest power of L3
                raise InvalidArgument(f"L3 = {self.L3} too large: L3 (1 + L3)^2 overflows")

    @classmethod
    def from_problem(cls, problem, graph):
        return cls(**vars(problem.constants), rho=graph.rho)


def _fold(terms):
    """The terms added left to right, the order a scalar loop adds them in."""
    return reduce(operator.add, terms)


# Newton steps after which a matrix still moving takes the eigensolve
_NEWTON_STEPS = 100
# largest z^3 / p'(z) at a settled root (see _perron_newton)
_ROOT_CONDITION = 100.0


def _perron_newton(coeffs, z):
    """Largest real root of each monic quartic (ascending rows a0..a3, 1 of
    `coeffs`) by Newton from the upper bounds `z`, and whether each settled.

    Right of that root the polynomial is increasing and convex (Gauss-Lucas),
    so the iterates fall monotonically onto it; a step is taken only while it
    is positive and no longer than the iterate, until no iterate moves. A
    root settles with a finite value and p'(z) >= z^3 / _ROOT_CONDITION: the
    coefficients of a nonnegative matrix carry rounding of about eps z^(4-k),
    which moves a root by about eps z^4 / p'(z), so a near-multiple root is
    left to the eigensolve, as is one still moving after _NEWTON_STEPS.
    """
    a = np.ascontiguousarray(coeffs.T)  # a[k], each coefficient contiguous
    settled = np.zeros(z.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value, slope = np.ones_like(z), np.zeros_like(z)
            for k in range(3, -1, -1):  # Horner, with the derivative alongside
                slope = slope * z + value
                value = value * z + a[k]
            step = value / slope
            new = np.where((step > 0) & (step <= z), z - step, z)
            moved = new != z
            settled = ~moved & np.isfinite(value) & (z * z * z <= _ROOT_CONDITION * slope)
        if not moved.any():
            break
        z = new
    return z, settled


@dataclass(frozen=True)
class ErrorSystemMatrix:
    """A square matrix, or a stack of them over the leading axes. The
    characteristic coefficients of a 4x4 stack are computed once, from its
    entries, and serve both the Jury test and the spectral radius."""

    entries: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.entries).all():
            raise InvalidArgument("error matrix has a non-finite entry: step size or momentum too large")

    def _by_entry(self):
        """The stack as an (n, n, K) array, each entry contiguous over the K
        matrices: a view of the entries that _stacked builds."""
        flat = self.entries.reshape((-1,) + self.entries.shape[-2:])
        return np.ascontiguousarray(np.moveaxis(flat, 0, -1))

    @cached_property
    def coefficients(self):
        """Ascending monic characteristic coefficients a0..a3, 1 of the 4x4
        matrix, or of each matrix of the stack: the power traces
        p_k = tr M^k from one product M^2 (p3 = tr(M^2 M), p4 = tr(M^2 M^2)),
        then Newton's identities. Every sum runs left to right over its
        indices, so a matrix reads the same bits alone as in a stack."""
        if self.entries.shape[-2:] != (4, 4):
            raise UnsupportedDegree(f"characteristic coefficients need 4x4 matrices, "
                                    f"got {self.entries.shape[-2:]}")
        n, m = range(4), self._by_entry()
        # only a matrix far off the unit disk overflows (see jury_stable)
        with np.errstate(over="ignore", invalid="ignore"):
            sq = [_fold(m[i, k] * m[k] for k in n) for i in n]  # the rows of M^2
            p1 = _fold(m[i, i] for i in n)
            p2 = _fold(sq[i][i] for i in n)
            p3 = _fold(sq[i][j] * m[j, i] for i in n for j in n)
            p4 = _fold(sq[i][j] * sq[j][i] for i in n for j in n)
            e2 = (p1 * p1 - p2) / 2
            e3 = (e2 * p1 - p1 * p2 + p3) / 3
            e4 = (e3 * p1 - e2 * p2 + p1 * p3 - p4) / 4
        coeffs = np.stack([e4, -e3, e2, -p1, np.ones_like(p1)], axis=-1)
        return coeffs.reshape(self.entries.shape[:-2] + (5,))

    def spectral_radius(self):
        """Largest eigenvalue modulus: a float, or one per matrix of a stack.

        A 4x4 matrix whose entries are all >= 0 and whose coefficients are
        finite has its radius as a real eigenvalue (Perron-Frobenius), the
        largest real root of its characteristic polynomial: Newton finds it
        from the largest row sum, which bounds the radius (_perron_newton).
        Every other matrix, and any whose root does not settle, takes an
        eigensolve.
        """
        m = self._by_entry()
        radius = np.empty(m.shape[-1])
        newton = np.zeros(m.shape[-1], dtype=bool)
        if m.shape[:2] == (4, 4):
            coeffs = self.coefficients.reshape(-1, 5)
            newton = (m >= 0).all(axis=(0, 1)) & np.isfinite(coeffs).all(axis=1)
            bound = _fold(m[:, j] for j in range(4)).max(axis=0)  # the largest row sum
            z, settled = _perron_newton(coeffs[newton], bound[newton])
            radius[newton] = z
            newton[newton] = settled
        rest = ~newton
        if rest.any():
            flat = self.entries.reshape((-1,) + self.entries.shape[-2:])
            radius[rest] = np.abs(np.linalg.eigvals(flat[rest])).max(axis=-1)
        radius = radius.reshape(self.entries.shape[:-2])
        return float(radius) if radius.ndim == 0 else radius


def _stacked(rows):
    """The matrix whose broadcastable entries are given row by row: n x n
    for scalars, a (..., n, n) stack for arrays, held entry by entry so
    that each entry is contiguous over the stack (see _by_entry)."""
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    n = len(rows)
    by_entry = np.stack(entries).reshape((n, n) + entries[0].shape)
    return ErrorSystemMatrix(np.moveaxis(by_entry, (0, 1), (-2, -1)))


# on the builders below, an overflowing entry is reported once, by the
# ErrorSystemMatrix check, not by numpy warnings. Each takes L3 as
# np.float64, whose squares overflow to inf where a Python float's raise
# OverflowError; both powers call the same libm pow, so every finite value
# is unchanged
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")


@np.errstate(**_QUIET_OVERFLOW)
def error_matrix_hb(mu, L1, L2, L3, rho, alpha, beta):
    """4x4 one-step bound matrix of the heavy-ball error recursion.

    Row order: state error, state difference, aggregate-tracking error,
    gradient-sum-tracking error. Entries follow the published display
    form verbatim (including its row-4 constant choices). alpha and beta
    broadcast: numpy arrays give a (..., 4, 4) stack, one matrix per point.
    A non-finite entry raises InvalidArgument.
    """
    a, b, L3 = alpha, beta, np.float64(L3)
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
    a, g, L3 = alpha, gamma, np.float64(L3)
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
    a, g, L3 = alpha, gamma, np.float64(L3)
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
    """Ascending monic characteristic-polynomial coefficients a0..a3, 1 of a
    4x4 matrix, or of each matrix of a stack (over the last two axes), read
    off its entries (ErrorSystemMatrix.coefficients)."""
    return _as_matrix(matrix).coefficients


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
    its characteristic coefficients, so a caller that also wants the
    spectral radius computes them once.
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
def _certificate(matrix_at, letters, constants, alpha, momentum_caps=()):
    """Sufficient (alpha, momentum) box from the witness inequality
    M(a, m) w < w, read row by row off the 4x4 bound matrix `matrix_at`
    (called like error_matrix_hb).

    The witness is the paper's: w = (w1, 1, 1, w4), w4 = 3 L2 / (1 - rho),
    w1 = (2 L1 + L3 w4) / mu. At m = 0 every entry is affine in a, so
    M(0, 0) and M(1/L1, 0) give the step slope S: each row bounds a by its
    free slack (w - M(0, 0) w)_i over (S w)_i, and each diagonal entry by
    (1 - M_ii(0, 0)) / S_ii. The step terms are, in order, row 2,
    diagonal 3, row 3, diagonal 4 and row 4; row 1 sets no bound on this
    witness. At `alpha` (default: half of alpha_bar) each row
    bounds the momentum by its remaining slack (w - M(0, 0) w - a S w)_i
    over its momentum slope, taken at a unit inside the caps. A slope that
    is not positive sets no bound. `momentum_caps` also cap momentum_bar.
    """
    c = constants
    w4 = 3 * c.L2 / (1 - c.rho)
    w = np.array([(2 * c.L1 + c.L3 * w4) / c.mu, 1.0, 1.0, w4])

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


def conservative_bounds_hb(constants, alpha=None):
    """Sufficient (alpha, beta) box for heavy-ball stability: every point
    of {0 < a < alpha_bar, 0 < b < momentum_bar(a)} keeps the certified
    heavy-ball matrix contractive on the paper's witness (see _certificate)."""
    return _certificate(_hb_certified, "JM", constants, alpha)


def conservative_bounds_nes(constants, alpha=None):
    """Sufficient (alpha, gamma) box for Nesterov stability, from
    error_matrix_nes_relaxed; the gamma bound also enforces that matrix's
    own validity cap min(1/L2, 1/L3)."""
    caps = [1.0 / L if L > 0 else math.inf for L in (constants.L2, constants.L3)]
    return _certificate(error_matrix_nes_relaxed, "TG", constants, alpha, caps)


# ---------------------------------------------------------------------------
# Quadratic instance: exact spectral rates
# ---------------------------------------------------------------------------

def _companion2_radius(p, q):
    """Spectral radius of [[p, -q], [1, 0]], i.e. of z^2 - p z + q.

    A near-zero discriminant is classified as a double root to avoid the
    half-precision loss of generic eigensolvers at defective points. Where
    p * p overflows, it is found at p 2^-600 and q 4^-600: every root scales
    by 2^-600, and q loses only bits negligible beside p^2.
    """
    if math.isinf(p * p) and math.isfinite(p):
        return math.ldexp(_companion2_radius(math.ldexp(p, -600), math.ldexp(q, -1200)), 600)
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
    beta, gamma = momentum_family(algorithm, momentum)
    return float(max(
        _companion2_radius(1.0 + beta - alpha * ci * (1.0 + gamma), beta - alpha * ci * gamma)
        for ci in np.asarray(c, dtype=float).tolist()  # Python floats overflow quietly
    ))


def _round_matrix(qp, graph, config):
    """Linear part of one `step` round on a quadratic instance (d = 1), in
    the coordinates (s; x, x_prev; u), 4N square; dagt reads no x_prev, so
    its coordinates are (s; x; u). Without the offsets p, l and q the round
    is linear, so column j is step(e_j), unrounded by any offset. The
    matrix is filled one coordinate's block of N columns at a time: that
    coordinate's unit states sit side by side on the local axis, an (N, N)
    identity beside zeros, and every coefficient is a scalar or an (N, 1)
    column and W mixes from the left, so one `step` steps each column
    alone. A mixed unit column sums one nonzero product, so the block has
    the bits of a step on all 4N columns at once.
    """
    qp = replace(qp, **{k: np.zeros_like(getattr(qp, k)) for k in ("p", "l", "q")})
    names = ("s", "x", "u") if config.algorithm == "dagt" else ("s", "x", "x_prev", "u")
    n, gamma = qp.n_agents, config.coefficients[2]
    full = np.empty((len(names) * n, len(names) * n))
    unit, zero = np.eye(n), np.zeros((n, n))
    for j, name in enumerate(names):
        z = {k: unit if k == name else zero for k in names}
        x, x_prev, u = z["x"], z.get("x_prev", z["x"]), z["u"]
        y = x if gamma is None else x + gamma * (x - x_prev)
        state = SolverState(x, x_prev, y, u, z["s"], qp.phi_all(y), qp.grad2_all(y, u))
        new = step(state, qp, graph, config)
        for i, k in enumerate(names):
            full[i * n:(i + 1) * n, j * n:(j + 1) * n] = getattr(new, k)
    return full


@dataclass(frozen=True)
class QuadraticRateReport:
    """`matrix` is the round's linear part in (s; x, x_prev; u), x_prev
    dropped for dagt, less the averaging matrix on its s and u blocks."""

    matrix: ErrorSystemMatrix
    spectral_radius: float  # largest dense radius of the matrix's diagonal blocks
    reduced_radius: float  # exact agentwise reduction
    rho_graph: float
    predicted_rate: float  # max(rho_graph, reduced_radius) per tick of the run


def quadratic_rates(qp, graph, config):
    """Spectral convergence rate of the run at `config` on a quadratic instance.

    Reads the linear part of one round off `step` (see _round_matrix),
    computes the reduced shortcut max(rho_graph, reduced state radius), and
    checks the two for agreement. In the state order (s; x, x_prev; u) the
    round is block lower-triangular, which is checked exactly. Less the
    averaging matrix on the s and u blocks, whose means are conserved, the
    spectral radius is the largest of the three diagonal blocks' dense
    radii. Taken whole, a root shared by the blocks (rho_graph equal to the
    reduced radius) would form a longer Jordan chain and cost the
    eigensolver most of its precision. A repeated root within a block still
    costs about half, so the agreement gate is the wider of 1e-9 and a
    defectiveness-aware allowance, and a miss raises InconsistentResult;
    tests assert the tight tolerance on simple-spectrum instances. The
    radii are per round; a round takes delay_steps + 1 ticks of the run, so
    predicted_rate is the per-round rate to the power 1 / (delay_steps + 1).
    """
    full = _round_matrix(qp, graph, config)
    n = len(qp.c)
    m = len(full) - 2 * n  # x, and x_prev with momentum
    if full[:n, n:].any() or full[n : n + m, n + m :].any():
        raise InconsistentResult("round matrix is not block lower-triangular in (s; x, x_prev; u)")
    averaging = np.full((n, n), 1.0 / n)
    full[:n, :n] -= averaging
    full[n + m :, n + m :] -= averaging
    spectral = max(
        float(np.abs(np.linalg.eigvals(full[b, b])).max())
        for b in (slice(0, n), slice(n, n + m), slice(n + m, None))
    )
    reduced = quad_reduced_radius(qp.c, config.alpha, config.momentum, config.algorithm)
    rho_graph = graph.rho
    predicted = max(rho_graph, reduced)
    gate = max(1e-9, 5e-8 * (1.0 + predicted))
    if abs(spectral - predicted) > gate:
        raise InconsistentResult(f"full/reduced spectral radii disagree: {spectral} vs {predicted}")
    return QuadraticRateReport(
        matrix=ErrorSystemMatrix(full),
        spectral_radius=spectral,
        reduced_radius=reduced,
        rho_graph=rho_graph,
        # at delay 0 the power 1.0 keeps the rate
        predicted_rate=predicted ** (1.0 / (config.delay_steps + 1)),
    )


# ---------------------------------------------------------------------------
# Tuned parameters and closed-form rate targets
# ---------------------------------------------------------------------------

class TunedPoint(NamedTuple):
    alpha: float
    momentum: float
    quoted_rate: float
    attained_radius: float


def tuned_point(algorithm, mu, L1):
    """The closed-form tuned (alpha, momentum) of a quadratic instance, its
    quoted rate and the radius it attains, k = L1/mu. dagt: alpha =
    2/(mu+L1), no momentum (0.0). dagt_hb: alpha = 4/(sqrt(L1)+sqrt(mu))^2,
    momentum the squared ratio (sqrt(L1)-sqrt(mu))/(sqrt(L1)+sqrt(mu)). For
    both the quoted rate, (k-1)/(k+1) or (sqrt(k)-1)/(sqrt(k)+1), is the
    attained radius.
    dagt_nes: alpha = 4/(3 L1 + mu), momentum and quoted rate (q-2)/(q+2),
    q = sqrt(3k+1), but the family attains 1 - 2/q. Its momentum and radius
    take 3 L1/mu and its quoted rate 3 k, which can round apart (at mu = L1,
    3 L1/mu can round below 3: the momentum and radius are clamped at 0).
    A step size that underflows to 0 and a momentum that is not finite
    raise InvalidArgument.
    """
    if not (0 < mu <= L1):
        raise InvalidArgument("need 0 < mu <= L1")
    kappa = L1 / mu
    if algorithm == "dagt":
        rate = (kappa - 1.0) / (kappa + 1.0)
        tuned = TunedPoint(2.0 / (mu + L1), 0.0, rate, rate)
    elif algorithm == "dagt_hb":
        ratio = (math.sqrt(L1) - math.sqrt(mu)) / (math.sqrt(L1) + math.sqrt(mu))
        rate = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
        try:
            alpha = 4.0 / (math.sqrt(L1) + math.sqrt(mu)) ** 2
        except OverflowError:  # the squared denominator overflows: the step underflows
            alpha = 0.0
        tuned = TunedPoint(alpha, ratio**2, rate, rate)
    elif algorithm == "dagt_nes":
        q = math.sqrt(3.0 * L1 / mu + 1.0)
        quoted = math.sqrt(3.0 * kappa + 1.0)
        tuned = TunedPoint(4.0 / (3.0 * L1 + mu), max((q - 2.0) / (q + 2.0), 0.0),
                           (quoted - 2.0) / (quoted + 2.0), max(1.0 - 2.0 / q, 0.0))
    else:
        raise InvalidArgument(f"unknown algorithm {algorithm!r}")
    if tuned.alpha == 0:
        raise InvalidArgument(f"tuned {algorithm} step size underflows to 0: L1 = {L1} too large")
    if not math.isfinite(tuned.momentum):
        raise InvalidArgument(f"tuned {algorithm} momentum is not finite: 3 L1 / mu overflows "
                              f"(mu = {mu}, L1 = {L1})")
    return tuned
