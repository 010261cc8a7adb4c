"""Minimal homodyne overlap versus fidelity: solvers and pair classification.

For equal means the overlap is I_phi = f(B2/B1), f concave with f(x)=f(1/x),
so its minimum sits at whichever extreme of the width ratio lies farthest
from 1 on a log scale.  The extremes are the generalized eigenvalues of the
two covariance matrices,

    mu_pm = (gamma2/gamma1) * (D +- sqrt(D^2 - 16)) / 4,

with D the squeeze mismatch; they depend on the pair only through
(gamma1, gamma2, D).  For different means there is no such reduction, but
with u = 2 phi the widths and the squared mean offset are first-degree
trigonometric polynomials in u, so the critical points of log I_phi are
the roots of a trigonometric polynomial of degree at most 4:
``minimize_overlap_general`` takes them from a companion matrix and
polishes them with safeguarded Newton steps, with no grid.

``classify_pair`` is the one classifier.  It reads the tolerance
(``default_tol``, overridable through GDIST_TOL) once and decides every
gate of the verdict with it: equal means, round states, identical states,
purity, equal thermal widths and the mixed/mixed equality surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UnsupportedPairError
from .fidelity import _fidelity, fidelity_params, squeeze_excess
from .states import (
    GaussianParams,
    default_tol,
    means_equal,
    states_equal,
    wrap_angle,
)

_SQRT2 = math.sqrt(2.0)


class PairClass(Enum):
    PURE_PURE_ALWAYS_OPTIMAL = "PurePureAlwaysOptimal"
    PURE_MIXED_NEVER_OPTIMAL = "PureMixedNeverOptimal"
    MIXED_MIXED_OPTIMAL = "MixedMixedOptimal"
    MIXED_MIXED_NOT_OPTIMAL = "MixedMixedNotOptimal"
    DIFFERENT_MEAN_SYMMETRIC_OPTIMAL = "DifferentMeanSymmetricOptimal"
    DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL = "DifferentMeanSymmetricNotOptimal"
    IDENTICAL_STATES = "IdenticalStates"


@dataclass(frozen=True)
class OptimalityVerdict:
    """Classification of a state pair with numeric witnesses.

    ``gap`` is min_phi I_phi - F; ``witness_phi`` is an angle achieving
    I_phi = F when the class is an optimal variant; ``condition_residual``
    is D - 2*thermal_ratio_sum for mixed/mixed pairs, None otherwise.
    """

    kind: PairClass
    gap: float
    witness_phi: float | None = None
    condition_residual: float | None = None


@dataclass(frozen=True)
class S2Root:
    """Solution of the mixed/mixed equality surface, canonicalized to s2 >= 1.

    A sub-unity raw root is reported as (1/root, theta_tilde + pi/2); both
    describe the same second state.
    """

    s2: float
    theta_tilde: float


def thermal_ratio_sum(g1: float, g2: float) -> float:
    """Symmetric ratio sum of the thermal factors gamma - 1/gamma.

    t2/t1 + t1/t2 with ti = gamma_i - 1/gamma_i; >= 2, equal iff g1 = g2.
    Defined for mixed states only (gamma > 1).
    """
    t1 = g1 - 1.0 / g1
    t2 = g2 - 1.0 / g2
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("thermal_ratio_sum needs gamma > 1 on both sides")
    return t2 / t1 + t1 / t2


def _thermal_excess(g1: float, g2: float) -> float:
    """thermal_ratio_sum - 2 = (t1 - t2)^2 / (t1 t2), without cancellation.

    t1 - t2 = (g1 - g2)(1 + 1/(g1 g2)) and t = (g - 1)(g + 1)/g, where the
    difference of the ratio sum and 2 loses its digits for nearly equal gammas.
    """
    t_gap = (g1 - g2) * (1.0 + 1.0 / (g1 * g2))
    t_prod = (g1 - 1.0) * (g1 + 1.0) / g1 * ((g2 - 1.0) * (g2 + 1.0) / g2)
    return t_gap * t_gap / t_prod


def ratio_extremes(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Extremal values (mu_minus, mu_plus) of B2/B1 over the angle.

    Generalized eigenvalues of the covariance pair; roots of
    mu^2 - mu (gamma2/gamma1) D / 2 + (gamma2/gamma1)^2 = 0.  The
    discriminant is taken as (D - 4)(D + 4) with D - 4 from
    ``squeeze_excess``, a sum of nonnegative terms, so nearly identical
    ellipses (D -> 4) keep their digits; mu_minus comes from the product
    mu_plus mu_minus = ratio^2.
    """
    ratio = p2.gamma / p1.gamma
    excess = squeeze_excess(p1, p2)
    big = 4.0 + excess + math.sqrt(excess * (excess + 8.0))  # D + sqrt(D^2 - 16)
    return ratio * 4.0 / big, ratio * big / 4.0


def _covariance_entries(p: GaussianParams) -> tuple[float, float, float]:
    """(c00, c01, c11) of R(theta) diag(gamma s, gamma/s) R(theta)^T."""
    c, sn = math.cos(p.theta), math.sin(p.theta)
    long, short = p.gamma * p.s, p.gamma / p.s
    return long * c * c + short * sn * sn, (long - short) * c * sn, long * sn * sn + short * c * c


def _extreme_angle(p1: GaussianParams, p2: GaussianParams, mu: float) -> float:
    """Angle where B2/B1 attains the extreme ``mu`` (null direction of C2 - mu*C1)."""
    a00, a01, a11 = _covariance_entries(p1)
    b00, b01, b11 = _covariance_entries(p2)
    m00, m01, m11 = b00 - mu * a00, b01 - mu * a01, b11 - mu * a11
    # null vector of a singular symmetric 2x2; pick the better-conditioned row
    if abs(m00) + abs(m01) >= abs(m01) + abs(m11):
        u = (m01, -m00)
    else:
        u = (m11, -m01)
    if u == (0.0, 0.0):  # ratio constant in phi
        return 0.0
    return wrap_angle(math.atan2(u[1], u[0]))


def _extreme_overlaps(mu_plus: float, mu_minus: float) -> tuple[float, float]:
    """f(x) = sqrt(2) x^{1/4} / sqrt(1 + x) at both ratio extremes.

    Scalar arithmetic except the fourth roots, which one numpy power call
    takes for both: numpy's vectorized pow and libm's differ in the last bit
    for a few percent of arguments, and the printed minimum keeps numpy's
    bits.
    """
    root_plus, root_minus = np.power((mu_plus, mu_minus), 0.25).tolist()
    return (
        _SQRT2 * root_plus / math.sqrt(1.0 + mu_plus),
        _SQRT2 * root_minus / math.sqrt(1.0 + mu_minus),
    )


def _minimize_same_mean(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Analytic route of ``minimize_overlap``; the caller has checked the means."""
    mu_minus, mu_plus = ratio_extremes(p1, p2)
    f_plus, f_minus = _extreme_overlaps(mu_plus, mu_minus)
    if f_plus <= f_minus:
        mu, val = mu_plus, f_plus
    else:
        mu, val = mu_minus, f_minus
    return _extreme_angle(p1, p2, mu), val


def minimize_overlap(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Minimize I_phi over the measurement angle.

    Same-mean pairs take the analytic route: f at both ratio extremes, the
    smaller kept, the angle from the extreme's null direction.  Pairs with
    different means go to ``minimize_overlap_general``.  Returns
    (phi_min, overlap_min).
    """
    if not means_equal(p1, p2):
        return minimize_overlap_general(p1, p2)
    return _minimize_same_mean(p1, p2)


#: The slope numerator is sampled at u_k = 2 pi k / 9 (u = 2 phi).  _TRIG
#: maps the (1, cos u, sin u) coefficients of a first-degree trigonometric
#: polynomial to its samples; _DFT maps 9 samples of one of degree <= 4 to
#: its Laurent coefficients c_-4 .. c_4 in z = e^{iu}.
_SAMPLE_U = 2.0 * np.pi * np.arange(9) / 9.0
_TRIG = np.array([np.ones(9), np.cos(_SAMPLE_U), np.sin(_SAMPLE_U)])
_DFT = np.exp(-1j * np.outer(np.arange(-4, 5), _SAMPLE_U)) / 9.0
#: Coefficients below this fraction of the largest sampled term of the
#: numerator are roundoff left by its cancellations; trimming them drops
#: only roots far from the unit circle (round pairs: degree 1).
_COEFF_TRIM = 1e-13
#: Cap on the iterates of one safeguarded Newton descent; bisections of a
#: bracket up to 3e-3 wide reach float resolution well within it.
_POLISH_STEPS = 60


def _critical_angles(p1: GaussianParams, p2: GaussianParams) -> np.ndarray:
    """Approximate critical angles of log I_phi, from a companion matrix.

    With u = 2 phi, b1, b2 and beta_phi^2 are first-degree trigonometric
    polynomials in u, so with P = b1 b2 and S = b1 + b2

        4 P S^2 dlogI/du = S (S P' - 2 P S') + 4 P (Q S' - S Q'),  Q = beta_phi^2,

    has degree at most 4 by counting.  The top harmonics of S P' - 2 P S'
    and of Q S' - S Q' cancel, so the degree is at most 3 and at most 6
    roots remain after trimming.  They are the arguments of the eigenvalues
    of the companion matrix of z^4 times its Laurent series (Boyd, Solving
    Transcendental Equations, SIAM 2014).
    Every eigenvalue yields an angle, including those off the unit circle;
    the caller evaluates them all.
    """
    rows = []
    for p in (p1, p2):
        half_sum = 0.5 * p.gamma * (p.s + 1.0 / p.s)
        half_diff = 0.5 * p.gamma * (p.s - 1.0 / p.s)
        angle = 2.0 * p.theta
        rows.append((half_sum, half_diff * math.cos(angle), half_diff * math.sin(angle)))
    dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y
    rows.append((0.5 * (dx * dx + dy * dy), 0.5 * (dx * dx - dy * dy), dx * dy))
    rows += [(0.0, sin_c, -cos_c) for _, cos_c, sin_c in rows]  # d/du
    b1, b2, q, db1, db2, dq = np.array(rows) @ _TRIG
    prod, width = b1 * b2, b1 + b2
    dprod, dwidth = db1 * b2 + b1 * db2, db1 + db2
    terms = np.array(
        [
            width * width * dprod,
            -2.0 * prod * width * dwidth,
            4.0 * prod * q * dwidth,
            -4.0 * prod * width * dq,
        ]
    )
    coeffs = _DFT @ terms.sum(axis=0)
    keep = np.flatnonzero(np.abs(coeffs) > _COEFF_TRIM * np.abs(terms).max())
    if keep.size < 2:
        return np.empty(0)
    poly = coeffs[keep[0] : keep[-1] + 1]
    companion = np.eye(poly.size - 1, k=-1, dtype=complex)
    companion[:, -1] = -poly[:-1] / poly[-1]
    return np.angle(np.linalg.eigvals(companion)) / 2.0


def _overlap_slopes(p1: GaussianParams, p2: GaussianParams):
    """phi -> (I_phi, dlogI/dphi, d^2 logI/dphi^2), evaluated from the widths.

    Widths use the product form gamma (s cos^2 + sin^2 / s), which keeps
    its digits at the narrow minimum of a strongly squeezed state.
    """
    th1, long1, short1 = p1.theta, p1.gamma * p1.s, p1.gamma / p1.s
    th2, long2, short2 = p2.theta, p2.gamma * p2.s, p2.gamma / p2.s
    dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y

    def at(phi: float) -> tuple[float, float, float]:
        c1, s1 = math.cos(phi - th1), math.sin(phi - th1)
        c2, s2 = math.cos(phi - th2), math.sin(phi - th2)
        b1 = long1 * c1 * c1 + short1 * s1 * s1
        b2 = long2 * c2 * c2 + short2 * s2 * s2
        db1 = -2.0 * (long1 - short1) * s1 * c1
        db2 = -2.0 * (long2 - short2) * s2 * c2
        ddb1 = -2.0 * (long1 - short1) * (c1 * c1 - s1 * s1)
        ddb2 = -2.0 * (long2 - short2) * (c2 * c2 - s2 * s2)
        cp, sp = math.cos(phi), math.sin(phi)
        beta, dbeta = dx * cp + dy * sp, dy * cp - dx * sp
        width = b1 + b2
        rate, curv = (db1 + db2) / width, (ddb1 + ddb2) / width
        r1, r2 = db1 / b1, db2 / b2
        expo, dexpo = beta * beta / width, 2.0 * beta * dbeta / width
        slope = -0.5 * rate + 0.25 * (r1 + r2) - dexpo + expo * rate
        second = (
            -0.5 * (curv - rate * rate)
            + 0.25 * (ddb1 / b1 - r1 * r1 + ddb2 / b2 - r2 * r2)
            - 2.0 * (dbeta * dbeta - beta * beta) / width
            + 2.0 * dexpo * rate
            + expo * (curv - 2.0 * rate * rate)
        )
        value = math.sqrt(2.0 / width) * (b1 * b2) ** 0.25 * math.exp(-expo)
        return value, slope, second

    return at


def _descend(slopes_at, phi: float, slope: float, second: float, far: float, far_slope: float):
    """Safeguarded Newton iteration on dlogI/dphi between ``phi`` and ``far``.

    ``far`` is the neighbouring candidate in the downhill direction.  Once
    the slope is known to be negative at the lower end of the interval and
    positive at the upper end, the interval holds a minimum: each iterate
    narrows it by the sign of its slope, and a Newton step that leaves it,
    starts from a concave point or fails to halve the previous move becomes
    a bisection (the safeguard of Numerical Recipes' ``rtsafe``).  Before
    that, a step out of the interval ends the descent; beyond ``far`` the
    next candidate's descent takes over.  Returns the lowest (I_phi, phi)
    visited after the start, or (inf, phi) when the start is stationary.
    """
    lo, hi = (phi, far) if far > phi else (far, phi)
    neg_lo, pos_hi = far < phi and far_slope < 0.0, far > phi and far_slope > 0.0
    moved = hi - lo
    best = (math.inf, phi)
    for _ in range(_POLISH_STEPS):
        # stationary: a Newton step would change log I by under an ulp
        if slope * slope <= 2.2e-16 * abs(second):
            break
        if slope < 0.0:
            lo, neg_lo = phi, True
        else:
            hi, pos_hi = phi, True
        step = phi - slope / second if second > 0.0 else math.nan
        bracketed = neg_lo and pos_hi
        # in a bracket, a Newton step that does not halve the last move is
        # too slow (log I is far from quadratic there): bisect instead
        if not lo < step < hi or (bracketed and abs(step - phi) > 0.5 * moved):
            if not bracketed:
                break
            step = 0.5 * (lo + hi)
        if step == phi:
            break
        moved, phi = abs(step - phi), step
        value, slope, second = slopes_at(phi)
        if value <= best[0]:
            best = (value, phi)
    return best


def minimize_overlap_general(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Global minimum of I_phi for arbitrary means, without a grid.

    Candidates are the critical angles from the companion matrix of the
    trigonometric slope numerator (``_critical_angles``) plus the narrow
    direction theta + pi/2 of each squeezed state: when the widths span
    many orders of magnitude (s beyond about 1e3, or very unequal gammas)
    the sampled polynomial loses the roots inside that direction's
    O(1/s)-wide dip to roundoff.  dlogI/dphi is evaluated at each candidate
    from the widths, not from the coefficients, and a candidate that is not
    stationary descends towards its downhill neighbour by safeguarded
    Newton steps (``_descend``); when the neighbour's slope points back,
    only the lower of the two descends.  I_phi is evaluated at every
    candidate, every iterate and phi = 0, and the smallest value wins.
    Returns (phi_min, overlap_min) with phi_min in [0, pi).
    """
    slopes_at = _overlap_slopes(p1, p2)
    seeds = [p.theta + 0.5 * math.pi for p in (p1, p2) if p.s > 1.0]
    angles = sorted(wrap_angle(phi) for phi in _critical_angles(p1, p2).tolist() + seeds)
    found = [slopes_at(phi) for phi in angles]
    best_value, best_phi = slopes_at(0.0)[0], 0.0
    last = len(angles) - 1
    for k, (phi, (value, slope, second)) in enumerate(zip(angles, found)):
        if value <= best_value:  # on a tie the candidate beats phi = 0
            best_value, best_phi = value, phi
        if slope < 0.0:  # downhill towards the next candidate, cyclically
            j = k + 1 if k < last else 0
            far = angles[j] + (0.0 if k < last else math.pi)
        else:
            j = k - 1 if k > 0 else last
            far = angles[j] - (0.0 if k > 0 else math.pi)
        far_value, far_slope, _ = found[j]
        if far_slope * slope < 0.0 and far_value < value:
            continue
        value, phi = _descend(slopes_at, phi, slope, second, far, far_slope)
        if value <= best_value:  # later iterates are more polished
            best_value, best_phi = value, phi
    return wrap_angle(best_phi), best_value


def _same_mean_verdict(p1: GaussianParams, p2: GaussianParams, tol: float) -> OptimalityVerdict:
    """Classify a pair whose means agree within ``tol``.

    pure/pure -> always optimal; pure/mixed -> never; mixed/mixed -> optimal
    iff D = 2*thermal_ratio_sum within ``tol`` (relative).  State equality
    and purity are decided with the same ``tol``.  The gap field is the
    analytic minimum of I_phi minus F.
    """
    if states_equal(p1, p2, tol):
        return OptimalityVerdict(PairClass.IDENTICAL_STATES, 0.0, witness_phi=0.0)
    fid = _fidelity(p1, p2, 0.0, 0.0).fidelity
    phi_min, val_min = _minimize_same_mean(p1, p2)
    gap = val_min - fid
    pure1 = p1.is_pure(tol)
    pure2 = p2.is_pure(tol)
    if pure1 and pure2:
        return OptimalityVerdict(
            PairClass.PURE_PURE_ALWAYS_OPTIMAL, gap, witness_phi=phi_min
        )
    if pure1 != pure2:
        return OptimalityVerdict(PairClass.PURE_MIXED_NEVER_OPTIMAL, gap)
    ratio_sum = thermal_ratio_sum(p1.gamma, p2.gamma)
    # D - 2T = (D - 4) - 2 (T - 2), both excesses free of cancellation, where
    # D - 2T itself loses s1 s2 eps for nearly identical strongly squeezed pairs
    residual = squeeze_excess(p1, p2) - 2.0 * _thermal_excess(p1.gamma, p2.gamma)
    if abs(residual) < tol * ratio_sum:
        return OptimalityVerdict(
            PairClass.MIXED_MIXED_OPTIMAL,
            gap,
            witness_phi=phi_min,
            condition_residual=residual,
        )
    return OptimalityVerdict(
        PairClass.MIXED_MIXED_NOT_OPTIMAL, gap, condition_residual=residual
    )


def solve_s2_for_optimality(
    g1: float, g2: float, s1: float, theta_tilde: float
) -> list[S2Root]:
    """Squeezing degrees s2 putting a mixed/mixed pair on the equality surface.

    D(s1, s2, theta_tilde) = 2 T, T = thermal_ratio_sum, becomes after
    multiplying by s2 the quadratic qa s2^2 - 2 T s2 + qc = 0 with

        qa = 2 s1 sin^2(theta_tilde) + 2 cos^2(theta_tilde) / s1,
        qc = 2 s1 cos^2(theta_tilde) + 2 sin^2(theta_tilde) / s1,

    and qa qc = 4 + ((s1 - 1/s1) sin 2 theta_tilde)^2, so a quarter of its
    discriminant is (T - 2)(T + 2) - ((s1 - 1/s1) sin 2 theta_tilde)^2.  The
    larger root is (T + sqrt(disc/4)) / qa and the smaller follows from the
    product of the roots, qc / qa, so neither cancels (Goldberg 1991).

    Real roots are returned in descending raw order, canonicalized to s2 >= 1;
    an empty list means the configuration can never reach equality.
    """
    tol = default_tol()
    if g1 <= 1.0 + tol or g2 <= 1.0 + tol:
        raise ValueError("equality surface applies to mixed states only (gamma > 1)")
    if s1 < 1.0:
        raise ValueError("s1 must be canonical (>= 1)")
    ratio_sum = thermal_ratio_sum(g1, g2)
    cos_t, sin_t = math.cos(theta_tilde), math.sin(theta_tilde)
    qa = 2.0 * s1 * sin_t * sin_t + 2.0 * cos_t * cos_t / s1
    qc = 2.0 * s1 * cos_t * cos_t + 2.0 * sin_t * sin_t / s1
    skew = (s1 - 1.0) * (s1 + 1.0) / s1 * math.sin(2.0 * theta_tilde)
    quarter = _thermal_excess(g1, g2) * (ratio_sum + 2.0) - skew * skew
    # the tangency decisions on the full discriminant, 4 quarter: below
    # -1e-12 T^2 no real root, a square root below 1e-15 T one double root
    if quarter < -0.25e-12 * ratio_sum * ratio_sum:
        return []
    root = math.sqrt(max(quarter, 0.0))
    big = (ratio_sum + root) / qa
    raw = [big]
    if root > 0.5e-15 * ratio_sum:
        raw.append(qc / (qa * big))
    out = []
    for value in raw:
        if value >= 1.0:
            out.append(S2Root(value, wrap_angle(theta_tilde)))
        else:
            out.append(S2Root(1.0 / value, wrap_angle(theta_tilde + math.pi / 2.0)))
    return out


def classify_pair(p1: GaussianParams, p2: GaussianParams) -> OptimalityVerdict:
    """Route a pair to the applicable classifier.

    Equal means go to the purity/mismatch criteria.  Differing means are
    classified only for round states, s = 1 within the tolerance that
    ``means_equal`` uses: such a pair is optimal iff the thermal widths
    coincide, with the witness angle along the mean difference, and its gap
    comes from the exact minimizer ``minimize_overlap_general``.  Other
    configurations raise UnsupportedPairError (their numeric gap is still
    available through ``minimize_overlap_general``).
    """
    tol = default_tol()
    if means_equal(p1, p2, tol):
        return _same_mean_verdict(p1, p2, tol)
    if p1.s - 1.0 <= tol and p2.s - 1.0 <= tol:
        # the gap of the exactly round pair: s within tol of 1 counts as round
        g1, g2 = p1.gamma, p2.gamma
        dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y
        q1, q2 = GaussianParams(g1), GaussianParams(g2, 1.0, 0.0, dx, dy)
        gap = minimize_overlap_general(q1, q2)[1] - fidelity_params(q1, q2).fidelity
        if abs(g1 - g2) < tol:
            witness = wrap_angle(math.atan2(dy, dx))
            return OptimalityVerdict(
                PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL, gap, witness_phi=witness
            )
        return OptimalityVerdict(PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL, gap)
    raise UnsupportedPairError(
        "pairs with different means and squeezing are not classified; "
        "use min-overlap for the numeric gap"
    )
