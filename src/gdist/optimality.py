"""Minimal homodyne overlap versus fidelity: solvers and pair classification.

For equal means the overlap is I_phi = f(B2/B1), f concave with f(x)=f(1/x),
so its minimum sits at whichever extreme of the width ratio lies farthest
from 1 on a log scale.  The extremes are the generalized eigenvalues of the
two covariance matrices,

    mu_pm = (gamma2/gamma1) * (D +- sqrt(D^2 - 16)) / 4,

with D the squeeze mismatch; they depend on the pair only through
(gamma1, gamma2, D).  For different means only round pairs have a closed
form (``_round_minimum``).  In general, with u = 2 phi, the widths and
the squared mean offset are first-degree trigonometric polynomials in u,
so the critical points of log I_phi are the roots of one of degree 3:
``minimize_overlap_general`` samples it at 7 angles, takes its roots from
a companion matrix and polishes them with safeguarded Newton steps, with
no grid.  One evaluation, ``_overlap_slopes``, serves the samples and the
polish.

``classify_pair`` is the one classifier.  It reads the tolerance
(``default_tol``, overridable through GDIST_TOL) once and decides every
gate of the verdict with it, each on a dimensionless quantity:

- identical states: 1 - F <= tol, F the fidelity of the pair, means included;
- same mean: q = beta^T (C1 + C2)^{-1} beta <= tol (``_mean_exponent``).
  Every beta_phi^2 / (B1 + B2) <= q (Cauchy-Schwarz), so the same-mean
  minimum is off by at most a factor e^(-tol); ``minimize_overlap`` routes
  on the same gate;
- purity and roundness: gamma - 1 <= tol and s - 1 <= tol;
- equal widths of a displaced round pair: both states pure, or neither
  and (t1 - t2)^2 / (t1 t2) <= tol, t = gamma - 1/gamma (``_thermal_excess``);
- the mixed/mixed equality surface: |D - 2T| < tol T, T = ``thermal_ratio_sum``,
  whose solver ``solve_s2_for_optimality`` lives in ``fidelity``.

Every scalar I_phi comes from ``homodyne._overlap`` and only
``_critical_angles`` loads numpy, so the verdicts and the same-mean and
round minima need ``math`` alone.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum

from .errors import UnsupportedPairError
from .fidelity import (
    _fidelity, _mean_exponent, _thermal_excess, fidelity_params, squeeze_excess, thermal_ratio_sum
)
from .homodyne import _overlap, _width
from .states import GaussianParams, covariance_entries, default_tol, wrap_angle


class PairClass(Enum):
    PURE_PURE_ALWAYS_OPTIMAL = "PurePureAlwaysOptimal"
    PURE_MIXED_NEVER_OPTIMAL = "PureMixedNeverOptimal"
    MIXED_MIXED_OPTIMAL = "MixedMixedOptimal"
    MIXED_MIXED_NOT_OPTIMAL = "MixedMixedNotOptimal"
    DIFFERENT_MEAN_SYMMETRIC_OPTIMAL = "DifferentMeanSymmetricOptimal"
    DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL = "DifferentMeanSymmetricNotOptimal"
    IDENTICAL_STATES = "IdenticalStates"


class OptimalityVerdict(namedtuple(
    "OptimalityVerdict", "kind gap witness_phi condition_residual", defaults=(None, None)
)):
    """Classification of a state pair with numeric witnesses.

    ``gap`` is min_phi I_phi - F with F the fidelity of the pair, and 0.0
    for identical states; ``witness_phi`` is an angle achieving I_phi = F
    when the class is an optimal variant; ``condition_residual`` is
    D - 2*thermal_ratio_sum for mixed/mixed pairs, None otherwise.  The
    tolerance gates behind ``kind`` are listed in the module docstring.
    """

    __slots__ = ()


def ratio_extremes(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Extremal values (mu_minus, mu_plus) of B2/B1 over the angle.

    Generalized eigenvalues of the covariance pair; roots of
    mu^2 - mu (gamma2/gamma1) D / 2 + (gamma2/gamma1)^2 = 0.  The
    discriminant is taken as (D - 4)(D + 4) with D - 4 from
    ``squeeze_excess``, a sum of nonnegative terms, so nearly identical
    ellipses (D -> 4) keep their digits; mu_minus comes from the product
    mu_plus mu_minus = ratio^2.
    """
    return _ratio_extremes(p2.gamma / p1.gamma, squeeze_excess(p1, p2))


def _ratio_extremes(ratio: float, excess: float) -> tuple[float, float]:
    """``ratio_extremes`` from gamma2/gamma1 and D - 4."""
    big = 4.0 + excess + math.sqrt(excess * (excess + 8.0))  # D + sqrt(D^2 - 16)
    return ratio * 4.0 / big, ratio * big / 4.0


def _extreme_angle(p1: GaussianParams, p2: GaussianParams, mu: float) -> float:
    """Angle where B2/B1 attains the extreme ``mu`` (null direction of C2 - mu*C1)."""
    a00, a01, a11 = covariance_entries(p1.gamma, p1.s, p1.theta)
    b00, b01, b11 = covariance_entries(p2.gamma, p2.s, p2.theta)
    m00, m01, m11 = b00 - mu * a00, b01 - mu * a01, b11 - mu * a11
    # null vector of a singular symmetric 2x2; pick the better-conditioned row
    if abs(m00) + abs(m01) >= abs(m01) + abs(m11):
        u = (m01, -m00)
    else:
        u = (m11, -m01)
    if u == (0.0, 0.0):  # ratio constant in phi
        return 0.0
    return wrap_angle(math.atan2(u[1], u[0]))


def _minimize_same_mean(p1: GaussianParams, p2: GaussianParams, excess: float):
    """Analytic route of ``minimize_overlap``, given D - 4; the caller has gated the means on q."""
    mu_minus, mu_plus = _ratio_extremes(p2.gamma / p1.gamma, excess)
    f_plus, f_minus = _overlap(1.0, mu_plus, 0.0), _overlap(1.0, mu_minus, 0.0)
    mu, val = (mu_plus, f_plus) if f_plus <= f_minus else (mu_minus, f_minus)
    return _extreme_angle(p1, p2, mu), val


def _round_minimum(g1: float, g2: float, dx: float, dy: float) -> tuple[float, float]:
    """(phi_min, overlap_min) of round states (s = 1) with mean difference (dx, dy).

    Both widths are constant, so I_phi is least along the mean difference.
    Its angle is taken in the upper half plane, which spares atan2 a rounded + pi.
    """
    value = _overlap(g1, g2, dx * dx + dy * dy)
    return wrap_angle(math.atan2(abs(dy), math.copysign(1.0, dy) * dx)), value


def minimize_overlap(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Minimize I_phi over the measurement angle.

    Same-mean pairs (q <= tol, the gate of ``classify_pair``) take the
    analytic route: f at both ratio extremes, the smaller kept, the angle
    from the extreme's null direction.  Displaced pairs of exactly round
    states take the closed form ``_round_minimum``, other displaced pairs
    ``minimize_overlap_general``.  Returns (phi_min, overlap_min).
    """
    excess = squeeze_excess(p1, p2)
    if _mean_exponent(p1, p2, excess) <= default_tol():
        return _minimize_same_mean(p1, p2, excess)
    if p1.s == p2.s == 1.0:
        return _round_minimum(p1.gamma, p2.gamma, p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y)
    return minimize_overlap_general(p1, p2)


#: Coefficients below this fraction of the largest sampled term of the
#: numerator are roundoff left by its cancellations; trimming them drops
#: only roots far from the unit circle (round pairs: degree 1).
_COEFF_TRIM = 1e-13
#: Cap on the iterates of one safeguarded Newton descent; bisections of a
#: bracket up to 3e-3 wide reach float resolution well within it.
_POLISH_STEPS = 60


@functools.cache
def _sample_tables():
    """(phis, dft) for the samples at u_k = 2 pi k / 7 (u = 2 phi), built on first use.

    ``phis`` holds the sample angles phi_k = u_k / 2; ``dft`` maps 7 samples
    of a trigonometric polynomial of degree <= 3 in u to its Laurent
    coefficients c_-3 .. c_3 in z = e^{iu}.
    """
    import numpy as np
    sample_u = 2.0 * np.pi * np.arange(7) / 7.0
    dft = np.exp(-1j * np.outer(np.arange(-3, 4), sample_u)) / 7.0
    return (0.5 * sample_u).tolist(), dft


def _critical_angles(slopes_at) -> list[float]:
    """Approximate critical angles of log I_phi, from a companion matrix.

    With u = 2 phi, b1, b2 and beta_phi^2 are first-degree trigonometric
    polynomials in u, so with P = b1 b2 and S = b1 + b2 the numerator that
    ``slopes_at`` (an ``_overlap_slopes`` evaluator) yields,

        N = 4 P S^2 dlogI/du = S (S P' - 2 P S') + 4 P (Q S' - S Q'),  Q = beta_phi^2,

    has degree at most 4 by counting.  The top harmonics of S P' - 2 P S'
    and of Q S' - S Q' cancel, so the degree is at most 3: its 7 samples at
    u_k = 2 pi k / 7 give the Laurent coefficients c_-3 .. c_3 exactly, and
    at most 6 roots remain after trimming.  They are the arguments of the
    eigenvalues of the companion matrix of z^3 times the Laurent series
    (Boyd, Solving Transcendental Equations, SIAM 2014).
    Every eigenvalue yields an angle, including those off the unit circle;
    the caller evaluates them all.
    """
    import numpy as np
    phis, dft = _sample_tables()
    _, _, _, numer, scale = zip(*map(slopes_at, phis))
    coeffs = dft @ np.array(numer)
    keep = np.flatnonzero(np.abs(coeffs) > _COEFF_TRIM * max(scale))
    if keep.size < 2:
        return []
    poly = coeffs[keep[0] : keep[-1] + 1]
    companion = np.eye(poly.size - 1, k=-1, dtype=complex)
    companion[:, -1] = -poly[:-1] / poly[-1]
    return (np.angle(np.linalg.eigvals(companion)) / 2.0).tolist()


def _overlap_slopes(p1: GaussianParams, p2: GaussianParams):
    """phi -> (I_phi, dlogI/dphi, d^2 logI/dphi^2, N, |N|_max), evaluated from the widths.

    The widths come from ``homodyne._width``, whose product form keeps its
    digits at the narrow minimum of a strongly squeezed state.  N =
    2 b1 b2 (b1 + b2)^2 dlogI/dphi is the slope numerator of
    ``_critical_angles``, and |N|_max the size of its largest term, the
    scale against which its Laurent coefficients are trimmed.
    """
    # dB/dphi = amp sin cos and d^2B/dphi^2 = amp (cos^2 - sin^2) of phi - theta
    th1, amp1 = p1.theta, -2.0 * p1.gamma * (p1.s - 1.0 / p1.s)
    th2, amp2 = p2.theta, -2.0 * p2.gamma * (p2.s - 1.0 / p2.s)
    dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y

    def at(phi: float) -> tuple[float, float, float, float, float]:
        c1, s1 = math.cos(phi - th1), math.sin(phi - th1)
        c2, s2 = math.cos(phi - th2), math.sin(phi - th2)
        b1, b2 = _width(p1, c1, s1), _width(p2, c2, s2)
        db1, db2 = amp1 * s1 * c1, amp2 * s2 * c2
        ddb1, ddb2 = amp1 * (c1 * c1 - s1 * s1), amp2 * (c2 * c2 - s2 * s2)
        cp, sp = math.cos(phi), math.sin(phi)
        beta, dbeta = dx * cp + dy * sp, dy * cp - dx * sp
        width = b1 + b2
        rate, curv = (db1 + db2) / width, (ddb1 + ddb2) / width
        r1, r2 = db1 / b1, db2 / b2
        expo, dexpo = beta * beta / width, 2.0 * beta * dbeta / width
        # the four terms of the slope; times ``weight`` those of N
        t1, t2, t3, t4 = -0.5 * rate, 0.25 * (r1 + r2), -dexpo, expo * rate
        slope = t1 + t2 + t3 + t4
        second = (
            -0.5 * (curv - rate * rate)
            + 0.25 * (ddb1 / b1 - r1 * r1 + ddb2 / b2 - r2 * r2)
            - 2.0 * (dbeta * dbeta - beta * beta) / width
            + 2.0 * dexpo * rate
            + expo * (curv - 2.0 * rate * rate)
        )
        weight = 2.0 * b1 * b2 * width * width
        largest = weight * max(abs(t1), abs(t2), abs(t3), abs(t4))
        return _overlap(b1, b2, beta * beta), slope, second, weight * slope, largest

    return at


def _descend(slopes_at, phi: float, slope: float, second: float, far: float, far_bounds: bool):
    """Safeguarded Newton iteration on dlogI/dphi between ``phi`` and ``far``.

    ``far`` is the neighbouring candidate in the downhill direction, and
    ``far_bounds`` tells whether it bounds a minimum: its slope points back,
    or it lies higher than the start, so the way down must turn before it.
    Once the slope is known to be negative at the lower end of the interval
    and positive at the upper end, or ``far`` bounds it, the interval holds
    a minimum: each iterate narrows it by the sign of its slope, and a
    Newton step that leaves it, starts from a concave point or fails to
    halve the previous move becomes a bisection (the safeguard of Numerical
    Recipes' ``rtsafe``).  Before that, a step out of the interval ends the
    descent; beyond ``far`` the next candidate's descent takes over.
    Returns the lowest (I_phi, phi) visited after the start, or (inf, phi)
    when the start is stationary.
    """
    lo, hi = (phi, far) if far > phi else (far, phi)
    neg_lo, pos_hi = far < phi and far_bounds, far > phi and far_bounds
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
        value, slope, second, _, _ = slopes_at(phi)
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
    candidate and every iterate, and the smallest value wins; phi = 0 is
    evaluated only when there is no candidate at all (no critical angle
    and no squeezed state).  Returns (phi_min, overlap_min) with phi_min
    in [0, pi).
    """
    slopes_at = _overlap_slopes(p1, p2)
    seeds = [p.theta + 0.5 * math.pi for p in (p1, p2) if p.s > 1.0]
    angles = sorted(wrap_angle(phi) for phi in _critical_angles(slopes_at) + seeds) or [0.0]
    found = [slopes_at(phi) for phi in angles]
    best_value, best_phi = math.inf, 0.0
    last = len(angles) - 1
    for k, (phi, (value, slope, second, _, _)) in enumerate(zip(angles, found)):
        if value <= best_value:
            best_value, best_phi = value, phi
        if slope < 0.0:  # downhill towards the next candidate, cyclically
            j = k + 1 if k < last else 0
            far = angles[j] + (0.0 if k < last else math.pi)
        else:
            j = k - 1 if k > 0 else last
            far = angles[j] - (0.0 if k > 0 else math.pi)
        far_value, far_slope, *_ = found[j]
        if far_slope * slope < 0.0 and far_value < value:
            continue
        bounds = far_slope * slope < 0.0 or far_value > value
        value, phi = _descend(slopes_at, phi, slope, second, far, bounds)
        if value <= best_value:  # later iterates are more polished
            best_value, best_phi = value, phi
    return wrap_angle(best_phi), best_value


def classify_pair(p1: GaussianParams, p2: GaussianParams) -> OptimalityVerdict:
    """Classify a pair by the gates of the module docstring, all with one tolerance.

    1 - F <= tol gives ``IdenticalStates``.  Same-mean pairs (q <= tol) go to
    the purity/mismatch criteria: pure/pure -> always optimal; pure/mixed ->
    never; mixed/mixed -> optimal iff D = 2*thermal_ratio_sum within ``tol``
    (relative), with the analytic same-mean minimum in the gap.  Displaced
    pairs are classified only for round states (s - 1 <= tol): optimal iff
    the thermal widths are equal.  Their gap and witness angle, along the
    mean difference, come from the closed form ``_round_minimum`` and the
    fidelity of the exactly round pair.  Other configurations raise
    UnsupportedPairError (their numeric gap is still available through
    ``minimize_overlap_general``).
    """
    tol = default_tol()
    excess = squeeze_excess(p1, p2)  # D - 4, shared by F, the minimum and the residual
    report = _fidelity(p1, p2, excess)
    if 0.5 * report.bures_distance_sq <= tol:  # 1 - F
        return OptimalityVerdict(PairClass.IDENTICAL_STATES, 0.0, witness_phi=0.0)
    pure1, pure2 = p1.is_pure(tol), p2.is_pure(tol)
    if -report.exponent > tol:  # q: the means differ
        if p1.s - 1.0 > tol or p2.s - 1.0 > tol:
            raise UnsupportedPairError(
                "pairs with different means and squeezing are not classified; "
                "use min-overlap for the numeric gap"
            )
        g1, g2 = p1.gamma, p2.gamma
        dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y
        witness, val_min = _round_minimum(g1, g2, dx, dy)
        fid = report.fidelity
        if p1.s != 1.0 or p2.s != 1.0:  # nearly round: F of the exactly round pair
            fid = fidelity_params(GaussianParams(g1), GaussianParams(g2, 1.0, 0.0, dx, dy)).fidelity
        gap = val_min - fid
        if pure1 and pure2 or not (pure1 or pure2) and _thermal_excess(g1, g2) <= tol:
            return OptimalityVerdict(PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL, gap, witness)
        return OptimalityVerdict(PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL, gap)
    phi_min, val_min = _minimize_same_mean(p1, p2, excess)
    gap = val_min - report.fidelity
    if pure1 and pure2:
        return OptimalityVerdict(PairClass.PURE_PURE_ALWAYS_OPTIMAL, gap, witness_phi=phi_min)
    if pure1 != pure2:
        return OptimalityVerdict(PairClass.PURE_MIXED_NEVER_OPTIMAL, gap)
    ratio_sum = thermal_ratio_sum(p1.gamma, p2.gamma)
    # D - 2T = (D - 4) - 2 (T - 2), both excesses free of cancellation, where
    # D - 2T itself loses s1 s2 eps for nearly identical strongly squeezed pairs
    residual = excess - 2.0 * _thermal_excess(p1.gamma, p2.gamma)
    if abs(residual) < tol * ratio_sum:
        return OptimalityVerdict(PairClass.MIXED_MIXED_OPTIMAL, gap, phi_min, residual)
    return OptimalityVerdict(PairClass.MIXED_MIXED_NOT_OPTIMAL, gap, condition_residual=residual)
