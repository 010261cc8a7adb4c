"""Quantum fidelity of two single-mode Gaussian states.

Closed form (Twamley, J. Phys. A 29, 3723, 1996; Scutaru, J. Phys. A 31,
3659, 1998) with Dcap = det(C1 + C2), dlow = (det C1 - 1)(det C2 - 1),
a = sqrt(Dcap + dlow), b = sqrt(dlow) and q = beta^T (C1 + C2)^{-1} beta for
the mean difference beta:

    F = sqrt(2 / (a - b)) exp(-q) = exp(-q) / sqrt(1 + e/2),  e = a - b - 2 >= 0.

Written as sqrt(2 / (a - b)) it cancels for hot states (at gamma = 1e5
against 1.001e5 it returned F = 1 exactly).  One kernel evaluates it from
the five parameters, in scalar arithmetic whose every sum has nonnegative terms:

- Dcap = (gamma1 + gamma2)^2 + (gamma1 gamma2 / 2)(D - 4), with D the squeeze
  mismatch and D - 4 from ``squeeze_excess``;
- dlow = (gamma1 - 1)(gamma1 + 1)(gamma2 - 1)(gamma2 + 1);
- e = (Dcap - 4 - 4b) / (a + b + 2), where (gamma1 + gamma2)^2 - 4 - 4b is
  (gamma1 - gamma2)^2 ((gamma1 + gamma2)^2 + 4 gamma1 gamma2 + 8) divided by
  (gamma1 + gamma2 - 2)(gamma1 + gamma2 + 2) + 4b;
- q = (beta^T adj(C1) beta + beta^T adj(C2) beta) / Dcap, since the 2x2
  adjugate is linear and beta^T adj(C) beta = gamma ((beta.m)^2 / s + s (beta.n)^2)
  with m the long axis of C and n its normal.  ``_mean_exponent`` evaluates
  it, and ``optimality`` decides on it whether two means are the same.

log F = -q - log1p(e/2)/2 and 1 - F = -expm1(log F) keep their digits however
close the states are: no identical-state rule, and no clamp (F <= 1 as e, q >= 0).
``fidelity_params`` is the one entry point; a covariance-form state reaches it
through ``states.params_from_covariance``, which checks that it is physical.
The mixed/mixed equality surface D = 2T reads D - 4 = 2 (T - 2), T - 2 the
thermal excess, so ``solve_s2_for_optimality`` solves it here, beside D - 4.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .states import GaussianParams, default_tol, wrap_angle


class FidelityReport(namedtuple(
    "FidelityReport", "fidelity delta_cap delta_low exponent bures_distance_sq uhlmann_angle"
)):
    """Fidelity together with the intermediate quantities and derived metrics."""

    __slots__ = ()


#: pi - math.pi, the part of pi that a double cannot hold.
_PI_LO = 1.2246467991473532e-16


def squeeze_excess(p1: GaussianParams, p2: GaussianParams) -> float:
    """D - 4 of the pair, as a sum of nonnegative terms:

        D - 4 = 2 (s1 - s2)^2 / (s1 s2) + 2 (s1 - 1/s1)(s2 - 1/s2) sin^2(theta2 - theta1),

    with s - 1/s taken as (s - 1)(s + 1)/s, so nearly identical ellipses
    (D -> 4) keep their digits.  Directions are pi-periodic, and the float
    difference of a direction near 0 and one near pi is off by up to
    ulp(pi)/2, which a small sine turns into a large relative error.  Within
    1/8 of the wrap the sine is therefore taken of the distance to pi, summed
    from exact nonnegative pieces.  Elsewhere the sine exceeds 1/8, the
    difference costs under 2e-15 relative, and its bits stay those of the
    plain difference (which the ratio extremes and minimal overlap keep).
    """
    s1, s2 = p1.s, p2.s
    s1m = (s1 - 1.0) * (s1 + 1.0) / s1
    s2m = (s2 - 1.0) * (s2 + 1.0) / s2
    tilt = p2.theta - p1.theta
    if abs(tilt) > math.pi - 0.125:
        hi, lo = (p2.theta, p1.theta) if tilt > 0.0 else (p1.theta, p2.theta)
        tilt = (math.pi - hi) + lo + _PI_LO  # math.pi - hi is exact (Sterbenz)
    sin_tt = math.sin(tilt)
    return 2.0 * (s1 - s2) ** 2 / (s1 * s2) + 2.0 * s1m * s2m * sin_tt * sin_tt


def _adjugate_form(p: GaussianParams, dx: float, dy: float) -> float:
    """beta^T adj(C) beta = gamma ((beta.m)^2 / s + s (beta.n)^2) for beta = (dx, dy)."""
    c, sn = math.cos(p.theta), math.sin(p.theta)
    along, across = dx * c + dy * sn, dy * c - dx * sn
    return p.gamma * (along * along / p.s + p.s * across * across)


def _adjugates(p1: GaussianParams, p2: GaussianParams) -> float:
    """beta^T adj(C1) beta + beta^T adj(C2) beta; 0.0 for equal means, without trig."""
    dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return _adjugate_form(p1, dx, dy) + _adjugate_form(p2, dx, dy)


def _delta_cap(g1: float, g2: float, excess: float) -> float:
    """Dcap = det(C1 + C2), given D - 4 = ``excess``."""
    return (g1 + g2) ** 2 + 0.5 * g1 * g2 * excess


def _mean_exponent(p1: GaussianParams, p2: GaussianParams, excess: float) -> float:
    """q = beta^T (C1 + C2)^{-1} beta, given D - 4 = ``excess``."""
    return _adjugates(p1, p2) / _delta_cap(p1.gamma, p2.gamma, excess)


def _fidelity(p1: GaussianParams, p2: GaussianParams, excess: float) -> FidelityReport:
    """The one fidelity kernel, given D - 4 = ``excess``."""
    g1, g2 = p1.gamma, p2.gamma
    delta_cap = _delta_cap(g1, g2, excess)
    delta_low = (g1 - 1.0) * (g1 + 1.0) * ((g2 - 1.0) * (g2 + 1.0))
    exponent = 0.0 - _mean_exponent(p1, p2, excess)
    a, b = math.sqrt(delta_cap + delta_low), math.sqrt(delta_low)
    # (g1 + g2)^2 - 4 - 4b, rationalized; 0 for equal widths (0/0 for two pure states)
    widths = 0.0
    if g1 != g2:
        widths = (g1 - g2) ** 2 * ((g1 + g2) ** 2 + 4.0 * g1 * g2 + 8.0) / (
            ((g1 - 1.0) + (g2 - 1.0)) * (g1 + g2 + 2.0) + 4.0 * b
        )
    e = (widths + 0.5 * g1 * g2 * excess) / (a + b + 2.0)
    log_fid = exponent - 0.5 * math.log1p(0.5 * e)
    infidelity = 0.0 - math.expm1(log_fid)  # 0.0 - x, not -x: +0.0 for identical states
    return FidelityReport(
        fidelity=math.exp(log_fid),
        delta_cap=delta_cap,
        delta_low=delta_low,
        exponent=exponent,
        bures_distance_sq=2.0 * infidelity,
        uhlmann_angle=2.0 * math.asin(math.sqrt(0.5 * infidelity)),
    )


def fidelity_params(p1: GaussianParams, p2: GaussianParams) -> FidelityReport:
    """Fidelity for arbitrary parameterized states (any means); exactly 1 for identical states."""
    return _fidelity(p1, p2, squeeze_excess(p1, p2))


class S2Root(namedtuple("S2Root", "s2 theta_tilde")):
    """Solution of the mixed/mixed equality surface, canonicalized to s2 >= 1.

    A sub-unity raw root is reported as (1/root, theta_tilde + pi/2); both
    describe the same second state.
    """

    __slots__ = ()


def _thermal(g: float) -> float:
    """gamma - 1/gamma as (gamma - 1)(gamma + 1)/gamma, exact to rounding as gamma -> 1."""
    return (g - 1.0) * (g + 1.0) / g


def thermal_ratio_sum(g1: float, g2: float) -> float:
    """Symmetric ratio sum of the thermal factors gamma - 1/gamma.

    t2/t1 + t1/t2 with ti = gamma_i - 1/gamma_i; >= 2, equal iff g1 = g2.
    Defined for mixed states only (gamma > 1).
    """
    t1, t2 = _thermal(g1), _thermal(g2)
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("thermal_ratio_sum needs gamma > 1 on both sides")
    return t2 / t1 + t1 / t2


def _thermal_excess(g1: float, g2: float) -> float:
    """thermal_ratio_sum - 2 = (t1 - t2)^2 / (t1 t2), without cancellation.

    t1 - t2 = (g1 - g2)(1 + 1/(g1 g2)), where the difference of the ratio sum
    and 2 loses its digits for nearly equal gammas.
    """
    t_gap = (g1 - g2) * (1.0 + 1.0 / (g1 * g2))
    return t_gap * t_gap / (_thermal(g1) * _thermal(g2))


def solve_s2_for_optimality(g1: float, g2: float, s1: float, theta_tilde: float) -> list[S2Root]:
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
    if not all(map(math.isfinite, (g1, g2, s1, theta_tilde))):
        raise ValueError("g1, g2, s1 and theta_tilde must be finite")
    tol = default_tol()
    if g1 - 1.0 <= tol or g2 - 1.0 <= tol:
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
