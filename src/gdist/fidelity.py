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
  with m the long axis of C and n its normal.

log F = -q - log1p(e/2)/2 and 1 - F = -expm1(log F) keep their digits however
close the states are: no identical-state rule, and no clamp (F <= 1 as e, q >= 0).
``fidelity_params`` is the one entry point; a covariance-form state reaches it
through ``states.params_from_covariance``, which checks that it is physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import GaussianParams


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity together with the intermediate quantities and derived metrics."""

    fidelity: float
    delta_cap: float
    delta_low: float
    exponent: float
    bures_distance_sq: float
    uhlmann_angle: float


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


def _fidelity(p1: GaussianParams, p2: GaussianParams, dx: float, dy: float) -> FidelityReport:
    """The one fidelity kernel, for mean difference (dx, dy); see the module docstring."""
    g1, g2 = p1.gamma, p2.gamma
    excess = squeeze_excess(p1, p2)
    delta_cap = (g1 + g2) ** 2 + 0.5 * g1 * g2 * excess
    delta_low = (g1 - 1.0) * (g1 + 1.0) * ((g2 - 1.0) * (g2 + 1.0))
    exponent = 0.0 - (_adjugate_form(p1, dx, dy) + _adjugate_form(p2, dx, dy)) / delta_cap
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
    return _fidelity(p1, p2, p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y)
