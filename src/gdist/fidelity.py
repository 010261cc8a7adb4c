"""Quantum fidelity of two single-mode Gaussian states.

Closed form (Twamley, J. Phys. A 29, 3723, 1996; Scutaru, J. Phys. A 31,
3659, 1998), rationalized so that no difference of square roots remains:

    F = sqrt(2 (sqrt(Dcap + dlow) + sqrt(dlow)) / Dcap) * exp(-q)

with Dcap = det(C1 + C2), dlow = (det C1 - 1)(det C2 - 1) and
q = beta^T (C1 + C2)^{-1} beta for the mean difference beta.  The textbook
form sqrt(2 / (sqrt(Dcap + dlow) - sqrt(dlow))) cancels for hot states
(at gamma = 1e5 against 1.001e5 it returned F = 1 exactly).

One kernel evaluates it from the five parameters, in scalar arithmetic
whose every sum has nonnegative terms:

- Dcap = (gamma1 + gamma2)^2 + (gamma1 gamma2 / 2)(D - 4), with D the squeeze
  mismatch and D - 4 from ``squeeze_excess``;
- dlow = (gamma1 - 1)(gamma1 + 1)(gamma2 - 1)(gamma2 + 1);
- q = (beta^T adj(C1) beta + beta^T adj(C2) beta) / Dcap, since the 2x2
  adjugate is linear and beta^T adj(C) beta = gamma ((beta.m)^2 / s + s (beta.n)^2)
  with m the long axis of C and n its normal.

``fidelity_params`` is the one entry point.  A state given as a covariance
matrix reaches it through ``states.params_from_covariance``, which checks
that the state is physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import GaussianParams, states_equal


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
    delta_cap = (g1 + g2) ** 2 + 0.5 * g1 * g2 * squeeze_excess(p1, p2)
    delta_low = (g1 - 1.0) * (g1 + 1.0) * ((g2 - 1.0) * (g2 + 1.0))
    exponent = 0.0 - (_adjugate_form(p1, dx, dy) + _adjugate_form(p2, dx, dy)) / delta_cap
    if states_equal(p1, p2):
        fid = 1.0
    else:
        root = math.sqrt(delta_cap + delta_low) + math.sqrt(delta_low)
        fid = min(math.sqrt(2.0 * root / delta_cap) * math.exp(exponent), 1.0)
    return FidelityReport(
        fidelity=fid,
        delta_cap=delta_cap,
        delta_low=delta_low,
        exponent=exponent,
        bures_distance_sq=2.0 * (1.0 - fid),
        uhlmann_angle=math.acos(fid),
    )


def fidelity_params(p1: GaussianParams, p2: GaussianParams) -> FidelityReport:
    """Fidelity for arbitrary parameterized states (any means).

    Returns exactly 1 iff the states coincide within 1e-9 in canonical
    parameters.
    """
    return _fidelity(p1, p2, p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y)
