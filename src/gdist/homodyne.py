"""Homodyne marginals and the Bhattacharyya overlap of their distributions.

Measuring the quadrature X_phi on a Gaussian state gives a normal outcome
distribution p(x) = sqrt(2/(pi B)) exp(-2 (x - a_phi)^2 / B) with width
B(phi) = gamma [s cos^2(phi - theta) + s^{-1} sin^2(phi - theta)] and mean
a_phi the projection of the mean amplitude onto the measurement direction.
"""

from __future__ import annotations

import math

import numpy as np

from .states import GaussianParams, wrap_angle

#: Grid of the scan minimizer over [0, pi), before golden-section refinement.
_SCAN_POINTS = 4096


def _width(p: GaussianParams, c, s):
    """B(phi) = gamma (s cos^2 + sin^2 / s) from c, s = cos, sin of phi - theta.

    The product form keeps its digits in the narrow direction of a strongly
    squeezed state, where gamma (s + 1/s + (s - 1/s) cos 2(phi - theta)) / 2
    cancels.  Works on floats and on numpy arrays alike.
    """
    return p.gamma * (p.s * c**2 + s**2 / p.s)


def overlap_at(p1: GaussianParams, p2: GaussianParams, phi: float) -> float:
    """Bhattacharyya overlap of the two homodyne distributions at ``phi``."""
    d1, d2 = phi - p1.theta, phi - p2.theta
    b1 = _width(p1, math.cos(d1), math.sin(d1))
    b2 = _width(p2, math.cos(d2), math.sin(d2))
    cp, sp = math.cos(phi), math.sin(phi)
    beta_phi = (p2.alpha_x * cp + p2.alpha_y * sp) - (p1.alpha_x * cp + p1.alpha_y * sp)
    return (
        math.sqrt(2.0 / (b1 + b2))
        * (b1 * b2) ** 0.25
        * math.exp(-beta_phi * beta_phi / (b1 + b2))
    )


def overlap_grid(p1: GaussianParams, p2: GaussianParams, phis: np.ndarray) -> np.ndarray:
    """Vectorized I_phi over an array of angles."""
    phis = np.asarray(phis, dtype=float)
    d1 = phis - p1.theta
    d2 = phis - p2.theta
    b1 = _width(p1, np.cos(d1), np.sin(d1))
    b2 = _width(p2, np.cos(d2), np.sin(d2))
    beta = (p2.alpha_x - p1.alpha_x) * np.cos(phis) + (p2.alpha_y - p1.alpha_y) * np.sin(phis)
    return np.sqrt(2.0 / (b1 + b2)) * (b1 * b2) ** 0.25 * np.exp(-beta**2 / (b1 + b2))


def minimize_overlap_scan(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Scan minimizer: dense grid over [0, pi) plus golden-section refinement.

    Returns (phi_min, overlap_min) with phi refined to about 1e-10.  Serves
    as the independent verifier of both minimizers in ``optimality`` (the
    analytic same-mean route and the companion-matrix route); no package
    code path other than ``min-overlap --method scan|both`` calls it.
    """
    from scipy.optimize import minimize_scalar

    phis = np.linspace(0.0, math.pi, _SCAN_POINTS, endpoint=False)
    vals = overlap_grid(p1, p2, phis)
    k = int(np.argmin(vals))
    step = math.pi / _SCAN_POINTS
    lo, hi = phis[k] - step, phis[k] + step

    def objective(phi):
        return overlap_at(p1, p2, phi)

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    phi_min = wrap_angle(float(res.x))
    val = float(res.fun)
    if val <= vals[k]:
        return phi_min, val
    return float(phis[k]), float(vals[k])
