"""Homodyne marginals and the Bhattacharyya overlap of their distributions.

Measuring the quadrature X_phi on a Gaussian state gives a normal outcome
distribution p(x) = sqrt(2/(pi B)) exp(-2 (x - a_phi)^2 / B) with width
B(phi) = gamma [s cos^2(phi - theta) + s^{-1} sin^2(phi - theta)] and mean
a_phi the projection of the mean amplitude onto the measurement direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeanMismatchError
from .fidelity import fidelity_params
from .states import GaussianParams, default_tol


@dataclass(frozen=True)
class MarginalSpec:
    """Gaussian homodyne outcome distribution at measurement angle ``phi``.

    ``b_variance_scale`` is B(phi); the actual variance is B/4.
    """

    b_variance_scale: float
    mean_along: float
    phi: float

    @property
    def variance(self) -> float:
        return self.b_variance_scale / 4.0

    def density(self, x):
        """Probability density, vectorized over ``x``."""
        b = self.b_variance_scale
        x = np.asarray(x, dtype=float)
        return np.sqrt(2.0 / (math.pi * b)) * np.exp(-2.0 * (x - self.mean_along) ** 2 / b)


@dataclass(frozen=True, eq=False)
class OverlapProfile:
    """Sampled overlap curve phi -> I_phi plus its exact minimum."""

    samples: np.ndarray  # shape (n, 2): columns (phi, overlap)
    min_overlap: float
    argmin_phi: float
    fidelity_ref: float


def marginal(p: GaussianParams, phi: float) -> MarginalSpec:
    """Homodyne marginal of ``p`` at angle ``phi``."""
    d = phi - p.theta
    b = p.gamma * (p.s * math.cos(d) ** 2 + math.sin(d) ** 2 / p.s)
    mean = p.alpha_x * math.cos(phi) + p.alpha_y * math.sin(phi)
    return MarginalSpec(b, mean, phi)


def overlap_from_ratio(x):
    """Overlap of two same-mean normals from their width ratio.

    f(x) = sqrt(2) x^{1/4} / sqrt(1 + x); concave, f(x) = f(1/x), f(1) = 1.
    """
    x = np.asarray(x, dtype=float)
    out = math.sqrt(2.0) * x**0.25 / np.sqrt(1.0 + x)
    return float(out) if out.ndim == 0 else out


def overlap_at(p1: GaussianParams, p2: GaussianParams, phi: float) -> float:
    """Bhattacharyya overlap of the two homodyne distributions at ``phi``."""
    m1 = marginal(p1, phi)
    m2 = marginal(p2, phi)
    b1, b2 = m1.b_variance_scale, m2.b_variance_scale
    beta_phi = m2.mean_along - m1.mean_along
    return (
        math.sqrt(2.0 / (b1 + b2))
        * (b1 * b2) ** 0.25
        * math.exp(-beta_phi * beta_phi / (b1 + b2))
    )


def overlap_same_mean(
    p1: GaussianParams, p2: GaussianParams, phi: float, tol: float | None = None
) -> float:
    """Same-mean overlap through the width ratio, f(B2/B1)."""
    tol = default_tol() if tol is None else tol
    if abs(p1.alpha_x - p2.alpha_x) > tol or abs(p1.alpha_y - p2.alpha_y) > tol:
        raise MeanMismatchError("states do not share a mean; use overlap_at")
    return float(overlap_from_ratio(b_ratio(p1, p2, phi)))


def b_ratio(p1: GaussianParams, p2: GaussianParams, phi: float) -> float:
    """Width ratio B2/B1 in trigonometric form.

    B2/B1 = gamma2 (s2p + s2m cos 2(phi - theta2))
          / gamma1 (s1p + s1m cos 2(phi - theta1)),  sip = si + 1/si, sim = si - 1/si.
    """
    s1p, s1m = p1.s + 1.0 / p1.s, p1.s - 1.0 / p1.s
    s2p, s2m = p2.s + 1.0 / p2.s, p2.s - 1.0 / p2.s
    num = p2.gamma * (s2p + s2m * math.cos(2.0 * (phi - p2.theta)))
    den = p1.gamma * (s1p + s1m * math.cos(2.0 * (phi - p1.theta)))
    return num / den


def overlap_grid(p1: GaussianParams, p2: GaussianParams, phis: np.ndarray) -> np.ndarray:
    """Vectorized I_phi over an array of angles."""
    phis = np.asarray(phis, dtype=float)
    d1 = phis - p1.theta
    d2 = phis - p2.theta
    b1 = p1.gamma * (p1.s * np.cos(d1) ** 2 + np.sin(d1) ** 2 / p1.s)
    b2 = p2.gamma * (p2.s * np.cos(d2) ** 2 + np.sin(d2) ** 2 / p2.s)
    beta = (p2.alpha_x - p1.alpha_x) * np.cos(phis) + (p2.alpha_y - p1.alpha_y) * np.sin(phis)
    return np.sqrt(2.0 / (b1 + b2)) * (b1 * b2) ** 0.25 * np.exp(-beta**2 / (b1 + b2))


def minimize_overlap_scan(
    p1: GaussianParams, p2: GaussianParams, grid_points: int = 4096
) -> tuple[float, float]:
    """Scan minimizer: dense grid over [0, pi) plus golden-section refinement.

    Returns (phi_min, overlap_min) with phi refined to about 1e-10.  Serves
    as the independent verifier of both minimizers in ``optimality`` (the
    analytic same-mean route and the companion-matrix route); no package
    code path other than ``min-overlap --method scan|both`` calls it.
    """
    from scipy.optimize import minimize_scalar

    phis = np.linspace(0.0, math.pi, grid_points, endpoint=False)
    vals = overlap_grid(p1, p2, phis)
    k = int(np.argmin(vals))
    step = math.pi / grid_points
    lo, hi = phis[k] - step, phis[k] + step

    def objective(phi):
        return overlap_at(p1, p2, phi)

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    phi_min = float(res.x) % math.pi
    val = float(res.fun)
    if val <= vals[k]:
        return phi_min, val
    return float(phis[k]), float(vals[k])


def overlap_profile(
    p1: GaussianParams, p2: GaussianParams, steps: int = 720
) -> OverlapProfile:
    """Sample I_phi on ``steps`` angles and attach the exact minimum."""
    from .optimality import minimize_overlap  # optimality imports this module

    if steps < 2:
        raise ValueError("profile needs at least 2 steps")
    phis = np.linspace(0.0, math.pi, steps, endpoint=False)
    vals = overlap_grid(p1, p2, phis)
    phi_min, val_min = minimize_overlap(p1, p2)
    fid = fidelity_params(p1, p2).fidelity
    samples = np.column_stack([phis, vals])
    return OverlapProfile(samples, val_min, phi_min, fid)
