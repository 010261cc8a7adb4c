"""Projection-valued measurements onto squeezed coherent states.

The family consists of the POVMs with elements (1/pi) U^dag |alpha><alpha| U
for U a squeeze of degree s = e^{2r} (r finite, >= 0) along direction theta_u.
Outcomes follow the Husimi Q function of the transformed state, a 2-D Gaussian
with covariance Q = (M C M + I)/4 and mean M m, M = R(theta_u) diag(sqrt s,
1/sqrt s) R(theta_u)^T; ``povm_overlap(p1, p2, r, theta_u)`` is the overlap of
two.  As det M = 1, det(A + I) = det A + tr A + 1 and adj(A + I) = adj A + I,

    overlap = (det Q1 det Q2)^{1/4} / sqrt(det P) exp(-mahal / (2 pooled)),
    16 det Qi = gamma_i^2 + t_i + 1,   t_i = tr(M Ci M) = s Bi(theta_u) + Bi(theta_u + pi/2)/s,
    16 det P = pooled = det(C1 + C2)/4 + (t1 + t2)/2 + 1,   P = (Q1 + Q2)/2,
    mahal = (beta^T adj(C1) beta + beta^T adj(C2) beta)/2 + s (beta.u)^2 + (beta.u_perp)^2/s,

with B the homodyne width, beta the mean difference and u = (cos, sin) theta_u.
Every sum has nonnegative terms, so nothing cancels as s grows, and each is
evaluated divided by s, so nothing overflows: r = 0 is heterodyne detection,
and as r -> infinity (e^{-2r} -> 0) the overlap becomes the homodyne overlap
at theta_u.  Whether that limit is the best member of the family is an open
question; ``conjecture_scan`` only collects numerical evidence.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .fidelity import _adjugates, fidelity_params
from .homodyne import _width
from .optimality import minimize_overlap
from .states import GaussianParams


def _inverse_squeeze(r: float) -> float:
    """e^{-2r} = 1/s of the member of squeeze parameter r, which must be finite and >= 0."""
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {r}")
    return math.exp(-2.0 * r)


def _angle_terms(p1: GaussianParams, p2: GaussianParams, theta_u: float):
    """beta.u, beta.u_perp and each state's widths B(theta_u), B(theta_u + pi/2)."""
    dx, dy = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y
    cu, su = math.cos(theta_u), math.sin(theta_u)
    trig = [(p, math.cos(theta_u - p.theta), math.sin(theta_u - p.theta)) for p in (p1, p2)]
    widths = [(_width(p, c, sn), _width(p, sn, c)) for p, c, sn in trig]
    return dx * cu + dy * su, dy * cu - dx * su, widths


def _family_overlap(
    p1: GaussianParams, p2: GaussianParams, inv_s: float, terms, adjugates: float, cap: float
) -> float:
    """The overlap at 1/s = ``inv_s``, each sum divided by s, cap = det(C1 + C2).

    ``terms`` is ``_angle_terms`` at theta_u, ``adjugates`` is ``fidelity._adjugates``.
    """
    along, across, widths = terms
    traces = [w + inv_s * (inv_s * w_perp) for w, w_perp in widths]
    det1, det2 = (t + inv_s * (p.gamma * p.gamma + 1.0) for t, p in zip(traces, (p1, p2)))
    pooled = 0.5 * (traces[0] + traces[1]) + inv_s * (0.25 * cap + 1.0)
    mahal = along * along + inv_s * (0.5 * adjugates + inv_s * (across * across))
    ratio = math.sqrt(det1 / pooled) * math.sqrt(det2 / pooled)  # det1 * det2 can overflow
    return math.sqrt(ratio) * math.exp(-0.5 * mahal / pooled)


def povm_overlap(p1: GaussianParams, p2: GaussianParams, r: float, theta_u: float) -> float:
    """Bhattacharyya overlap of the outcome distributions of the two states.

    The member squeezes by degree e^{2r}, r finite and >= 0, along theta_u.
    Closed 2-D Gaussian form; always >= the fidelity of the pair.
    """
    terms, cap = _angle_terms(p1, p2, theta_u), fidelity_params(p1, p2).delta_cap
    return _family_overlap(p1, p2, _inverse_squeeze(r), terms, _adjugates(p1, p2), cap)


class ConjectureScanRow(namedtuple("ConjectureScanRow", "r min_overlap")):
    __slots__ = ()


class ConjectureScan(namedtuple("ConjectureScan", "rows homodyne_min fidelity")):
    """Evidence table for the large-r conjecture on one state pair."""

    __slots__ = ()


def conjecture_scan(p1: GaussianParams, p2: GaussianParams, r_grid, theta_grid) -> ConjectureScan:
    """Minimize the family overlap over theta_u for each squeeze degree.

    Reference rows carry the homodyne-detection minimum and the fidelity.
    """
    report = fidelity_params(p1, p2)
    adjugates = _adjugates(p1, p2)
    angles = [_angle_terms(p1, p2, float(t)) for t in theta_grid]  # once per theta, not per cell
    rows = []
    for r in map(float, r_grid):
        inv_s = _inverse_squeeze(r)
        cells = (_family_overlap(p1, p2, inv_s, a, adjugates, report.delta_cap) for a in angles)
        rows.append(ConjectureScanRow(r, min(cells, default=math.inf)))
    _, homodyne_min = minimize_overlap(p1, p2)
    return ConjectureScan(rows, homodyne_min, report.fidelity)
