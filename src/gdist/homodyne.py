"""Homodyne marginals and the Bhattacharyya overlap of their distributions.

Measuring the quadrature X_phi on a Gaussian state gives a normal outcome
distribution p(x) = sqrt(2/(pi B)) exp(-2 (x - a_phi)^2 / B) with width
B(phi) = gamma [s cos^2(phi - theta) + s^{-1} sin^2(phi - theta)] and mean
a_phi the projection of the mean amplitude onto the measurement direction.
Their overlap I_phi has one kernel, the scalar ``_overlap``, which the scan
calls too, so this module runs on ``math`` alone.
"""

from __future__ import annotations

import math

from .states import GaussianParams, wrap_angle

#: Points per pass of the scan minimizer: the grid over [0, pi), then each
#: zoomed grid around the best angle so far.
_SCAN_POINTS = 4096
_SCAN_PASSES = 3


def linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list[float]:
    """``np.linspace(start, stop, num, endpoint).tolist()`` bit for bit, in ``math`` alone."""
    div, delta = max(num - 1, 1) if endpoint else num, stop - start
    step = delta / div
    points = [(k * step if step else k / div * delta) + start for k in range(num)]
    if endpoint and num > 1:
        points[-1] = stop
    return points


def _width(p: GaussianParams, c, s):
    """B(phi) = gamma (s cos^2 + sin^2 / s) from c, s = cos, sin of phi - theta.

    The product form keeps its digits in the narrow direction of a strongly
    squeezed state, where gamma (s + 1/s + (s - 1/s) cos 2(phi - theta)) / 2
    cancels.
    """
    return p.gamma * (p.s * c**2 + s**2 / p.s)


def _overlap(b1: float, b2: float, beta_sq: float) -> float:
    """I_phi from widths b1, b2 and beta_phi^2, the prefactor under one root for accuracy."""
    width = b1 + b2
    return math.sqrt(2.0 * math.sqrt(b1 * b2) / width) * math.exp(-beta_sq / width)


def overlap_at(p1: GaussianParams, p2: GaussianParams, phi: float) -> float:
    """Bhattacharyya overlap of the two homodyne distributions at ``phi``."""
    d1, d2 = phi - p1.theta, phi - p2.theta
    b1 = _width(p1, math.cos(d1), math.sin(d1))
    b2 = _width(p2, math.cos(d2), math.sin(d2))
    beta_phi = (p2.alpha_x - p1.alpha_x) * math.cos(phi) + (p2.alpha_y - p1.alpha_y) * math.sin(phi)
    return _overlap(b1, b2, beta_phi * beta_phi)


def minimize_overlap_scan(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """Scan minimizer: a dense grid over [0, pi), refined by two zoomed grids.

    Each zoomed grid spans one spacing of the previous grid on either side of
    the best angle so far, so the spacing falls from 7.7e-4 to 3.8e-7 to
    1.9e-10.  Returns (phi_min, overlap_min), the lowest grid value seen, a
    tie going to the finer grid.  Each angle is one ``overlap_at``, on the
    grids of ``np.linspace`` (see ``linspace``), so no numpy loads.  Verifies
    both minimizers in ``optimality`` independently; only ``min-overlap
    --method scan|both`` calls it.
    """
    lo, span = 0.0, math.pi
    phi_min, val_min = 0.0, math.inf
    for _ in range(_SCAN_PASSES):
        phis = linspace(lo, lo + span, _SCAN_POINTS, endpoint=False)
        vals = [overlap_at(p1, p2, phi) for phi in phis]
        best = min(vals)
        if best <= val_min:  # the first lowest angle of the pass, as np.argmin takes it
            phi_min, val_min = phis[vals.index(best)], best
        step = span / _SCAN_POINTS
        lo, span = phi_min - step, 2.0 * step
    return wrap_angle(phi_min), val_min
