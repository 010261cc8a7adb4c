"""Projection-valued measurements onto squeezed coherent states.

The family consists of the POVMs with elements (1/pi) U^dag |alpha><alpha| U
for U a squeeze of degree r (finite, >= 0) along direction theta_u.  Outcomes
follow the Husimi Q function of the transformed state, a 2-D Gaussian over the
alpha plane, and ``povm_overlap(p1, p2, r, theta_u)`` is the overlap of two.
r = 0 is heterodyne detection; r -> infinity recovers homodyne detection along
theta_u.  Whether the large-r limit is the best member of the family is an open
question; ``conjecture_scan`` only collects numerical evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import fidelity_params
from .optimality import minimize_overlap
from .states import CovarianceState, GaussianParams, covariance_from_params


def _check_r(r: float) -> None:
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {r}")


def _squeeze_matrix(r: float, theta_u: float) -> np.ndarray:
    """R(theta_u) diag(sqrt s, 1/sqrt s) R(theta_u)^T, the squeeze of degree s = e^{2r}."""
    s = math.exp(2.0 * r)
    c, sn = math.cos(theta_u), math.sin(theta_u)
    rot = np.array([[c, -sn], [sn, c]])
    return rot @ np.diag([math.sqrt(s), 1.0 / math.sqrt(s)]) @ rot.T


def _q_moments(state: CovarianceState, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q-covariance (M C M^T + I)/4 and mean M m of ``state`` under the squeeze M."""
    return (m @ state.cov @ m.T + np.eye(2)) / 4.0, m @ state.mean


def _bhattacharyya(q1: tuple[np.ndarray, np.ndarray], q2: tuple[np.ndarray, np.ndarray]) -> float:
    """Overlap of two 2-D Gaussians given as (covariance, mean)."""
    cov1, mean1 = q1
    cov2, mean2 = q2
    pooled = 0.5 * (cov1 + cov2)
    det1 = float(cov1[0, 0] * cov1[1, 1] - cov1[0, 1] ** 2)
    det2 = float(cov2[0, 0] * cov2[1, 1] - cov2[0, 1] ** 2)
    detp = float(pooled[0, 0] * pooled[1, 1] - pooled[0, 1] ** 2)
    diff = mean2 - mean1
    quad = (
        pooled[1, 1] * diff[0] * diff[0]
        - 2.0 * pooled[0, 1] * diff[0] * diff[1]
        + pooled[0, 0] * diff[1] * diff[1]
    ) / detp
    return (det1 * det2) ** 0.25 / math.sqrt(detp) * math.exp(-0.125 * quad)


def povm_overlap(p1: GaussianParams, p2: GaussianParams, r: float, theta_u: float) -> float:
    """Bhattacharyya overlap of the outcome distributions of the two states.

    The member squeezes by degree e^{2r}, r finite and >= 0, along theta_u.
    Closed 2-D Gaussian form; always >= the fidelity of the pair.
    """
    _check_r(r)
    m = _squeeze_matrix(r, theta_u)
    return _bhattacharyya(
        _q_moments(covariance_from_params(p1), m), _q_moments(covariance_from_params(p2), m)
    )


@dataclass(frozen=True, eq=False)
class ConjectureScanRow:
    r: float
    min_overlap: float


@dataclass(frozen=True, eq=False)
class ConjectureScan:
    """Evidence table for the large-r conjecture on one state pair."""

    rows: list[ConjectureScanRow]
    homodyne_min: float
    fidelity: float


def conjecture_scan(p1: GaussianParams, p2: GaussianParams, r_grid, theta_grid) -> ConjectureScan:
    """Minimize the family overlap over theta_u for each squeeze degree.

    Reference rows carry the homodyne-detection minimum and the fidelity.
    """
    state1, state2 = covariance_from_params(p1), covariance_from_params(p2)
    rows = []
    for r in r_grid:
        r = float(r)
        _check_r(r)
        best = math.inf
        for theta in theta_grid:
            m = _squeeze_matrix(r, float(theta))
            best = min(best, _bhattacharyya(_q_moments(state1, m), _q_moments(state2, m)))
        rows.append(ConjectureScanRow(r, best))
    _, homodyne_min = minimize_overlap(p1, p2)
    return ConjectureScan(rows, homodyne_min, fidelity_params(p1, p2).fidelity)
