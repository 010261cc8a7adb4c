"""Projection-valued measurements onto squeezed coherent states.

The family consists of the POVMs with elements (1/pi) U^dag |alpha><alpha| U
for U a squeeze of degree r along direction theta_u.  Its outcome
distribution is the Husimi Q function of the transformed state: a 2-D
Gaussian over the alpha plane.  r = 0 is heterodyne detection; r -> infinity
recovers homodyne detection along theta_u.  Whether the large-r limit is the
best member of the family is an open question; ``conjecture_scan`` only
collects numerical evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import fidelity_params
from .homodyne import overlap_at
from .optimality import minimize_overlap
from .states import CovarianceState, GaussianParams, SymplecticMap, covariance_from_params


@dataclass(frozen=True)
class PovmFamilySpec:
    """One member of the measurement family: squeeze degree and direction.

    ``homodyne_limit`` marks the r -> infinity member, which is evaluated by
    delegating to the homodyne overlap at angle ``theta_u``.
    """

    r: float = 0.0
    theta_u: float = 0.0
    homodyne_limit: bool = False

    def __post_init__(self):
        if self.homodyne_limit:
            return
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeeze parameter must be finite and >= 0, got {self.r}")

    @staticmethod
    def heterodyne() -> "PovmFamilySpec":
        return PovmFamilySpec(0.0, 0.0)

    @staticmethod
    def squeezed(r: float, theta_u: float = 0.0) -> "PovmFamilySpec":
        return PovmFamilySpec(r, theta_u)

    @staticmethod
    def homodyne(theta_u: float = 0.0) -> "PovmFamilySpec":
        return PovmFamilySpec(0.0, theta_u, homodyne_limit=True)


def _squeeze_matrix(spec: PovmFamilySpec) -> np.ndarray:
    return SymplecticMap.squeezing(math.exp(2.0 * spec.r), spec.theta_u).matrix


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


def povm_overlap(p1: GaussianParams, p2: GaussianParams, spec: PovmFamilySpec) -> float:
    """Bhattacharyya overlap of the outcome distributions of the two states.

    Closed 2-D Gaussian form; always >= the fidelity of the pair.  The
    homodyne-limit member returns the 1-D overlap at angle theta_u.
    """
    if spec.homodyne_limit:
        return overlap_at(p1, p2, spec.theta_u)
    m = _squeeze_matrix(spec)
    return _bhattacharyya(
        _q_moments(covariance_from_params(p1), m), _q_moments(covariance_from_params(p2), m)
    )


@dataclass(frozen=True, eq=False)
class ConjectureScanRow:
    r: float
    min_overlap: float
    argmin_theta: float


@dataclass(frozen=True, eq=False)
class ConjectureScan:
    """Evidence table for the large-r conjecture on one state pair."""

    rows: list[ConjectureScanRow]
    homodyne_min: float
    fidelity: float
    monotone_decreasing: bool


def conjecture_scan(
    p1: GaussianParams,
    p2: GaussianParams,
    r_grid,
    theta_grid=None,
) -> ConjectureScan:
    """Minimize the family overlap over theta_u for each squeeze degree.

    Reference rows carry the homodyne-detection minimum and the fidelity.
    Monotonicity of the minima in r is reported from the data, not assumed.
    """
    if theta_grid is None:
        theta_grid = np.linspace(0.0, math.pi, 64, endpoint=False)
    state1, state2 = covariance_from_params(p1), covariance_from_params(p2)
    rows = []
    for r in r_grid:
        best_val = math.inf
        best_theta = 0.0
        for theta in theta_grid:
            m = _squeeze_matrix(PovmFamilySpec(float(r), float(theta)))
            val = _bhattacharyya(_q_moments(state1, m), _q_moments(state2, m))
            if val < best_val:
                best_val = val
                best_theta = float(theta)
        rows.append(ConjectureScanRow(float(r), best_val, best_theta))
    _, homodyne_min = minimize_overlap(p1, p2)
    fid = fidelity_params(p1, p2).fidelity
    mins = [row.min_overlap for row in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
    return ConjectureScan(rows, homodyne_min, fid, monotone)
