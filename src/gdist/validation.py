"""Cross-validation of the closed forms against the Fock-space oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fidelity import fidelity_params
from .fock import auto_state, build_state, fidelity_fock, overlap_fock
from .homodyne import overlap_at
from .states import GaussianParams

SWEEP_GAMMAS = (1.0, 1.5, 3.0, 5.0)
SWEEP_SQUEEZES = (1.0, 2.0, 5.0)
SWEEP_THETAS = (0.0, math.pi / 6, math.pi / 3, math.pi / 2)
SWEEP_OFFSETS = ((0.0, 0.0), (0.5, -0.3), (1.2, 0.9), (2.0, 0.0))
ORACLE_TOL = 1e-6
DEFAULT_ANGLES = (0.0, math.pi / 3)


@dataclass(frozen=True)
class OracleCheckRow:
    """Deviations between closed forms and the oracle for one state pair."""

    label: str
    p1: GaussianParams
    p2: GaussianParams
    dim: int
    fid_closed: float
    fid_fock: float
    fid_dev: float
    overlap_dev_max: float
    passed: bool


def stratified_pairs() -> list[tuple[str, GaussianParams, GaussianParams]]:
    """The 144-case sweep: both states range over the gamma x squeeze grid.

    The relative squeeze direction and the mean offset of the second state
    cycle deterministically with the case index, keeping |alpha| <= 2.
    """
    combos = [(g, s) for g in SWEEP_GAMMAS for s in SWEEP_SQUEEZES]
    cases = []
    idx = 0
    for g1, s1 in combos:
        for g2, s2 in combos:
            theta = SWEEP_THETAS[idx % len(SWEEP_THETAS)]
            off = SWEEP_OFFSETS[idx % len(SWEEP_OFFSETS)]
            p1 = GaussianParams(g1, s1, 0.0)
            p2 = GaussianParams(g2, s2, theta, off[0], off[1])
            cases.append((f"case{idx:03d}", p1, p2))
            idx += 1
    return cases


def oracle_check_pair(
    p1: GaussianParams,
    p2: GaussianParams,
    dim: int | None = None,
    label: str = "pair",
) -> OracleCheckRow:
    """Compare fidelity and homodyne overlaps against the Fock oracle.

    Overlaps are compared at the angles ``DEFAULT_ANGLES``; the pair passes
    when every deviation is within ``ORACLE_TOL``.

    The default truncation starts at 150 and is enlarged automatically when
    a state still has weight near the cutoff there; the state needing less
    is then rebuilt at the larger truncation.  States come from the bounded
    cache in ``gdist.fock``, explicit ``dim`` included.
    """
    if dim is None:
        rho1, rho2 = auto_state(p1, min_dim=150), auto_state(p2, min_dim=150)
        dim = max(rho1.dim, rho2.dim)
        rho1 = rho1 if rho1.dim == dim else build_state(p1, dim)
        rho2 = rho2 if rho2.dim == dim else build_state(p2, dim)
    else:
        rho1, rho2 = build_state(p1, dim), build_state(p2, dim)
    fid_closed = fidelity_params(p1, p2).fidelity
    fid_fock = fidelity_fock(rho1, rho2)
    fid_dev = abs(fid_closed - fid_fock)
    overlap_dev = 0.0
    for phi in DEFAULT_ANGLES:
        closed = overlap_at(p1, p2, phi)
        oracle = overlap_fock(rho1, rho2, phi)
        overlap_dev = max(overlap_dev, abs(closed - oracle))
    passed = fid_dev <= ORACLE_TOL and overlap_dev <= ORACLE_TOL
    return OracleCheckRow(
        label, p1, p2, dim, fid_closed, fid_fock, fid_dev, overlap_dev, passed
    )


def run_oracle_sweep(dim: int | None = None) -> list[OracleCheckRow]:
    return [
        oracle_check_pair(p1, p2, dim=dim, label=label) for label, p1, p2 in stratified_pairs()
    ]
