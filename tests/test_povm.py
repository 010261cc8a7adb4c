import math

import numpy as np
import pytest

from gdist import (
    GaussianParams,
    PovmFamilySpec,
    conjecture_scan,
    fidelity_params,
    minimize_overlap,
    overlap_at,
    povm_overlap,
)
from gdist.fock import FockOperator, build_state

from conftest import random_params
from crosscheck import PovmKind, husimi_fock, povm_distribution, povm_kind, squeeze_op


def husimi_oracle(p, spec, alpha, dim=200):
    """Pointwise <alpha| U rho U^dag |alpha> / pi with truncated operators."""
    rho = build_state(p, dim)
    u = squeeze_op(spec.r, spec.theta_u, dim)
    transformed = FockOperator(u @ rho.matrix @ u.conj().T)
    return husimi_fock(transformed, alpha)


class TestPovmFamilySpec:
    def test_kinds(self):
        assert povm_kind(PovmFamilySpec.heterodyne()) is PovmKind.HETERODYNE
        assert povm_kind(PovmFamilySpec.squeezed(1.0, 0.3)) is PovmKind.SQUEEZED
        assert povm_kind(PovmFamilySpec.homodyne(0.3)) is PovmKind.HOMODYNE_LIMIT

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            PovmFamilySpec(-1.0)


class TestPovmDistribution:
    def test_vacuum_heterodyne(self):
        q = povm_distribution(GaussianParams(1.0), PovmFamilySpec.heterodyne())
        assert np.allclose(q.cov, 0.5 * np.eye(2))
        for ax, ay in ((0.0, 0.0), (0.7, -0.4), (1.5, 1.0)):
            expected = math.exp(-(ax**2 + ay**2)) / math.pi
            assert abs(float(q.density(ax, ay)) - expected) < 1e-12

    def test_thermal_heterodyne_against_fock(self):
        p = GaussianParams(3.0)
        spec = PovmFamilySpec.heterodyne()
        q = povm_distribution(p, spec)
        for alpha in (0.0, 0.5 + 0.3j, 1.2 - 0.8j):
            oracle = husimi_oracle(p, spec, alpha, dim=80)
            assert abs(float(q.density(alpha.real, alpha.imag)) - oracle) < 1e-7

    def test_unsqueezing_recovers_vacuum_q(self):
        # U chosen to cancel the state's squeezing: outcome equals vacuum Q
        p = GaussianParams(1.0, math.e**2, 0.4)
        spec = PovmFamilySpec.squeezed(1.0, 0.4 + math.pi / 2)
        q = povm_distribution(p, spec)
        assert np.allclose(q.cov, 0.5 * np.eye(2), atol=1e-12)

    def test_squeezed_member_against_fock(self, rng):
        # derived Q-covariance is validated numerically, not trusted
        cases = [
            (GaussianParams(1.0, 2.0, 0.3), PovmFamilySpec.squeezed(0.5, 1.0)),
            (GaussianParams(2.0, 1.5, 1.2, 0.5, -0.2), PovmFamilySpec.squeezed(1.0, 0.2)),
            (GaussianParams(3.0, 1.0, 0.0), PovmFamilySpec.squeezed(1.0, 2.0)),
        ]
        for p, spec in cases:
            q = povm_distribution(p, spec)
            for _ in range(5):
                alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                oracle = husimi_oracle(p, spec, alpha, dim=300)
                assert abs(float(q.density(alpha.real, alpha.imag)) - oracle) < 1e-7

    def test_homodyne_limit_has_no_distribution(self):
        with pytest.raises(ValueError):
            povm_distribution(GaussianParams(1.0), PovmFamilySpec.homodyne(0.0))


class TestPovmOverlap:
    def test_identical_states(self, rng):
        p = random_params(rng, mean_scale=1.0)
        assert math.isclose(povm_overlap(p, p, PovmFamilySpec.heterodyne()), 1.0)

    def test_coherent_pair_heterodyne(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        val = povm_overlap(p1, p2, PovmFamilySpec.heterodyne())
        fid = fidelity_params(p1, p2).fidelity
        assert abs(val - math.exp(-0.25)) < 1e-12
        assert val > fid  # heterodyne is strictly suboptimal here

    def test_coherent_pair_large_r_approaches_fidelity(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        fid = fidelity_params(p1, p2).fidelity
        val = povm_overlap(p1, p2, PovmFamilySpec.squeezed(10.0, 0.0))
        assert 0.0 < val - fid < 1e-8

    def test_bound_random(self, rng):
        for _ in range(300):
            p1 = random_params(rng, mean_scale=1.5)
            p2 = random_params(rng, mean_scale=1.5)
            spec = PovmFamilySpec(rng.uniform(0.0, 4.0), rng.uniform(0.0, math.pi))
            fid = fidelity_params(p1, p2).fidelity
            assert povm_overlap(p1, p2, spec) >= fid - 1e-9

    def test_homodyne_limit_delegates(self, rng):
        p1 = random_params(rng, mean_scale=1.0)
        p2 = random_params(rng, mean_scale=1.0)
        theta = rng.uniform(0, math.pi)
        assert povm_overlap(p1, p2, PovmFamilySpec.homodyne(theta)) == overlap_at(
            p1, p2, theta
        )

    def test_large_r_consistency_pure_pairs(self, rng):
        # min over theta_u approaches the homodyne minimum once r >= 6
        thetas = np.linspace(0, math.pi, 256, endpoint=False)
        for _ in range(5):
            p1 = GaussianParams(1.0, rng.uniform(1, 4), rng.uniform(0, math.pi))
            p2 = GaussianParams(1.0, rng.uniform(1, 4), rng.uniform(0, math.pi))
            _, hom_min = minimize_overlap(p1, p2)
            for r in (6.0, 8.0):
                best = min(
                    povm_overlap(p1, p2, PovmFamilySpec(r, float(t))) for t in thetas
                )
                assert abs(best - hom_min) <= 1e-3


class TestConjectureScan:
    def test_pure_pure_reference_row(self, rng):
        p1 = GaussianParams(1.0, 2.0, 0.0)
        p2 = GaussianParams(1.0, 3.0, 1.0)
        scan = conjecture_scan(p1, p2, r_grid=[0.0, 1.0, 3.0, 6.0])
        fid = fidelity_params(p1, p2).fidelity
        assert abs(scan.homodyne_min - fid) < 1e-8
        assert all(row.min_overlap >= fid - 1e-9 for row in scan.rows)

    def test_pure_mixed_rows_strictly_above(self):
        p1 = GaussianParams(1.0, 2.0, 0.0)
        p2 = GaussianParams(4.0, 2.0, math.pi / 3)
        scan = conjecture_scan(p1, p2, r_grid=[0.0, 1.0, 2.0, 4.0, 8.0])
        assert all(row.min_overlap > scan.fidelity + 1e-6 for row in scan.rows)
        assert scan.homodyne_min > scan.fidelity + 1e-6

    def test_coherent_pair_decreases_toward_fidelity(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        scan = conjecture_scan(p1, p2, r_grid=np.linspace(0.0, 8.0, 9))
        mins = [row.min_overlap for row in scan.rows]
        assert scan.monotone_decreasing
        assert abs(mins[0] - math.exp(-0.25)) < 1e-9
        assert abs(mins[-1] - scan.fidelity) < 1e-6

    @pytest.mark.parametrize(
        "p1, p2",
        [
            (GaussianParams(2.0, 3.0, 0.3), GaussianParams(3.0, 1.5, 1.1, 0.5, -0.3)),
            (GaussianParams(1.5, 2.0, 0.0), GaussianParams(2.5, 4.0, 0.7)),
        ],
        ids=["displaced", "same-mean"],
    )
    def test_rows_equal_per_cell_overlaps(self, p1, p2):
        r_grid = np.linspace(0.0, 6.0, 5)
        theta_grid = np.linspace(0.0, math.pi, 16, endpoint=False)
        scan = conjecture_scan(p1, p2, r_grid, theta_grid)
        for r, row in zip(r_grid, scan.rows):
            cells = [
                povm_overlap(p1, p2, PovmFamilySpec(float(r), float(theta)))
                for theta in theta_grid
            ]
            best = min(range(len(cells)), key=cells.__getitem__)
            assert row.r == float(r)
            assert row.min_overlap == cells[best]
            assert row.argmin_theta == float(theta_grid[best])
