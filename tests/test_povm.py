import math
import random

import numpy as np
import pytest

from gdist import (
    GaussianParams,
    conjecture_scan,
    covariance_from_params,
    fidelity_params,
    minimize_overlap,
    overlap_at,
    povm_overlap,
)
from gdist.fock import FockOperator, build_state

from conftest import random_params
from crosscheck import (
    _squeeze_matrix,
    husimi_fock,
    mpmath_povm_overlap,
    povm_distribution,
    q_overlap,
    squeeze_op,
)


THETA_GRID = np.linspace(0.0, math.pi, 64, endpoint=False)

#: A hot squeezed pair, r and theta_u at which the numpy 2x2 determinants of
#: (M C M + I)/4 cancelled to a returned overlap of 0.0, and the 50-digit
#: mpmath value of the overlap there (F of the pair is 4.93e-4).
HOT_PAIR = (
    GaussianParams(
        2533.241680891983, 2005.6482921362476, 1.002555108509686, 0.8200481239752886,
        -0.0388608810580795,
    ),
    GaussianParams(
        9995.216571862316, 9807.515942489274, 2.7456085006316817, 1.4466693143276634,
        0.5300892020517702,
    ),
)
HOT_R, HOT_THETA_U, HOT_OVERLAP = 9.77350885131916, 0.6646489385883793, 0.8467325662424914


def wide_draws(count, seed=17):
    """Pairs with gamma and s log-uniform in [1, 1e4] and |alpha| <= 3; r in [0, 10]."""
    rng = random.Random(seed)

    def state():
        gamma, s = 10.0 ** rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(0.0, 4.0)
        size, angle = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.0, math.pi)
        return GaussianParams(gamma, s, theta, size * math.cos(angle), size * math.sin(angle))

    for _ in range(count):
        p1, p2 = state(), state()
        yield p1, p2, rng.uniform(0.0, 10.0), rng.uniform(0.0, math.pi)


def husimi_oracle(p, r, theta_u, alpha, dim=200):
    """Pointwise <alpha| U rho U^dag |alpha> / pi with truncated operators."""
    rho = build_state(p, dim)
    u = squeeze_op(r, theta_u, dim)
    transformed = FockOperator(u @ rho.factor)
    return husimi_fock(transformed, alpha)


class TestSqueezeMatrix:
    def test_squeezes_vacuum_into_params_form(self, rng):
        # M M^T of the squeeze of degree s = e^{2r} along theta_u is the pure state (1, s, theta_u)
        for _ in range(20):
            r, theta = rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi)
            m = _squeeze_matrix(r, theta)
            ref = covariance_from_params(GaussianParams(1.0, math.exp(2.0 * r), theta))
            assert np.allclose(m @ m.T, ref.cov, rtol=1e-12, atol=1e-12)

    def test_is_symplectic(self, rng):
        form = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for _ in range(50):
            m = _squeeze_matrix(rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi))
            assert np.max(np.abs(m @ form @ m.T - form)) < 1e-12


class TestPovmDistribution:
    def test_vacuum_heterodyne(self):
        q = povm_distribution(GaussianParams(1.0), 0.0, 0.0)
        assert np.allclose(q.cov, 0.5 * np.eye(2))
        for ax, ay in ((0.0, 0.0), (0.7, -0.4), (1.5, 1.0)):
            expected = math.exp(-(ax**2 + ay**2)) / math.pi
            assert abs(float(q.density(ax, ay)) - expected) < 1e-12

    def test_thermal_heterodyne_against_fock(self):
        p = GaussianParams(3.0)
        q = povm_distribution(p, 0.0, 0.0)
        for alpha in (0.0, 0.5 + 0.3j, 1.2 - 0.8j):
            oracle = husimi_oracle(p, 0.0, 0.0, alpha, dim=80)
            assert abs(float(q.density(alpha.real, alpha.imag)) - oracle) < 1e-7

    def test_unsqueezing_recovers_vacuum_q(self):
        # U chosen to cancel the state's squeezing: outcome equals vacuum Q
        p = GaussianParams(1.0, math.e**2, 0.4)
        q = povm_distribution(p, 1.0, 0.4 + math.pi / 2)
        assert np.allclose(q.cov, 0.5 * np.eye(2), atol=1e-12)

    def test_squeezed_member_against_fock(self, rng):
        # derived Q-covariance is validated numerically, not trusted
        cases = [
            (GaussianParams(1.0, 2.0, 0.3), 0.5, 1.0),
            (GaussianParams(2.0, 1.5, 1.2, 0.5, -0.2), 1.0, 0.2),
            (GaussianParams(3.0, 1.0, 0.0), 1.0, 2.0),
        ]
        for p, r, theta_u in cases:
            q = povm_distribution(p, r, theta_u)
            for _ in range(5):
                alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                oracle = husimi_oracle(p, r, theta_u, alpha, dim=300)
                assert abs(float(q.density(alpha.real, alpha.imag)) - oracle) < 1e-7


class TestPovmOverlap:
    def test_identical_states(self, rng):
        p = random_params(rng, mean_scale=1.0)
        assert math.isclose(povm_overlap(p, p, 0.0, 0.0), 1.0)

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_rejects_bad_r(self, r):
        p = GaussianParams(1.0)
        with pytest.raises(ValueError, match="squeeze parameter"):
            povm_overlap(p, p, r, 0.0)

    def test_coherent_pair_heterodyne(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        val = povm_overlap(p1, p2, 0.0, 0.0)
        fid = fidelity_params(p1, p2).fidelity
        assert abs(val - math.exp(-0.25)) < 1e-12
        assert val > fid  # heterodyne is strictly suboptimal here

    def test_coherent_pair_large_r_approaches_fidelity(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        fid = fidelity_params(p1, p2).fidelity
        val = povm_overlap(p1, p2, 10.0, 0.0)
        assert 0.0 < val - fid < 1e-8

    def test_bound_random(self, rng):
        for _ in range(300):
            p1 = random_params(rng, mean_scale=1.5)
            p2 = random_params(rng, mean_scale=1.5)
            r, theta_u = rng.uniform(0.0, 4.0), rng.uniform(0.0, math.pi)
            fid = fidelity_params(p1, p2).fidelity
            assert povm_overlap(p1, p2, r, theta_u) >= fid - 1e-9

    def test_hot_squeezed_pair(self):
        p1, p2 = HOT_PAIR
        val = povm_overlap(p1, p2, HOT_R, HOT_THETA_U)
        assert abs(val / HOT_OVERLAP - 1.0) < 1e-13
        assert abs(fidelity_params(p1, p2).fidelity / 4.93e-4 - 1.0) < 1e-3

    def test_matches_mpmath_on_the_wide_domain(self):
        checked = 0
        for p1, p2, r, theta_u in wide_draws(400):
            reference = mpmath_povm_overlap(p1, p2, r, theta_u)
            if reference < 1e-290:
                continue
            val = povm_overlap(p1, p2, r, theta_u)
            assert abs(val / reference - 1) < 1e-13, (p1, p2, r, theta_u)
            checked += 1
        assert checked > 350

    def test_matches_numpy_q_moments(self, rng):
        for _ in range(300):
            p1 = random_params(rng, mean_scale=1.5)
            p2 = random_params(rng, mean_scale=1.5)
            r, theta_u = rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi)
            reference = q_overlap(povm_distribution(p1, r, theta_u), povm_distribution(p2, r, theta_u))
            assert abs(povm_overlap(p1, p2, r, theta_u) / reference - 1.0) < 1e-12

    def test_squeeze_beyond_double_range_is_homodyne(self, rng):
        # e^{-2r} underflows to 0: the member is homodyne detection along theta_u
        for _ in range(50):
            p1 = random_params(rng, mean_scale=1.5)
            p2 = random_params(rng, mean_scale=1.5)
            theta_u = rng.uniform(0.0, math.pi)
            homodyne = overlap_at(p1, p2, theta_u)
            assert abs(povm_overlap(p1, p2, 1e6, theta_u) / homodyne - 1.0) < 1e-14

    def test_large_r_consistency_pure_pairs(self, rng):
        # min over theta_u approaches the homodyne minimum once r >= 6
        thetas = np.linspace(0, math.pi, 256, endpoint=False)
        for _ in range(5):
            p1 = GaussianParams(1.0, rng.uniform(1, 4), rng.uniform(0, math.pi))
            p2 = GaussianParams(1.0, rng.uniform(1, 4), rng.uniform(0, math.pi))
            _, hom_min = minimize_overlap(p1, p2)
            for r in (6.0, 8.0):
                best = min(
                    povm_overlap(p1, p2, r, float(t)) for t in thetas
                )
                assert abs(best - hom_min) <= 1e-3


class TestConjectureScan:
    def test_pure_pure_reference_row(self, rng):
        p1 = GaussianParams(1.0, 2.0, 0.0)
        p2 = GaussianParams(1.0, 3.0, 1.0)
        scan = conjecture_scan(p1, p2, [0.0, 1.0, 3.0, 6.0], THETA_GRID)
        fid = fidelity_params(p1, p2).fidelity
        assert abs(scan.homodyne_min - fid) < 1e-8
        assert all(row.min_overlap >= fid - 1e-9 for row in scan.rows)

    def test_pure_mixed_rows_strictly_above(self):
        p1 = GaussianParams(1.0, 2.0, 0.0)
        p2 = GaussianParams(4.0, 2.0, math.pi / 3)
        scan = conjecture_scan(p1, p2, [0.0, 1.0, 2.0, 4.0, 8.0], THETA_GRID)
        assert all(row.min_overlap > scan.fidelity + 1e-6 for row in scan.rows)
        assert scan.homodyne_min > scan.fidelity + 1e-6

    def test_coherent_pair_decreases_toward_fidelity(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        scan = conjecture_scan(p1, p2, np.linspace(0.0, 8.0, 9), THETA_GRID)
        mins = [row.min_overlap for row in scan.rows]
        assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
        assert abs(mins[0] - math.exp(-0.25)) < 1e-9
        assert abs(mins[-1] - scan.fidelity) < 1e-6

    def test_rejects_bad_r(self):
        p = GaussianParams(1.0)
        with pytest.raises(ValueError, match="squeeze parameter"):
            conjecture_scan(p, p, [0.0, -1.0], THETA_GRID)

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
            cells = [povm_overlap(p1, p2, float(r), float(theta)) for theta in theta_grid]
            assert row.r == float(r)
            assert row.min_overlap == min(cells)

