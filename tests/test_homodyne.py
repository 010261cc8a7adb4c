import importlib.util
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gdist import (
    GaussianParams,
    fidelity_params,
    minimize_overlap,
    overlap_at,
)
from gdist.homodyne import minimize_overlap_scan

from conftest import quadrature_overlap, random_params
from crosscheck import (
    MeanMismatchError,
    b_ratio,
    marginal,
    overlap_from_ratio,
    overlap_grid,
    overlap_same_mean,
    scan_numpy,
)


class TestMarginal:
    def test_vacuum_any_angle(self, rng):
        for phi in rng.uniform(0, math.pi, 10):
            m = marginal(GaussianParams(1.0), phi)
            assert math.isclose(m.b_variance_scale, 1.0)
            assert m.mean_along == 0.0
            assert math.isclose(m.variance, 0.25)

    def test_principal_axes(self):
        p = GaussianParams(1.0, 4.0, 0.0)
        assert math.isclose(marginal(p, 0.0).b_variance_scale, 4.0)
        assert math.isclose(marginal(p, math.pi / 2).b_variance_scale, 0.25)

    def test_rotated_mixed_state(self):
        # B along the major axis is gamma*s
        p = GaussianParams(2.0, 2.0, math.pi / 6)
        m = marginal(p, math.pi / 6)
        assert math.isclose(m.b_variance_scale, 4.0)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 6, 1.9])
    def test_matches_wigner_marginal_quadrature(self, phi):
        # independent route: integrate the Wigner function along the
        # orthogonal quadrature direction
        from gdist import covariance_from_params

        from crosscheck import wigner_fn

        p = GaussianParams(2.0, 2.0, math.pi / 6, 0.4, -0.3)
        c = covariance_from_params(p)
        m = marginal(p, phi)

        def from_wigner(x):
            def integrand(y):
                bx = x * math.cos(phi) - y * math.sin(phi)
                by = x * math.sin(phi) + y * math.cos(phi)
                return wigner_fn(c, complex(bx, by))

            val, _ = quad(integrand, -30.0, 30.0, limit=300, epsabs=1e-12)
            return val

        for x in (m.mean_along, m.mean_along + 0.5, m.mean_along - 1.3):
            assert abs(from_wigner(x) - m.density(x)) < 1e-8

    def test_b_range_invariant(self, rng):
        for _ in range(100):
            p = random_params(rng, gamma_hi=8.0, s_hi=8.0)
            b = marginal(p, rng.uniform(0, math.pi)).b_variance_scale
            assert p.gamma / p.s - 1e-12 <= b <= p.gamma * p.s + 1e-12

    def test_b_periodicity(self, rng):
        p = random_params(rng)
        phi = rng.uniform(0, math.pi)
        a = marginal(p, phi).b_variance_scale
        b = marginal(p, phi + math.pi).b_variance_scale
        assert math.isclose(a, b, rel_tol=1e-14)

    def test_mean_projection(self):
        p = GaussianParams(1.0, 1.0, 0.0, 2.0, -1.0)
        m = marginal(p, 0.3)
        assert math.isclose(m.mean_along, 2.0 * math.cos(0.3) - math.sin(0.3))

    def test_density_normalized(self, rng):
        for _ in range(10):
            p = random_params(rng, mean_scale=2.0)
            m = marginal(p, rng.uniform(0, math.pi))
            lo = m.mean_along - 12.0 * math.sqrt(m.variance)
            hi = m.mean_along + 12.0 * math.sqrt(m.variance)
            val, _ = quad(m.density, lo, hi, limit=200, epsabs=1e-12)
            assert abs(val - 1.0) < 1e-10


class TestOverlapAt:
    def test_identical_states(self, rng):
        p = random_params(rng, mean_scale=1.0)
        for phi in rng.uniform(0, math.pi, 8):
            assert math.isclose(overlap_at(p, p, phi), 1.0, abs_tol=1e-15)

    def test_width_ratio_four(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 4.0, 0.0)
        val = overlap_at(p1, p2, 0.0)
        assert abs(val - 2.0 / math.sqrt(5.0)) < 1e-15
        assert abs(val - quadrature_overlap(p1, p2, 0.0)) < 1e-10

    def test_coherent_pair(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        assert abs(overlap_at(p1, p2, 0.0) - math.exp(-0.5)) < 1e-15
        assert math.isclose(overlap_at(p1, p2, math.pi / 2), 1.0)

    def test_quadrature_equivalence_wide_widths(self):
        # widths B from 0.05 (gamma=1, s=20) up to 100 (gamma=10, s=10)
        cases = [
            (GaussianParams(1.0, 20.0, 0.0), GaussianParams(1.0, 20.0, math.pi / 2)),
            (GaussianParams(10.0, 10.0, 0.0), GaussianParams(1.0, 1.0, 0.0)),
            (GaussianParams(10.0, 10.0, 0.3, 1.0, 0.0), GaussianParams(2.0, 5.0, 1.2, 0.0, 1.0)),
        ]
        for p1, p2 in cases:
            for phi in (0.0, 0.4, math.pi / 2, 2.3):
                assert abs(overlap_at(p1, p2, phi) - quadrature_overlap(p1, p2, phi)) < 1e-10

    def test_periodicity(self, rng):
        for _ in range(50):
            p1 = random_params(rng, mean_scale=1.0)
            p2 = random_params(rng, mean_scale=1.0)
            phi = rng.uniform(0, math.pi)
            assert math.isclose(
                overlap_at(p1, p2, phi), overlap_at(p1, p2, phi + math.pi), rel_tol=1e-14
            )

    def test_narrow_direction_matches_mpmath(self):
        # nearly aligned strongly squeezed states measured along their
        # narrow direction, where the widths gamma (s + 1/s + (s - 1/s) cos)/2
        # would cancel to 1e-6 relative
        p1 = GaussianParams(2.0, 1e6, 0.3)
        p2 = GaussianParams(3.0, 2e5, 0.3 + 1e-7)
        phi = 0.3 + math.pi / 2
        with mpmath.workdps(50):
            widths = []
            for p in (p1, p2):
                d = mpmath.mpf(phi) - mpmath.mpf(p.theta)
                s = mpmath.mpf(p.s)
                widths.append(p.gamma * (s * mpmath.cos(d) ** 2 + mpmath.sin(d) ** 2 / s))
            b1, b2 = widths
            expected = mpmath.sqrt(2 / (b1 + b2)) * (b1 * b2) ** mpmath.mpf(0.25)
        assert abs(overlap_at(p1, p2, phi) / expected - 1) <= 1e-12

    def test_large_means_match_mpmath(self):
        # means of up to 1e4 a few units apart: beta_phi taken from the mean
        # difference keeps its digits, where the difference of the two
        # projections loses them to rounding at 1e4
        rng = random.Random(3)

        def state(ax, ay):
            return GaussianParams(
                rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, math.pi), ax, ay
            )

        with mpmath.workdps(50):
            for _ in range(300):
                ax, ay = rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)
                p1 = state(ax, ay)
                p2 = state(ax + rng.uniform(-2.0, 2.0), ay + rng.uniform(-2.0, 2.0))
                phi = rng.uniform(0.0, math.pi)
                mphi = mpmath.mpf(phi)
                widths = []
                for p in (p1, p2):
                    d = mphi - mpmath.mpf(p.theta)
                    s = mpmath.mpf(p.s)
                    widths.append(p.gamma * (s * mpmath.cos(d) ** 2 + mpmath.sin(d) ** 2 / s))
                width = widths[0] + widths[1]
                dx = mpmath.mpf(p2.alpha_x) - mpmath.mpf(p1.alpha_x)
                dy = mpmath.mpf(p2.alpha_y) - mpmath.mpf(p1.alpha_y)
                beta = dx * mpmath.cos(mphi) + dy * mpmath.sin(mphi)
                prefactor = mpmath.sqrt(2 * mpmath.sqrt(widths[0] * widths[1]) / width)
                expected = prefactor * mpmath.exp(-(beta**2) / width)
                assert abs(overlap_at(p1, p2, phi) / expected - 1) <= 1e-14

    def test_fuchs_caves_bound_random(self, rng):
        for _ in range(500):
            p1 = random_params(rng, mean_scale=2.0)
            p2 = random_params(rng, mean_scale=2.0)
            fid = fidelity_params(p1, p2).fidelity
            phi = rng.uniform(0, math.pi)
            assert overlap_at(p1, p2, phi) >= fid - 1e-9


class TestOverlapSameMean:
    def test_equal_widths(self):
        p = GaussianParams(2.0, 1.5, 0.2)
        assert overlap_same_mean(p, p, 0.7) == 1.0

    def test_ratio_four(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 4.0, 0.0)
        assert abs(overlap_same_mean(p1, p2, 0.0) - 2.0 / math.sqrt(5.0)) < 1e-15

    def test_matches_general_form(self, rng):
        for _ in range(100):
            p1 = random_params(rng)
            p2 = random_params(rng)
            phi = rng.uniform(0, math.pi)
            assert abs(overlap_same_mean(p1, p2, phi) - overlap_at(p1, p2, phi)) < 1e-14

    def test_mean_mismatch_rejected(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 0.1, 0.0)
        with pytest.raises(MeanMismatchError):
            overlap_same_mean(p1, p2, 0.0)


class TestOverlapFromRatio:
    def test_unity(self):
        assert overlap_from_ratio(1.0) == 1.0

    def test_inversion_symmetry(self, rng):
        for x in rng.uniform(0.01, 100.0, 50):
            assert math.isclose(
                float(overlap_from_ratio(x)), float(overlap_from_ratio(1.0 / x)), rel_tol=1e-14
            )

    def test_log_concavity_on_log_grid(self):
        # f is not concave in x itself (it turns convex past x ~ 2.27); the
        # property that holds globally, and that the endpoint-minimum argument
        # rests on, is concavity of ln f in ln x
        ts = np.linspace(math.log(0.01), math.log(100.0), 400)
        h = 1e-4

        def lf(t):
            return math.log(float(overlap_from_ratio(math.exp(t))))

        for t in ts:
            assert lf(t - h) + lf(t + h) <= 2.0 * lf(t) + 1e-12

    def test_minimum_on_interval_at_endpoint(self, rng):
        # consequence used by the minimizer: on any width-ratio interval the
        # smallest overlap sits at an endpoint
        f = overlap_from_ratio
        for _ in range(200):
            a, b = sorted(np.exp(rng.uniform(math.log(0.01), math.log(100.0), 2)))
            grid = np.linspace(a, b, 501)
            assert float(np.min(f(grid))) >= min(float(f(a)), float(f(b))) - 1e-12


class TestBRatio:
    def test_identical_params(self, rng):
        p = random_params(rng)
        for phi in rng.uniform(0, math.pi, 8):
            assert math.isclose(b_ratio(p, p, phi), 1.0, rel_tol=1e-15)

    def test_matches_marginal_ratio(self, rng):
        for _ in range(200):
            p1 = random_params(rng)
            p2 = random_params(rng)
            phi = rng.uniform(0, math.pi)
            direct = b_ratio(p1, p2, phi)
            via_b = marginal(p2, phi).b_variance_scale / marginal(p1, phi).b_variance_scale
            assert abs(direct - via_b) <= 1e-14 * max(1.0, direct)

    def test_round_first_state_extremes(self, rng):
        # with s1 = 1 the ratio sweeps [g2/(g1 s2), g2 s2/g1]
        g1, g2, s2 = 2.0, 3.0, 4.0
        p1 = GaussianParams(g1, 1.0, 0.0)
        p2 = GaussianParams(g2, s2, 0.9)
        vals = [b_ratio(p1, p2, phi) for phi in np.linspace(0, math.pi, 20001)]
        assert math.isclose(max(vals), g2 * s2 / g1, rel_tol=1e-6)
        assert math.isclose(min(vals), g2 / (g1 * s2), rel_tol=1e-6)
        assert math.isclose(b_ratio(p1, p2, 0.9), g2 * s2 / g1, rel_tol=1e-14)
        assert math.isclose(b_ratio(p1, p2, 0.9 + math.pi / 2), g2 / (g1 * s2), rel_tol=1e-14)

    def test_aligned_extremes(self):
        # theta_tilde = 0: extremes are g2 s2/(g1 s1) and g2 s1/(g1 s2)
        g1, g2, s1, s2 = 1.5, 2.5, 2.0, 5.0
        p1 = GaussianParams(g1, s1, 0.4)
        p2 = GaussianParams(g2, s2, 0.4)
        vals = [b_ratio(p1, p2, phi) for phi in np.linspace(0, math.pi, 20001)]
        assert math.isclose(max(vals), g2 * s2 / (g1 * s1), rel_tol=1e-6)
        assert math.isclose(min(vals), g2 * s1 / (g1 * s2), rel_tol=1e-6)


def benchmark_pairs(cycles=2, wide=40):
    """The benchmark's seeded pairs: ``pairs_plan`` cycles of every stratum, then wide ones."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    plan = inputs.pairs_plan(21, cycles) + inputs.wide_plan(21, wide)
    return [(GaussianParams(*case["p1"]), GaussianParams(*case["p2"])) for case in plan]


class TestOverlapProfile:
    def test_profile_structure(self, rng):
        p1 = random_params(rng, mean_scale=1.0)
        p2 = random_params(rng, mean_scale=1.0)
        vals = overlap_grid(p1, p2, np.linspace(0.0, math.pi, 360, endpoint=False))
        _, min_overlap = minimize_overlap(p1, p2)
        assert vals.shape == (360,)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0 + 1e-14)
        assert min_overlap >= fidelity_params(p1, p2).fidelity - 1e-9
        assert min_overlap <= np.min(vals) + 1e-12

    def test_scan_matches_vectorized_grid(self, rng):
        p1 = random_params(rng)
        p2 = random_params(rng)
        phis = np.linspace(0, math.pi, 512, endpoint=False)
        grid_vals = overlap_grid(p1, p2, phis)
        loop_vals = np.array([overlap_at(p1, p2, phi) for phi in phis])
        assert np.max(np.abs(grid_vals - loop_vals)) < 1e-14

    def test_scan_minimum_below_grid(self, rng):
        p1 = random_params(rng)
        p2 = random_params(rng)
        phi_min, val_min = scan_numpy(p1, p2)
        assert 0.0 <= phi_min < math.pi
        grid = overlap_grid(p1, p2, np.linspace(0, math.pi, 1024, endpoint=False))
        assert val_min <= np.min(grid) + 1e-12

    def test_scan_matches_numpy_twin(self):
        # the same grids and arithmetic; numpy's vector sin, cos and exp may
        # round differently from libm, so a minimum can move by an ulp, and
        # each zoom then follows its own side's best angle.  100 pairs keep
        # the pure-Python scans under 2 s on a 2-core VM; 400 take about 7 s
        pairs = benchmark_pairs()
        moved = []
        for p1, p2 in pairs:
            _, got = minimize_overlap_scan(p1, p2)
            _, want = scan_numpy(p1, p2)
            assert abs(got - want) <= 1e-15 * want, (p1, p2, got, want)
            if got != want:
                moved.append(abs(got - want) / math.ulp(want))
        worst = max(moved, default=0.0)
        print(f"{len(moved)} of {len(pairs)} scan minima differ from numpy, {worst:.0f} ulp at most")
