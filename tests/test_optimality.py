import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gdist
from gdist import (
    GaussianParams,
    UnsupportedPairError,
    classify_pair,
    fidelity_params,
    minimize_overlap,
    minimize_overlap_general,
    overlap_at,
    ratio_extremes,
    solve_s2_for_optimality,
    thermal_ratio_sum,
)
from gdist import optimality
from gdist.homodyne import minimize_overlap_scan
from gdist.optimality import PairClass, _critical_angles, _overlap_slopes, _round_minimum
from gdist.states import DEFAULT_TOL

from conftest import NARROW_DIPS, log_uniform, matmul_covariance, random_params
from crosscheck import (
    DegenerateFidelityError,
    MeanMismatchError,
    b_ratio,
    build_equality_equation,
    check_condition_s1_unity,
    overlap_from_ratio,
    overlap_grid,
    scan_numpy,
    solve_equality_phi,
    solve_harmonic,
    squeeze_mismatch,
)


#: Classes whose minimal overlap attains the fidelity.
OPTIMAL_KINDS = {
    PairClass.PURE_PURE_ALWAYS_OPTIMAL,
    PairClass.MIXED_MIXED_OPTIMAL,
    PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL,
    PairClass.IDENTICAL_STATES,
}


def random_same_mean_pair(rng, gamma_hi=6.0, s_hi=8.0):
    return random_params(rng, gamma_hi, s_hi), random_params(rng, gamma_hi, s_hi)


@st.composite
def state_pairs(draw, s_hi, gamma_hi=6.0, displaced=True):
    """Two states; the second is displaced by 0.05..2 in a random direction."""
    states = []
    for _ in range(2):
        gamma = draw(log_uniform(1.0, gamma_hi))
        s = draw(log_uniform(1.0, s_hi))
        states.append((gamma, s, draw(st.floats(0.0, math.pi, exclude_max=True))))
    shift = (0.0, 0.0)
    if displaced:
        radius = draw(st.floats(0.05, 2.0))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        shift = (radius * math.cos(angle), radius * math.sin(angle))
    return GaussianParams(*states[0]), GaussianParams(*states[1], *shift)


def dense_min(p1, p2, points=1 << 16):
    return float(np.min(overlap_grid(p1, p2, np.linspace(0.0, math.pi, points, endpoint=False))))


def mpmath_mismatch(p1, p2):
    """D of the pair in mpmath, at the caller's precision, from the float parameters."""
    a, b = mpmath.mpf(p1.s), mpmath.mpf(p2.s)
    tilt = mpmath.mpf(p2.theta) - mpmath.mpf(p1.theta)
    return (a + 1 / a) * (b + 1 / b) - (a - 1 / a) * (b - 1 / b) * mpmath.cos(2 * tilt)


def mod_distance(a, b, period):
    d = (a - b) % period
    return min(d, period - d)


class TestRatioExtremes:
    def test_match_brute_scan(self, rng):
        # grid scan limits the comparison to ~(pi/4000)^2 near the extremes
        for _ in range(100):
            p1, p2 = random_same_mean_pair(rng)
            lo, hi = ratio_extremes(p1, p2)
            vals = [b_ratio(p1, p2, phi) for phi in np.linspace(0, math.pi, 4001)]
            assert math.isclose(min(vals), lo, rel_tol=1e-4)
            assert math.isclose(max(vals), hi, rel_tol=1e-4)
            assert min(vals) >= lo - 1e-12
            assert max(vals) <= hi + 1e-12

    def test_product_identity(self, rng):
        for _ in range(100):
            p1, p2 = random_same_mean_pair(rng)
            lo, hi = ratio_extremes(p1, p2)
            assert math.isclose(lo * hi, (p2.gamma / p1.gamma) ** 2, rel_tol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        gammas=st.tuples(log_uniform(1.0, 1e8), log_uniform(1.0, 1e8)),
        s1=log_uniform(1.0, 1e6),
        theta1=st.floats(0.0, math.pi, exclude_max=True),
        near=st.booleans(),
        rel=log_uniform(1e-12, 1e-3),
        second=st.tuples(log_uniform(1.0, 1e6), st.floats(0.0, math.pi, exclude_max=True)),
    )
    def test_match_mpmath_reference(self, gammas, s1, theta1, near, rel, second):
        # near=True: s2/s1 = 1 + rel and a tilt below rel, i.e. D just above 4
        if near:
            s2, theta2 = s1 * (1.0 + rel), theta1 + 0.5 * rel
        else:
            s2, theta2 = second
        p1 = GaussianParams(gammas[0], s1, theta1)
        p2 = GaussianParams(gammas[1], s2, theta2)
        with mpmath.workdps(50):
            mism = mpmath_mismatch(p1, p2)
            ratio = mpmath.mpf(p2.gamma) / mpmath.mpf(p1.gamma)
            root = mpmath.sqrt(mism * mism - 16)
            expected = (ratio * (mism - root) / 4, ratio * (mism + root) / 4)
            for got, want in zip(ratio_extremes(p1, p2), expected):
                assert abs((got - want) / want) <= 1e-14, (p1, p2)

    @pytest.mark.parametrize("g1, g2, s", [(1.5, 2.0, 2.0), (2.0, 2.0, 3.0), (1.0, 1.0, 1.5)])
    def test_witness_angle_near_identical_ellipses(self, g1, g2, s):
        # s2/s1 = 1 + 1e-9 at a common direction 0.4: D - 4 is about 1e-18
        p1 = GaussianParams(g1, s, 0.4)
        p2 = GaussianParams(g2, s * (1.0 + 1e-9), 0.4)
        lo, hi = ratio_extremes(p1, p2)
        ratio = g2 / g1
        assert math.isclose(hi / ratio, 1.0 + 1e-9, rel_tol=1e-15)
        assert math.isclose(lo / ratio, 1.0 / (1.0 + 1e-9), rel_tol=1e-15)
        phi_min, _ = minimize_overlap(p1, p2)
        assert mod_distance(phi_min, 0.4, math.pi / 2) < 1e-5


class TestMinimizeOverlap:
    def test_round_vs_squeezed_pure(self):
        # both principal angles reach the minimum 2/sqrt(5)
        p1 = GaussianParams(1.0, 1.0, 0.0)
        p2 = GaussianParams(1.0, 4.0, 0.0)
        phi_min, val = minimize_overlap(p1, p2)
        assert abs(val - 2.0 / math.sqrt(5.0)) < 1e-15
        assert min(abs(phi_min - 0.0), abs(phi_min - math.pi / 2)) < 1e-9
        assert abs(overlap_at(p1, p2, 0.0) - val) < 1e-15
        assert abs(overlap_at(p1, p2, math.pi / 2) - val) < 1e-15

    def test_identical_states(self):
        p = GaussianParams(2.0, 3.0, 0.5)
        phi_min, val = minimize_overlap(p, p)
        assert val == 1.0

    def test_pure_mixed_regression(self):
        # frozen from a 1e5-point grid-scan oracle
        p1 = GaussianParams(1.0, 2.0, 0.0)
        p2 = GaussianParams(4.0, 2.0, math.pi / 3)
        phi_min, val = minimize_overlap(p1, p2)
        assert abs(val - 0.7110876974247113) < 1e-12
        fid = fidelity_params(p1, p2).fidelity
        assert val - fid > 0.1  # strictly not optimal

    def test_argmin_attains_value(self, rng):
        for _ in range(200):
            p1, p2 = random_same_mean_pair(rng)
            phi_min, val = minimize_overlap(p1, p2)
            assert abs(overlap_at(p1, p2, phi_min) - val) < 1e-10

    def test_agrees_with_scan(self, rng):
        for _ in range(100):
            p1, p2 = random_same_mean_pair(rng)
            _, analytic = minimize_overlap(p1, p2)
            _, scanned = scan_numpy(p1, p2)
            assert abs(analytic - scanned) < 1e-8
            assert analytic <= scanned + 1e-12

    def test_same_mean_minimum_within_ulps_of_mpmath(self):
        # wide domain: the minimum is the smaller of f(mu) = sqrt(2 sqrt(mu) / (1 + mu))
        # at the two ratio extremes, to 1.5 ulp of 50-digit f
        draws = random.Random(18)

        def draw():
            gamma = math.exp(draws.uniform(0.0, math.log(1e8)))
            s = math.exp(draws.uniform(0.0, math.log(1e6)))
            return GaussianParams(gamma, s, draws.uniform(0.0, math.pi))

        errors = []
        with mpmath.workdps(50):
            for _ in range(2000):
                p1, p2 = draw(), draw()
                _, value = minimize_overlap(p1, p2)
                expected = min(
                    mpmath.sqrt(2 * mpmath.sqrt(mu) / (1 + mu))
                    for mu in map(mpmath.mpf, ratio_extremes(p1, p2))
                )
                errors.append(float(abs(value - expected)) / math.ulp(float(expected)))
        assert max(errors) <= 1.5


class TestMinimizeOverlapGeneral:
    def test_coherent_pair(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        phi_min, val = minimize_overlap_general(p1, p2)
        fid = fidelity_params(p1, p2).fidelity
        assert abs(val - math.exp(-0.5)) < 1e-10
        assert abs(val - fid) < 1e-10
        assert min(phi_min, math.pi - phi_min) < 1e-4

    def test_round_equal_widths_reach_fidelity(self):
        p1 = GaussianParams(3.0)
        p2 = GaussianParams(3.0, 1.0, 0.0, 1.0, 0.5)
        _, val = minimize_overlap_general(p1, p2)
        fid = fidelity_params(p1, p2).fidelity
        assert abs(val - fid) < 1e-8

    def test_round_unequal_widths_strict_gap(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(3.0, 1.0, 0.0, 1.0, 0.0)
        _, val = minimize_overlap_general(p1, p2)
        fid = fidelity_params(p1, p2).fidelity
        assert val - fid > 1e-3

    def test_argmin_aligns_with_mean_difference(self, rng):
        for _ in range(20):
            g1, g2 = rng.uniform(1.0, 4.0, 2)
            beta = rng.uniform(-2.0, 2.0, 2)
            if np.hypot(*beta) < 0.3:
                continue
            p1 = GaussianParams(g1)
            p2 = GaussianParams(g2, 1.0, 0.0, beta[0], beta[1])
            phi_min, _ = minimize_overlap_general(p1, p2)
            expected = math.atan2(beta[1], beta[0]) % math.pi
            dist = abs(phi_min - expected)
            assert min(dist, math.pi - dist) < 1e-4

    def test_routing_from_minimize_overlap(self):
        # exactly round displaced pairs take the closed form, squeezed ones this route
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 0.7, 0.2)
        assert minimize_overlap(p1, p2) == _round_minimum(1.0, 1.0, 0.7, 0.2)
        p2 = GaussianParams(1.0, 1.5, 0.3, 0.7, 0.2)
        assert minimize_overlap(p1, p2) == minimize_overlap_general(p1, p2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(state_pairs(s_hi=8.0))
    def test_matches_scan(self, pair):
        p1, p2 = pair
        phi_min, exact = minimize_overlap_general(*pair)
        _, scanned = scan_numpy(*pair)
        assert abs(exact - scanned) <= 1e-12
        assert exact <= scanned + 1e-14
        assert 0.0 <= phi_min < math.pi
        assert overlap_at(p1, p2, phi_min) == pytest.approx(exact, abs=1e-15)
        # the top harmonic cancels identically: degree 3, at most 6 roots
        assert len(_critical_angles(_overlap_slopes(p1, p2))) <= 6

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        pair=state_pairs(s_hi=1e6, gamma_hi=1e6),
        shift=log_uniform(1e-2, 1e3),
        phi=st.floats(0.0, math.pi, exclude_max=True),
    )
    def test_seven_samples_give_the_slope_numerator(self, pair, shift, phi):
        # the top harmonic of N cancels, so its 7 samples fix the Laurent
        # series c_-3 .. c_3, which reproduces N at any other angle
        p1, q = pair
        p2 = GaussianParams(q.gamma, q.s, q.theta, shift * q.alpha_x, shift * q.alpha_y)
        slopes_at = _overlap_slopes(p1, p2)
        phis, dft = optimality._sample_tables()
        assert phis == pytest.approx([math.pi * k / 7 for k in range(7)], abs=1e-15)
        samples = [slopes_at(x) for x in phis]
        coeffs = dft @ np.array([sample[3] for sample in samples])
        scale = max(sample[4] for sample in samples)
        series = sum(c * np.exp(2j * m * phi) for m, c in zip(range(-3, 4), coeffs))
        assert abs(series - slopes_at(phi)[3]) <= 1e-12 * scale

    def test_slope_numerator_matches_slope(self):
        # N = 2 b1 b2 (b1 + b2)^2 dlogI/dphi, from the same widths as overlap_at
        p1 = GaussianParams(2.0, 3.0, 0.4, 0.1, 0.2)
        p2 = GaussianParams(1.5, 2.0, 1.1, 1.0, -0.3)
        slopes_at = _overlap_slopes(p1, p2)
        for phi in np.linspace(0.0, math.pi, 13):
            value, slope, _, numer, largest = slopes_at(phi)
            b1, b2 = (
                p.gamma * (p.s * math.cos(phi - p.theta) ** 2 + math.sin(phi - p.theta) ** 2 / p.s)
                for p in (p1, p2)
            )
            assert value == overlap_at(p1, p2, phi)
            assert numer == pytest.approx(2.0 * b1 * b2 * (b1 + b2) ** 2 * slope, rel=1e-14)
            assert abs(numer) <= 4.0 * largest  # a sum of four terms

    def test_flat_minimum_angle(self):
        # I_phi is flat to the last bit around phi = 0 here; the angle must
        # still be the critical one, along the mean difference
        p1 = GaussianParams(8.03457151502443)
        p2 = GaussianParams(
            4.821188044040765, 1.0, 0.0, -0.059246365739748785, 1.4765786116603348e-09
        )
        phi_min, value = minimize_overlap_general(p1, p2)
        assert phi_min == pytest.approx(3.1415926286671065, abs=1e-12)
        assert value == _round_minimum(p1.gamma, p2.gamma, p2.alpha_x, p2.alpha_y)[1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(state_pairs(s_hi=1e4))
    def test_below_dense_grid_strong_squeezing(self, pair):
        assert minimize_overlap_general(*pair)[1] <= dense_min(*pair) + 1e-14

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                (94283.76590766321, 760242.1836794969, 2.3520554451768376),
                (35.39421909366029, 2.487915999660971, 1.4924583744389037, 845.56, -693.93),
            ),
            (
                (2946830.5972408964, 4387.831987522521, 1.649678756471695),
                (4.225084340433881, 1.095733776469396, 1.1013911247515036, 72.56, -93.31),
            ),
            # nearly aligned narrow directions: the minimum lies between two
            # candidates whose slopes point at each other
            (
                (1.3472592194172381, 1232.092211442567, 2.978368319743718),
                (4.512118354144894, 1908.5289704625654, 2.9824296843568767, -0.26806, -0.73068),
            ),
            (
                (5.092020035971703, 800.0179641890584, 0.5058795093371745),
                (2.357736406304162, 2309.569300376786, 0.5127820194090252, 0.35468, 0.81524),
            ),
            # found once the samples came from the product-form widths
            (
                (48971995.43798963, 8148.484792556751, 0.09555938471242792),
                (
                    56664029.2138057, 78619.37718680695, 0.095537188166158,
                    0.8591069207149881, -2.733705115207321,
                ),
            ),
            # a concave candidate slopes down towards a neighbour that slopes
            # the same way but lies higher: the minimum lies between them
            (
                (6638.354967042627, 11428.122600276325, 1.9777669210960471),
                (
                    7076.632361549588, 910808.5293156073, 1.9777736219441255,
                    0.4051478576335131, -1.1131529846746282,
                ),
            ),
            (
                (177582.52680755573, 133304.51116014668, 1.8220798261966216),
                (
                    118361.52350996171, 6023.179878030748, 1.822099520172859,
                    -0.3073310806524031, 0.17393123450281475,
                ),
            ),
        ],
    )
    def test_narrow_dips_of_strong_squeezing(self, first, second):
        # the minimum sits in the O(1/s)-wide dip around the narrow direction
        # of a strongly squeezed state, where the sampled slope polynomial
        # has lost its roots to roundoff
        p1, p2 = GaussianParams(*first), GaussianParams(*second)
        reference = dense_min(p1, p2)
        for p in (p1, p2):
            centre = p.theta + math.pi / 2
            window = np.linspace(centre - 50.0 / p.s, centre + 50.0 / p.s, 1 << 16)
            reference = min(reference, float(np.min(overlap_grid(p1, p2, window))))
        assert minimize_overlap_general(p1, p2)[1] <= reference + 1e-14

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4: the 7 slope samples cannot resolve this O(1/s) dip"
    )
    @pytest.mark.parametrize("p1, p2, reference", NARROW_DIPS)
    def test_finds_the_narrowest_dips(self, p1, p2, reference):
        assert minimize_overlap_general(p1, p2)[1] == pytest.approx(reference, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize(
        "p",
        [
            GaussianParams(1.0),
            GaussianParams(2.0, 3.0, 0.4, 1.0, 2.0),
            GaussianParams(1e8, 1e6, 1.0, 3.0, 4.0),
        ],
    )
    def test_identical_states(self, p):
        phi_min, val = minimize_overlap_general(p, p)
        assert 0.0 <= phi_min < math.pi
        assert abs(val - 1.0) <= 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gamma=log_uniform(1.0, 1e6), pair=state_pairs(s_hi=1.0))
    def test_round_equal_widths(self, gamma, pair):
        p1 = GaussianParams(gamma)
        p2 = GaussianParams(gamma, 1.0, 0.0, pair[1].alpha_x, pair[1].alpha_y)
        # the numerator collapses to degree 1
        assert len(_critical_angles(_overlap_slopes(p1, p2))) == 2
        phi_min, val = minimize_overlap_general(p1, p2)
        # equal round widths: I_phi = exp(-beta_phi^2 / (2 gamma)), lowest along beta
        expected = math.exp(-(p2.alpha_x**2 + p2.alpha_y**2) / (2.0 * gamma))
        assert val == pytest.approx(expected, rel=1e-14)
        assert mod_distance(phi_min, math.atan2(p2.alpha_y, p2.alpha_x), math.pi) < 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(state_pairs(s_hi=1e6, displaced=False))
    def test_zero_offset_matches_analytic(self, pair):
        analytic = minimize_overlap(*pair)[1]
        assert minimize_overlap_general(*pair)[1] == pytest.approx(analytic, abs=1e-14)


class TestEqualityEquation:
    def test_pure_pure_targets_and_angles(self):
        # F^2 = 0.8: targets (1.25 +- 0.75)^2 = {4, 0.25}, angles {0, pi/2}
        p1 = GaussianParams(1.0, 1.0, 0.0)
        p2 = GaussianParams(1.0, 4.0, 0.0)
        fid = fidelity_params(p1, p2).fidelity
        assert math.isclose(fid * fid, 0.8)
        eq = build_equality_equation(p1, p2, fid)
        targets = sorted((eq.branch_plus.target_ratio, eq.branch_minus.target_ratio))
        assert math.isclose(targets[0], 0.25, rel_tol=1e-12)
        assert math.isclose(targets[1], 4.0, rel_tol=1e-12)
        roots = solve_equality_phi(eq)
        assert len(roots) == 2
        assert min(abs(r) for r in roots) < 1e-9 or min(abs(r - math.pi) for r in roots) < 1e-9
        assert any(abs(r - math.pi / 2) < 1e-9 for r in roots)

    def test_upsilon_product_identity(self, rng):
        for _ in range(50):
            p1, p2 = random_same_mean_pair(rng)
            fid = fidelity_params(p1, p2).fidelity
            if fid >= 1.0 - 1e-9:
                continue
            eq = build_equality_equation(p1, p2, fid)
            assert math.isclose(
                eq.upsilon_plus * eq.upsilon_minus,
                (p1.gamma / p2.gamma) ** 2,
                rel_tol=1e-9,
            )

    def test_identical_states_degenerate(self):
        p = GaussianParams(2.0, 2.0, 0.1)
        with pytest.raises(DegenerateFidelityError):
            build_equality_equation(p, p, 1.0)

    def test_pure_mixed_unsolvable_all_branches(self):
        # one pure, one mixed: no angle reaches the fidelity, any s2
        p1 = GaussianParams(1.0, 2.0, 0.0)
        for s2 in (1.1, 2.0, 3.0):
            p2 = GaussianParams(4.0, s2, math.pi / 3)
            fid = fidelity_params(p1, p2).fidelity
            eq = build_equality_equation(p1, p2, fid)
            assert eq.branch_plus.discriminant < 0.0
            assert eq.branch_minus.discriminant < 0.0
            assert solve_equality_phi(eq) == []

    def test_solvability_matches_quadratic_inequality(self, rng):
        # 2 Y^2 - Y D + 2 <= 0 for some branch  <=>  roots exist
        for _ in range(200):
            p1 = random_params(rng, gamma_hi=5.0, s_hi=5.0)
            p2 = random_params(rng, gamma_hi=5.0, s_hi=5.0)
            if p1.is_pure(DEFAULT_TOL) or p2.is_pure(DEFAULT_TOL):
                continue
            fid = fidelity_params(p1, p2).fidelity
            if fid >= 1.0 - 1e-9:
                continue
            eq = build_equality_equation(p1, p2, fid)
            mism = squeeze_mismatch(p1.s, p2.s, p2.theta - p1.theta)
            solvable = any(
                2.0 * y * y - y * mism + 2.0 <= 1e-9
                for y in (eq.upsilon_plus, eq.upsilon_minus)
            )
            roots = solve_equality_phi(eq)
            assert solvable == bool(roots)

    def test_roots_satisfy_equality(self, rng):
        # solvable cases are constructed: random mixed pairs miss the
        # measure-zero equality surface with probability one
        pairs = []
        for _ in range(60):
            pairs.append(
                (
                    GaussianParams(1.0, rng.uniform(1, 8), rng.uniform(0, math.pi)),
                    GaussianParams(1.0, rng.uniform(1, 8), rng.uniform(0, math.pi)),
                )
            )
        for _ in range(40):
            g1, g2 = rng.uniform(1.2, 4.0, 2)
            s1 = rng.uniform(1.0, 3.0)
            tt = rng.uniform(0.0, math.pi)
            for root in solve_s2_for_optimality(g1, g2, s1, tt):
                pairs.append(
                    (GaussianParams(g1, s1, 0.0), GaussianParams(g2, root.s2, root.theta_tilde))
                )
        checked = 0
        for p1, p2 in pairs:
            fid = fidelity_params(p1, p2).fidelity
            if fid >= 1.0 - 1e-9:
                continue
            eq = build_equality_equation(p1, p2, fid)
            roots = solve_equality_phi(eq)
            assert roots, (p1, p2)
            for phi in roots:
                assert abs(overlap_at(p1, p2, phi) - fid) < 1e-9
                checked += 1
        assert checked > 50

    def test_mean_mismatch_rejected(self):
        p1 = GaussianParams(1.0)
        p2 = GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(MeanMismatchError):
            build_equality_equation(p1, p2, 0.5)


class TestSolveHarmonic:
    def test_pure_cosine(self):
        roots = solve_harmonic(0.0, 1.0, 0.0)
        assert len(roots) == 2
        assert math.isclose(roots[0], math.pi / 4)
        assert math.isclose(roots[1], 3 * math.pi / 4)

    def test_unsolvable(self):
        assert solve_harmonic(0.3, 0.4, 1.0) == []

    def test_tangency_double_root(self):
        roots = solve_harmonic(0.0, 1.0, -1.0)
        assert len(roots) == 1
        assert math.isclose(roots[0], 0.0, abs_tol=1e-12)

    def test_roots_solve_equation(self, rng):
        for _ in range(100):
            a1, a2 = rng.uniform(-2, 2, 2)
            a3 = rng.uniform(-0.99, 0.99) * math.hypot(a1, a2)
            for phi in solve_harmonic(a1, a2, a3):
                assert abs(a1 * math.sin(2 * phi) + a2 * math.cos(2 * phi) + a3) < 1e-12


class TestFig4Tangency:
    def test_single_double_root(self):
        p1 = GaussianParams(2.0, 2.0, 0.0)
        p2 = GaussianParams(4.0, 1.4, math.pi / 3)
        fid = fidelity_params(p1, p2).fidelity
        eq = build_equality_equation(p1, p2, fid)
        roots = solve_equality_phi(eq)
        assert len(roots) == 1
        phi_min, val = minimize_overlap(p1, p2)
        assert abs(roots[0] - phi_min) < 1e-6
        assert abs(overlap_at(p1, p2, roots[0]) - fid) < 1e-9

    def test_upsilon_branches(self):
        # the solvable branch sits exactly on the boundary Y = 2.5
        p1 = GaussianParams(2.0, 2.0, 0.0)
        p2 = GaussianParams(4.0, 1.4, math.pi / 3)
        fid = fidelity_params(p1, p2).fidelity
        eq = build_equality_equation(p1, p2, fid)
        ys = sorted((eq.upsilon_plus, eq.upsilon_minus))
        assert math.isclose(ys[1], 2.5, rel_tol=1e-9)
        assert math.isclose(ys[0], 0.1, rel_tol=1e-9)


class TestConditionS1Unity:
    def test_both_pure(self):
        assert check_condition_s1_unity(1.0, 1.0, 3.7)

    def test_pure_vs_mixed(self):
        assert not check_condition_s1_unity(1.0, 4.0, 2.0)

    def test_equal_mixed_needs_round(self):
        assert check_condition_s1_unity(3.0, 3.0, 1.0)
        assert not check_condition_s1_unity(3.0, 3.0, 1.5)

    def test_mixed_mixed_matching_s2(self):
        g1, g2 = 2.0, 4.0
        ratio_sum = thermal_ratio_sum(g1, g2)
        s2 = (ratio_sum + math.sqrt(ratio_sum**2 - 4.0)) / 2.0
        assert check_condition_s1_unity(g1, g2, s2)
        assert not check_condition_s1_unity(g1, g2, s2 + 1e-3)


#: Nearly identical, strongly squeezed mixed pairs, 1e-3 or more off the
#: equality surface (from the wide-domain pairs of the benchmark, seeds 7-9),
#: that the D - 2T form of the surface residual put on it.
NEAR_SURFACE_NOISE_PAIRS = [
    (
        (5868.86260306733, 554897.5995259057, 2.817123149509996),
        (5869.037591195298, 554298.7921349867, 2.8171231497676326),
    ),
    (
        (44.15026999637435, 101020.15649769621, 1.2200499843055619),
        (44.1503114901122, 101051.08046817493, 1.2200499830302427),
    ),
    (
        (11177351.734968793, 89037.5961465054, 2.118449233582509),
        (11177257.575682497, 89003.64147923821, 2.118449233963065),
    ),
    (
        (116.928871732978, 976911.5184260217, 0.37760645369043133),
        (116.9280524236632, 977498.2526503429, 0.37760645397184833),
    ),
    (
        (7.42172148292555, 94022.49738384392, 2.393627584495033),
        (7.421829021055827, 94081.3891913745, 2.3936275800986704),
    ),
    (
        (18532597.802533533, 391414.9693884792, 2.9403244141380247),
        (18532869.139379874, 391641.8113448122, 2.94032441429727),
    ),
    (
        (16647.932898908577, 812249.4568299098, 2.316745835665166),
        (16648.187130886075, 811395.5719805274, 2.316745834987068),
    ),
    (
        (40.03892435267231, 216844.45250153902, 0.05092343992856101),
        (40.03850137838081, 216956.36137587964, 0.0509234403555908),
    ),
    (
        (1092.807615699457, 341780.355617355, 1.8263628029803314),
        (1092.7955799205465, 341661.67384396296, 1.8263628025447856),
    ),
    (
        (1124.0351381652772, 394990.09803011036, 2.794145805379993),
        (1124.0498017009063, 394153.4369780273, 2.794145805294411),
    ),
    (
        (3528641.2729370845, 790615.0302262607, 1.6182093336814338),
        (3528748.7950120135, 789419.4543919094, 1.618209335122561),
    ),
    (
        (479127.2202962542, 536929.7926301961, 2.203082327569045),
        (479136.936472967, 535690.1181301738, 2.2030823301608966),
    ),
    (
        (5119509.774282591, 316977.4179870518, 2.915228444094824),
        (5119612.198766313, 317293.44318186864, 2.9152284433807547),
    ),
    (
        (20999.935777536517, 731102.7407446107, 1.1373018632450482),
        (21000.101872933323, 731393.4448137176, 1.1373018629315286),
    ),
    (
        (933.0303061348059, 93018.37528201066, 2.2692325560152513),
        (933.0339321992216, 93072.21864382699, 2.269232560305343),
    ),
    (
        (4817.702520674625, 161230.71368434955, 2.2365382963381233),
        (4817.7598866206245, 161316.35110150164, 2.2365382940579877),
    ),
    (
        (179.53038652797702, 683097.3341221886, 2.87882449156847),
        (179.53029791958943, 681906.0937839253, 2.878824491054375),
    ),
    (
        (1481733.660336603, 441561.2297063116, 2.2719243984665076),
        (1481693.3215970926, 442448.2660977465, 2.271924395576128),
    ),
    (
        (55682.81113180692, 322095.04271889356, 0.864376392997941),
        (55682.25301291556, 322206.6261058398, 0.8643763930525457),
    ),
    (
        (207817.51533103455, 133912.07184286654, 1.2322546915268011),
        (207818.21434645366, 133994.3021649317, 1.23225469157324),
    ),
]


class TestCheckConditionGeneral:
    """Same-mean classification through ``classify_pair``: purity, then the surface."""

    @pytest.mark.parametrize("first, second", NEAR_SURFACE_NOISE_PAIRS)
    def test_residual_keeps_digits_near_identical_pairs(self, first, second):
        p1, p2 = GaussianParams(*first), GaussianParams(*second)
        with mpmath.workdps(50):
            t1, t2 = (mpmath.mpf(g) - 1 / mpmath.mpf(g) for g in (p1.gamma, p2.gamma))
            expected = mpmath_mismatch(p1, p2) - 2 * (t2 / t1 + t1 / t2)
        v = classify_pair(p1, p2)
        assert v.kind is PairClass.MIXED_MIXED_NOT_OPTIMAL
        assert abs((v.condition_residual - expected) / expected) <= 1e-12

    def test_pure_pure_always_optimal(self):
        p1 = GaussianParams(1.0, 2.0, 0.0)
        for s2 in (1.5, 2.0, 4.0):
            v = classify_pair(p1, GaussianParams(1.0, s2, math.pi / 3))
            assert v.kind is PairClass.PURE_PURE_ALWAYS_OPTIMAL
            assert v.gap <= 1e-9
            assert v.witness_phi is not None

    def test_pure_mixed_never_optimal(self):
        p1 = GaussianParams(1.0, 2.0, 0.0)
        v = classify_pair(p1, GaussianParams(4.0, 2.0, math.pi / 3))
        assert v.kind is PairClass.PURE_MIXED_NEVER_OPTIMAL
        assert v.gap > 0.0
        assert v.witness_phi is None

    def test_mixed_mixed_tangency(self):
        p1 = GaussianParams(2.0, 2.0, 0.0)
        v = classify_pair(p1, GaussianParams(4.0, 1.4, math.pi / 3))
        assert v.kind is PairClass.MIXED_MIXED_OPTIMAL
        assert abs(v.condition_residual) < 1e-9
        assert abs(v.gap) <= 1e-9
        assert v.witness_phi is not None

    def test_mixed_mixed_off_condition(self):
        p1 = GaussianParams(2.0, 2.0, 0.0)
        for s2 in (1.1, 3.0):
            v = classify_pair(p1, GaussianParams(4.0, s2, math.pi / 3))
            assert v.kind is PairClass.MIXED_MIXED_NOT_OPTIMAL
            assert v.gap > 1e-9

    def test_identical_states(self):
        p = GaussianParams(3.0, 2.0, 0.3)
        v = classify_pair(p, p)
        assert v.kind is PairClass.IDENTICAL_STATES
        assert v.gap == 0.0

    def test_special_case_aligned(self):
        # theta_tilde = 0: condition reads s2/s1 + s1/s2 = thermal_ratio_sum,
        # which is D(s1, s2, 0)/2
        g1, g2, s1 = 2.0, 3.0, 2.0
        ratio_sum = thermal_ratio_sum(g1, g2)
        ratio = (ratio_sum + math.sqrt(ratio_sum**2 - 4.0)) / 2.0
        s2 = s1 * ratio
        assert math.isclose(squeeze_mismatch(s1, s2, 0.0) / 2.0, s2 / s1 + s1 / s2)
        v = classify_pair(GaussianParams(g1, s1, 0.5), GaussianParams(g2, s2, 0.5))
        assert v.kind is PairClass.MIXED_MIXED_OPTIMAL
        assert v.gap <= 1e-9

    def test_special_case_crossed(self):
        # theta_tilde = pi/2: condition reads s1 s2 + 1/(s1 s2) = thermal_ratio_sum
        g1, g2, s1 = 2.0, 3.0, 1.5
        ratio_sum = thermal_ratio_sum(g1, g2)
        prod = (ratio_sum + math.sqrt(ratio_sum**2 - 4.0)) / 2.0
        s2 = prod / s1
        assert math.isclose(
            squeeze_mismatch(s1, s2, math.pi / 2) / 2.0, s1 * s2 + 1.0 / (s1 * s2)
        )
        v = classify_pair(
            GaussianParams(g1, s1, 0.2), GaussianParams(g2, s2, 0.2 + math.pi / 2)
        )
        assert v.kind is PairClass.MIXED_MIXED_OPTIMAL
        assert v.gap <= 1e-9

    def test_three_parameter_reduction(self, rng):
        # pairs sharing (gamma1, gamma2, D) have the same class and gap
        for _ in range(50):
            g1 = rng.uniform(1.2, 4.0)
            g2 = rng.uniform(1.2, 4.0)
            s1, s2 = rng.uniform(1.0, 4.0, 2)
            tt = rng.uniform(0.0, math.pi)
            mism = squeeze_mismatch(s1, s2, tt)
            # second realization: round first state, s2' carries all of D
            s2_alt = (mism + math.sqrt(mism**2 - 16.0)) / 4.0
            assert math.isclose(squeeze_mismatch(1.0, s2_alt, 0.3), mism, rel_tol=1e-12)
            va = classify_pair(GaussianParams(g1, s1, 0.0), GaussianParams(g2, s2, tt))
            vb = classify_pair(
                GaussianParams(g1, 1.0, 0.0), GaussianParams(g2, s2_alt, 0.3)
            )
            assert va.kind is vb.kind
            assert abs(va.gap - vb.gap) < 1e-9

    def test_classifier_consistent_with_minimizer(self, rng):
        # optimal class <=> scan gap below 1e-7
        pairs = []
        for _ in range(60):
            pairs.append(random_same_mean_pair(rng, gamma_hi=4.0, s_hi=4.0))
        # add guaranteed-optimal mixed/mixed pairs via the equality surface
        for _ in range(20):
            g1, g2 = rng.uniform(1.2, 4.0, 2)
            s1 = rng.uniform(1.0, 3.0)
            tt = rng.uniform(0.0, math.pi)
            roots = solve_s2_for_optimality(g1, g2, s1, tt)
            for root in roots:
                pairs.append(
                    (GaussianParams(g1, s1, 0.0), GaussianParams(g2, root.s2, root.theta_tilde))
                )
        for p1, p2 in pairs:
            verdict = classify_pair(p1, p2)
            _, scan_val = scan_numpy(p1, p2)
            scan_gap = scan_val - fidelity_params(p1, p2).fidelity
            assert (verdict.kind in OPTIMAL_KINDS) == (scan_gap <= 1e-7), (p1, p2, scan_gap)

    def test_witness_present_iff_optimal(self, rng):
        pairs = [random_same_mean_pair(rng, gamma_hi=4.0, s_hi=4.0) for _ in range(40)]
        pairs.append((GaussianParams(1.0, 2.0, 0.1), GaussianParams(1.0, 3.0, 1.0)))
        pairs.append((GaussianParams(2.0, 2.0, 0.0), GaussianParams(4.0, 1.4, math.pi / 3)))
        for p1, p2 in pairs:
            v = classify_pair(p1, p2)
            assert (v.witness_phi is not None) == (v.kind in OPTIMAL_KINDS)
            assert v.gap >= -1e-9
            if v.witness_phi is not None and v.kind is not PairClass.IDENTICAL_STATES:
                fid = fidelity_params(p1, p2).fidelity
                assert abs(overlap_at(p1, p2, v.witness_phi) - fid) <= 1e-8

    def test_pure_mixed_gap_shrinks_toward_purity(self):
        p1 = GaussianParams(1.0, 1.5, 0.0)
        gammas = [2.0, 1.7, 1.4, 1.2, 1.1, 1.05, 1.02, 1.01]
        gaps = []
        for g2 in gammas:
            v = classify_pair(p1, GaussianParams(g2, 2.5, 0.7))
            assert v.gap > 0.0
            gaps.append(v.gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestSolveS2:
    def test_reference_root(self):
        roots = solve_s2_for_optimality(2.0, 4.0, 2.0, math.pi / 3)
        assert abs(roots[0].s2 - 1.4) < 1e-9
        assert math.isclose(roots[0].theta_tilde, math.pi / 3)

    def test_second_root_canonicalized(self):
        roots = solve_s2_for_optimality(2.0, 4.0, 2.0, math.pi / 3)
        assert len(roots) == 2
        assert abs(roots[1].s2 - 2.6) < 1e-9
        assert math.isclose(roots[1].theta_tilde, math.pi / 3 + math.pi / 2)
        # raw root satisfies the expanded quadratic 3.25 s^2 - 5.8 s + 1.75 = 0
        raw = 1.0 / roots[1].s2
        assert abs(3.25 * raw * raw - 5.8 * raw + 1.75) < 1e-12
        assert abs(raw - 0.38462) < 1e-5

    def test_roots_put_pair_on_condition(self, rng):
        for _ in range(100):
            g1, g2 = rng.uniform(1.1, 5.0, 2)
            s1 = rng.uniform(1.0, 4.0)
            tt = rng.uniform(0.0, math.pi)
            for root in solve_s2_for_optimality(g1, g2, s1, tt):
                assert root.s2 >= 1.0
                mism = squeeze_mismatch(s1, root.s2, root.theta_tilde)
                assert math.isclose(mism, 2.0 * thermal_ratio_sum(g1, g2), rel_tol=1e-9)

    def test_equal_widths_force_identity(self):
        roots = solve_s2_for_optimality(3.0, 3.0, 1.0, 0.0)
        assert len(roots) == 1
        assert abs(roots[0].s2 - 1.0) < 1e-9

    def test_unreachable_configuration(self):
        # ratio_sum below the minimal mismatch for s1 = 5 at pi/4: no roots
        roots = solve_s2_for_optimality(2.0, 2.1, 5.0, math.pi / 4)
        assert roots == []

    def test_rejects_pure_inputs(self):
        with pytest.raises(ValueError):
            solve_s2_for_optimality(1.0, 3.0, 2.0, 0.0)

    def test_purity_gate_is_gamma_minus_one(self):
        # gamma - 1 = 1.0000000827e-9 > tol, though gamma <= 1 + tol rounds true
        g1 = 1.000000001
        assert g1 - 1.0 > DEFAULT_TOL and g1 <= 1.0 + DEFAULT_TOL
        assert len(solve_s2_for_optimality(g1, 4.0, 2.0, 1.0)) == 2

    def test_rejects_sub_unity_s1(self):
        with pytest.raises(ValueError):
            solve_s2_for_optimality(2.0, 3.0, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_arguments(self, bad):
        for k in range(4):
            args = [2.0, 4.0, 2.0, 1.0]
            args[k] = bad
            with pytest.raises(ValueError):
                solve_s2_for_optimality(*args)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        excess=st.tuples(log_uniform(1e-6, 1e8), log_uniform(1e-6, 1e8)),
        s1=log_uniform(1.0, 1e6),
        theta=st.floats(0.0, math.pi, exclude_max=True),
    )
    def test_roots_match_mpmath_on_the_wide_domain(self, excess, s1, theta):
        # gamma - 1 from 1e-6 to 1e8: thermal factors g - 1/g of nearly pure
        # states are where a subtracted form loses its digits
        g1, g2 = 1.0 + excess[0], 1.0 + excess[1]
        with mpmath.workdps(50):
            t1, t2 = (mpmath.mpf(g) - 1 / mpmath.mpf(g) for g in (g1, g2))
            ratio_sum = t2 / t1 + t1 / t2
            c, s = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
            qa = 2 * s1 * s * s + 2 * c * c / s1
            qc = 2 * s1 * c * c + 2 * s * s / s1
            quarter = ratio_sum * ratio_sum - qa * qc
            if abs(quarter) < 1e-2 * ratio_sum * ratio_sum:
                return  # near tangency the roots are ill-conditioned
            root = mpmath.sqrt(max(quarter, 0))
            raw = [(ratio_sum + root) / qa, (ratio_sum - root) / qa] if quarter > 0 else []
            expected = [v if v >= 1 else 1 / v for v in raw]
        got = solve_s2_for_optimality(g1, g2, s1, theta)
        assert len(got) == len(expected)
        for r, want in zip(got, expected):
            assert abs(r.s2 / want - 1) <= 1e-14, (g1, g2, s1, theta)

    @pytest.mark.parametrize("s1", [1e2, 1e4, 1e6])
    def test_strong_squeezing_roots_exact(self, s1):
        # T = 2.9 for gammas (2, 4); at theta_tilde = 0 the roots are s1 (2.9 +- 2.1) / 2
        roots = solve_s2_for_optimality(2.0, 4.0, s1, 0.0)
        assert [root.theta_tilde for root in roots] == [0.0, 0.0]
        assert math.isclose(roots[0].s2, 2.5 * s1, rel_tol=1e-14)
        assert math.isclose(roots[1].s2, 0.4 * s1, rel_tol=1e-14)


def scan_phi_below_zero():
    """The scan's angle on a pair whose minimum sits at phi = 0.

    The zoomed grids start below 0, and the finest one finds its lowest value
    about 2e-8 below 0, so the scan reduces a negative angle.
    """
    p1, p2 = GaussianParams(2.0, 1.2, 0.0), GaussianParams(1.5, 2.0, math.pi / 2)
    return minimize_overlap_scan(p1, p2)[0]


ANGLE_ROUTES = {
    "same-mean minimizer": lambda: minimize_overlap(
        GaussianParams(2.0, 1.2, 0.0), GaussianParams(1.5, 2.0, math.pi / 2)
    )[0],
    "round-pair witness": lambda: classify_pair(
        GaussianParams(2.0), GaussianParams(2.0, alpha_x=1.0, alpha_y=-1e-17)
    ).witness_phi,
    "s2 root": lambda: solve_s2_for_optimality(2.0, 4.0, 2.0, -1e-17)[0].theta_tilde,
    "canonicalized s2 root": lambda: solve_s2_for_optimality(
        2.0, 4.0, 2.0, math.nextafter(-math.pi / 2, -math.inf)
    )[1].theta_tilde,
    "scan": scan_phi_below_zero,
}


@pytest.mark.parametrize("route", ANGLE_ROUTES)
def test_reported_angle_in_half_open_period(route):
    # each route reduces an angle a hair below 0 (or below -pi/2 before the
    # quarter turn); x % pi rounds such an angle up to pi itself
    angle = ANGLE_ROUTES[route]()
    assert 0.0 <= angle < math.pi


def round_pair(g1, g2, beta):
    """Round states of thermal widths g1 and g2 whose means differ by ``beta``."""
    return GaussianParams(g1), GaussianParams(g2, alpha_x=beta[0], alpha_y=beta[1])


class TestDifferentMeanSymmetric:
    def test_coherent_pair_optimal(self):
        v = classify_pair(*round_pair(1.0, 1.0, (1.0, 1.0)))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL
        assert abs(v.gap) <= 1e-8
        assert abs(v.witness_phi - math.pi / 4) < 1e-9

    def test_equal_mixed_widths_optimal(self):
        v = classify_pair(*round_pair(3.0, 3.0, (2.0, 0.0)))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL
        assert abs(v.gap) <= 1e-8

    def test_unequal_widths_not_optimal(self):
        v = classify_pair(*round_pair(1.0, 3.0, (1.0, 0.0)))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL
        assert v.gap > 1e-4

    def test_zero_offset_delegates(self):
        v = classify_pair(*round_pair(2.0, 2.0, (0.0, 0.0)))
        assert v.kind is PairClass.IDENTICAL_STATES


class TestRoundMinimum:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        gammas=st.tuples(log_uniform(1.0, 1e8), log_uniform(1.0, 1e8)),
        radius=log_uniform(1e-3, 1e4),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_matches_mpmath_reference(self, gammas, radius, angle):
        (g1, g2), dx, dy = gammas, radius * math.cos(angle), radius * math.sin(angle)
        with mpmath.workdps(50):
            width = mpmath.mpf(g1) + mpmath.mpf(g2)
            expected = (
                mpmath.sqrt(2 / width)
                * mpmath.root(mpmath.mpf(g1) * mpmath.mpf(g2), 4)
                * mpmath.exp(-(mpmath.mpf(dx) ** 2 + mpmath.mpf(dy) ** 2) / width)
            )
            assume(expected >= sys.float_info.min)  # skip minima that underflow
            phi, value = _round_minimum(g1, g2, dx, dy)
            assert abs(value / expected - 1) <= 1e-12
            assert mod_distance(phi, float(mpmath.atan2(dy, dx)), math.pi) <= 1e-15
        assert 0.0 <= phi < math.pi
        general_phi, general_value = minimize_overlap_general(*round_pair(g1, g2, (dx, dy)))
        # within ~1e-8 of phi = 0, I_phi is flat to the last bit and the general
        # route's probe at phi = 0 can win the tie
        assert mod_distance(phi, general_phi, math.pi) <= 1e-15 or (
            general_phi == 0.0 and general_value == pytest.approx(value, rel=1e-15)
        )

    def test_round_pairs_skip_the_companion_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("companion-matrix route")

        monkeypatch.setattr(optimality, "minimize_overlap_general", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        kinds = {
            2.0: PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL,
            3.5: PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL,
        }
        for g2, kind in kinds.items():
            pair = round_pair(2.0, g2, (1.0, 0.5))
            assert classify_pair(*pair).kind is kind
            assert minimize_overlap(*pair)[0] == math.atan2(0.5, 1.0)
            # s within tol of 1 is classified as the exactly round pair
            assert classify_pair(GaussianParams(2.0, 1.0 + 1e-13), pair[1]).kind is kind
        # a nearly round pair is minimized by the general route
        with pytest.raises(AssertionError, match="companion-matrix route"):
            minimize_overlap(GaussianParams(2.0, 1.0 + 1e-9), GaussianParams(2.0, 1.0, 0.0, 1.0, 0.5))


class TestClassifyPair:
    def test_same_mean_routing(self):
        v = classify_pair(GaussianParams(1.0, 2.0, 0.0), GaussianParams(1.0, 3.0, 0.4))
        assert v.kind is PairClass.PURE_PURE_ALWAYS_OPTIMAL

    def test_round_different_mean_routing(self):
        v = classify_pair(GaussianParams(2.0), GaussianParams(2.0, 1.0, 0.0, 1.0, 0.0))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL

    def test_nearly_round_different_mean_routing(self):
        # s = 1 + 1e-13 is round within the tolerance: s - 1 <= tol
        v = classify_pair(GaussianParams(2.0, 1.0 + 1e-13), GaussianParams(2.0, 1.0, 0.0, 1.0, 0.0))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL
        round_gap = classify_pair(GaussianParams(2.0), GaussianParams(2.0, 1.0, 0.0, 1.0, 0.0)).gap
        assert v.gap == round_gap  # evaluated on the exactly round pair
        p1 = GaussianParams(2.0, 1.0, 0.0, 0.3, 0.0)
        v = classify_pair(p1, GaussianParams(3.0, 1.0 + 1e-13, 0.2))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL

    def test_squeezed_different_mean_rejected(self):
        with pytest.raises(UnsupportedPairError):
            classify_pair(GaussianParams(1.0, 2.0, 0.0), GaussianParams(1.0, 2.0, 0.0, 1.0, 0.0))

    def test_tolerance_override_governs_purity(self, monkeypatch):
        # GDIST_TOL decides every gate of a verdict, purity included
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        v = classify_pair(GaussianParams(1.0 + 5e-7), GaussianParams(1.0 + 5e-7, 2.0, 0.3))
        assert v.kind is PairClass.PURE_PURE_ALWAYS_OPTIMAL

    def test_purity_gate_is_gamma_minus_one(self):
        # gamma - 1 = 1.0000000827e-9 > tol: both states are mixed, not pure
        g = 1.000000001
        v = classify_pair(GaussianParams(g), GaussianParams(g, 2.0, 0.3))
        assert v.kind is PairClass.MIXED_MIXED_NOT_OPTIMAL

    def test_tight_tolerance_sees_nearly_pure_state(self, monkeypatch):
        # 1 - F = 2.5000002068196775e-11 and the minimal overlap is 1 to 1e-21,
        # so the gap is 1 - F; an identical-state rule in the fidelity gave 0
        monkeypatch.setenv("GDIST_TOL", "1e-12")
        v = classify_pair(GaussianParams(1.0), GaussianParams(1.0 + 1e-10, 1.0 + 1e-10, math.pi / 2))
        assert v.kind is PairClass.PURE_MIXED_NEVER_OPTIMAL
        assert abs(v.gap / 2.5000002068196775e-11 - 1.0) < 1e-5

    # pairs whose verdict contradicted its own gap when means, directions and
    # widths were compared in absolute terms
    @pytest.mark.parametrize(
        "p1, p2, kind",
        [
            # 1 - F = 2.5e-8: a direction 5e-10 off is not the same state
            (GaussianParams(2.0, 1e6, 0.3), GaussianParams(2.0, 1e6, 0.3 + 5e-10),
             PairClass.MIXED_MIXED_NOT_OPTIMAL),
            (GaussianParams(1.0, 1e6, 0.3), GaussianParams(1.0, 1e6, 0.3 + 5e-10),
             PairClass.PURE_PURE_ALWAYS_OPTIMAL),
            # widths one ulp apart are equal; q = 5e-9 keeps the means apart
            (GaussianParams(1e8), GaussianParams(math.nextafter(1e8, math.inf), 1.0, 0.0, 1.0, 0.0),
             PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL),
            (GaussianParams(1e8, 2.0, 0.3), GaussianParams(math.nextafter(1e8, math.inf), 2.0, 0.3),
             PairClass.IDENTICAL_STATES),
            # q below 1e-15: the means are the same
            (GaussianParams(2.0, 2.0, 0.3, 1e8, 0.0),
             GaussianParams(2.0, 2.0, 0.3, math.nextafter(1e8, math.inf), 0.0),
             PairClass.IDENTICAL_STATES),
            (GaussianParams(1e8, 2.0, 0.3), GaussianParams(1e8, 2.0, 0.3, 1e-6, 0.0),
             PairClass.IDENTICAL_STATES),
            # the thermal excess of 2 against 2 + 1e-8 is 7e-17
            (GaussianParams(2.0), GaussianParams(2.0 + 1e-8, 1.0, 0.0, 1.0, 0.0),
             PairClass.DIFFERENT_MEAN_SYMMETRIC_OPTIMAL),
        ],
    )
    def test_verdict_agrees_with_its_gap(self, p1, p2, kind):
        v = classify_pair(p1, p2)
        assert v.kind is kind
        if kind is PairClass.IDENTICAL_STATES:
            assert 1.0 - fidelity_params(p1, p2).fidelity <= DEFAULT_TOL
        elif kind is PairClass.MIXED_MIXED_NOT_OPTIMAL:
            assert v.gap == pytest.approx(9.375e-9, rel=1e-5)
        else:
            assert abs(v.gap) < 1e-15

    def test_nearly_pure_widths_are_not_equal(self):
        # their relative difference is 1e-6, but 1 - F = 0.39 and the gap is 2.6e-8
        v = classify_pair(GaussianParams(1.0 + 1e-6), GaussianParams(1.0 + 2e-6, 1.0, 0.0, 1.0, 0.0))
        assert v.kind is PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL
        assert v.gap == pytest.approx(2.6016e-8, rel=1e-4)


def nudged_pair(rng: random.Random):
    """A wide-domain state (gamma up to 1e8, s up to 1e6) and a nudge of it.

    Each parameter of the second state is kept, moved by one ulp or moved by
    a relative 1e-16..1e-4; the direction moves by 1e-16..1e-4 and the mean
    by 1e-16..1 along a random axis.  Pure and round states come up often.
    """
    def tiny():
        return 10.0 ** rng.uniform(-16.0, -4.0)

    def nudge(x):
        pick = rng.randrange(3)
        return x if pick == 0 else math.nextafter(x, math.inf) if pick == 1 else x * (1.0 + tiny())

    gamma = 1.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(0.0, 8.0)
    s = 1.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(0.0, 6.0)
    theta, ax, ay = rng.uniform(0.0, math.pi), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    dtheta = tiny() if rng.random() < 0.5 else 0.0
    shift, axis = (10.0 ** rng.uniform(-16.0, 0.0), rng.uniform(0.0, 2.0 * math.pi))
    if rng.random() < 0.25:
        shift = 0.0
    p1 = GaussianParams(gamma, s, theta, ax, ay)
    p2 = GaussianParams(
        nudge(gamma), nudge(s) if s > 1.0 else s, theta + dtheta,
        ax + shift * math.cos(axis), ay + shift * math.sin(axis),
    )
    return p1, p2


def test_wide_domain_verdicts_agree_with_their_gap():
    """No not-optimal verdict with gap 0.0, no 'identical' pair with 1 - F > tol,
    and no refused pair whose means agree (q <= tol)."""
    rng = random.Random(20241022)
    kinds = set()
    for _ in range(2000):
        p1, p2 = nudged_pair(rng)
        report = fidelity_params(p1, p2)
        try:
            v = classify_pair(p1, p2)
        except UnsupportedPairError:
            assert -report.exponent > DEFAULT_TOL, (p1, p2)
            kinds.add(UnsupportedPairError)
            continue
        kinds.add(v.kind)
        if v.kind.value.endswith(("NotOptimal", "NeverOptimal")) and report.fidelity > 0.0:
            assert v.gap != 0.0, (p1, p2, v)
        if v.kind is PairClass.IDENTICAL_STATES:
            assert 1.0 - report.fidelity <= DEFAULT_TOL, (p1, p2)
    # every checked outcome is drawn
    assert kinds >= {
        UnsupportedPairError,
        PairClass.IDENTICAL_STATES,
        PairClass.PURE_MIXED_NEVER_OPTIMAL,
        PairClass.MIXED_MIXED_NOT_OPTIMAL,
        PairClass.DIFFERENT_MEAN_SYMMETRIC_NOT_OPTIMAL,
    }


def numpy_extreme_angle(p1, p2, mu):
    """The seed's witness angle: null vector of C2 - mu C1 from matmul covariances."""
    m = matmul_covariance(p2) - mu * matmul_covariance(p1)
    if abs(m[0, 0]) + abs(m[0, 1]) >= abs(m[1, 0]) + abs(m[1, 1]):
        u = (m[0, 1], -m[0, 0])
    else:
        u = (m[1, 1], -m[1, 0])
    return math.atan2(u[1], u[0]) % math.pi


def pairs_without_covariance_route():
    return [
        (GaussianParams(2.0, 2.0, 0.0), GaussianParams(4.0, 1.4, math.pi / 3)),
        (GaussianParams(1.0, 3.0, 0.2, 0.5, 0.1), GaussianParams(1.0, 1.5, 2.0, 0.5, 0.1)),
        (GaussianParams(1.0, 2.0, 1.0), GaussianParams(3.0, 1.2, 0.3)),
        (GaussianParams(2.0), GaussianParams(2.0, 1.0, 0.0, 1.0, 0.5)),
        (GaussianParams(2.0), GaussianParams(3.0, 1.0, 0.0, 0.5, -0.3)),
    ]


def patch_everywhere(monkeypatch, name, replacement):
    """Replace ``gdist.states.<name>`` in every gdist module that bound it."""
    original = getattr(gdist.states, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "gdist" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


class TestScalarPairPath:
    def test_witness_angle_matches_numpy_route(self, rng):
        from gdist.fidelity import squeeze_excess

        checked = 0
        for _ in range(2000):
            p1, p2 = random_same_mean_pair(rng, gamma_hi=10.0, s_hi=8.0)
            if squeeze_excess(p1, p2) <= 1e-6:
                continue
            mu_minus, mu_plus = ratio_extremes(p1, p2)
            mu = mu_plus if overlap_from_ratio(mu_plus) <= overlap_from_ratio(mu_minus) else mu_minus
            phi = minimize_overlap(p1, p2)[0]
            assert mod_distance(phi, numpy_extreme_angle(p1, p2, mu), math.pi) < 1e-9
            checked += 1
        assert checked > 1900

    @pytest.mark.parametrize("pair", pairs_without_covariance_route())
    def test_no_covariance_round_trips(self, monkeypatch, pair):
        def refuse(*args, **kwargs):
            raise AssertionError("the pair path left scalar arithmetic")

        for name in ("covariance_from_params", "params_from_covariance"):
            patch_everywhere(monkeypatch, name, refuse)
        fidelity_params(*pair)
        minimize_overlap(*pair)
        classify_pair(*pair)

    @pytest.mark.parametrize("pair", pairs_without_covariance_route())
    def test_tolerance_read_at_most_once(self, monkeypatch, pair):
        calls = []
        original = gdist.states.default_tol

        def counted():
            calls.append(1)
            return original()

        patch_everywhere(monkeypatch, "default_tol", counted)
        for fn, most in ((fidelity_params, 0), (minimize_overlap, 1), (classify_pair, 1)):
            calls.clear()
            fn(*pair)
            assert len(calls) <= most, fn.__name__
