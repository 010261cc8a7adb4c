import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdist import (
    GaussianParams,
    covariance_from_params,
    fidelity_params,
    params_from_covariance,
)
from gdist.states import states_equal

from conftest import log_uniform, matmul_covariance, random_params
from crosscheck import check_fidelity_properties, squeeze_mismatch, transform


def covariance_fidelity(a, b):
    """Fidelity of two covariance-form states, each converted to parameters once."""
    return fidelity_params(params_from_covariance(a), params_from_covariance(b))


def thermal_bhattacharyya(nbar1, nbar2, terms=400):
    """Independent oracle: sum_n sqrt(p1_n p2_n) for commuting thermal states."""
    n = np.arange(terms)
    p1 = nbar1**n / (nbar1 + 1.0) ** (n + 1)
    p2 = nbar2**n / (nbar2 + 1.0) ** (n + 1)
    return float(np.sum(np.sqrt(p1 * p2)))


class TestFidelityGaussian:
    def test_identical_states_exactly_one(self, rng):
        for _ in range(20):
            p = random_params(rng, mean_scale=2.0)
            c = covariance_from_params(p)
            assert covariance_fidelity(c, c).fidelity == 1.0

    def test_vacuum_vs_coherent(self):
        vac = covariance_from_params(GaussianParams(1.0))
        coh = covariance_from_params(GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        rep = covariance_fidelity(vac, coh)
        assert abs(rep.fidelity - math.exp(-0.5)) < 1e-12
        assert math.isclose(rep.exponent, -0.5)

    def test_coherent_pair_closed_form(self, rng):
        for _ in range(20):
            a = rng.uniform(-2, 2, 2)
            b = rng.uniform(-2, 2, 2)
            c1 = covariance_from_params(GaussianParams(1.0, 1.0, 0.0, *a))
            c2 = covariance_from_params(GaussianParams(1.0, 1.0, 0.0, *b))
            expected = math.exp(-np.sum((a - b) ** 2) / 2.0)
            assert abs(covariance_fidelity(c1, c2).fidelity - expected) < 1e-12

    def test_thermal_pair_against_series_oracle(self):
        c1 = covariance_from_params(GaussianParams(3.0))
        c2 = covariance_from_params(GaussianParams(5.0))
        rep = covariance_fidelity(c1, c2)
        oracle = thermal_bhattacharyya(1.0, 2.0)
        assert abs(rep.fidelity - oracle) < 1e-10
        assert abs(rep.fidelity - 0.9659258) < 1e-7
        assert math.isclose(rep.delta_cap, 64.0)
        assert math.isclose(rep.delta_low, 192.0)

    def test_report_derived_fields(self, rng):
        p1 = random_params(rng, mean_scale=1.0)
        p2 = random_params(rng, mean_scale=1.0)
        rep = fidelity_params(p1, p2)
        assert 0.0 <= rep.fidelity <= 1.0
        assert math.isclose(rep.bures_distance_sq, 2.0 * (1.0 - rep.fidelity))
        assert math.isclose(rep.uhlmann_angle, math.acos(rep.fidelity))
        assert rep.delta_cap >= 4.0 - 1e-12
        assert rep.delta_low >= 0.0

    def test_strictly_below_one_for_distinct(self, rng):
        for _ in range(50):
            p = random_params(rng, gamma_hi=5.0, s_hi=5.0)
            q = GaussianParams(p.gamma + 1e-3, p.s, p.theta)
            rep = fidelity_params(p, q)
            assert rep.fidelity < 1.0 - 1e-12


class TestFidelitySameMean:
    def test_pure_squeezed_pair(self):
        rep = fidelity_params(GaussianParams(1.0), GaussianParams(1.0, 4.0, 0.0))
        assert math.isclose(rep.delta_cap, 6.25)
        assert rep.delta_low == 0.0
        assert abs(rep.fidelity - 2.0 / math.sqrt(5.0)) < 1e-15

    def test_identical_is_one(self):
        p = GaussianParams(2.0, 2.0, 0.7)
        assert fidelity_params(p, p).fidelity == 1.0

    def test_tangency_configuration_regression(self):
        # frozen after confirming against the Fock oracle (dim 120, 1e-6)
        p1 = GaussianParams(2.0, 2.0, 0.0)
        p2 = GaussianParams(4.0, 1.4, math.pi / 3)
        rep = fidelity_params(p1, p2)
        assert abs(rep.fidelity - 0.8633400213704505) < 1e-12
        assert abs(rep.fidelity - 5.0**0.25 / math.sqrt(3.0)) < 1e-15

    def test_matches_covariance_route(self, rng):
        for _ in range(10_000):
            p1 = random_params(rng, gamma_hi=10.0, s_hi=10.0)
            p2 = random_params(rng, gamma_hi=10.0, s_hi=10.0)
            direct = fidelity_params(p1, p2).fidelity
            general = covariance_fidelity(
                covariance_from_params(p1), covariance_from_params(p2)
            ).fidelity
            assert abs(direct - general) < 1e-12


class TestSqueezeMismatch:
    def test_floor_at_four(self, rng):
        for _ in range(200):
            s1, s2 = rng.uniform(1.0, 10.0, 2)
            tt = rng.uniform(0.0, math.pi)
            assert squeeze_mismatch(s1, s2, tt) >= 4.0 - 1e-12

    def test_tangency_value(self):
        assert math.isclose(squeeze_mismatch(2.0, 1.4, math.pi / 3), 5.8)


class TestFidelityProperties:
    def test_no_violations_on_random_sample(self, rng):
        triples = []
        for _ in range(40):
            triples.append(
                tuple(
                    covariance_from_params(random_params(rng, mean_scale=1.5))
                    for _ in range(3)
                )
            )
        assert check_fidelity_properties(triples) == []

    def test_symmetry_tight(self, rng):
        p1 = covariance_from_params(random_params(rng, mean_scale=1.0))
        p2 = covariance_from_params(random_params(rng, mean_scale=1.0))
        f12, f21 = covariance_fidelity(p1, p2).fidelity, covariance_fidelity(p2, p1).fidelity
        assert abs(f12 - f21) < 1e-14

    def test_shared_rotation_invariance(self, rng):
        c, s = math.cos(math.pi / 5), math.sin(math.pi / 5)
        rot = np.array([[c, -s], [s, c]])
        for _ in range(50):
            c1 = covariance_from_params(random_params(rng, mean_scale=1.5))
            c2 = covariance_from_params(random_params(rng, mean_scale=1.5))
            before = covariance_fidelity(c1, c2).fidelity
            after = covariance_fidelity(transform(c1, rot), transform(c2, rot)).fidelity
            assert abs(before - after) < 1e-12

    def test_triangle_inequality_random(self, rng):
        for _ in range(200):
            a, b, c = (
                covariance_from_params(random_params(rng, mean_scale=1.0))
                for _ in range(3)
            )
            f_ab = covariance_fidelity(a, b).fidelity
            f_bc = covariance_fidelity(b, c).fidelity
            f_ac = covariance_fidelity(a, c).fidelity
            assert math.acos(f_ac) <= math.acos(f_ab) + math.acos(f_bc) + 1e-10


def mpmath_fidelity(p1, p2):
    """50-digit reference in the unrationalized covariance form.

    F = sqrt(2 / (sqrt(Dcap + dlow) - sqrt(dlow))) exp(-beta^T (C1+C2)^{-1} beta)
    with Dcap = det(C1 + C2) and dlow = (det C1 - 1)(det C2 - 1); at 50
    digits the difference of square roots keeps more than 30 of them.
    """
    with mpmath.workdps(50):

        def cov(p):
            c, s = mpmath.cos(mpmath.mpf(p.theta)), mpmath.sin(mpmath.mpf(p.theta))
            rot = mpmath.matrix([[c, -s], [s, c]])
            g, sq = mpmath.mpf(p.gamma), mpmath.mpf(p.s)
            return rot * mpmath.diag([g * sq, g / sq]) * rot.T

        c1, c2 = cov(p1), cov(p2)
        total = c1 + c2
        delta_cap = mpmath.det(total)
        # a pure state's det - 1 is roundoff of either sign at 50 digits
        delta_low = max(mpmath.det(c1) - 1, 0) * max(mpmath.det(c2) - 1, 0)
        beta = mpmath.matrix(
            [mpmath.mpf(p2.alpha_x) - mpmath.mpf(p1.alpha_x), mpmath.mpf(p2.alpha_y) - mpmath.mpf(p1.alpha_y)]
        )
        quad = (beta.T * mpmath.inverse(total) * beta)[0]
        root = mpmath.sqrt(delta_cap + delta_low) - mpmath.sqrt(delta_low)
        return mpmath.sqrt(2 / root) * mpmath.exp(-quad), quad


@st.composite
def wide_same_mean_pairs(draw):
    """gamma in [1, 1e8], s in [1, 1e6]; half the pairs nearly identical."""
    gamma, s = draw(log_uniform(1.0, 1e8)), draw(log_uniform(1.0, 1e6))
    theta = draw(st.floats(0.0, math.pi, exclude_max=True))
    first = GaussianParams(gamma, s, theta)
    if draw(st.booleans()):
        rel = 10.0 ** -draw(st.floats(3.0, 12.0))
        signs = [draw(st.sampled_from((-1.0, 1.0))) for _ in range(3)]
        second = GaussianParams(
            max(1.0, gamma * (1.0 + signs[0] * rel)), s * (1.0 + signs[1] * rel), theta + signs[2] * rel
        )
    else:
        second = GaussianParams(
            draw(log_uniform(1.0, 1e8)),
            draw(log_uniform(1.0, 1e6)),
            draw(st.floats(0.0, math.pi, exclude_max=True)),
        )
    return first, second


class TestFidelityWithoutCancellation:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(wide_same_mean_pairs())
    def test_matches_mpmath_on_the_wide_domain(self, pair):
        fid = fidelity_params(*pair).fidelity
        if states_equal(*pair):  # the identical-state rule: 1 within 1e-9
            assert fid == 1.0
            return
        reference, _ = mpmath_fidelity(*pair)
        assert abs(fid - float(reference)) <= 1e-14 * float(reference)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        first=st.tuples(log_uniform(1.0, 1e4), log_uniform(1.0, 1e3), st.floats(0.0, 3.14)),
        second=st.tuples(log_uniform(1.0, 1e4), log_uniform(1.0, 1e3), st.floats(0.0, 3.14)),
        shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    def test_exponent_matches_mpmath_for_displaced_pairs(self, first, second, shift):
        p1, p2 = GaussianParams(*first), GaussianParams(*second, *shift)
        _, quad = mpmath_fidelity(p1, p2)
        exponent = fidelity_params(p1, p2).exponent
        assert abs(exponent + float(quad)) <= 1e-14 * float(quad) + 1e-300

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        gamma=log_uniform(1.0, 1e6),
        radius=st.floats(0.05, 2.0),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_equal_width_round_displaced_pairs(self, gamma, radius, angle):
        beta = (radius * math.cos(angle), radius * math.sin(angle))
        rep = fidelity_params(GaussianParams(gamma), GaussianParams(gamma, 1.0, 0.0, *beta))
        expected = math.exp(-(beta[0] ** 2 + beta[1] ** 2) / (2.0 * gamma))
        assert rep.fidelity == pytest.approx(expected, rel=1e-14)

    def test_hot_thermal_pair_is_not_one(self):
        # 1 - F = 1.2487510149690956e-7 (50-digit mpmath)
        rep = fidelity_params(GaussianParams(1e5), GaussianParams(1.001e5))
        assert rep.bures_distance_sq > 0.0
        assert rep.fidelity < 1.0
        assert 1.0 - rep.fidelity == pytest.approx(1.24875e-7, rel=1e-2)
        assert 1.0 - rep.fidelity == pytest.approx(1.2487510149690956e-7, rel=1e-8)
        assert rep.uhlmann_angle > 0.0


def numpy_fidelity(p1, p2):
    """The covariance route of the seed, kept as an independent reference.

    Matmul covariances, Dcap as the determinant of their sum, the exponent
    through the 2x2 adjugate, and the unrationalized closed form.
    """
    c1, c2 = matmul_covariance(p1), matmul_covariance(p2)
    total = c1 + c2
    delta_cap = total[0, 0] * total[1, 1] - total[0, 1] * total[1, 0]
    det1 = c1[0, 0] * c1[1, 1] - c1[0, 1] * c1[1, 0]
    det2 = c2[0, 0] * c2[1, 1] - c2[0, 1] * c2[1, 0]
    delta_low = max(det1 - 1.0, 0.0) * max(det2 - 1.0, 0.0)
    bx, by = p2.alpha_x - p1.alpha_x, p2.alpha_y - p1.alpha_y
    quad = (total[1, 1] * bx * bx - 2.0 * total[0, 1] * bx * by + total[0, 0] * by * by) / delta_cap
    root = math.sqrt(delta_cap + delta_low) - math.sqrt(delta_low)
    return min(math.sqrt(2.0 / root) * math.exp(-quad), 1.0)


class TestAgainstNumpyCovarianceRoute:
    def test_fidelity_matches(self, rng):
        # gamma > 1 here: for a pure state the reference's det - 1 is
        # roundoff (about 1e-15), whose square root moves its F by up to 1e-8;
        # pure states are checked against mpmath above
        for _ in range(2000):
            p1 = random_params(rng, gamma_hi=10.0, s_hi=8.0, mean_scale=1.5)
            p2 = random_params(rng, gamma_hi=10.0, s_hi=8.0, mean_scale=1.5)
            reference = numpy_fidelity(p1, p2)
            assert fidelity_params(p1, p2).fidelity == pytest.approx(reference, rel=1e-12)
