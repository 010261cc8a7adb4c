import math

import numpy as np
import pytest
from scipy.linalg import expm

from gdist import (
    FockOperator,
    GaussianParams,
    GdistError,
    NumericalFailureError,
    TruncationError,
    auto_state,
    build_state,
    fidelity_fock,
    fidelity_params,
    marginal_fock,
    overlap_at,
    overlap_fock,
)
from gdist import fock
from gdist.fock import (
    hermite_functions,
    quadrature_moments,
    quadrature_wavefunctions,
    state_cache_info,
)
from gdist.validation import oracle_check_pair

from crosscheck import annihilation, displacement_op, marginal, squeeze_op

EXPONENTIAL_DIMS = (2, 3, 7, 8, 150, 301)


class TestStructuredExponentials:
    """The cached-eigendecomposition exponentials against scipy's expm."""

    @pytest.mark.parametrize("dim", EXPONENTIAL_DIMS)
    def test_displacement_matches_expm(self, dim):
        a = annihilation(dim)
        for alpha in (0.7, -1.3, 1.1j, -0.4j, 0.5 - 0.8j, -2.0 + 0.3j, 0.0):
            ref = expm(alpha * a.conj().T - np.conjugate(alpha) * a)
            assert np.max(np.abs(displacement_op(alpha, dim) - ref)) < 1e-12

    @pytest.mark.parametrize("dim", EXPONENTIAL_DIMS)
    def test_squeeze_matches_expm(self, dim):
        a = annihilation(dim)
        for r, theta in ((0.05, 0.0), (0.3, -0.4), (0.8, 1.1), (1.5, 2.9), (0.0, 0.5)):
            phase = np.exp(2.0j * theta)
            gen = 0.5 * r * (phase * a.conj().T @ a.conj().T - np.conjugate(phase) * a @ a)
            assert np.max(np.abs(squeeze_op(r, theta, dim) - expm(gen))) < 1e-12

    def test_build_matches_expm_sandwich(self):
        p = GaussianParams(2.5, 3.0, 0.9, -0.7, 0.4)
        dim = 120
        a = annihilation(dim)
        phase = np.exp(2.0j * p.theta)
        s = expm(0.5 * p.r * (phase * a.conj().T @ a.conj().T - np.conjugate(phase) * a @ a))
        d = expm(p.alpha * a.conj().T - np.conjugate(p.alpha) * a)
        rho = np.diag(fock.thermal_weights(p.nbar, dim)).astype(complex)
        rho = d @ s @ rho @ s.conj().T @ d.conj().T
        assert np.max(np.abs(build_state(p, dim).matrix - rho)) < 1e-12


class TestStateCache:
    def test_auto_state_equals_fresh_build(self):
        for p in (
            GaussianParams(1.0),
            GaussianParams(2.0, 3.0, 0.4, 0.6, -1.1),
            GaussianParams(5.0, 5.0, 0.0, 2.0, 0.0),  # needs a doubling
        ):
            op = auto_state(p)
            assert op is auto_state(p)
            fresh = fock._build_fixed(p, op.dim)
            assert np.array_equal(op.matrix, fresh.matrix)

    def test_cache_bounded_across_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(2 * fock.MAX_CACHED_STATES):
            p1, p2 = (
                GaussianParams(rng.uniform(1, 1.5), rng.uniform(1, 1.5), rng.uniform(0, 3))
                for _ in range(2)
            )
            oracle_check_pair(p1, p2, dim=24)
            count, size = state_cache_info()
            assert count <= fock.MAX_CACHED_STATES
            assert size <= fock.MAX_CACHED_BYTES

    def test_cache_bounded_in_bytes(self, monkeypatch):
        monkeypatch.setattr(fock, "MAX_CACHED_BYTES", 3 * 2 * 16 * 40**2)
        for gamma in np.linspace(1.0, 2.0, 8):
            build_state(GaussianParams(gamma), 40)
            assert state_cache_info()[1] <= fock.MAX_CACHED_BYTES
        assert state_cache_info()[0] == 3  # the three newest states


class TestBuildState:
    def test_vacuum(self):
        rho = build_state(GaussianParams(1.0), 10)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected)

    def test_thermal_weights_and_deficit(self):
        rho = build_state(GaussianParams(3.0), 60)  # nbar = 1
        diag = np.diagonal(rho.matrix).real
        expected = 0.5 * 0.5 ** np.arange(60)
        assert np.allclose(diag, expected, atol=1e-15)
        assert np.max(np.abs(rho.matrix - np.diag(diag))) < 1e-15
        assert 0.0 <= rho.leakage < 1e-17

    def test_coherent_poisson(self):
        rho = build_state(GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0), 40)
        diag = np.diagonal(rho.matrix).real
        n = np.arange(40)
        factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 40.0)]))
        expected = np.exp(-1.0) / factorials
        assert np.allclose(diag, expected, atol=1e-12)
        assert abs(float(np.sum(n * diag)) - 1.0) < 1e-10

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            build_state(GaussianParams(21.0), 12)  # nbar = 10 in a tiny space

    def test_leakage_monotone_in_dim(self):
        p = GaussianParams(4.0, 2.0, 0.3)
        leaks = [build_state(p, d).leakage for d in (60, 90, 120, 150)]
        assert all(a >= b - 1e-15 for a, b in zip(leaks, leaks[1:]))

    def test_states_positive_and_hermitian(self, rng):
        for _ in range(5):
            p = GaussianParams(
                rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(0, math.pi),
                rng.uniform(-1, 1), rng.uniform(-1, 1),
            )
            rho = build_state(p)
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_auto_dim_grows_for_hot_states(self):
        assert auto_state(GaussianParams(1.0)).dim <= 32
        assert auto_state(GaussianParams(5.0, 5.0, 0.0, 2.0, 0.0)).dim >= 150


class TestFidelityFock:
    def test_self_fidelity(self):
        rho = build_state(GaussianParams(2.0, 1.5, 0.2), 80)
        assert abs(fidelity_fock(rho, rho) - 1.0) < 1e-10

    def test_vacuum_vs_coherent(self):
        a = build_state(GaussianParams(1.0), 40)
        b = build_state(GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0), 40)
        assert abs(fidelity_fock(a, b) - math.exp(-0.5)) < 1e-10

    def test_thermal_pair(self):
        # expected value from the geometric-series oracle sum sqrt(p1_n p2_n)
        a = build_state(GaussianParams(3.0), 160)
        b = build_state(GaussianParams(5.0), 160)
        assert abs(fidelity_fock(a, b) - 0.9659258262890683) < 1e-8

    def test_negative_eigenvalue_is_numeric_failure(self):
        broken = FockOperator(np.diag([1.2, -0.2, 0.0]).astype(complex))
        fine = build_state(GaussianParams(1.0), 3)
        for a, b in ((broken, fine), (fine, broken)):
            with pytest.raises(NumericalFailureError) as info:
                fidelity_fock(a, b)
            assert isinstance(info.value, GdistError)
            assert not isinstance(info.value, ValueError)

    def test_dimension_mismatch_uses_shared_rows(self):
        # a truncated state embeds in the larger space with zero rows
        small, large = build_state(GaussianParams(1.0), 10), build_state(GaussianParams(1.0), 12)
        assert abs(fidelity_fock(small, large) - 1.0) < 1e-12
        assert abs(fidelity_fock(small, large) - fidelity_fock(large, small)) < 1e-14

    def test_automatic_truncations_differ(self):
        p1, p2 = GaussianParams(1.5, 2.0, 0.3), GaussianParams(2.0, 1.5, 1.1, 0.4, -0.2)
        a, b = build_state(p1), build_state(p2)
        assert (a.dim, b.dim) == (46, 52)
        assert abs(fidelity_fock(a, b) - fidelity_params(p1, p2).fidelity) < 1e-8

    def test_tangency_configuration(self):
        a = build_state(GaussianParams(2.0, 2.0, 0.0), 120)
        b = build_state(GaussianParams(4.0, 1.4, math.pi / 3), 120)
        closed = fidelity_params(
            GaussianParams(2.0, 2.0, 0.0), GaussianParams(4.0, 1.4, math.pi / 3)
        ).fidelity
        assert abs(fidelity_fock(a, b) - closed) < 1e-6

    def test_pure_state_reduction(self):
        # with a pure first state, F^2 equals the expectation of rho2 in it
        p1 = GaussianParams(1.0, 2.0, 0.4)
        p2 = GaussianParams(2.5, 1.5, 1.1)
        dim = 120
        rho1 = build_state(p1, dim)
        rho2 = build_state(p2, dim)
        w, v = np.linalg.eigh(rho1.matrix)
        psi = v[:, -1]
        assert w[-1] > 1.0 - 1e-8
        expect = float((psi.conj() @ rho2.matrix @ psi).real)
        assert abs(fidelity_fock(rho1, rho2) ** 2 - expect) < 1e-8


class TestMarginalFock:
    def test_vacuum_ground_function(self):
        rho = build_state(GaussianParams(1.0), 20)
        grid = np.linspace(-4, 4, 81)
        dens = marginal_fock(rho, 0.0, grid)
        expected = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * grid**2)
        assert np.max(np.abs(dens - expected)) < 1e-10

    def test_squeezed_matches_closed_width(self):
        p = GaussianParams(1.0, 4.0, 0.0)
        rho = build_state(p, 80)
        grid = np.linspace(-12, 12, 1201)
        dens = marginal_fock(rho, 0.0, grid)
        expected = marginal(p, 0.0).density(grid)
        assert np.max(np.abs(dens - expected)) < 1e-7

    def test_rotational_covariance(self):
        grid = np.linspace(-8, 8, 801)
        a = marginal_fock(build_state(GaussianParams(1.0, 3.0, math.pi / 4), 60), math.pi / 4, grid)
        b = marginal_fock(build_state(GaussianParams(1.0, 3.0, 0.0), 60), 0.0, grid)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_rotated_mixed_state_width(self):
        # displaced, rotated, mixed: full generality against the closed form
        p = GaussianParams(2.0, 2.0, math.pi / 6, 0.8, -0.4)
        rho = build_state(p, 120)
        for phi in (0.0, math.pi / 6, 1.3):
            m = marginal(p, phi)
            grid = np.linspace(m.mean_along - 10, m.mean_along + 10, 1001)
            dens = marginal_fock(rho, phi, grid)
            assert np.max(np.abs(dens - m.density(grid))) < 1e-7

    def test_mass_check_raises(self):
        rho = build_state(GaussianParams(1.0, 1.0, 0.0, 1.5, 0.0), 40)
        with pytest.raises(TruncationError):
            marginal_fock(rho, 0.0, np.linspace(-0.5, 0.5, 11))  # grid misses the state

    def test_quadrature_moments(self):
        p = GaussianParams(3.0, 2.0, 0.7, 1.0, -0.5)
        rho = build_state(p, 150)
        for phi in (0.0, 0.7, 2.0):
            m = marginal(p, phi)
            mean, var = quadrature_moments(rho, phi)
            assert abs(mean - m.mean_along) < 1e-8
            assert abs(var - m.variance) < 1e-7


class TestKernelsAgainstDense:
    """The O(dim) moments and the real-GEMM marginal against dense references."""

    STATES = (
        GaussianParams(3.0, 2.0, 0.7, 1.0, -0.5),
        GaussianParams(1.0, 4.0, 2.2, -0.3, 0.9),
        GaussianParams(2.0, 1.0, 0.0, 0.0, 1.2),
    )

    def test_moments_match_dense_trace(self):
        for p in self.STATES:
            for dim in (6, 40, 150):
                rho = build_state(p, dim) if dim > 6 else fock._build_fixed(p, dim)
                a = annihilation(dim)
                for phi in (0.0, 0.7, 2.0, -1.1):
                    x = 0.5 * (a * np.exp(-1j * phi) + a.conj().T * np.exp(1j * phi))
                    mean = float(np.trace(rho.matrix @ x).real)
                    second = float(np.trace(rho.matrix @ x @ x).real)
                    got_mean, got_var = quadrature_moments(rho, phi)
                    assert abs(got_mean - mean) < 1e-12
                    assert abs(got_var - (second - mean * mean)) < 1e-11

    def test_gemm_marginal_matches_einsum(self):
        grid = np.linspace(-9.0, 9.0, 1201)
        for p in self.STATES:
            rho = build_state(p, 120)
            h = quadrature_wavefunctions(rho.dim, grid)
            for phi in (0.0, 0.4, 2.5):
                phases = np.exp(1j * phi * np.arange(rho.dim))
                rho_rot = (phases[:, None].conj() * rho.matrix) * phases[None, :]
                dense = np.einsum("mk,mn,nk->k", h, rho_rot, h, optimize=True).real
                assert np.max(np.abs(marginal_fock(rho, phi, grid) - dense)) < 1e-14


class TestHermiteFunctions:
    def test_orthonormality(self):
        x = np.linspace(-12, 12, 4001)
        h = hermite_functions(25, x)
        gram = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=2)
        assert np.max(np.abs(gram - np.eye(25))) < 1e-10


class TestOverlapFock:
    def test_identical_states(self):
        rho = build_state(GaussianParams(2.0, 2.0, 0.5), 100)
        assert abs(overlap_fock(rho, rho, 0.3) - 1.0) < 1e-8

    def test_pure_squeezed_ratio_four(self):
        a = build_state(GaussianParams(1.0), 120)
        b = build_state(GaussianParams(1.0, 4.0, 0.0), 120)
        assert abs(overlap_fock(a, b, 0.0) - 2.0 / math.sqrt(5.0)) < 1e-6

    def test_coherent_pair(self):
        a = build_state(GaussianParams(1.0), 120)
        b = build_state(GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0), 120)
        assert abs(overlap_fock(a, b, 0.0) - math.exp(-0.5)) < 1e-6

    def test_matches_closed_form(self):
        p1 = GaussianParams(3.0, 2.0, 0.4, 0.5, 0.0)
        p2 = GaussianParams(2.0, 3.0, 1.2, -0.3, 0.6)
        a = build_state(p1, 150)
        b = build_state(p2, 150)
        for phi in (0.0, 1.0, 2.5):
            assert abs(overlap_fock(a, b, phi) - overlap_at(p1, p2, phi)) < 1e-6


class TestOracleCheckPair:
    def test_reference_pair_passes(self):
        row = oracle_check_pair(
            GaussianParams(3.0, 2.0, 0.0), GaussianParams(1.5, 5.0, math.pi / 6, 1.0, 0.5)
        )
        assert row.passed
        assert row.fid_dev < 1e-6
        assert row.overlap_dev_max < 1e-6
        assert abs(
            row.fid_closed
            - fidelity_params(
                GaussianParams(3.0, 2.0, 0.0), GaussianParams(1.5, 5.0, math.pi / 6, 1.0, 0.5)
            ).fidelity
        ) < 1e-15
