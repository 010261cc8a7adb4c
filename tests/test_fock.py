import math

import numpy as np
import pytest
from scipy.linalg import expm

from gdist import (
    FockOperator,
    GaussianParams,
    TruncationError,
    auto_states,
    build_state,
    fidelity_fock,
    fidelity_params,
    marginal_fock,
    overlap_at,
    overlap_fock,
)
from gdist import fock
from gdist.fock import hermite_functions
from gdist.validation import DEFAULT_ANGLES, oracle_check_pair, stratified_pairs

from crosscheck import annihilation, displacement_op, marginal, overlap_fock_4001, squeeze_op

EXPONENTIAL_DIMS = (1, 2, 3, 7, 8, 150, 301)


def fock_density(rho, phi, grid):
    """``marginal_fock`` with a Hermite table of its own."""
    return marginal_fock(rho, phi, grid, hermite_functions(rho.dim, math.sqrt(2.0) * grid))


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


class TestBuildState:
    def test_auto_state_equals_fresh_build(self):
        params = (
            GaussianParams(1.0),
            GaussianParams(2.0, 3.0, 0.4, 0.6, -1.1),
            GaussianParams(5.0, 5.0, 0.0, 2.0, 0.0),  # needs a doubling
        )
        for p in params:
            (op,) = auto_states(p)
            fresh = fock._build_fixed(p, op.dim)
            assert np.array_equal(op.factor, fresh.factor)
        for op, p in zip(auto_states(*params), params):
            assert op.dim == 600 and np.array_equal(op.factor, fock._build_fixed(p, 600).factor)

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

    def test_pure_thermal_weights(self):
        # nbar = 0: ratio 0 and 0.0 ** 0 = 1 give the vacuum weights exactly
        for dim in (1, 2, 150, 1024):
            expected = np.zeros(dim)
            expected[0] = 1.0
            assert np.array_equal(fock.thermal_weights(0.0, dim), expected)

    def test_coherent_poisson(self):
        rho = build_state(GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0), 40)
        diag = np.diagonal(rho.matrix).real
        n = np.arange(40)
        factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 40.0)]))
        expected = np.exp(-1.0) / factorials
        assert np.allclose(diag, expected, atol=1e-12)
        assert abs(float(np.sum(n * diag)) - 1.0) < 1e-10

    def test_pure_state_factor_is_one_column(self):
        for p in (GaussianParams(1.0), GaussianParams(1.0, 3.0, 0.4, 0.7, -0.2)):
            assert build_state(p, 60).factor.shape == (60, 1)

    def test_factor_keeps_weights_above_floor(self):
        for gamma, dim in ((1.5, 60), (3.0, 150), (5.0, 150), (5.0, 100)):
            w = fock.thermal_weights(GaussianParams(gamma).nbar, dim)
            kept = int(np.sum(w >= fock.WEIGHT_FLOOR * w[0]))
            assert 1 < kept <= dim and (kept == dim or w[kept] < fock.WEIGHT_FLOOR * w[0])
            factor = build_state(GaussianParams(gamma, 2.0, 0.3, 0.5, 0.1), dim).factor
            assert factor.shape == (dim, kept)
            assert np.allclose(np.linalg.svd(factor, compute_uv=False) ** 2, w[:kept], rtol=1e-10)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            build_state(GaussianParams(21.0), 12)  # nbar = 10 in a tiny space

    def test_rejects_truncation_out_of_range(self):
        for dim in (0, -3, fock.LADDER[-1] + 1, 10**9):  # raised before anything is allocated
            with pytest.raises(ValueError, match="at least 1"):
                build_state(GaussianParams(1.0), dim)

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
            (rho,) = auto_states(p)
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_auto_dim_grows_for_hot_states(self):
        assert [op.dim for op in auto_states(GaussianParams(1.0))] == [fock.LADDER[0]]
        assert [op.dim for op in auto_states(GaussianParams(5.0, 5.0, 0.0, 2.0, 0.0))] == [600]
        assert [op.dim for op in auto_states(GaussianParams(30.0))] == [600]
        assert [op.dim for op in auto_states(GaussianParams(1.0, 60.0))] == [fock.LADDER[-1]]

    def test_auto_dim_climbs_the_ladder_to_the_ceiling(self, monkeypatch):
        built = []
        build = fock._build_fixed
        monkeypatch.setattr(fock, "_build_fixed", lambda p, d: built.append(d) or build(p, d))
        with pytest.raises(TruncationError, match="dim > 1024"):
            auto_states(GaussianParams(1e4))
        assert built == [150, 300, 600, 1024]
        # |alpha|^2 = 127.7, yet the coherent state is adequate two rungs below the ceiling
        assert [op.dim for op in auto_states(GaussianParams(1.0, 1.0, 0.0, 11.3, 0.0))] == [300]

    def test_pair_shares_one_dim(self):
        vacuum, coherent = GaussianParams(1.0), GaussianParams(1.0, 1.0, 0.0, 11.3, 0.0)
        assert [op.dim for op in auto_states(vacuum)] == [150]
        assert [op.dim for op in auto_states(coherent)] == [300]
        for pair in ((vacuum, coherent), (coherent, vacuum)):
            assert [op.dim for op in auto_states(*pair)] == [300, 300]

    def test_leakage_decides_for_near_uniform_populations(self):
        # so hot that the weight is spread evenly: nothing piles up at the cutoff,
        # yet nearly all of it lies past every rung
        for gamma in (2e11, 1e12):
            op = fock._build_fixed(GaussianParams(gamma), fock.LADDER[0])
            assert fock.boundary_mass(op) < fock.BOUNDARY_TOL and op.leakage > 0.99
            with pytest.raises(TruncationError, match=r"needs dim > 1024 \(leakage 1,"):
                auto_states(GaussianParams(gamma))

    def test_ceiling_error_names_the_short_state(self):
        fine, short = GaussianParams(2.0, 1.5, 0.3), GaussianParams(1e4, 1.0, 0.0, 0.5, 0.0)
        for pair in ((fine, short), (short, fine)):
            with pytest.raises(TruncationError) as info:
                auto_states(*pair)
            assert str(info.value).startswith(repr(short)) and repr(fine) not in str(info.value)


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

    def test_thermal_pair_series(self):
        # F = sum_n sqrt(p1_n p2_n) = sqrt((1-r1)(1-r2)) / (1 - sqrt(r1 r2)), r = nbar/(nbar+1)
        a = build_state(GaussianParams(5.0), 150)
        b = build_state(GaussianParams(1.5), 150)
        r1, r2 = 2.0 / 3.0, 0.25 / 1.25
        series = math.sqrt((1.0 - r1) * (1.0 - r2)) / (1.0 - math.sqrt(r1 * r2))
        assert abs(fidelity_fock(a, b) - series) < 1e-12

    def test_non_finite_factor_raises(self):
        broken = FockOperator(np.full((3, 1), np.nan, dtype=complex))
        fine = build_state(GaussianParams(1.0), 3)
        for a, b in ((broken, fine), (fine, broken)):
            with pytest.raises(np.linalg.LinAlgError):
                fidelity_fock(a, b)

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
        dens = fock_density(rho, 0.0, grid)
        expected = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * grid**2)
        assert np.max(np.abs(dens - expected)) < 1e-10

    def test_squeezed_matches_closed_width(self):
        p = GaussianParams(1.0, 4.0, 0.0)
        rho = build_state(p, 80)
        grid = np.linspace(-12, 12, 1201)
        dens = fock_density(rho, 0.0, grid)
        expected = marginal(p, 0.0).density(grid)
        assert np.max(np.abs(dens - expected)) < 1e-7

    def test_rotational_covariance(self):
        grid = np.linspace(-8, 8, 801)
        a = fock_density(build_state(GaussianParams(1.0, 3.0, math.pi / 4), 60), math.pi / 4, grid)
        b = fock_density(build_state(GaussianParams(1.0, 3.0, 0.0), 60), 0.0, grid)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_rotated_mixed_state_width(self):
        # displaced, rotated, mixed: full generality against the closed form
        p = GaussianParams(2.0, 2.0, math.pi / 6, 0.8, -0.4)
        rho = build_state(p, 120)
        for phi in (0.0, math.pi / 6, 1.3):
            m = marginal(p, phi)
            grid = np.linspace(m.mean_along - 10, m.mean_along + 10, 1001)
            dens = fock_density(rho, phi, grid)
            assert np.max(np.abs(dens - m.density(grid))) < 1e-7

    def test_mass_check_raises(self):
        rho = build_state(GaussianParams(1.0, 1.0, 0.0, 1.5, 0.0), 40)
        with pytest.raises(TruncationError):
            fock_density(rho, 0.0, np.linspace(-0.5, 0.5, 11))  # grid misses the state


class TestKernelsAgainstDense:
    """The real-GEMM marginal against a dense reference."""

    STATES = (
        GaussianParams(3.0, 2.0, 0.7, 1.0, -0.5),
        GaussianParams(1.0, 4.0, 2.2, -0.3, 0.9),
        GaussianParams(2.0, 1.0, 0.0, 0.0, 1.2),
    )

    def test_gemm_marginal_matches_einsum(self):
        grid = np.linspace(-9.0, 9.0, 1201)
        for p in self.STATES:
            rho = build_state(p, 120)
            h = hermite_functions(rho.dim, math.sqrt(2.0) * grid)
            psi = 2.0**0.25 * h  # the X_0 eigenfunctions on the grid
            for phi in (0.0, 0.4, 2.5):
                phases = np.exp(1j * phi * np.arange(rho.dim))
                rho_rot = (phases[:, None].conj() * rho.matrix) * phases[None, :]
                dense = np.einsum("mk,mn,nk->k", psi, rho_rot, psi, optimize=True).real
                assert np.max(np.abs(marginal_fock(rho, phi, grid, h) - dense)) < 1e-14


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

    def test_grid_matches_4001_points(self):
        # case139 of the default sweep holds its widest state (gamma = s = 5) at
        # dim 300, and case130 its largest grid-induced move (2.9e-12 at dim 150);
        # then a squeezed thermal against a squeezed displaced state, and vacuum
        # against coherent at a small truncation that still holds the state
        sweep = stratified_pairs()
        cases = (
            (*sweep[139][1:], 300),
            (*sweep[130][1:], 150),
            (GaussianParams(3.0, 2.0, 0.4), GaussianParams(1.0, 5.0, 1.1, 0.5, -0.3), 150),
            (GaussianParams(1.0), GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0), 20),
        )
        for p1, p2, dim in cases:
            a, b = build_state(p1, dim), build_state(p2, dim)
            for phi in DEFAULT_ANGLES:
                assert abs(overlap_fock(a, b, phi) - overlap_fock_4001(a, b, phi)) < 1e-11

    def test_grid_size_follows_truncation(self):
        for dim in (4, 40, 150, 160, 300):
            grid, table = fock._quadrature_table(dim)
            x_max = (math.sqrt(2.0 * dim - 1.0) + 5.0) / math.sqrt(2.0)
            assert grid[0] == -x_max and grid[-1] == x_max
            assert grid.size == math.ceil(4.0 * x_max * math.sqrt(dim)) + 1
            assert np.max(np.diff(grid)) <= 1.0 / (2.0 * math.sqrt(dim))
            assert table.shape == (dim, grid.size)
        assert fock._quadrature_table(150)[0].size == 774

    @pytest.mark.parametrize("dim", (4, 20, 150, 300))
    def test_grid_ends_past_every_level(self, dim):
        # each state at this truncation combines h_0..h_{dim-1}: none reaches the ends
        _, table = fock._quadrature_table(dim)
        assert np.max(np.abs(table[:, [0, -1]])) < 1e-10

    def test_hermite_table_built_once_per_truncation(self, monkeypatch):
        calls = []

        def counted(count, x):
            calls.append(count)
            return hermite_functions(count, x)

        fock._quadrature_table.cache_clear()
        monkeypatch.setattr(fock, "hermite_functions", counted)
        for p1, p2 in (
            (GaussianParams(3.0, 2.0, 0.0), GaussianParams(1.5, 2.0, 0.5, 1.0, 0.5)),
            (GaussianParams(1.0), GaussianParams(2.0, 1.0, 0.0, -0.5, 0.3)),
        ):
            assert oracle_check_pair(p1, p2, dim=150).passed
        for dim in (*fock.LADDER, 150, 300):  # all four rungs fit, so 150 and 300 are not rebuilt
            fock._quadrature_table(dim)
        assert calls == [150, 300, 600, 1024]
        for cache in (fock._displacement_eigen, fock._squeeze_eigen, fock._quadrature_table):
            assert cache.cache_info().maxsize == len(fock.LADDER)


class TestOracleCheckPair:
    @pytest.mark.parametrize(
        "p1, p2, dim",
        [
            (GaussianParams(1.0, 1.0, 0.0, 8.0, 0.0), GaussianParams(1.0, 1.0, 0.0, 8.1, 0.0), 150),
            (GaussianParams(1.0, 1.0, 0.0, 11.3, 0.0), GaussianParams(1.5, 2.0, 0.3, 11.0, 0.5), 300),
            (GaussianParams(1.0, 1.0, 0.0, 3.0, 4.0), GaussianParams(1.5, 2.0, 0.5, 3.2, 3.7), 150),
            (GaussianParams(1.5, 3.0, 0.2, 6.0, -2.0), GaussianParams(2.0, 2.0, 1.0, 5.5, -2.5), 300),
            (GaussianParams(1.0, 1.0, 0.0, 4.5, 0.0), GaussianParams(1.2, 1.3, 0.7, 0.1, -0.1), 150),
        ],
    )
    def test_high_energy_pairs_pass_on_the_ladder(self, p1, p2, dim):
        row = oracle_check_pair(p1, p2)
        assert row.passed and row.dim == dim and dim in (150, 300, 600, 1024)

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
