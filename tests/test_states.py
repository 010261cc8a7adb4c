import json
import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from gdist import (
    CovarianceState,
    GaussianParams,
    NonPhysicalStateError,
    StateFormatError,
    covariance_from_params,
    is_physical,
    params_from_covariance,
    state_from_dict,
)
from gdist.states import load_state, states_equal

from conftest import random_params
from crosscheck import characteristic_fn, wigner_fn


class TestCanonicalization:
    def test_sub_unity_s_is_rewritten(self):
        p = GaussianParams(2.0, 0.25, 0.3)
        assert p.s == 4.0
        assert math.isclose(p.theta, 0.3 + math.pi / 2)

    def test_theta_wraps_to_half_period(self):
        p = GaussianParams(1.0, 3.0, 4.0)
        assert 0.0 <= p.theta < math.pi
        assert math.isclose(p.theta, 4.0 - math.pi)

    def test_round_state_has_zero_theta(self):
        assert GaussianParams(2.0, 1.0, 1.234).theta == 0.0

    def test_rejects_unphysical_gamma(self):
        with pytest.raises(NonPhysicalStateError):
            GaussianParams(0.5)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            GaussianParams(1.0, s=-2.0)

    def test_derived_quantities(self):
        p = GaussianParams(3.0, math.e**2, 0.0, 1.0, -2.0)
        assert math.isclose(p.nbar, 1.0)
        assert math.isclose(p.r, 1.0)
        assert p.alpha == 1.0 - 2.0j


class TestCovarianceFromParams:
    def test_vacuum_is_identity(self):
        c = covariance_from_params(GaussianParams(1.0))
        assert np.allclose(c.cov, np.eye(2))
        assert np.allclose(c.mean, 0.0)

    def test_axis_aligned_squeezing(self):
        c = covariance_from_params(GaussianParams(1.0, 4.0, 0.0))
        assert np.allclose(c.cov, np.diag([4.0, 0.25]))

    def test_rotated_mixed_state_spectrum(self):
        # det = gamma^2 and eigenvalues {gamma*s, gamma/s}, checked against
        # an eigendecomposition oracle
        c = covariance_from_params(GaussianParams(2.0, 2.0, math.pi / 3, 1.0, -1.0))
        assert math.isclose(c.det, 4.0, rel_tol=1e-14)
        eig = np.linalg.eigvalsh(c.cov)
        assert np.allclose(sorted(eig), [1.0, 4.0])
        assert np.allclose(c.mean, [1.0, -1.0])

    def test_spectrum_property_random(self, rng):
        for _ in range(200):
            p = random_params(rng, gamma_hi=10.0, s_hi=10.0, mean_scale=2.0)
            c = covariance_from_params(p)
            assert math.isclose(c.det, p.gamma**2, rel_tol=1e-12)
            eig = np.sort(np.linalg.eigvalsh(c.cov))
            assert math.isclose(eig[1], p.gamma * p.s, rel_tol=1e-10)
            assert math.isclose(eig[0], p.gamma / p.s, rel_tol=1e-10)


class TestParamsFromCovariance:
    def test_identity_gives_vacuum(self):
        p = params_from_covariance(CovarianceState(np.eye(2)))
        assert (p.gamma, p.s, p.theta) == (1.0, 1.0, 0.0)

    def test_axis_swap_rotates_theta(self):
        p = params_from_covariance(CovarianceState(np.diag([0.25, 4.0])))
        assert math.isclose(p.gamma, 1.0)
        assert math.isclose(p.s, 4.0)
        assert math.isclose(p.theta, math.pi / 2)

    def test_round_trip_identity(self, rng):
        for _ in range(300):
            p = random_params(rng, gamma_hi=8.0, s_hi=8.0, mean_scale=2.0)
            c = covariance_from_params(p)
            q = params_from_covariance(c)
            c2 = covariance_from_params(q)
            assert np.max(np.abs(c2.cov - c.cov)) < 1e-12 * max(1.0, p.gamma * p.s)
            assert np.allclose(c2.mean, c.mean)

    def test_degenerate_covariance_reports_round(self):
        p = params_from_covariance(CovarianceState(3.0 * np.eye(2)))
        assert p.s == 1.0 and p.theta == 0.0

    def test_rejects_unphysical(self):
        with pytest.raises(NonPhysicalStateError):
            params_from_covariance(CovarianceState(np.diag([0.5, 0.5])))


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(CovarianceState(np.eye(2)))

    def test_violates_uncertainty(self):
        assert not is_physical(CovarianceState(np.diag([0.5, 0.5])))

    def test_pure_squeezed(self):
        assert is_physical(CovarianceState(np.diag([4.0, 0.25])))

    def test_tolerance_band(self):
        c = CovarianceState((1.0 - 2e-10) * np.eye(2))
        assert is_physical(c, tol=1e-9)
        assert not is_physical(c, tol=1e-12)


class TestCharacteristicFn:
    def test_normalization_at_origin(self, rng):
        for _ in range(20):
            c = covariance_from_params(random_params(rng, mean_scale=2.0))
            assert characteristic_fn(c, 0.0) == 1.0

    def test_vacuum_value(self):
        c = CovarianceState(np.eye(2))
        assert math.isclose(characteristic_fn(c, 1.0).real, math.exp(-0.5))
        assert abs(characteristic_fn(c, 1.0).imag) < 1e-16

    def test_thermal_against_fock_trace(self):
        # oracle: tr(rho D(lambda)) with truncated operators
        from scipy.linalg import expm

        from gdist.fock import thermal_weights

        from crosscheck import annihilation

        dim = 60
        a = annihilation(dim)
        rho = np.diag(thermal_weights(1.0, dim))
        d_op = expm(1j * a.conj().T - (-1j) * a)
        oracle = complex(np.trace(rho @ d_op))
        c = covariance_from_params(GaussianParams(3.0))
        val = characteristic_fn(c, 1j)
        assert abs(val - oracle) < 1e-8
        assert math.isclose(val.real, math.exp(-1.5))

    def test_magnitude_bounded(self, rng):
        for _ in range(50):
            c = covariance_from_params(random_params(rng, mean_scale=2.0))
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(characteristic_fn(c, lam)) <= 1.0 + 1e-14

    def test_displaced_phase(self):
        c = covariance_from_params(GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        val = characteristic_fn(c, 1j)
        # exp(i alpha* - (-i) alpha) = exp(2i) times the vacuum envelope
        assert math.isclose(val.real, math.exp(-0.5) * math.cos(2.0))
        assert math.isclose(val.imag, math.exp(-0.5) * math.sin(2.0))


class TestWignerFn:
    def test_vacuum_peak(self):
        c = CovarianceState(np.eye(2))
        assert math.isclose(wigner_fn(c, 0.0), 2.0 / math.pi)

    def test_vacuum_offset(self):
        c = CovarianceState(np.eye(2))
        assert math.isclose(wigner_fn(c, 1.0), 2.0 / math.pi * math.exp(-2.0))

    @pytest.mark.parametrize(
        "params",
        [
            GaussianParams(1.0, 4.0, 0.0),
            GaussianParams(10.0, 10.0, 0.7, 0.5, -0.3),
        ],
    )
    def test_normalization_quadrature(self, params):
        c = covariance_from_params(params)
        spread = 12.0 * math.sqrt(params.gamma * params.s) / 2.0
        val, err = dblquad(
            lambda y, x: wigner_fn(c, complex(x, y)),
            c.mean[0] - spread,
            c.mean[0] + spread,
            lambda x: c.mean[1] - spread,
            lambda x: c.mean[1] + spread,
            epsabs=1e-10,
        )
        assert abs(val - 1.0) < 1e-8

    def test_positive_everywhere_sampled(self, rng):
        c = covariance_from_params(random_params(rng, mean_scale=1.0))
        pts = rng.uniform(-5, 5, size=(50, 2))
        assert all(wigner_fn(c, complex(x, y)) > 0.0 for x, y in pts)


class TestJsonSchema:
    def test_params_form(self):
        p = state_from_dict(
            {"params": {"gamma": 2.0, "s": 3.0, "theta": 0.5, "alpha": [1.0, -1.0]}}
        )
        assert p == GaussianParams(2.0, 3.0, 0.5, 1.0, -1.0)

    def test_cov_form(self):
        p = state_from_dict({"cov": [[4.0, 0.0], [0.0, 0.25]], "mean": [0.5, 0.0]})
        assert math.isclose(p.s, 4.0)
        assert math.isclose(p.alpha_x, 0.5)

    def test_round_trip(self):
        p = GaussianParams(2.5, 1.7, 0.9, -0.4, 0.2)
        params = {"gamma": p.gamma, "s": p.s, "theta": p.theta, "alpha": [p.alpha_x, p.alpha_y]}
        assert state_from_dict(json.loads(json.dumps({"params": params}))) == p

    def test_missing_field_named(self):
        with pytest.raises(StateFormatError) as err:
            state_from_dict({"params": {"s": 1.0, "theta": 0.0}})
        assert err.value.field == "gamma"
        assert "gamma" in str(err.value)

    def test_bad_cov_shape(self):
        with pytest.raises(StateFormatError) as err:
            state_from_dict({"cov": [[1.0, 0.0]]})
        assert err.value.field == "cov"

    def test_non_numeric_rejected(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"params": {"gamma": "two", "s": 1.0, "theta": 0.0}})

    def test_load_state_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"params": {"gamma": 1.5, "s": 2.0, "theta": 0.1}}))
        assert load_state(str(path)).gamma == 1.5

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError):
            load_state(str(path))


class TestStatesEqual:
    def test_theta_mod_pi(self):
        a = GaussianParams(2.0, 3.0, 1e-12)
        b = GaussianParams(2.0, 3.0, math.pi - 1e-12)
        assert states_equal(a, b)

    def test_distinct(self):
        assert not states_equal(GaussianParams(2.0), GaussianParams(2.001))


class TestToleranceOverride:
    def test_env_var_changes_default(self, monkeypatch):
        from gdist.states import default_tol

        assert default_tol() == 1e-9
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        assert default_tol() == 1e-6
        c = CovarianceState((1.0 - 1e-7) * np.eye(2))
        assert is_physical(c)  # accepted under the loosened tolerance
        monkeypatch.delenv("GDIST_TOL")
        assert not is_physical(c)

    def test_invalid_env_var(self, monkeypatch):
        from gdist.states import default_tol

        monkeypatch.setenv("GDIST_TOL", "tiny")
        with pytest.raises(StateFormatError):
            default_tol()
