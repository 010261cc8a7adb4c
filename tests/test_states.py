import copy
import json
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import dblquad

from gdist import (
    CovarianceState,
    GaussianParams,
    NonPhysicalStateError,
    StateFormatError,
    covariance_from_params,
    params_from_covariance,
    state_from_dict,
)
from gdist.optimality import PairClass, classify_pair
from gdist.states import default_tol, load_state

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

    def test_gamma_gate_is_one_minus_gamma(self, monkeypatch):
        # 1 - gamma = 1.000000000003e-6 > tol, though gamma < 1 - tol rounds false
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        assert 1.0 - 0.999999 > 1e-6 and not 0.999999 < 1.0 - 1e-6
        with pytest.raises(NonPhysicalStateError):
            GaussianParams(0.999999)
        assert GaussianParams(1.0 - 5e-7) == GaussianParams(1.0)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            GaussianParams(1.0, s=-2.0)

    @pytest.mark.parametrize(
        "args",
        [(2.0, 1.0, 0.0, math.nan), (2.0, 1.0, 0.0, 0.0, -math.inf), (2.0, 5e-324), (math.nan,)],
    )
    def test_rejects_non_finite_fields(self, args):
        # 5e-324 is finite, but its canonical form 1/s is not
        with pytest.raises(ValueError, match="finite"):
            GaussianParams(*args)

    def test_replace_and_make_pass_the_gate(self):
        p = GaussianParams(2, 0.5, 0.1)
        with pytest.raises(NonPhysicalStateError):
            p._replace(gamma=0.5)
        q = p._replace(s=0.25)  # (2, 0.25, 0.1 + pi) is (2, 4, 0.1)
        assert q == GaussianParams(2.0, 4.0, 0.1 + math.pi) and q.s == 4.0
        assert GaussianParams._make([2, 0.5, 0.1]) == p
        with pytest.raises(ValueError):
            CovarianceState(np.eye(2))._replace(cov=((1.0, 0.5), (0.0, 1.0)))

    def test_copies_and_pickles_are_canonical(self):
        p = GaussianParams(3.0, 0.2, 2.0, 0.5, -0.5)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(q) is GaussianParams and q == p
        forged = tuple.__new__(GaussianParams, (0.5, 1.0, 0.0, 0.0, 0.0))  # skips __new__
        with pytest.raises(NonPhysicalStateError):
            pickle.loads(pickle.dumps(forged))

    @pytest.mark.parametrize("name, value", [("gamma", 3.0), ("extra", 1)])
    def test_fields_are_frozen(self, name, value):
        p = GaussianParams(2.0)
        with pytest.raises(AttributeError):
            setattr(p, name, value)

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

    def test_holds_float_tuples(self):
        c = CovarianceState(np.diag([4.0, 0.25]), np.array([1.0, -1.0]))
        assert c.cov == ((4.0, 0.0), (0.0, 0.25)) and c.mean == (1.0, -1.0)
        assert all(type(x) is float for row in c.cov for x in row)

    @pytest.mark.parametrize(
        "cov, mean",
        [([[1.0, 0.0]], (0.0, 0.0)), (np.eye(3), (0.0, 0.0)), (np.eye(2), (0.0,))],
    )
    def test_rejects_wrong_shapes(self, cov, mean):
        with pytest.raises(ValueError):
            CovarianceState(cov, mean)


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
            assert np.max(np.abs(np.subtract(c2.cov, c.cov))) < 1e-12 * max(1.0, p.gamma * p.s)
            assert np.allclose(c2.mean, c.mean)

    def test_degenerate_covariance_reports_round(self):
        p = params_from_covariance(CovarianceState(3.0 * np.eye(2)))
        assert p.s == 1.0 and p.theta == 0.0

    def test_rejects_unphysical(self):
        with pytest.raises(NonPhysicalStateError):
            params_from_covariance(CovarianceState(np.diag([0.5, 0.5])))


class TestPhysicality:
    def test_vacuum(self):
        assert params_from_covariance(CovarianceState(np.eye(2))) == GaussianParams(1.0)

    @pytest.mark.parametrize("diag", [[0.5, 0.5], [-1.0, -1.0], [-4.0, -0.25]])
    def test_violates_uncertainty(self, diag):
        # the last two have det 1 but are not positive-definite
        with pytest.raises(NonPhysicalStateError, match="physical"):
            params_from_covariance(CovarianceState(np.diag(diag)))

    def test_pure_squeezed(self):
        c = CovarianceState(np.diag([4.0, 0.25]))
        assert params_from_covariance(c) == GaussianParams(1.0, 4.0)

    def test_tolerance_band(self, monkeypatch):
        c = CovarianceState((1.0 - 2e-10) * np.eye(2))
        assert params_from_covariance(c) == GaussianParams(1.0)
        monkeypatch.setenv("GDIST_TOL", "1e-12")
        with pytest.raises(NonPhysicalStateError):
            params_from_covariance(c)


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
        assert "gamma" in str(err.value)

    def test_bad_cov_shape(self):
        with pytest.raises(StateFormatError, match="'cov'"):
            state_from_dict({"cov": [[1.0, 0.0]]})

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


class TestIdenticalStates:
    def test_theta_mod_pi(self):
        a = GaussianParams(2.0, 3.0, 1e-12)
        b = GaussianParams(2.0, 3.0, math.pi - 1e-12)
        assert classify_pair(a, b).kind is PairClass.IDENTICAL_STATES

    def test_distinct(self):
        verdict = classify_pair(GaussianParams(2.0), GaussianParams(2.001))
        assert verdict.kind is not PairClass.IDENTICAL_STATES


class TestToleranceOverride:
    def test_env_var_changes_default(self, monkeypatch):
        assert default_tol() == 1e-9
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        assert default_tol() == 1e-6
        c = CovarianceState((1.0 - 1e-7) * np.eye(2))
        # accepted under the loosened tolerance, and read as the vacuum
        assert params_from_covariance(c) == GaussianParams(1.0)
        monkeypatch.delenv("GDIST_TOL")
        with pytest.raises(NonPhysicalStateError):
            params_from_covariance(c)

    @pytest.mark.parametrize("value", ["tiny", "nan", "inf", "-1e-3", "0"])
    def test_invalid_env_var(self, monkeypatch, value):
        monkeypatch.setenv("GDIST_TOL", value)
        with pytest.raises(StateFormatError, match="GDIST_TOL"):
            default_tol()
