"""Single-mode Gaussian states in parameter and covariance form.

A state is either a five-parameter description ``{gamma, s, theta, alpha_x,
alpha_y}`` (thermal width, squeezing degree, squeezing direction, mean
amplitude) or a 2x2 covariance matrix plus mean vector.  The normalization is
fixed so the vacuum has covariance equal to the identity and the quadrature
X_phi = (a e^{-i phi} + a^dag e^{i phi})/2 has vacuum variance 1/4.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPhysicalStateError, StateFormatError

DEFAULT_TOL = 1e-9


def default_tol() -> float:
    """Default numerical tolerance; overridable via the GDIST_TOL env var."""
    env = os.environ.get("GDIST_TOL")
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise StateFormatError(f"GDIST_TOL is not a float: {env!r}") from exc
    return DEFAULT_TOL


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, pi); squeezing directions are pi-periodic.

    Unlike ``theta % math.pi``, a tiny negative angle maps to 0, not to pi.
    """
    theta = math.fmod(theta, math.pi) + 0.0  # + 0.0 turns -0.0 into 0.0
    if theta < 0.0:
        theta += math.pi
    if theta >= math.pi:  # fmod roundoff at the boundary
        theta -= math.pi
    return theta


@dataclass(frozen=True)
class GaussianParams:
    """Canonical five-parameter form of a single-mode Gaussian state.

    Attributes:
        gamma: thermal width, 2*nbar + 1, >= 1.  gamma = 1 marks a pure state.
        s: squeezing degree e^{2r}, canonicalized to >= 1.
        theta: squeezing direction in [0, pi); 0 when s = 1.
        alpha_x, alpha_y: mean amplitude components (alpha units).

    Inputs with s < 1 are rewritten as (1/s, theta + pi/2); theta is reduced
    mod pi.  gamma below 1 by more than ``DEFAULT_TOL`` is rejected.
    """

    gamma: float
    s: float = 1.0
    theta: float = 0.0
    alpha_x: float = 0.0
    alpha_y: float = 0.0

    def __post_init__(self):
        gamma = float(self.gamma)
        s = float(self.s)
        theta = float(self.theta)
        if not math.isfinite(gamma) or not math.isfinite(s) or not math.isfinite(theta):
            raise ValueError("state parameters must be finite")
        if s <= 0.0:
            raise ValueError(f"squeezing degree must be positive, got s={s}")
        if gamma < 1.0 - DEFAULT_TOL:
            raise NonPhysicalStateError(f"thermal width gamma={gamma} below purity bound 1")
        gamma = max(gamma, 1.0)
        if s < 1.0:
            s = 1.0 / s
            theta = theta + math.pi / 2.0
        theta = wrap_angle(theta)
        if s == 1.0:
            theta = 0.0
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha_x", float(self.alpha_x))
        object.__setattr__(self, "alpha_y", float(self.alpha_y))

    @property
    def nbar(self) -> float:
        """Mean thermal photon number (gamma - 1)/2."""
        return (self.gamma - 1.0) / 2.0

    @property
    def r(self) -> float:
        """Squeezing parameter r = ln(s)/2."""
        return 0.5 * math.log(self.s)

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_x, self.alpha_y)

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.alpha_x, self.alpha_y])

    def is_pure(self, tol: float | None = None) -> bool:
        tol = default_tol() if tol is None else tol
        return self.gamma <= 1.0 + tol

@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Covariance-matrix form: 2x2 symmetric ``cov`` and 2-vector ``mean``."""

    cov: np.ndarray
    mean: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        mean = np.array(self.mean, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError(f"covariance must be 2x2, got shape {cov.shape}")
        if mean.shape != (2,):
            raise ValueError(f"mean must be a 2-vector, got shape {mean.shape}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if abs(cov[0, 1] - cov[1, 0]) > DEFAULT_TOL * scale:
            raise ValueError("covariance matrix is not symmetric")
        off = 0.5 * (cov[0, 1] + cov[1, 0])
        cov[0, 1] = off
        cov[1, 0] = off
        cov.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)

    @property
    def det(self) -> float:
        c = self.cov
        return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])


def covariance_from_params(p: GaussianParams) -> CovarianceState:
    """Covariance form of a parameterized state.

    cov = R(theta) diag(gamma*s, gamma/s) R(theta)^T, so det(cov) = gamma^2
    and the eigenvalues are {gamma*s, gamma/s}.
    """
    c, sn = math.cos(p.theta), math.sin(p.theta)
    rot = np.array([[c, -sn], [sn, c]])
    cov = rot @ np.diag([p.gamma * p.s, p.gamma / p.s]) @ rot.T
    return CovarianceState(cov, p.mean)


def params_from_covariance(c: CovarianceState, tol: float | None = None) -> GaussianParams:
    """Recover the canonical parameters from a covariance state.

    gamma = sqrt(det), s = lambda_max / gamma, theta from the major-axis
    eigenvector.  Raises NonPhysicalStateError when det < 1 - tol.  A
    degenerate (round) covariance reports s = 1, theta = 0.
    """
    tol = default_tol() if tol is None else tol
    if not is_physical(c, tol):
        raise NonPhysicalStateError(
            f"covariance is not a physical state (det={c.det:.6g}, needs >= 1)"
        )
    a, b, d = c.cov[0, 0], c.cov[0, 1], c.cov[1, 1]
    det = c.det
    gamma = math.sqrt(det)
    half_span = math.hypot(0.5 * (a - d), b)
    lam_max = 0.5 * (a + d) + half_span
    if 2.0 * half_span <= 1e-12 * lam_max:
        return GaussianParams(gamma, 1.0, 0.0, c.mean[0], c.mean[1])
    theta = 0.5 * math.atan2(2.0 * b, a - d)
    return GaussianParams(gamma, lam_max / gamma, theta, c.mean[0], c.mean[1])


def is_physical(c: CovarianceState, tol: float | None = None) -> bool:
    """True iff cov is positive-definite with det >= 1 - tol."""
    tol = default_tol() if tol is None else tol
    a, d = c.cov[0, 0], c.cov[1, 1]
    det = c.det
    return a > 0.0 and d > 0.0 and det > 0.0 and det >= 1.0 - tol


def states_equal(a: GaussianParams, b: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Equality of canonical parameters within ``tol``.

    The squeezing direction is compared mod pi and ignored for round states.
    """
    if abs(a.gamma - b.gamma) > tol or abs(a.s - b.s) > tol:
        return False
    if abs(a.alpha_x - b.alpha_x) > tol or abs(a.alpha_y - b.alpha_y) > tol:
        return False
    if min(a.s, b.s) - 1.0 <= tol:
        return True
    dth = abs(a.theta - b.theta)
    return min(dth, math.pi - dth) <= tol


def means_equal(a: GaussianParams, b: GaussianParams, tol: float | None = None) -> bool:
    tol = default_tol() if tol is None else tol
    return abs(a.alpha_x - b.alpha_x) <= tol and abs(a.alpha_y - b.alpha_y) <= tol


# ---------------------------------------------------------------------------
# JSON state schema
# ---------------------------------------------------------------------------


def _require_number(obj, key, where):
    if key not in obj:
        raise StateFormatError(f"missing field '{key}' in {where}", field=key)
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise StateFormatError(f"field '{key}' in {where} must be a number", field=key)
    return float(val)


def _require_pair(obj, key, where):
    if key not in obj:
        raise StateFormatError(f"missing field '{key}' in {where}", field=key)
    val = obj[key]
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise StateFormatError(
            f"field '{key}' in {where} must be a 2-element array", field=key
        )
    out = []
    for item in val:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise StateFormatError(
                f"field '{key}' in {where} must contain numbers", field=key
            )
        out.append(float(item))
    return out


def state_from_dict(data: dict) -> GaussianParams:
    """Parse a state from the JSON schema (params form or covariance form)."""
    if not isinstance(data, dict):
        raise StateFormatError("state description must be a JSON object")
    if "params" in data:
        p = data["params"]
        if not isinstance(p, dict):
            raise StateFormatError("field 'params' must be an object", field="params")
        gamma = _require_number(p, "gamma", "'params'")
        s = _require_number(p, "s", "'params'")
        theta = _require_number(p, "theta", "'params'")
        alpha = _require_pair(p, "alpha", "'params'") if "alpha" in p else [0.0, 0.0]
        try:
            return GaussianParams(gamma, s, theta, alpha[0], alpha[1])
        except ValueError as exc:
            raise StateFormatError(str(exc), field="params") from exc
    if "cov" in data:
        cov = data["cov"]
        if (
            not isinstance(cov, (list, tuple))
            or len(cov) != 2
            or any(not isinstance(row, (list, tuple)) or len(row) != 2 for row in cov)
        ):
            raise StateFormatError("field 'cov' must be a 2x2 array", field="cov")
        mean = _require_pair(data, "mean", "state") if "mean" in data else [0.0, 0.0]
        try:
            state = CovarianceState(np.array(cov, dtype=float), np.array(mean))
        except (ValueError, TypeError) as exc:
            raise StateFormatError(f"invalid 'cov': {exc}", field="cov") from exc
        return params_from_covariance(state)
    raise StateFormatError("state needs either a 'params' or a 'cov' field", field="params")


def load_state(path: str) -> GaussianParams:
    """Load a state from a JSON file, with diagnostics naming the bad field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"malformed JSON in {path}: {exc}") from exc
    return state_from_dict(data)
