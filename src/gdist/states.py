"""Single-mode Gaussian states in parameter and covariance form.

A state is either a five-parameter description ``{gamma, s, theta, alpha_x,
alpha_y}`` (thermal width, squeezing degree, squeezing direction, mean
amplitude) or a 2x2 covariance matrix plus mean vector.  The normalization is
fixed so the vacuum has covariance equal to the identity and the quadrature
X_phi = (a e^{-i phi} + a^dag e^{i phi})/2 has vacuum variance 1/4.  Helpers
take the tolerance as an argument; only ``params_from_covariance`` here,
``classify_pair``, ``minimize_overlap`` and the surface solver in ``fidelity``
read it, from ``default_tol`` (GDIST_TOL, a finite float > 0); the gates it
decides are listed in the ``optimality`` module docstring.  Both forms
hold plain floats, and ``covariance_entries`` is the one scalar kernel of the
covariance entries, so this module never loads numpy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import NonPhysicalStateError, StateFormatError

DEFAULT_TOL = 1e-9


def default_tol() -> float:
    """Default numerical tolerance; GDIST_TOL, a finite float > 0, overrides it."""
    env = os.environ.get("GDIST_TOL")
    if not env:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise StateFormatError(f"GDIST_TOL must be a finite float > 0, got {env!r}")
    return tol


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

    def is_pure(self, tol: float) -> bool:
        return self.gamma <= 1.0 + tol

@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Covariance-matrix form: 2x2 symmetric ``cov`` and 2-vector ``mean``, as float tuples."""

    cov: tuple[tuple[float, float], tuple[float, float]]
    mean: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        (c00, c01), (c10, c11) = (map(float, row) for row in self.cov)  # ValueError unless 2x2
        x, y = map(float, self.mean)
        if abs(c01 - c10) > DEFAULT_TOL * max(1.0, abs(c00), abs(c01), abs(c10), abs(c11)):
            raise ValueError("covariance matrix is not symmetric")
        off = 0.5 * (c01 + c10)
        object.__setattr__(self, "cov", ((c00, off), (off, c11)))
        object.__setattr__(self, "mean", (x, y))

    @property
    def det(self) -> float:
        (c00, c01), (_, c11) = self.cov
        return c00 * c11 - c01 * c01


def covariance_entries(gamma: float, s: float, theta: float) -> tuple[float, float, float]:
    """(c00, c01, c11) of R(theta) diag(gamma s, gamma/s) R(theta)^T.

    ``homodyne._width`` and ``fidelity._adjugate_form`` stay separate kernels:
    each is a different quadratic form of C, kept in a form that does not cancel.
    """
    c, sn = math.cos(theta), math.sin(theta)
    long, short = gamma * s, gamma / s
    return long * c * c + short * sn * sn, (long - short) * c * sn, long * sn * sn + short * c * c


def covariance_from_params(p: GaussianParams) -> CovarianceState:
    """Covariance form of a parameterized state.

    cov = R(theta) diag(gamma*s, gamma/s) R(theta)^T, so det(cov) = gamma^2
    and the eigenvalues are {gamma*s, gamma/s}.
    """
    c00, c01, c11 = covariance_entries(p.gamma, p.s, p.theta)
    return CovarianceState(((c00, c01), (c01, c11)), (p.alpha_x, p.alpha_y))


def params_from_covariance(c: CovarianceState) -> GaussianParams:
    """Recover the canonical parameters from a covariance state.

    gamma = sqrt(det), s = lambda_max / gamma, theta from the major-axis
    eigenvector.  Raises NonPhysicalStateError when det < 1 - ``default_tol()``;
    a det within that below 1 is pure, gamma = 1, which ``GaussianParams`` alone
    rejects below 1 - DEFAULT_TOL.  A round covariance reports s = 1, theta = 0.
    """
    if not is_physical(c, default_tol()):
        raise NonPhysicalStateError(
            f"covariance is not a physical state (det={c.det:.6g}, needs >= 1)"
        )
    (a, b), (_, d) = c.cov
    gamma = math.sqrt(c.det)
    half_span = math.hypot(0.5 * (a - d), b)
    lam_max = 0.5 * (a + d) + half_span
    if 2.0 * half_span <= 1e-12 * lam_max:
        s, theta = 1.0, 0.0
    else:
        s, theta = lam_max / gamma, 0.5 * math.atan2(2.0 * b, a - d)
    return GaussianParams(max(gamma, 1.0), s, theta, c.mean[0], c.mean[1])


def is_physical(c: CovarianceState, tol: float) -> bool:
    """True iff cov is positive-definite with det >= 1 - tol."""
    (a, _), (_, d) = c.cov
    det = c.det
    return a > 0.0 and d > 0.0 and det > 0.0 and det >= 1.0 - tol


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
            state = CovarianceState(cov, mean)
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
