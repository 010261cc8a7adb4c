"""Single-mode Gaussian states in parameter and covariance form.

A state is either a five-parameter description ``{gamma, s, theta, alpha_x,
alpha_y}`` (thermal width, squeezing degree, squeezing direction, mean
amplitude) or a 2x2 covariance matrix plus mean vector.  The normalization is
fixed so the vacuum has covariance equal to the identity and the quadrature
X_phi = (a e^{-i phi} + a^dag e^{i phi})/2 has vacuum variance 1/4.  Helpers
take the tolerance as an argument; only the two state forms here,
``classify_pair``, ``minimize_overlap`` and the surface solver in ``fidelity``
read it, from ``default_tol`` (GDIST_TOL, a finite float > 0); the gates it
decides are listed in the ``optimality`` module docstring.  Both forms
are named tuples of plain floats, and ``covariance_entries`` is the one scalar
kernel of the covariance entries, so this module never loads numpy.
"""

import json
import math
import os
import sys
from collections import namedtuple

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


class GaussianParams(namedtuple("GaussianParams", "gamma s theta alpha_x alpha_y")):
    """Canonical five-parameter form of a single-mode Gaussian state.

    Attributes:
        gamma: thermal width, 2*nbar + 1, >= 1.  gamma = 1 marks a pure state.
        s: squeezing degree e^{2r}, canonicalized to >= 1.
        theta: squeezing direction in [0, pi); 0 when s = 1.
        alpha_x, alpha_y: mean amplitude components (alpha units).

    ``__new__`` is the one validity gate of a state in either form: s < 1 is
    rewritten as (1/s, theta + pi/2), theta reduced mod pi, and all five fields
    must be finite.  gamma below 1 by more than ``default_tol()`` is rejected.
    """

    __slots__ = ()

    def __new__(cls, gamma, s=1.0, theta=0.0, alpha_x=0.0, alpha_y=0.0):
        gamma, s, theta, ax, ay = map(float, (gamma, s, theta, alpha_x, alpha_y))
        if s <= 0.0:
            raise ValueError(f"squeezing degree must be positive, got s={s}")
        if not all(map(math.isfinite, (gamma, s, 1.0 / s, theta, ax, ay))):
            fields = super().__new__(cls, gamma, s, theta, ax, ay)
            raise ValueError(f"every field of {fields!r} must be finite, as must 1/s when s < 1")
        if s < 1.0:
            s, theta = 1.0 / s, theta + math.pi / 2.0
        if gamma < 1.0:
            if 1.0 - gamma > default_tol():
                raise NonPhysicalStateError(f"not a physical state: gamma={gamma} is below 1")
            gamma = 1.0
        theta = wrap_angle(theta)
        if s == 1.0:
            theta = 0.0
        return super().__new__(cls, gamma, s, theta, ax, ay)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace goes through __new__

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
        return self.gamma - 1.0 <= tol

class CovarianceState(namedtuple("CovarianceState", "cov mean")):
    """Covariance-matrix form: 2x2 symmetric ``cov`` and 2-vector ``mean``, as float tuples."""

    __slots__ = ()

    def __new__(cls, cov, mean=(0.0, 0.0)):
        (c00, c01), (c10, c11) = (map(float, row) for row in cov)  # ValueError unless 2x2
        x, y = map(float, mean)
        if abs(c01 - c10) > default_tol() * max(1.0, abs(c00), abs(c01), abs(c10), abs(c11)):
            raise ValueError("covariance matrix is not symmetric")
        off = 0.5 * (c01 + c10)
        return super().__new__(cls, ((c00, off), (off, c11)), (x, y))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace goes through __new__

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
    eigenvector.  Raises NonPhysicalStateError unless cov is positive-definite;
    ``GaussianParams`` judges gamma as for a state in parameter form.  A round
    covariance reports s = 1, theta = 0.
    """
    (a, b), (_, d) = c.cov
    if not (a > 0.0 and d > 0.0 and c.det > 0.0):
        raise NonPhysicalStateError(
            f"covariance is not a physical state (det={c.det:.6g}, needs >= 1)"
        )
    gamma = math.sqrt(c.det)
    half_span = math.hypot(0.5 * (a - d), b)
    lam_max = 0.5 * (a + d) + half_span
    if 2.0 * half_span <= 1e-12 * lam_max:
        s, theta = 1.0, 0.0
    else:
        s, theta = lam_max / gamma, 0.5 * math.atan2(2.0 * b, a - d)
    return GaussianParams(gamma, s, theta, c.mean[0], c.mean[1])


# ---------------------------------------------------------------------------
# JSON state schema
# ---------------------------------------------------------------------------


def _field(obj: dict, key: str, where: str, depth: int = 0):
    """``obj[key]`` as floats: a number (depth 0), a 2-vector (1) or a 2x2 matrix (2)."""
    if key not in obj:
        raise StateFormatError(f"missing field '{key}' in {where}")
    shape = ("a number", "a 2-element array of numbers", "a 2x2 array of numbers")[depth]

    def leaves(val, level):  # the one check of each leaf: a number, not a bool or a string
        if level == 0 and isinstance(val, (int, float)) and not isinstance(val, bool):
            if isinstance(val, float) or abs(val) <= sys.float_info.max:  # float(10**400) overflows
                return float(val)
        if level > 0 and isinstance(val, (list, tuple)) and len(val) == 2:
            return [leaves(item, level - 1) for item in val]
        raise StateFormatError(f"field '{key}' in {where} must be {shape}")

    return leaves(obj[key], depth)


def state_from_dict(data: dict) -> GaussianParams:
    """Parse a state from the JSON schema (params or cov form); ``GaussianParams`` judges it."""
    if not isinstance(data, dict):
        raise StateFormatError("state description must be a JSON object")
    try:
        if "params" in data:
            p = data["params"]
            if not isinstance(p, dict):
                raise StateFormatError("field 'params' must be an object")
            gamma, s, theta = (_field(p, key, "'params'") for key in ("gamma", "s", "theta"))
            alpha = _field(p, "alpha", "'params'", 1) if "alpha" in p else [0.0, 0.0]
            return GaussianParams(gamma, s, theta, *alpha)
        if "cov" in data:
            mean = _field(data, "mean", "state", 1) if "mean" in data else [0.0, 0.0]
            return params_from_covariance(CovarianceState(_field(data, "cov", "state", 2), mean))
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc
    raise StateFormatError("state needs either a 'params' or a 'cov' field")


def load_state(path: str) -> GaussianParams:
    """Load a state from a JSON file, with diagnostics naming the bad field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise StateFormatError(f"malformed JSON in {path}: {exc}") from exc
    return state_from_dict(data)
