"""Independent routes the package itself does not call, kept as cross-checks.

Each route recomputes a quantity the package computes another way, or a
quantity no command prints, so the tests can compare the two:

- the harmonic equality equation I_phi = F, whose solvability reproduces the
  optimality classification without the surface criterion;
- the trigonometric width ratio B2/B1 and the same-mean overlap f(B2/B1);
- the homodyne marginal as a density object;
- the overlap grid scan in numpy (``overlap_grid``, ``scan_numpy``), the twin
  of ``homodyne.minimize_overlap_scan`` that the bulk scan checks run on;
- the Weyl characteristic function and the Wigner function;
- the squeeze mismatch D in its (s + 1/s)(s' + 1/s') form;
- the Husimi/POVM outcome distributions as numpy 2x2 products: the squeeze
  matrix M, the Q-moments (M C M^T + I)/4 and M m, and their Bhattacharyya
  overlap, the references of ``povm``'s closed form, with the same overlap in
  mpmath;
- the truncated operators that the Fock-oracle tests compare against scipy's expm;
- the Fock-oracle overlap on a fixed 4001-point grid, the reference for the
  oracle's own grid sized by the truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from gdist.errors import GdistError
from gdist.fidelity import fidelity_params
from gdist.fock import (
    FockOperator,
    _displacement_eigen,
    _orthogonal_core,
    _quadrature_table,
    _squeeze_eigen,
    hermite_functions,
    marginal_fock,
)
from gdist.optimality import thermal_ratio_sum
from gdist.states import (
    DEFAULT_TOL,
    CovarianceState,
    GaussianParams,
    covariance_from_params,
    default_tol,
    params_from_covariance,
    wrap_angle,
)


class MeanMismatchError(GdistError):
    """Operation requires equal mean vectors but the inputs differ."""


def transform(c: CovarianceState, m: np.ndarray, displacement=(0.0, 0.0)) -> CovarianceState:
    """The state moved by the phase-space map ``m``: cov' = M cov M^T, mean' = M mean + d."""
    return CovarianceState(m @ c.cov @ m.T, m @ c.mean + np.asarray(displacement, dtype=float))


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------


def squeeze_mismatch(s1: float, s2: float, theta_tilde: float) -> float:
    """Mismatch D of two squeezing ellipses at relative angle theta_tilde.

    D = (s1 + 1/s1)(s2 + 1/s2) - (s1 - 1/s1)(s2 - 1/s2) cos(2 theta_tilde);
    D >= 4, with equality iff the ellipses coincide in shape and direction.
    """
    s1p, s1m = s1 + 1.0 / s1, s1 - 1.0 / s1
    s2p, s2m = s2 + 1.0 / s2, s2 - 1.0 / s2
    return s1p * s2p - s1m * s2m * math.cos(2.0 * theta_tilde)


@dataclass(frozen=True)
class PropertyViolation:
    name: str
    magnitude: float
    detail: str


def check_fidelity_properties(
    triples,
    symmetry_tol: float = 1e-14,
    invariance_tol: float = 1e-12,
    triangle_tol: float = 1e-10,
    map_=None,
    displacement=(0.3, -0.2),
) -> list[PropertyViolation]:
    """Check fidelity properties on a sample of covariance-state triples.

    Per triple: symmetry F(a,b) = F(b,a), range [0,1], invariance under a
    shared symplectic map plus displacement, and the triangle inequality for
    the angle arccos(F).  Returns the violations found (empty on pass).
    """
    if map_ is None:
        c, s = math.cos(math.pi / 5), math.sin(math.pi / 5)
        squeeze = _squeeze_matrix(0.5 * math.log(1.7), 0.4)
        map_ = np.array([[c, -s], [s, c]]) @ squeeze
    violations: list[PropertyViolation] = []
    for idx, (sa, sb, sc) in enumerate(triples):
        pa, pb, pc = (params_from_covariance(state) for state in (sa, sb, sc))
        fab = fidelity_params(pa, pb).fidelity
        fba = fidelity_params(pb, pa).fidelity
        if abs(fab - fba) > symmetry_tol:
            violations.append(PropertyViolation("symmetry", abs(fab - fba), f"triple {idx}"))
        fbc = fidelity_params(pb, pc).fidelity
        fac = fidelity_params(pa, pc).fidelity
        for val in (fab, fbc, fac):
            if not (0.0 <= val <= 1.0):
                violations.append(PropertyViolation("range", val, f"triple {idx}"))
        ta = params_from_covariance(transform(sa, map_, displacement))
        tb = params_from_covariance(transform(sb, map_, displacement))
        moved = fidelity_params(ta, tb).fidelity
        if abs(moved - fab) > invariance_tol:
            violations.append(PropertyViolation("invariance", abs(moved - fab), f"triple {idx}"))
        angle = math.acos
        if angle(fac) > angle(fab) + angle(fbc) + triangle_tol:
            violations.append(
                PropertyViolation("triangle", angle(fac) - angle(fab) - angle(fbc), f"triple {idx}")
            )
    return violations


# ---------------------------------------------------------------------------
# Homodyne marginals and the width ratio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalSpec:
    """Gaussian homodyne outcome distribution at measurement angle ``phi``.

    ``b_variance_scale`` is B(phi); the actual variance is B/4.
    """

    b_variance_scale: float
    mean_along: float
    phi: float

    @property
    def variance(self) -> float:
        return self.b_variance_scale / 4.0

    def density(self, x):
        """Probability density, vectorized over ``x``."""
        b = self.b_variance_scale
        x = np.asarray(x, dtype=float)
        return np.sqrt(2.0 / (math.pi * b)) * np.exp(-2.0 * (x - self.mean_along) ** 2 / b)


def marginal(p: GaussianParams, phi: float) -> MarginalSpec:
    """Homodyne marginal of ``p`` at angle ``phi``."""
    d = phi - p.theta
    b = p.gamma * (p.s * math.cos(d) ** 2 + math.sin(d) ** 2 / p.s)
    mean = p.alpha_x * math.cos(phi) + p.alpha_y * math.sin(phi)
    return MarginalSpec(b, mean, phi)


def overlap_from_ratio(x):
    """Overlap of two same-mean normals from their width ratio.

    f(x) = sqrt(2) x^{1/4} / sqrt(1 + x); concave, f(x) = f(1/x), f(1) = 1.
    """
    x = np.asarray(x, dtype=float)
    out = math.sqrt(2.0) * x**0.25 / np.sqrt(1.0 + x)
    return float(out) if out.ndim == 0 else out


def b_ratio(p1: GaussianParams, p2: GaussianParams, phi: float) -> float:
    """Width ratio B2/B1 in trigonometric form.

    B2/B1 = gamma2 (s2p + s2m cos 2(phi - theta2))
          / gamma1 (s1p + s1m cos 2(phi - theta1)),  sip = si + 1/si, sim = si - 1/si.
    """
    s1p, s1m = p1.s + 1.0 / p1.s, p1.s - 1.0 / p1.s
    s2p, s2m = p2.s + 1.0 / p2.s, p2.s - 1.0 / p2.s
    num = p2.gamma * (s2p + s2m * math.cos(2.0 * (phi - p2.theta)))
    den = p1.gamma * (s1p + s1m * math.cos(2.0 * (phi - p1.theta)))
    return num / den


def overlap_same_mean(
    p1: GaussianParams, p2: GaussianParams, phi: float, tol: float | None = None
) -> float:
    """Same-mean overlap through the width ratio, f(B2/B1)."""
    tol = default_tol() if tol is None else tol
    if abs(p1.alpha_x - p2.alpha_x) > tol or abs(p1.alpha_y - p2.alpha_y) > tol:
        raise MeanMismatchError("states do not share a mean; use overlap_at")
    return float(overlap_from_ratio(b_ratio(p1, p2, phi)))


def overlap_grid(p1: GaussianParams, p2: GaussianParams, phis) -> np.ndarray:
    """Vectorized I_phi over an array of angles, in ``homodyne._overlap``'s arithmetic."""
    phis = np.asarray(phis, dtype=float)
    d1, d2 = phis - p1.theta, phis - p2.theta
    b1 = p1.gamma * (p1.s * np.cos(d1) ** 2 + np.sin(d1) ** 2 / p1.s)
    b2 = p2.gamma * (p2.s * np.cos(d2) ** 2 + np.sin(d2) ** 2 / p2.s)
    beta = (p2.alpha_x - p1.alpha_x) * np.cos(phis) + (p2.alpha_y - p1.alpha_y) * np.sin(phis)
    width = b1 + b2
    return np.sqrt(2.0 * np.sqrt(b1 * b2) / width) * np.exp(-beta**2 / width)


def scan_numpy(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """The numpy twin of ``homodyne.minimize_overlap_scan``: (phi_min, overlap_min).

    Three ``np.linspace`` grids of 4096 angles through ``overlap_grid``, each
    zoom one spacing either side of the best angle so far, a tie going to the
    finer grid.
    """
    lo, span = 0.0, math.pi
    phi_min, val_min = 0.0, math.inf
    for _ in range(3):
        phis = np.linspace(lo, lo + span, 4096, endpoint=False)
        vals = overlap_grid(p1, p2, phis)
        k = int(np.argmin(vals))
        if vals[k] <= val_min:
            phi_min, val_min = float(phis[k]), float(vals[k])
        step = span / 4096
        lo, span = phi_min - step, 2.0 * step
    return wrap_angle(phi_min), val_min


# ---------------------------------------------------------------------------
# The harmonic equality equation I_phi = F
# ---------------------------------------------------------------------------


class DegenerateFidelityError(GdistError):
    """Fidelity equals 1 (identical states), so an equality equation is vacuous."""


@dataclass(frozen=True)
class HarmonicBranch:
    """One branch of the equality condition, as a harmonic equation in 2phi."""

    target_ratio: float
    upsilon: float
    a1: float
    a2: float
    a3: float

    @property
    def discriminant(self) -> float:
        return self.a1**2 + self.a2**2 - self.a3**2


@dataclass(frozen=True)
class OptimalityEquation:
    """Both branches of the equality condition I_phi = F.

    The two target width ratios are reciprocal; the equation is solvable iff
    the larger of the two discriminants is nonnegative.
    """

    branch_plus: HarmonicBranch
    branch_minus: HarmonicBranch
    fidelity: float

    @property
    def upsilon_plus(self) -> float:
        return self.branch_plus.upsilon

    @property
    def upsilon_minus(self) -> float:
        return self.branch_minus.upsilon


def build_equality_equation(
    p1: GaussianParams, p2: GaussianParams, fid: float, tol: float | None = None
) -> OptimalityEquation:
    """Set up both harmonic branches of the equality I_phi = fid.

    Each branch demands B2/B1 equal a target ratio [F^-2 +- sqrt(F^-4 - 1)]^2;
    cross-multiplying the trigonometric width ratio gives the coefficients.
    Raises DegenerateFidelityError for fid = 1 (every angle solves).
    """
    tol = default_tol() if tol is None else tol
    if abs(p1.alpha_x - p2.alpha_x) > tol or abs(p1.alpha_y - p2.alpha_y) > tol:
        raise MeanMismatchError("equality analysis assumes equal means")
    if not 0.0 < fid <= 1.0:
        raise ValueError(f"fidelity must lie in (0, 1], got {fid}")
    if fid >= 1.0 - 1e-12:
        raise DegenerateFidelityError("fidelity is 1; the pair is identical")
    inv2 = 1.0 / (fid * fid)
    spread = math.sqrt(max(inv2 * inv2 - 1.0, 0.0))
    s1p, s1m = p1.s + 1.0 / p1.s, p1.s - 1.0 / p1.s
    s2p, s2m = p2.s + 1.0 / p2.s, p2.s - 1.0 / p2.s

    def branch(target: float) -> HarmonicBranch:
        a1 = p2.gamma * s2m * math.sin(2.0 * p2.theta) - target * p1.gamma * s1m * math.sin(
            2.0 * p1.theta
        )
        a2 = p2.gamma * s2m * math.cos(2.0 * p2.theta) - target * p1.gamma * s1m * math.cos(
            2.0 * p1.theta
        )
        a3 = p2.gamma * s2p - target * p1.gamma * s1p
        return HarmonicBranch(target, (p1.gamma / p2.gamma) * target, a1, a2, a3)

    return OptimalityEquation(
        branch_plus=branch((inv2 + spread) ** 2),
        branch_minus=branch((inv2 - spread) ** 2),
        fidelity=fid,
    )


def solve_harmonic(a1: float, a2: float, a3: float) -> list[float]:
    """Roots in [0, pi) of a1 sin 2phi + a2 cos 2phi + a3 = 0.

    Near-tangent equations (|discriminant| below 1e-12 of the amplitude)
    collapse to one double root; returns [] when unsolvable.
    """
    rr = a1 * a1 + a2 * a2
    if rr == 0.0:
        return [0.0] if abs(a3) < 1e-15 else []
    disc = rr - a3 * a3
    if disc < -1e-12 * rr:
        return []
    r = math.sqrt(rr)
    psi = math.atan2(a2, a1)
    target = min(1.0, max(-1.0, -a3 / r))
    if disc <= 1e-12 * rr:
        # tangency: sin(2phi + psi) = +-1, a single double root
        t = math.copysign(math.pi / 2.0, target)
        return [((t - psi) / 2.0) % math.pi]
    t = math.asin(target)
    roots = [((t - psi) / 2.0) % math.pi, ((math.pi - t - psi) / 2.0) % math.pi]
    return sorted(roots)


def solve_equality_phi(eq: OptimalityEquation) -> list[float]:
    """All angles in [0, pi) where I_phi equals the equation's fidelity."""
    roots: list[float] = []
    for branch in (eq.branch_plus, eq.branch_minus):
        roots.extend(solve_harmonic(branch.a1, branch.a2, branch.a3))
    roots.sort()
    deduped: list[float] = []
    for phi in roots:
        if deduped and (phi - deduped[-1]) < 1e-9:
            continue
        if deduped and (math.pi - phi + deduped[0]) < 1e-9:
            continue  # wraps onto the first root mod pi
        deduped.append(phi)
    return deduped


def check_condition_s1_unity(g1: float, g2: float, s2: float, tol: float = DEFAULT_TOL) -> bool:
    """Optimality test for a round first state (s1 = 1).

    True iff both states are pure, or both are mixed with
    s2 + 1/s2 = thermal_ratio_sum(g1, g2) within the relative tolerance.
    """
    pure1 = g1 <= 1.0 + tol
    pure2 = g2 <= 1.0 + tol
    if pure1 and pure2:
        return True
    if pure1 != pure2:
        return False
    ratio_sum = thermal_ratio_sum(g1, g2)
    return abs(s2 + 1.0 / s2 - ratio_sum) < tol * ratio_sum


# ---------------------------------------------------------------------------
# Phase-space functions
# ---------------------------------------------------------------------------


def characteristic_fn(c: CovarianceState, lam: complex) -> complex:
    """Weyl characteristic function tr(rho D(lambda)) of a Gaussian state."""
    lam = complex(lam)
    lt = np.array([lam.imag, -lam.real])
    quad = float(lt @ c.cov @ lt)
    alpha = complex(c.mean[0], c.mean[1])
    phase = lam * alpha.conjugate() - lam.conjugate() * alpha  # purely imaginary
    return cmath.exp(phase - 0.5 * quad)


def wigner_fn(c: CovarianceState, beta: complex) -> float:
    """Wigner function at phase-space point beta = beta_x + i beta_y.

    Gaussian closed form (2 / (pi sqrt(det cov))) exp(-2 b^T cov^{-1} b) with
    b the displacement from the mean; integrates to 1 over the plane.
    """
    beta = complex(beta)
    bx, by = beta.real - c.mean[0], beta.imag - c.mean[1]
    det = c.det
    (a, off), (_, d) = c.cov
    # 2x2 inverse via adjugate
    quad = (d * bx * bx - 2.0 * off * bx * by + a * by * by) / det
    return 2.0 / (math.pi * math.sqrt(det)) * math.exp(-2.0 * quad)


# ---------------------------------------------------------------------------
# Truncated operators
# ---------------------------------------------------------------------------


def _conjugate_by_phases(core: np.ndarray, angle: float) -> np.ndarray:
    """U core U^dag with U = diag(e^{i n angle})."""
    u = np.exp(1j * angle * np.arange(core.shape[0]))
    return u[:, None] * core * u.conj()[None, :]


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def displacement_op(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha^* a) with truncated a.

    The generator is |alpha| U (a^dag - a) U^dag with U = diag(e^{i n arg alpha}).
    """
    core = _orthogonal_core(_displacement_eigen(dim), abs(alpha))
    return _conjugate_by_phases(core, float(np.angle(alpha)))


def squeeze_op(r: float, theta: float, dim: int) -> np.ndarray:
    """Squeeze operator whose phase-space major axis lies along ``theta``.

    The generator carries phase 2*theta: exp[(r/2)(e^{2i theta} a^dag^2 - h.c.)]
    amplifies the quadrature X_theta by e^r, matching the covariance
    parameterization used by the closed forms.  It is U exp[(r/2)(a^dag^2 -
    a^2)] U^dag with U = diag(e^{i n theta}), the inner factor block diagonal
    in the number parity.
    """
    core = np.zeros((dim, dim))
    for parity, eigen in enumerate(_squeeze_eigen(dim)):
        core[parity::2, parity::2] = _orthogonal_core(eigen, 0.5 * r)
    return _conjugate_by_phases(core, theta)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Number-basis amplitudes of a coherent state (truncated)."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1.0, dim))]))
    mag = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha) + 1e-300) - 0.5 * log_fact)
    vec = mag * np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.where(n == 0, 1.0, 0.0)
    return vec.astype(complex)


def husimi_fock(a: FockOperator, alpha: complex) -> float:
    """Husimi Q value <alpha|rho|alpha>/pi from the number basis."""
    vec = coherent_vector(alpha, a.dim)
    return float((vec.conj() @ a.matrix @ vec).real / math.pi)


def overlap_fock_4001(a: FockOperator, b: FockOperator, phi: float) -> float:
    """Bhattacharyya overlap of the oracle marginals on 4001 points of their truncation's span."""
    span, _ = _quadrature_table(a.dim)
    grid = np.linspace(span[0], span[-1], 4001)
    table = hermite_functions(a.dim, math.sqrt(2.0) * grid)
    pa = np.clip(marginal_fock(a, phi, grid, table), 0.0, None)
    pb = np.clip(marginal_fock(b, phi, grid, table), 0.0, None)
    return float(np.trapezoid(np.sqrt(pa * pb), grid))


# ---------------------------------------------------------------------------
# POVM outcome distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QDistribution:
    """2-D Gaussian outcome distribution over the alpha plane."""

    cov: np.ndarray
    mean: np.ndarray

    def density(self, alpha_x, alpha_y):
        """Probability density, vectorized over the outcome coordinates."""
        det = float(self.cov[0, 0] * self.cov[1, 1] - self.cov[0, 1] ** 2)
        dx = np.asarray(alpha_x, dtype=float) - self.mean[0]
        dy = np.asarray(alpha_y, dtype=float) - self.mean[1]
        quad = (
            self.cov[1, 1] * dx * dx - 2.0 * self.cov[0, 1] * dx * dy + self.cov[0, 0] * dy * dy
        ) / det
        return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def _squeeze_matrix(r: float, theta_u: float) -> np.ndarray:
    """R(theta_u) diag(sqrt s, 1/sqrt s) R(theta_u)^T, the squeeze of degree s = e^{2r}."""
    s = math.exp(2.0 * r)
    c, sn = math.cos(theta_u), math.sin(theta_u)
    rot = np.array([[c, -sn], [sn, c]])
    return rot @ np.diag([math.sqrt(s), 1.0 / math.sqrt(s)]) @ rot.T


def _q_moments(state: CovarianceState, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q-covariance (M C M^T + I)/4 and mean M m of ``state`` under the squeeze M."""
    return (m @ state.cov @ m.T + np.eye(2)) / 4.0, m @ state.mean


def povm_distribution(p: GaussianParams, r: float, theta_u: float) -> QDistribution:
    """Outcome distribution on state ``p`` of the member squeezing by e^{2r} along theta_u.

    The squeeze maps the covariance to M C M^T; projecting onto coherent
    states then adds one vacuum unit, giving Q-covariance (M C M^T + I)/4
    and mean M m.  For r = 0 this is the plain Husimi Q of the state.
    """
    return QDistribution(*_q_moments(covariance_from_params(p), _squeeze_matrix(r, theta_u)))


def q_overlap(q1: QDistribution, q2: QDistribution) -> float:
    """Bhattacharyya overlap of two 2-D Gaussians by numpy determinants and a linear solve."""
    pooled = 0.5 * (q1.cov + q2.cov)
    diff = q2.mean - q1.mean
    quad = float(diff @ np.linalg.solve(pooled, diff))
    dets = [float(np.linalg.det(cov)) for cov in (q1.cov, q2.cov, pooled)]
    return (dets[0] * dets[1]) ** 0.25 / math.sqrt(dets[2]) * math.exp(-0.125 * quad)


def mpmath_povm_overlap(p1, p2, r, theta_u):
    """Overlap of the Q-distributions (M C M + I)/4, M m as 2x2 matrices in mpmath.

    The determinants of M C M cancel about 2 log10(e^{2r}) digits, so the
    working precision is 50 digits beyond that.
    """
    with mp.workdps(50 + math.ceil(4.0 * r / math.log(10.0))):
        s = mp.exp(2 * mp.mpf(r))

        def rotation(angle):
            c, sn = mp.cos(mp.mpf(angle)), mp.sin(mp.mpf(angle))
            return mp.matrix([[c, -sn], [sn, c]])

        rot = rotation(theta_u)
        m = rot * mp.diag([mp.sqrt(s), 1 / mp.sqrt(s)]) * rot.T

        def q_cov(p):
            g, sq = mp.mpf(p.gamma), mp.mpf(p.s)
            cov = rotation(p.theta) * mp.diag([g * sq, g / sq]) * rotation(p.theta).T
            return (m * cov * m + mp.eye(2)) / 4

        q1, q2 = q_cov(p1), q_cov(p2)
        pooled = (q1 + q2) / 2
        beta = mp.matrix([mp.mpf(p2.alpha_x) - p1.alpha_x, mp.mpf(p2.alpha_y) - p1.alpha_y])
        diff = m * beta
        quad = (diff.T * mp.inverse(pooled) * diff)[0]
        return (mp.det(q1) * mp.det(q2)) ** mp.mpf(0.25) / mp.sqrt(mp.det(pooled)) * mp.exp(
            -quad / 8
        )
