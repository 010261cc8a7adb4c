"""Truncated Fock-space oracle.

Rebuilds the states as dense density matrices in a photon-number basis and
recomputes fidelity, homodyne marginals, and overlaps from first principles
(operator exponentials, eigendecompositions, quadrature wavefunctions).  No
Gaussian closed form is reused, so these routines serve as an independent
check on the rest of the package.

The squeeze and displacement exponentials are exact exponentials of the
truncated generators, taken through eigendecompositions computed once per
dimension instead of scaling-and-squaring.  Both generators are phase
conjugations of real antisymmetric tridiagonal matrices: with U = diag(e^{in
theta}), U (a^dag - a) U^dag = e^{i theta} a^dag - e^{-i theta} a, and
a^dag^2 - a^2 splits into even and odd parity blocks of the same shape.  Each
such matrix A is i V^dag T V with V = diag(i^k) and T real symmetric
tridiagonal, so exp(tA) follows from the eigenpairs of T in real arithmetic.

scipy (``eigh_tridiagonal``) is imported on first use, inside the cached
per-dimension eigendecompositions, so importing gdist does not load it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalFailureError, TruncationError
from .states import GaussianParams

LEAKAGE_TOL = 1e-6
AUTO_LEAKAGE_TOL = 1e-8
BOUNDARY_TOL = 1e-10
MAX_AUTO_DIM = 1024
MAX_CACHED_STATES = 32
MAX_CACHED_BYTES = 64 * 2**20


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense Hermitian operator in a truncated number basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("operator is not Hermitian")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def leakage(self) -> float:
        """Probability lost past the truncation (1 - trace, for states)."""
        return 1.0 - self.trace

    @cached_property
    def factor(self) -> np.ndarray:
        """L (dim x rank) with L L^dag = the operator, from its eigendecomposition.

        Small negative eigenvalues from truncation are clipped to zero, and
        eigenvalues at roundoff scale relative to the largest are dropped:
        they are true zeros of near-pure states, and keeping them would lift
        sqrt noise from 1e-16 to 1e-8.
        """
        w, v = np.linalg.eigh(self.matrix)
        if np.any(w <= -1e-10):
            raise NumericalFailureError("operator has a significantly negative eigenvalue")
        keep = w >= 1e-14 * w.max()
        out = v[:, keep] * np.sqrt(w[keep])
        out.setflags(write=False)
        return out


def _tridiagonal_eigen(offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the real symmetric tridiagonal with zero diagonal."""
    from scipy.linalg import eigh_tridiagonal

    w, q = eigh_tridiagonal(np.zeros(offdiag.size + 1), offdiag)
    w.setflags(write=False)
    q.setflags(write=False)
    return w, q


@lru_cache(maxsize=4)
def _displacement_eigen(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a + a^dag, the tridiagonal image of a^dag - a."""
    return _tridiagonal_eigen(np.sqrt(np.arange(1.0, dim)))


@lru_cache(maxsize=4)
def _squeeze_eigen(dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs for the even and odd blocks of a^dag^2 - a^2 (levels parity::2)."""
    blocks = []
    for parity in range(min(2, dim)):
        n = np.arange(parity, dim - 2, 2, dtype=float)
        blocks.append(_tridiagonal_eigen(np.sqrt((n + 1.0) * (n + 2.0))))
    return tuple(blocks)


# Re(i^j) and Im(i^j) for j mod 4
_RE_POW_I = np.array([1.0, 0.0, -1.0, 0.0])
_IM_POW_I = np.array([0.0, 1.0, 0.0, -1.0])


def _orthogonal_core(eigen: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(tA) for A real antisymmetric tridiagonal with A[k+1, k] = e_k > 0.

    A = i V^dag T V with T the symmetric tridiagonal on e and V = diag(i^k),
    whose eigenpairs (w, q) are given.  So exp(tA) = V^dag (C + iS) V with
    C = q cos(tw) q^T and S = q sin(tw) q^T, and entry (k, l) of this real
    orthogonal matrix is Re(i^(l-k)) C_kl - Im(i^(l-k)) S_kl.
    """
    w, q = eigen
    c = (q * np.cos(t * w)) @ q.T
    s = (q * np.sin(t * w)) @ q.T
    k = np.arange(w.size)
    shift = (k[None, :] - k[:, None]) % 4  # (l - k) mod 4 at (k, l)
    return _RE_POW_I[shift] * c - _IM_POW_I[shift] * s


def _phases(angle: float, dim: int) -> np.ndarray:
    """e^{i (m - n) angle} at (m, n): conjugation by diag(e^{i n angle}), 1 on the diagonal.

    A read-only Toeplitz view of the 2 dim - 1 distinct values: row m holds
    v[dim - 1 - m + n] with v[j] = e^{i (dim - 1 - j) angle}.
    """
    v = np.exp(1j * angle * np.arange(dim - 1, -dim, -1))
    return sliding_window_view(v, dim)[::-1]


def _squeeze_blocks(r: float, dim: int) -> list[np.ndarray]:
    """Real orthogonal exp[(r/2)(a^dag^2 - a^2)] on the even and odd levels."""
    return [_orthogonal_core(eigen, 0.5 * r) for eigen in _squeeze_eigen(dim)]


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    if nbar <= 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    ratio = nbar / (nbar + 1.0)
    return ratio ** np.arange(dim) / (nbar + 1.0)


def adequate_dim(p: GaussianParams) -> int:
    """Truncation heuristic: grows with thermal, squeeze, and displacement energy."""
    energy = p.nbar + math.sinh(p.r) ** 2 + abs(p.alpha) ** 2
    return int(math.ceil(20.0 + 8.0 * energy))


def boundary_mass(op: FockOperator) -> float:
    """Occupancy of the top Fock levels; signals an inadequate truncation.

    The squeeze and displacement exponentials are unitary on the truncated
    space, so the trace deficit alone cannot see their truncation error;
    weight piling up at the cutoff can.
    """
    window = max(4, op.dim // 16)
    return float(np.sum(np.diagonal(op.matrix).real[-window:]))


_STATES: OrderedDict[tuple, FockOperator] = OrderedDict()


def _state_at(p: GaussianParams, dim: int) -> FockOperator:
    """The state at truncation ``dim``, from a least-recently-used cache.

    The cache holds at most MAX_CACHED_STATES states and MAX_CACHED_BYTES,
    counting each state twice (its matrix plus its cached fidelity factor),
    and always keeps the newest state.
    """
    key = (p.gamma, p.s, p.theta, p.alpha_x, p.alpha_y, dim)
    op = _STATES.get(key)
    if op is not None:
        _STATES.move_to_end(key)
        return op
    op = _STATES[key] = _build_fixed(p, dim)
    while len(_STATES) > 1:
        count, size = state_cache_info()
        if count <= MAX_CACHED_STATES and size <= MAX_CACHED_BYTES:
            break
        _STATES.popitem(last=False)
    return op


def state_cache_info() -> tuple[int, int]:
    """(states, bytes) held by the state cache, bytes counted as it bounds them."""
    return len(_STATES), sum(2 * o.matrix.nbytes for o in _STATES.values())


def auto_state(p: GaussianParams, min_dim: int = 0) -> FockOperator:
    """The state at the truncation where it is numerically adequate.

    Starts from the energy heuristic (at least ``min_dim``) and doubles until
    both the trace deficit and the boundary occupancy are negligible.  Every
    candidate goes through the state cache, so asking again returns the
    operator built the first time.
    """
    d = max(adequate_dim(p), min_dim, 4)
    while True:
        op = _state_at(p, d)
        if op.leakage < AUTO_LEAKAGE_TOL and boundary_mass(op) < BOUNDARY_TOL:
            return op
        if d >= MAX_AUTO_DIM:
            raise TruncationError(
                f"state needs dim > {MAX_AUTO_DIM} (leakage {op.leakage:.3g}, "
                f"boundary mass {boundary_mass(op):.3g} at dim {d})"
            )
        d = min(2 * d, MAX_AUTO_DIM)


def build_state(p: GaussianParams, dim: int | None = None) -> FockOperator:
    """Density matrix of a displaced squeezed thermal state.

    rho = D S rho_T S^dag D^dag with rho_T the diagonal thermal state and
    D, S exponentials of the truncated generators.  With ``dim=None`` the
    truncation is grown automatically (see ``auto_state``); an explicit
    ``dim`` raises TruncationError when leakage exceeds 1e-6.
    """
    if dim is None:
        return auto_state(p)
    op = _state_at(p, dim)
    if op.leakage > LEAKAGE_TOL:
        raise TruncationError(
            f"truncation dim={dim} inadequate: leakage {op.leakage:.3g} > {LEAKAGE_TOL}"
        )
    return op


def _build_fixed(p: GaussianParams, dim: int) -> FockOperator:
    """D S rho_T S^dag D^dag, the real orthogonal cores applied in real arithmetic.

    With S = U_theta K_s U_theta^dag and D = U_phi K_d U_phi^dag (phi = arg
    alpha), rho = U_phi K_d Z K_d^T U_phi^dag where Z = U_{theta-phi} K_s
    rho_T K_s^T U_{theta-phi}^dag.  The phases multiply entries (m, n) by
    e^{i(m-n) angle}, so the diagonal, and hence the trace, never leaves real
    arithmetic.
    """
    w = thermal_weights(p.nbar, dim)
    if p.s == 1.0:
        core = np.diag(w)
    else:
        core = np.zeros((dim, dim))
        for parity, k in enumerate(_squeeze_blocks(p.r, dim)):
            core[parity::2, parity::2] = (k * w[parity::2]) @ k.T
    if p.alpha == 0.0:
        return FockOperator(_phases(p.theta, dim) * core)
    phi = math.atan2(p.alpha_y, p.alpha_x)
    k = _orthogonal_core(_displacement_eigen(dim), abs(p.alpha))
    if p.s == 1.0:
        inner = (k * w) @ k.T
    else:
        z = _phases(p.theta - phi, dim) * core
        inner = k @ z.real @ k.T + 1j * (k @ z.imag @ k.T)
    return FockOperator(_phases(phi, dim) * inner)


def fidelity_fock(a: FockOperator, b: FockOperator) -> float:
    """tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) via Hermitian eigendecompositions.

    With rho_i = L_i L_i^dag (``FockOperator.factor``, cached per operator),
    the fidelity is the trace norm of L1^dag L2: the sum of its singular
    values, which roundoff moves by eps rather than by sqrt(eps) as it does
    the eigenvalues of the sandwich product.  Operators of different
    truncations (``build_state`` picks one per state) compare in the larger
    space, where the smaller factor has zero rows past its dim, so only the
    first min(dim) rows of each factor enter.
    """
    rows = min(a.dim, b.dim)
    overlap = a.factor[:rows].conj().T @ b.factor[:rows]
    return float(np.sum(np.linalg.svd(overlap, compute_uv=False)))


def hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_{count-1} on ``x`` (stable recurrence)."""
    x = np.asarray(x, dtype=float)
    h = np.zeros((count, x.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, count):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1.0) / n) * h[n - 2]
    return h


def quadrature_wavefunctions(count: int, grid: np.ndarray) -> np.ndarray:
    """X_0 eigenfunctions psi_n(x) = 2^{1/4} h_n(sqrt(2) x) (vacuum variance 1/4)."""
    return 2.0**0.25 * hermite_functions(count, math.sqrt(2.0) * np.asarray(grid, dtype=float))


def quadrature_moments(a: FockOperator, phi: float) -> tuple[float, float]:
    """Mean and variance of X_phi computed directly from the density matrix.

    X_phi = (a e^{-i phi} + a^dag e^{i phi})/2 with the truncated a, so only
    two sub-diagonals and the diagonal of rho enter, in O(dim):
    <a> = sum_n sqrt(n) rho_{n,n-1}, <a^2> = sum_n sqrt(n(n-1)) rho_{n,n-2},
    and the truncated a a^dag + a^dag a is diag(2n + 1) except at the top
    level, where a a^dag is 0.
    """
    rho = a.matrix
    n = np.arange(a.dim, dtype=float)
    mean_a = np.dot(np.sqrt(n[1:]), np.diagonal(rho, -1))
    mean_a2 = np.dot(np.sqrt(n[2:] * n[1:-1]), np.diagonal(rho, -2))
    number = 2.0 * n + 1.0
    number[-1] = n[-1]
    mean = (np.exp(-1j * phi) * mean_a).real
    second = 0.25 * (2.0 * (np.exp(-2j * phi) * mean_a2).real + np.dot(number, np.diagonal(rho).real))
    return float(mean), float(second - mean * mean)


def marginal_fock(
    a: FockOperator, phi: float, grid: np.ndarray, wavefunctions: np.ndarray | None = None
) -> np.ndarray:
    """Homodyne outcome density on ``grid`` from the number-basis state.

    p(x) = sum_mn rho_mn e^{-i(m-n)phi} psi_m(x) psi_n(x) with psi_n the
    quadrature wavefunctions (``quadrature_wavefunctions``; pass a table with
    at least ``a.dim`` rows to reuse one).  The psi_n are real and the
    imaginary part of the rotated rho is antisymmetric, so only its real
    part enters, through one real matrix product.  Raises TruncationError
    when the grid mass falls short of 1 by more than 1e-5.
    """
    grid = np.asarray(grid, dtype=float)
    if wavefunctions is None:
        wavefunctions = quadrature_wavefunctions(a.dim, grid)
    h = wavefunctions[: a.dim]
    rho_rot = (_phases(-phi, a.dim) * a.matrix).real
    density = np.einsum("mk,mk->k", h, rho_rot @ h)
    mass = float(np.trapezoid(density, grid))
    if abs(1.0 - mass) > 1e-5:
        raise TruncationError(
            f"marginal mass {mass:.8f} deviates from 1; enlarge dim or grid"
        )
    return density


def default_overlap_grid(a: FockOperator, b: FockOperator, phi: float) -> np.ndarray:
    """Shared grid of 4001 points spanning 12 standard deviations around both marginals."""
    stats = [quadrature_moments(op, phi) for op in (a, b)]
    lo = min(m - 12.0 * math.sqrt(max(v, 1e-12)) for m, v in stats)
    hi = max(m + 12.0 * math.sqrt(max(v, 1e-12)) for m, v in stats)
    return np.linspace(lo, hi, 4001)


def overlap_fock(a: FockOperator, b: FockOperator, phi: float) -> float:
    """Bhattacharyya overlap of the two homodyne marginals (trapezoidal)."""
    grid = default_overlap_grid(a, b, phi)
    table = quadrature_wavefunctions(max(a.dim, b.dim), grid)
    pa = np.clip(marginal_fock(a, phi, grid, table), 0.0, None)
    pb = np.clip(marginal_fock(b, phi, grid, table), 0.0, None)
    return float(np.trapezoid(np.sqrt(pa * pb), grid))
