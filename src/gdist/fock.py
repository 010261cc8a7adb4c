"""Truncated Fock-space oracle.

Rebuilds the states in a photon-number basis and recomputes fidelity,
homodyne marginals, and overlaps from first principles (operator
exponentials, singular values, quadrature wavefunctions).  No Gaussian
closed form is reused, so these routines serve as an independent check on
the rest of the package.  Each state is held as the exact square root
L = D S sqrt(rho_T) of rho = D S rho_T S^dag D^dag = L L^dag, so no state is
eigendecomposed (a marginal forms the real part of the rotated rho).  Marginals
are sampled on one grid per truncation, cached with its Hermite table.
``auto_states`` holds a pair at the first adequate rung of ``LADDER``, no build
exceeds its last rung, and each per-dim cache below holds one entry per rung.

The squeeze and displacement exponentials are exact exponentials of the
truncated generators, taken through eigendecompositions computed once per
dimension instead of scaling-and-squaring.  Both generators are phase
conjugations of real antisymmetric tridiagonal matrices: with U = diag(e^{in
theta}), U (a^dag - a) U^dag = e^{i theta} a^dag - e^{-i theta} a, and
a^dag^2 - a^2 splits into even and odd parity blocks of the same shape.  Each
such matrix A is i V^dag T V with V = diag(i^k) and T real symmetric
tridiagonal, so exp(tA) follows from the eigenpairs of T in real arithmetic.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import TruncationError
from .states import GaussianParams

LADDER = (150, 300, 600, 1024)
LEAKAGE_TOL = 1e-6
BOUNDARY_TOL = 1e-10
#: Thermal components lighter than this, relative to the heaviest, are left
#: out of a state's factor; each moves F or an overlap by about sqrt(1e-20).
WEIGHT_FLOOR = 1e-20


class FockOperator:
    """A state in a truncated number basis as its factor L (dim x rank), rho = L L^dag.

    Positive semidefinite by construction; ``matrix`` is formed on first read; compares by identity.
    """

    def __init__(self, factor):
        f = np.ascontiguousarray(factor, dtype=complex)
        if f.ndim != 2:
            raise ValueError(f"factor must be a matrix, got shape {f.shape}")
        f.setflags(write=False)
        self.factor = f

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @cached_property
    def populations(self) -> np.ndarray:
        """Diagonal of rho: the squared row norms of the factor."""
        return np.square(self.factor.view(float)).sum(axis=1)

    @property
    def leakage(self) -> float:
        """Probability lost past the truncation (1 - trace, for states)."""
        return 1.0 - float(np.sum(self.populations))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense density matrix L L^dag."""
        m = self.factor @ self.factor.conj().T
        m.setflags(write=False)
        return m


def _tridiagonal_eigen(offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, q) of the real symmetric tridiagonal with zero diagonal.

    ``eigh`` reads the lower triangle, which holds the whole tridiagonal.  Row k
    of q is signed by (-1)^(k//2), as ``_orthogonal_core`` needs.
    """
    w, q = np.linalg.eigh(np.diag(offdiag, -1))
    q *= (-1.0) ** (np.arange(w.size) // 2)[:, None]
    w.setflags(write=False)
    q.setflags(write=False)
    return w, q


@lru_cache(maxsize=len(LADDER))
def _displacement_eigen(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a + a^dag, the tridiagonal image of a^dag - a."""
    return _tridiagonal_eigen(np.sqrt(np.arange(1.0, dim)))


@lru_cache(maxsize=len(LADDER))
def _squeeze_eigen(dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs for the even and odd blocks of a^dag^2 - a^2 (levels parity::2)."""
    blocks = []
    for parity in range(min(2, dim)):
        n = np.arange(parity, dim - 2, 2, dtype=float)
        blocks.append(_tridiagonal_eigen(np.sqrt((n + 1.0) * (n + 2.0))))
    return tuple(blocks)


def _orthogonal_core(eigen: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(tA) for A real antisymmetric tridiagonal with A[k+1, k] = e_k > 0.

    A = i V^dag T V with T the symmetric tridiagonal on e and V = diag(i^k),
    so exp(tA) = V^dag q e^{itw} q^T V with (w, q) the eigenpairs of T, and
    its entry (k, l) is Re(i^(l-k) (q e^{itw} q^T)_kl).  With the rows of q
    signed by (-1)^(k//2), as ``eigen`` holds them, that is (q cos(tw) q^T)_kl
    when k and l share their parity, -(q sin(tw) q^T)_kl for k even and l
    odd, and +(q sin(tw) q^T)_kl for k odd and l even.
    """
    w, q = eigen
    cos, sin = np.cos(t * w), np.sin(t * w)
    out = np.empty((w.size, w.size))
    for rows, cols, trig in ((0, 0, cos), (1, 1, cos), (0, 1, -sin), (1, 0, sin)):
        out[rows::2, cols::2] = (q[rows::2] * trig) @ q[cols::2].T
    return out


def _row_phases(angle: float, dim: int) -> np.ndarray:
    """diag(e^{i n angle}) as a column, to multiply the rows of a factor."""
    return np.exp(1j * angle * np.arange(dim))[:, None]


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    ratio = nbar / (nbar + 1.0)
    return ratio ** np.arange(dim) / (nbar + 1.0)


def boundary_mass(op: FockOperator) -> float:
    """Occupancy of the top Fock levels; signals an inadequate truncation.

    The squeeze and displacement exponentials are unitary on the truncated
    space, so the trace deficit alone cannot see their truncation error;
    weight piling up at the cutoff can.  Near-uniform populations escape it: a
    thermal state with gamma ~ 2e11 has boundary mass below ``BOUNDARY_TOL`` at
    dim 150 yet leakage near 1, so ``auto_states`` tests the trace deficit too.
    """
    window = max(4, op.dim // 16)
    return float(np.sum(op.populations[-window:]))


def auto_states(*params: GaussianParams) -> list[FockOperator]:
    """The states at the first dim of ``LADDER`` where every one is numerically adequate.

    Adequate means a trace deficit below ``LEAKAGE_TOL`` and a boundary
    occupancy below ``BOUNDARY_TOL``.  A state found short moves all of them up
    a rung; past the last rung TruncationError names the first state still short.
    """
    for dim in LADDER:
        ops = []
        for p in params:
            op = _build_fixed(p, dim)
            if not (op.leakage < LEAKAGE_TOL and boundary_mass(op) < BOUNDARY_TOL):
                break
            ops.append(op)
        else:
            return ops
    raise TruncationError(
        f"{p!r} needs dim > {dim} (leakage {op.leakage:.3g}, "
        f"boundary mass {boundary_mass(op):.3g})"
    )


def build_state(p: GaussianParams, dim: int) -> FockOperator:
    """A displaced squeezed thermal state at truncation ``dim``.

    rho = D S rho_T S^dag D^dag with rho_T the diagonal thermal state and
    D, S exponentials of the truncated generators.  Raises ValueError for
    dim outside 1..``LADDER[-1]``, before allocating anything, and
    TruncationError when leakage exceeds ``LEAKAGE_TOL``; ``auto_states`` grows
    the truncation instead.
    """
    if not 1 <= dim <= LADDER[-1]:
        raise ValueError(f"truncation dim must be at least 1 and at most {LADDER[-1]}, got {dim}")
    op = _build_fixed(p, dim)
    if op.leakage > LEAKAGE_TOL:
        raise TruncationError(
            f"truncation dim={dim} inadequate: leakage {op.leakage:.3g} > {LEAKAGE_TOL}"
        )
    return op


def _build_fixed(p: GaussianParams, dim: int) -> FockOperator:
    """The factor L = D S sqrt(rho_T), the orthogonal cores in real arithmetic.

    With S = U_theta K_s U_theta^dag, D = U_phi K_d U_phi^dag (phi = arg
    alpha, U_a = diag(e^{i n a}) multiplying rows), and since U_theta^dag
    commutes with sqrt(rho_T) and a unitary on the right of L leaves L L^dag
    unchanged, L = U_phi K_d U_{theta-phi} K_s sqrt(w).  Only the columns of
    the thermal weights w_n >= WEIGHT_FLOOR w_0 are kept.
    """
    w = thermal_weights(p.nbar, dim)
    root = np.sqrt(w[w >= WEIGHT_FLOOR * w[0]])
    core = np.eye(dim, root.size) * root
    if p.s != 1.0:  # K_s = exp[(r/2)(a^dag^2 - a^2)] on the even and odd levels
        for parity, eigen in enumerate(_squeeze_eigen(dim)):
            cols = root[parity::2]
            core[parity::2, parity::2] = _orthogonal_core(eigen, 0.5 * p.r)[:, : cols.size] * cols
    if p.alpha == 0.0:
        return FockOperator(_row_phases(p.theta, dim) * core)
    phi = math.atan2(p.alpha_y, p.alpha_x)
    z = _row_phases(p.theta - phi, dim) * core
    inner = _orthogonal_core(_displacement_eigen(dim), abs(p.alpha)) @ z.view(float)
    return FockOperator(_row_phases(phi, dim) * inner.view(complex))


def fidelity_fock(a: FockOperator, b: FockOperator) -> float:
    """tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) of two states at one truncation, without eigensolves.

    With rho_i = L_i L_i^dag (``FockOperator.factor``), the fidelity is the
    trace norm of L1^dag L2: the sum of its singular values, which roundoff
    moves by eps rather than by sqrt(eps) as it does the eigenvalues of the
    sandwich product; a non-finite factor raises LinAlgError.
    """
    overlap = a.factor.conj().T @ b.factor
    return float(np.sum(np.linalg.svd(overlap, compute_uv=False)))


def hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_{count-1} on ``x`` (stable three-term recurrence)."""
    x = np.asarray(x, dtype=float)
    h = np.empty((count, x.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, count):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1.0) / n) * h[n - 2]
    return h


@lru_cache(maxsize=len(LADDER))
def _quadrature_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The overlap grid of a ``dim``-level truncation and h_0..h_{dim-1} on sqrt(2) times it.

    A state at this truncation combines psi_0..psi_{dim-1}, so the grid spans
    +-x_max, sqrt(2) x_max = sqrt(2 dim - 1) + 5: five past the turning point of
    h_{dim-1}, where every h_n is below 1e-10 for dim >= 4.  The spacing, at
    most 1/(2 sqrt(dim)), is a factor pi inside the Nyquist spacing of the
    fastest product psi_m psi_n, so the trapezoid rule converges geometrically
    (774 points at dim 150).
    """
    x_max = (math.sqrt(2.0 * dim - 1.0) + 5.0) / math.sqrt(2.0)
    grid = np.linspace(-x_max, x_max, math.ceil(4.0 * x_max * math.sqrt(dim)) + 1)
    table = hermite_functions(dim, math.sqrt(2.0) * grid)
    grid.setflags(write=False)
    table.setflags(write=False)
    return grid, table


def marginal_fock(
    a: FockOperator, phi: float, grid: np.ndarray, hermite: np.ndarray
) -> np.ndarray:
    """Homodyne outcome density on ``grid`` from the number-basis state.

    p(x) = sum_mn G_mn psi_m(x) psi_n(x) with the X_0 eigenfunctions
    psi_n(x) = 2^{1/4} h_n(sqrt(2) x) (vacuum variance 1/4), so ``hermite``
    holds h_n on sqrt(2) ``grid`` (at least ``a.dim`` rows) and the 2^{1/4}
    squared scales the density.  G = Re(rho_mn e^{-i(m-n)phi}) = V V^T with V
    the factor rotated by e^{-i m phi} as 2 rank real columns.  The dense
    product costs dim^2 per point whatever the rank, about 0.8 ms on the
    774-point grid of dim 150 (2-core VM), and its tails can dip below zero by
    roundoff.  Raises TruncationError when the grid mass falls short of 1 by
    more than 1e-5.
    """
    h = hermite[: a.dim]
    v = (_row_phases(-phi, a.dim) * a.factor).view(float)
    density = math.sqrt(2.0) * np.einsum("jk,jk->k", h, (v @ v.T) @ h)
    mass = float(np.trapezoid(density, grid))
    if abs(1.0 - mass) > 1e-5:
        raise TruncationError(f"marginal mass {mass:.8f} deviates from 1; enlarge dim or grid")
    return density


def overlap_fock(a: FockOperator, b: FockOperator, phi: float) -> float:
    """Bhattacharyya overlap of the homodyne marginals of two states at one truncation."""
    grid, table = _quadrature_table(a.dim)
    pa = np.clip(marginal_fock(a, phi, grid, table), 0.0, None)
    pb = np.clip(marginal_fock(b, phi, grid, table), 0.0, None)
    return float(np.trapezoid(np.sqrt(pa * pb), grid))
