import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from gdist import GaussianParams

from crosscheck import marginal


def random_params(rng, gamma_hi=6.0, s_hi=8.0, mean_scale=0.0):
    """One random physical state; mean components in [-mean_scale, mean_scale]."""
    gamma = rng.uniform(1.0, gamma_hi)
    s = rng.uniform(1.0, s_hi)
    theta = rng.uniform(0.0, math.pi)
    ax = ay = 0.0
    if mean_scale:
        ax, ay = rng.uniform(-mean_scale, mean_scale, size=2)
    return GaussianParams(gamma, s, theta, ax, ay)


def matmul_covariance(p):
    """R(theta) diag(gamma s, gamma/s) R(theta)^T by numpy matmul, as the seed built it."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([p.gamma * p.s, p.gamma / p.s]) @ rot.T


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def quadrature_overlap(p1, p2, phi):
    """Independent Bhattacharyya overlap: adaptive quadrature of sqrt(p1 p2)."""
    m1 = marginal(p1, phi)
    m2 = marginal(p2, phi)
    spread = max(math.sqrt(m1.variance), math.sqrt(m2.variance))
    lo = min(m1.mean_along, m2.mean_along) - 12.0 * spread
    hi = max(m1.mean_along, m2.mean_along) + 12.0 * spread
    val, err = quad(
        lambda x: math.sqrt(m1.density(x) * m2.density(x)),
        lo,
        hi,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-11
    return val


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
