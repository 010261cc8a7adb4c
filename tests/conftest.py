import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from gdist import GaussianParams

from crosscheck import marginal


#: Pairs whose minimum sits in an O(1/s)-wide dip that the companion route
#: misses (ROADMAP item 4), with the scan's minimum to five digits.
NARROW_DIPS = [
    (
        GaussianParams(10980.992451385395, 25952.16618092773, 1.7600460852100195),
        GaussianParams(
            883.7134905822842, 415323.17449125135, 1.760340029573342,
            15.034650859676063, -2.997515493122865,
        ),
        7.3504e-7,
    ),
    (
        GaussianParams(18746.572764795175, 129651.15232405992, 0.12294704653722477),
        GaussianParams(
            2330905.4762807237, 577.9328807784085, 0.12449945374319407,
            136.75987945950203, 377.0388208188118,
        ),
        6.9909e-10,
    ),
    (
        GaussianParams(274298.8321715332, 540.2009226334444, 1.4827519397507465),
        GaussianParams(
            860.5061702465837, 203320.94956285803, 1.4819151157079533,
            -179.44211465687434, 429.3584705521017,
        ),
        4.4319e-37,
    ),
]


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
