"""Normal-distribution kernels: univariate pdf/cdf, bivariate normal CDF,
and the expectation of the zero-floored maximum of a bivariate normal pair.

The bivariate CDF is Owen's identity in his T function (Owen 1956, Ann.
Math. Statist. 27; T is ``scipy.special.owens_t``, after Patefield and
Tandy 2000, J. Stat. Softw. 5).  For standard normals with correlation
|r| < 1, with s = sqrt(1 - r^2), a = (y - r x) / (x s) and
b = (x - r y) / (y s),

    P(X < x, Y < y) = Phi(x)/2 + Phi(y)/2 - T(x, a) - T(y, b) - beta,

with beta = 1/2 when x and y lie on opposite sides of 0 (0 counting as
nonnegative) and 0 otherwise.  The special cases: x = 0 (or y = 0) makes
a (or b) +-inf in the sign of its numerator, whatever the sign of the zero;
x = y = 0 gives 1/4 + asin(r)/(2 pi); r = +-1 and infinite limits use their
closed forms.  The numerators are computed as (y - x) + (1 - r) x for
r >= 0 and (y + x) - (1 + r) x for r < 0: near |r| = 1 the direct y - r x
cancels and amplifies the rounding of r x, by up to 1e-11 in absolute
error at 1 - |r| = 1e-12.  Absolute error near machine precision over the
whole parameter range.

``e_max_zero_bvn`` evaluates E[max(0, X, Y)] exactly in terms of normal
pdfs/cdfs and the bivariate CDF, by splitting the event space on which
component is the positive maximum:

    E[max(0,X,Y)] = mu1*P(X is positive max) + sigma1*T1
                  + mu2*P(Y is positive max) + sigma2*T2,

where T1, T2 are first moments of the standardized components over the
corresponding truncation regions (Tallis-type truncated-normal moments).

The kernel is array-valued: ``_bvn_upper`` and ``_emax_pfirst`` work
elementwise on arrays (one entry per threshold of a grid), with every
special case a mask.  P(X is positive max) is the bivariate-CDF term
E[max] already needs, so ``_emax_pfirst`` returns both quantities from two
bivariate-CDF evaluations per entry.  The public scalar functions are
one-element calls into the same code.

``scipy.special`` (``ndtr``, ``owens_t``) is imported inside each function
that calls it.  Importing this module loads no scipy; the asymptotic EVPI
route loads it at its first kernel call, and the bootstrap routes, which
never call these kernels, not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

def std_normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF, accurate to better than 1e-15 for |x| <= 8."""
    from scipy.special import ndtr

    out = ndtr(x)
    return float(out) if np.ndim(x) == 0 else out


def _max(a, b):
    """Elementwise ``max(a, b)`` with Python's tie rule (keep ``a``):
    ``np.maximum(0.0, -0.0)`` may return -0.0, ``max(0.0, -0.0)`` is 0.0."""
    return np.where(b > a, b, a)


def _check_params(mu1, mu2, sigma1, sigma2, rho):
    """The checks of :class:`BvnParams`, over scalars or arrays."""
    for name, v in zip(("mu1", "mu2", "sigma1", "sigma2", "rho"), (mu1, mu2, sigma1, sigma2, rho)):
        if not np.all(np.isfinite(v)):
            raise InputError(f"BvnParams.{name} must be finite")
    if np.any(np.less(sigma1, 0)) or np.any(np.less(sigma2, 0)):
        raise InputError("standard deviations must be nonnegative")
    if np.any(np.abs(rho) > 1):
        raise InputError("correlation must lie in [-1, 1]")


@dataclass(frozen=True)
class BvnParams:
    """Parameters of a bivariate normal pair (means, stds, correlation)."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        _check_params(self.mu1, self.mu2, self.sigma1, self.sigma2, self.rho)


def _bvn_upper(h, k, r) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normals with correlation r,
    elementwise over 1-D arrays (broadcast together)."""
    from scipy.special import ndtr

    h, k, r = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (h, k, r)))
    out = np.zeros(h.shape)
    pos_inf = np.isposinf(h) | np.isposinf(k)
    h_inf = np.isneginf(h) & ~pos_inf
    k_inf = np.isneginf(k) & ~pos_inf & ~h_inf
    out[h_inf] = ndtr(-k[h_inf])
    out[k_inf] = ndtr(-h[k_inf])
    finite = ~(pos_inf | h_inf | k_inf)
    i = finite & (r == 1.0)
    out[i] = ndtr(-np.maximum(h[i], k[i]))
    i = finite & (r == -1.0)
    out[i] = np.maximum(0.0, ndtr(-h[i]) - ndtr(k[i]))
    inner = finite & (np.abs(r) < 1.0)
    origin = inner & (h == 0.0) & (k == 0.0)
    out[origin] = 0.25 + np.arcsin(r[origin]) / (2.0 * math.pi)
    i = inner & ~origin
    out[i] = _owen_lower(-h[i], -k[i], r[i])
    # min(1, max(0, p)), which also turns -0.0 into 0.0.
    out = np.where(out > 0.0, out, 0.0)
    return np.where(out < 1.0, out, 1.0)


def _owen_lower(x, y, r):
    """P(X < x, Y < y) by Owen's identity, for |r| < 1 and (x, y) != (0, 0)."""
    from scipy.special import ndtr, owens_t

    s = np.sqrt((1.0 - r) * (1.0 + r))
    # y - r*x as (y - x) + (1 - r)*x for r >= 0 and (y + x) - (1 + r)*x for
    # r < 0 (likewise x - r*y), so that the rounding of r*x is not amplified
    # by the cancellation near |r| = 1.
    sign = np.where(r >= 0.0, 1.0, -1.0)
    d = sign - r
    beta = np.where((x < 0.0) != (y < 0.0), 0.5, 0.0)
    return (0.5 * ndtr(x) + 0.5 * ndtr(y) - beta
            - owens_t(x, _slope((y - sign * x) + d * x, x, s))
            - owens_t(y, _slope((x - sign * y) + d * y, y, s)))


def _slope(num, x, s):
    """Owen's ``a = num / (x * s)``, read as +-inf in the sign of ``num``
    where ``x`` is zero, whatever the sign of that zero."""
    a = np.copysign(np.inf, num)
    i = x != 0.0
    a[i] = num[i] / (x[i] * s[i])
    return a


def bvn_cdf(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard bivariate normal with correlation rho.

    ``a`` and ``b`` may be +-inf.  Absolute error below 1e-10 (in practice
    near machine precision).
    """
    if not -1.0 <= rho <= 1.0:
        raise InputError("correlation must lie in [-1, 1]")
    return float(_bvn_upper(-a, -b, rho)[0])


def _step_cdf(num, den):
    """Phi(num/den) for den >= 0, with den == 0 read as the limit (a step)."""
    from scipy.special import ndtr

    out = np.where(num > 0.0, 1.0, np.where(num == 0.0, 0.5, 0.0))
    i = den > 0.0
    out[i] = ndtr(num[i] / den[i])
    return out


def _z_moment(h, k, rho):
    """E[Z1 * 1{Z1 > h, Z2 > k}] for standard bivariate normal."""
    s = np.sqrt(_max(0.0, 1.0 - rho * rho))
    return (std_normal_pdf(h) * _step_cdf(rho * h - k, s)
            + rho * std_normal_pdf(k) * _step_cdf(rho * k - h, s))


def _e_max_floor_normal(mu, sigma, floor):
    """E[max(floor, X)] for X ~ Normal(mu, sigma), sigma > 0."""
    from scipy.special import ndtr

    t = (mu - floor) / sigma
    return floor + sigma * std_normal_pdf(t) + (mu - floor) * ndtr(t)


def _emax_pfirst(mu1, mu2, s1, s2, rho) -> tuple[np.ndarray, np.ndarray]:
    """``(E[max(0, X, Y)], P(X > 0 and X > Y))`` elementwise over 1-D arrays
    of bivariate normal parameters (see :func:`e_max_zero_bvn` and
    :func:`p_first_positive_max`).

    Each quantity keeps its own degenerate cases; in the general case both
    read the same bivariate-CDF term.
    """
    from scipy.special import ndtr

    mu1, mu2, s1, s2, rho = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (mu1, mu2, s1, s2, rho)))
    theta_sq = s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2
    flat = theta_sq <= 0.0  # X - Y is a point mass
    s1_zero, s2_zero = s1 == 0.0, s2 == 0.0

    # E[max]: point masses and one-sided cases reduce to univariate forms.
    lower = _max(_max(0.0, mu1), mu2)
    emax = lower.copy()
    i = s2_zero & ~s1_zero
    emax[i] = _e_max_floor_normal(mu1[i], s1[i], _max(0.0, mu2[i]))
    i = s1_zero & ~s2_zero
    emax[i] = _e_max_floor_normal(mu2[i], s2[i], _max(0.0, mu1[i]))
    both = ~s1_zero & ~s2_zero
    i = both & flat & (mu1 >= mu2)
    emax[i] = _e_max_floor_normal(mu1[i], s1[i], 0.0)
    i = both & flat & ~(mu1 >= mu2)
    emax[i] = _e_max_floor_normal(mu2[i], s2[i], 0.0)

    # P(first): with sigma1 = 0 the first component is a point mass.
    pfirst = np.zeros(mu1.shape)
    i = s1_zero & (mu1 > 0.0) & s2_zero
    pfirst[i] = np.where(mu1[i] > mu2[i], 1.0, 0.0)
    i = s1_zero & (mu1 > 0.0) & ~s2_zero
    pfirst[i] = ndtr((mu1[i] - mu2[i]) / s2[i])
    i = ~s1_zero & flat & ~(mu1 < mu2)
    pfirst[i] = ndtr(mu1[i] / s1[i])

    # General case of P(first), which includes sigma2 = 0 (r1 = 1).
    g = ~s1_zero & ~flat
    theta = np.sqrt(theta_sq[g])
    m1, m2, t1, t2, rg = mu1[g], mu2[g], s1[g], s2[g], rho[g]
    h1 = -m1 / t1
    k1 = -(m1 - m2) / theta
    r1 = np.clip((t1 - rg * t2) / theta, -1.0, 1.0)
    first = _bvn_upper(h1, k1, r1)
    pfirst[g] = first

    # General case of E[max]: both sigmas positive.
    e = ~s2_zero[g]
    m1, m2, t1, t2, rg, theta = m1[e], m2[e], t1[e], t2[e], rg[e], theta[e]
    h1, k1, r1 = h1[e], k1[e], r1[e]
    h2 = -m2 / t2
    k2 = -(m2 - m1) / theta
    r2 = np.clip((t2 - rg * t1) / theta, -1.0, 1.0)
    val = (m1 * first[e] + t1 * _z_moment(h1, k1, r1)
           + m2 * _bvn_upper(h2, k2, r2) + t2 * _z_moment(h2, k2, r2))
    i = np.flatnonzero(g)[e]
    emax[i] = _max(val, lower[i])
    return emax, pfirst


def e_max_zero_bvn(p: BvnParams) -> float:
    """E[max(0, X, Y)] for (X, Y) bivariate normal with parameters ``p``.

    Exact in normal pdf/cdf and bivariate-CDF terms; degenerate components
    (zero variance, |rho| = 1 with equal variances) reduce to univariate
    closed forms.  The result is floored at max(0, mu1, mu2), its exact
    lower bound.
    """
    return float(_emax_pfirst(p.mu1, p.mu2, p.sigma1, p.sigma2, p.rho)[0][0])


def p_first_positive_max(p: BvnParams) -> float:
    """P(X > 0 and X > Y) for (X, Y) bivariate normal with parameters ``p``.

    The probability that the first component is the strict maximum of
    {0, X, Y}.  Degenerate components are handled as point masses.
    """
    return float(_emax_pfirst(p.mu1, p.mu2, p.sigma1, p.sigma2, p.rho)[1][0])
