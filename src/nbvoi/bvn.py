"""Normal-distribution kernels: univariate pdf/cdf, bivariate normal CDF,
and the expectation of the zero-floored maximum of a bivariate normal pair.

The bivariate CDF follows the Drezner-Wesolowsky construction as organized
by Genz (the widely used ``bvnl``/``bvnu`` routine): Gauss-Legendre
quadrature over a transformed correlation parameter for moderate |rho|, and
a separate expansion for |rho| > 0.925.  Deterministic, absolute error well
below 1e-10 over the whole parameter range.

``e_max_zero_bvn`` evaluates E[max(0, X, Y)] exactly in terms of normal
pdfs/cdfs and the bivariate CDF, by splitting the event space on which
component is the positive maximum:

    E[max(0,X,Y)] = mu1*P(X is positive max) + sigma1*T1
                  + mu2*P(Y is positive max) + sigma2*T2,

where T1, T2 are first moments of the standardized components over the
corresponding truncation regions (Tallis-type truncated-normal moments).

The kernel is array-valued: ``_bvn_upper`` and ``_emax_pfirst`` work
elementwise on arrays (one entry per threshold of a grid), with every
branch of the scalar algorithm a mask.  P(X is positive max) is the
bivariate-CDF term E[max] already needs, so ``_emax_pfirst`` returns both
quantities from two bivariate-CDF evaluations per entry.  The public scalar
functions are one-element calls into the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import InputError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Gauss-Legendre abscissae/weights on the half interval, by point count.
_GL_RULES = {
    6: (
        np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970]),
        np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
    ),
    12: (
        np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
                  0.5873179542866171, 0.3678314989981802, 0.1252334085114692]),
        np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
                  0.2031674267230659, 0.2334925365383547, 0.2491470458134029]),
    ),
    20: (
        np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                  0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                  0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                  0.07652652113349733]),
        np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
                  0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
                  0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                  0.1527533871307259]),
    ),
}
# Full-interval nodes and weights on [0, 2], by point count.
_GL_NODES = {
    n: (np.concatenate([1.0 - xg, 1.0 + xg]), np.concatenate([wg, wg]))
    for n, (xg, wg) in _GL_RULES.items()
}
# Point count by |r| band below the high-correlation expansion.
_GL_BANDS = ((0.3, 6), (0.75, 12), (0.925, 20))


def std_normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF, accurate to better than 1e-15 for |x| <= 8."""
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
    h, k, r = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (h, k, r)))
    out = np.zeros(h.shape)
    pos_inf = np.isposinf(h) | np.isposinf(k)
    h_inf = np.isneginf(h) & ~pos_inf
    k_inf = np.isneginf(k) & ~pos_inf & ~h_inf
    out[h_inf] = ndtr(-k[h_inf])
    out[k_inf] = ndtr(-h[k_inf])
    finite = ~(pos_inf | h_inf | k_inf)
    indep = finite & (r == 0.0)
    out[indep] = ndtr(-h[indep]) * ndtr(-k[indep])

    general = finite & ~indep
    ar = np.abs(r)
    lower = 0.0
    for upper, points in _GL_BANDS:
        band = general & (ar >= lower) & (ar < upper)
        if band.any():
            out[band] = _bvn_gauss_legendre(h[band], k[band], r[band], points)
        lower = upper
    high = general & (ar >= lower)
    if high.any():
        out[high] = _bvn_high_correlation(h[high], k[high], r[high])
    # min(1, max(0, p)) on the quadrature results; the limits are in [0, 1].
    out[general] = np.where(out[general] > 0.0, out[general], 0.0)
    out[general] = np.where(out[general] < 1.0, out[general], 1.0)
    return out


def _bvn_gauss_legendre(h, k, r, points):
    """Gauss-Legendre branch of :func:`_bvn_upper` for 0 < |r| < 0.925."""
    x, w = _GL_NODES[points]
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = 0.5 * np.arcsin(r)
    sn = np.sin(asr[:, None] * x)
    bvn = np.sum(w * np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn)), axis=1)
    return bvn * asr / (2.0 * math.pi) + ndtr(-h) * ndtr(-k)


def _bvn_high_correlation(h, k, r):
    """Expansion branch of :func:`_bvn_upper` for |r| >= 0.925."""
    x, w = _GL_NODES[20]
    neg = r < 0.0
    k = np.where(neg, -k, k)
    hk = h * k
    bvn = np.zeros(h.shape)
    part = np.abs(r) < 1.0
    if part.any():
        bvn[part] = _bvn_expansion(h[part], k[part], hk[part], r[part], x, w)
    pos = r > 0.0
    bvn[pos] += ndtr(-np.maximum(h[pos], k[pos]))
    bvn[neg] = -bvn[neg]
    swap = neg & (k > h)
    bvn[swap] += ndtr(k[swap]) - ndtr(h[swap])
    return bvn


def _bvn_expansion(h, k, hk, r, x, w):
    """The |r| < 1 series of the high-correlation branch (k, hk already
    reflected for r < 0), with its three underflow cut-offs."""
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -0.5 * (bs / a_sq + hk)
    bvn = np.zeros(h.shape)
    i = asr0 > -100.0
    bvn[i] = (a[i] * np.exp(asr0[i])
              * (1.0 - c[i] * (bs[i] - a_sq[i]) * (1.0 - d[i] * bs[i] / 5.0) / 3.0
                 + c[i] * d[i] * a_sq[i] * a_sq[i] / 5.0))
    i = -hk < 100.0
    b = np.sqrt(bs[i])
    bvn[i] -= (np.exp(-0.5 * hk[i]) * _SQRT_2PI * ndtr(-b / a[i])
               * b * (1.0 - c[i] * bs[i] * (1.0 - d[i] * bs[i] / 5.0) / 3.0))
    half_a = 0.5 * a
    xs = (half_a[:, None] * x) ** 2
    asr1 = -0.5 * (bs[:, None] / xs + hk[:, None])
    row, node = np.nonzero(asr1 > -100.0)
    xs_m = xs[row, node]
    rs = np.sqrt(1.0 - xs_m)
    sp = 1.0 + c[row] * xs_m * (1.0 + d[row] * xs_m)
    ep = np.exp(-0.5 * hk[row] * (1.0 - rs) / (1.0 + rs)) / rs
    terms = np.zeros(xs.shape)
    terms[row, node] = half_a[row] * w[node] * np.exp(asr1[row, node]) * (ep - sp)
    bvn += terms.sum(axis=1)
    return -bvn / (2.0 * math.pi)


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
    t = (mu - floor) / sigma
    return floor + sigma * std_normal_pdf(t) + (mu - floor) * ndtr(t)


def _emax_pfirst(mu1, mu2, s1, s2, rho) -> tuple[np.ndarray, np.ndarray]:
    """``(E[max(0, X, Y)], P(X > 0 and X > Y))`` elementwise over 1-D arrays
    of bivariate normal parameters (see :func:`e_max_zero_bvn` and
    :func:`p_first_positive_max`).

    Each quantity keeps its own degenerate cases; in the general case both
    read the same bivariate-CDF term.
    """
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
