"""Normal-distribution kernels: univariate pdf/cdf, bivariate normal CDF,
and the expectation of the zero-floored maximum of a bivariate normal pair.

The univariate CDF ``ndtr`` is the stdlib's ``math.erf``/``math.erfc``,
split as Cephes does: 1/2 + erf(x/sqrt 2)/2 for |x| < 1, and
erfc(|x|/sqrt 2)/2, reflected for x > 0, otherwise, so that neither tail
loses digits to cancellation.

The bivariate upper probability P(X > h, Y > k) for standard normals with
correlation |r| < 1 is Genz's BVNU (Genz 2004, Stat. Comput. 14, after
Drezner and Wesolowsky 1990, J. Stat. Comput. Simul. 35), with one
20-point Gauss-Legendre rule for every r:

- |r| < 0.925: Phi(-h) Phi(-k) plus the integral over t in [0, asin r] of
  exp((hk sin t - (h^2 + k^2)/2) / cos^2 t) / (2 pi);
- |r| >= 0.925 (with k -> -k for r < 0): the integral over
  x in [0, sqrt(1 - r^2)] of the density's asymptotic form minus its
  two-term expansion, plus that expansion integrated in closed form
  (the Phi(-|h - k| / sqrt(1 - r^2)) correction), plus Phi(-max(h, k))
  for r > 0 or the matching difference of Phis for r < 0.

The nodes are summed in one fixed order (a cumulative sum down the node
axis), so an entry's value does not depend on the length of the array it
sits in.  The special cases are masks: infinite limits, r = +-1 and
h = k = 0 (1/4 + asin(r)/(2 pi)) use their closed forms, and limits beyond
+-40, where Phi is 0 or 1 in double precision, are clipped to +-40 so that
no product of limits overflows.  Absolute error against 30-digit
references and against Owen's-T evaluation is below 1e-15 over the whole
parameter range, including 1 - |r| down to 1e-14.

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
one-element calls into the same code.  The module needs only numpy and
the stdlib.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
# The 20-point Gauss-Legendre rule on [-1, 1], nodes down axis 0: the bits
# of ``np.polynomial.legendre.leggauss(20)`` (a test checks them), written
# out so that importing this module loads no numpy.polynomial and runs no
# eigensolver.  The rule is symmetric: these are its positive half.
_GL_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
             0.5108670019508271, 0.636053680726515, 0.7463319064601508,
             0.8391169718222188, 0.912234428251326, 0.9639719272779138,
             0.993128599185095)
_GL_WEIGHTS = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
               0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
               0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
               0.017614007139150893)
_GL_X = np.array([-x for x in reversed(_GL_NODES)] + list(_GL_NODES))[:, None]
_GL_W = np.array(list(reversed(_GL_WEIGHTS)) + list(_GL_WEIGHTS))[:, None]


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise, as a float array (0-d for a scalar).

    Only ``erf`` and ``erfc`` run per entry, mapped over plain floats; the
    split, the halving and the reflection are the same IEEE operations in
    numpy, so NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    a = x.ravel() * _SQRT1_2
    z = np.abs(a)
    near = z < _SQRT1_2
    far = ~near
    out = np.empty(a.shape)
    out[near] = 0.5 + 0.5 * np.fromiter(map(math.erf, a[near].tolist()), float)
    y = 0.5 * np.fromiter(map(math.erfc, z[far].tolist()), float)
    out[far] = np.where(a[far] > 0.0, 1.0 - y, y)
    return out.reshape(x.shape)


def std_normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF, within 2.3e-16 of Cephes' ``ndtr`` on [-40, 40]."""
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
    i = finite & (r == 1.0)
    out[i] = ndtr(-np.maximum(h[i], k[i]))
    i = finite & (r == -1.0)
    out[i] = np.maximum(0.0, ndtr(-h[i]) - ndtr(k[i]))
    inner = finite & (np.abs(r) < 1.0)
    origin = inner & (h == 0.0) & (k == 0.0)
    out[origin] = 0.25 + np.arcsin(r[origin]) / (2.0 * math.pi)
    i = inner & ~origin
    # Past +-40, Phi is 0 or 1 in double precision: clipping changes no
    # probability and keeps h*k and its exponentials finite.
    out[i] = _genz_upper(np.clip(h[i], -40.0, 40.0), np.clip(k[i], -40.0, 40.0), r[i])
    # min(1, max(0, p)), which also turns -0.0 into 0.0.
    out = np.where(out > 0.0, out, 0.0)
    return np.where(out < 1.0, out, 1.0)


def _nodes_sum(v):
    """The Gauss-Legendre sum over axis 0, added node by node in order, so
    that each column's value does not depend on how many columns there are."""
    return np.cumsum(_GL_W * v, axis=0)[-1]


def _genz_upper(h, k, r):
    """Genz's BVNU: P(X > h, Y > k) for finite |h|, |k| <= 40 and |r| < 1."""
    out = np.empty(h.shape)
    i = np.abs(r) < 0.925
    out[i] = _genz_asin(h[i], k[i], r[i])
    i = ~i
    out[i] = _genz_asymptotic(h[i], k[i], r[i])
    return out


def _genz_asin(h, k, r):
    """|r| < 0.925: the integral over the angle asin(r), on the nodes."""
    if h.size == 0:
        return h
    asr = np.arcsin(r)
    sn = np.sin(asr * (_GL_X + 1.0) / 2.0)
    f = np.exp((sn * (h * k) - (h * h + k * k) / 2.0) / (1.0 - sn * sn))
    return _nodes_sum(f) * asr / (4.0 * math.pi) + ndtr(-h) * ndtr(-k)


def _genz_asymptotic(h, k, r):
    """|r| >= 0.925: Drezner and Wesolowsky's expansion around |r| = 1 with
    its remainder on the nodes, for k -> -k when r < 0."""
    if h.size == 0:
        return h
    neg = r < 0.0
    k = np.where(neg, -k, k)
    hk = h * k
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
    b_sq = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    bvn = a * np.exp(-(b_sq / a_sq + hk) / 2.0) * (
        1.0 - c * (b_sq - a_sq) * (1.0 - d * b_sq) / 3.0 + c * d * a_sq * a_sq)
    # Below hk = -160, b >= 2 sqrt(-hk) and a < 0.39 put Phi(-b / a) under
    # exp(13 hk): the correction is nothing, while exp(-hk / 2) alone could
    # overflow.
    j = hk > -160.0
    b = np.sqrt(b_sq[j])
    bvn[j] -= (np.exp(-hk[j] / 2.0) * _SQRT_2PI * ndtr(-b / a[j]) * b
               * (1.0 - c[j] * b_sq[j] * (1.0 - d[j] * b_sq[j]) / 3.0))
    half = a / 2.0
    xs = (half * (_GL_X + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
    log_f = -(b_sq / xs + hk) / 2.0
    f = np.exp(log_f) * sp - np.exp(log_f - (hk / 2.0) * xs / (1.0 + rs) ** 2) / rs
    bvn = (half * _nodes_sum(f) - bvn) / (2.0 * math.pi)
    out = np.empty(h.shape)
    i = ~neg
    out[i] = bvn[i] + ndtr(-np.maximum(h[i], k[i]))
    i = neg & (h >= k)
    out[i] = -bvn[i]
    i = neg & (h < k) & (h < 0.0)
    out[i] = ndtr(k[i]) - ndtr(h[i]) - bvn[i]
    i = neg & (h < k) & ~(h < 0.0)
    out[i] = ndtr(-h[i]) - ndtr(-k[i]) - bvn[i]
    return out


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
    i = ~s1_zero & flat & (mu1 > mu2)  # X == Y is never the strict maximum
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
