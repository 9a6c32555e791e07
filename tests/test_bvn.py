"""Normal-kernel oracles: the bivariate CDF and E[max(0, X, Y)] are checked
against Monte Carlo, quadrature through an independent CDF implementation
(scipy's multivariate normal), Owen's identity in scipy's T function, and
closed-form special cases.  scipy is a test-only dependency."""

import math

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.special import owens_t
from scipy.stats import multivariate_normal

from nbvoi import BvnParams, InputError, bvn_cdf, e_max_zero_bvn, std_normal_cdf
from nbvoi import bvn
from nbvoi.bvn import p_first_positive_max, std_normal_pdf


def phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def erf_cdf(x):
    """Independent standard normal CDF via the stdlib's correctly rounded erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def mc_bvn_pair(mu1, mu2, s1, s2, rho, n, rng):
    z = rng.standard_normal((n, 2))
    x = mu1 + s1 * z[:, 0]
    y = mu2 + s2 * (rho * z[:, 0] + math.sqrt(max(0.0, 1 - rho * rho)) * z[:, 1])
    return x, y


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_975_quantile(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-8)

    def test_far_left_tail_underflows_to_zero(self):
        assert std_normal_cdf(-40.0) == 0.0

    def test_matches_erf_identity(self):
        xs = np.linspace(-8, 8, 401)
        for x in xs:
            assert std_normal_cdf(float(x)) == pytest.approx(erf_cdf(float(x)), abs=1e-14)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 2001)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_pdf_matches_formula(self):
        for x in (-3.2, 0.0, 0.7, 5.0):
            assert std_normal_pdf(x) == pytest.approx(phi(x), rel=1e-14)


class TestBvnCdf:
    def test_independence_factorization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-4, 4, 2)
            assert bvn_cdf(a, b, 0.0) == pytest.approx(
                std_normal_cdf(a) * std_normal_cdf(b), abs=1e-10
            )

    def test_degenerate_diagonal(self):
        assert bvn_cdf(0.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_correlation_is_min(self):
        for a, b in [(-1.0, 0.5), (0.3, 0.2), (2.0, -2.0)]:
            assert bvn_cdf(a, b, 1.0) == pytest.approx(
                std_normal_cdf(min(a, b)), abs=1e-10
            )

    def test_perfect_anticorrelation(self):
        for a, b in [(-0.5, 0.5), (1.0, 1.0), (-2.0, 1.0)]:
            expect = max(0.0, std_normal_cdf(a) + std_normal_cdf(b) - 1.0)
            assert bvn_cdf(a, b, -1.0) == pytest.approx(expect, abs=1e-10)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(17)
        x, y = mc_bvn_pair(0, 0, 1, 1, 0.4, 10_000_000, rng)
        hits = (x <= 0.5) & (y <= -0.3)
        p = hits.mean()
        se = math.sqrt(p * (1 - p) / hits.size)
        assert bvn_cdf(0.5, -0.3, 0.4) == pytest.approx(p, abs=3 * se)

    def test_against_scipy_random_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            a, b = rng.uniform(-4.5, 4.5, 2)
            rho = float(rng.uniform(-0.999, 0.999))
            ref = multivariate_normal(cov=[[1, rho], [rho, 1]]).cdf([a, b])
            assert bvn_cdf(a, b, rho) == pytest.approx(float(ref), abs=1e-9)

    def test_infinite_marginal(self):
        for a in (-1.5, 0.0, 2.0):
            assert bvn_cdf(a, np.inf, 0.6) == pytest.approx(std_normal_cdf(a), abs=1e-12)
            assert bvn_cdf(np.inf, a, -0.3) == pytest.approx(std_normal_cdf(a), abs=1e-12)
            assert bvn_cdf(a, -np.inf, 0.6) == 0.0

    def test_monotone_in_each_argument(self):
        grid = np.linspace(-3, 3, 31)
        for rho in (-0.8, 0.0, 0.6):
            vals_a = [bvn_cdf(a, 0.4, rho) for a in grid]
            vals_b = [bvn_cdf(-0.2, b, rho) for b in grid]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals_a, vals_a[1:]))
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals_b, vals_b[1:]))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rng.uniform(-3, 3, 2)
            rho = float(rng.uniform(-0.99, 0.99))
            assert bvn_cdf(a, b, rho) == pytest.approx(bvn_cdf(b, a, rho), abs=1e-13)

    def test_rejects_bad_correlation(self):
        with pytest.raises(InputError):
            bvn_cdf(0.0, 0.0, 1.5)


def quad_e_max_zero(mu1, mu2, s1, s2, rho):
    """Independent oracle: E[max(0,X,Y)] = int_0^inf P(max(X,Y) > m) dm,
    with the joint CDF from scipy.  With one standard deviation zero, the
    closed form of a one-sided normal expectation instead:
    E[max(a, X)] = a + (mu - a) Phi(d) + s phi(d), d = (mu - a) / s, for
    X ~ N(mu, s^2) and the constant a = max(0, other mean)."""
    from scipy.integrate import quad

    if s1 == 0 and s2 == 0:
        return max(0.0, mu1, mu2)
    if s1 == 0 or s2 == 0:
        mu, s, a = (mu2, s2, max(0.0, mu1)) if s1 == 0 else (mu1, s1, max(0.0, mu2))
        d = (mu - a) / s
        return a + (mu - a) * erf_cdf(d) + s * phi(d)
    cov = [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]
    dist = multivariate_normal(mean=[mu1, mu2], cov=cov, allow_singular=True)

    def tail(m):
        return 1.0 - dist.cdf([m, m])

    upper = max(mu1 + 9 * max(s1, 1e-12), mu2 + 9 * max(s2, 1e-12), 1e-6)
    val, _ = quad(tail, 0.0, upper, epsabs=1e-11, epsrel=1e-11, limit=300)
    return val


class TestEMaxZeroBvn:
    def test_degenerate_point_mass(self):
        for mu1, mu2 in [(-1.0, -2.0), (0.3, 0.1), (-0.2, 0.4)]:
            p = BvnParams(mu1, mu2, 0.0, 0.0, 0.0)
            assert e_max_zero_bvn(p) == max(0.0, mu1, mu2)

    def test_reduces_to_positive_part_expectation(self):
        # second component effectively never wins: E[X+] = sigma * phi(0)
        p = BvnParams(0.0, -100.0, 1.0, 0.01, 0.0)
        assert e_max_zero_bvn(p) == pytest.approx(phi(0.0), abs=1e-8)

    def test_standard_independent_pair(self):
        # exact value phi(0) * (1 + 1/sqrt(2)) = 0.6810370721753108, which a
        # >= 1e7-draw MC oracle reads as ~0.6808-0.6813
        p = BvnParams(0.0, 0.0, 1.0, 1.0, 0.0)
        expect = phi(0.0) * (1.0 + 1.0 / math.sqrt(2.0))
        assert e_max_zero_bvn(p) == pytest.approx(expect, abs=1e-10)
        assert e_max_zero_bvn(p) == pytest.approx(
            quad_e_max_zero(0, 0, 1, 1, 0), abs=1e-8
        )

    def test_against_quadrature_random_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            mu1, mu2 = rng.uniform(-1, 1, 2)
            s1, s2 = rng.uniform(0.05, 1, 2)
            rho = float(rng.uniform(-0.95, 0.95))
            got = e_max_zero_bvn(BvnParams(mu1, mu2, s1, s2, rho))
            assert got == pytest.approx(quad_e_max_zero(mu1, mu2, s1, s2, rho), abs=1e-7)

    def test_near_degenerate_cases_against_quadrature(self):
        cases = [
            (0.3, 0.2, 0.5, 0.5, 1.0),
            (0.3, 0.2, 0.5, 0.5, -1.0),
            (0.1, 0.1, 0.4, 0.4, 1.0),
            (-0.2, 0.15, 1e-9, 0.7, 0.3),
            (0.0, 0.0, 1.0, 1.0, 0.9999),
            (0.05, 0.04, 0.3, 0.0, 0.0),
        ]
        for mu1, mu2, s1, s2, rho in cases:
            got = e_max_zero_bvn(BvnParams(mu1, mu2, s1, s2, rho))
            assert got == pytest.approx(
                quad_e_max_zero(mu1, mu2, s1, s2, rho), abs=5e-7
            )

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mu1, mu2 = rng.uniform(-1, 1, 2)
            s1, s2 = rng.uniform(0, 1, 2)
            rho = float(rng.uniform(-1, 1))
            p = BvnParams(mu1, mu2, s1, s2, rho)
            assert e_max_zero_bvn(p) >= max(0.0, mu1, mu2)

    def test_jensen_bound_strict_when_spread_is_visible(self):
        """Strict inequality whenever a sigma is large enough that the
        excess over max(0, mu1, mu2) is representable in floats."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            mu1, mu2 = rng.uniform(-1, 1, 2)
            s1, s2 = rng.uniform(0.3, 1, 2)
            rho = float(rng.uniform(-1, 1))
            p = BvnParams(mu1, mu2, s1, s2, rho)
            assert e_max_zero_bvn(p) > max(0.0, mu1, mu2)

    def test_symmetric_under_component_swap(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            mu1, mu2 = rng.uniform(-1, 1, 2)
            s1, s2 = rng.uniform(0, 1, 2)
            rho = float(rng.uniform(-1, 1))
            a = e_max_zero_bvn(BvnParams(mu1, mu2, s1, s2, rho))
            b = e_max_zero_bvn(BvnParams(mu2, mu1, s2, s1, rho))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    def test_large_shift_approaches_clark_emax(self):
        """With both means far above 0 the floor is inactive and the value
        matches the classic two-normal maximum formula."""
        mu1, mu2, s1, s2, rho = 0.3, -0.1, 0.5, 0.8, 0.4
        theta = math.sqrt(s1 * s1 + s2 * s2 - 2 * rho * s1 * s2)
        d = (mu1 - mu2) / theta
        clark = mu1 * erf_cdf(d) + mu2 * erf_cdf(-d) + theta * phi(d)
        shifted = [
            e_max_zero_bvn(BvnParams(mu1 + k, mu2 + k, s1, s2, rho)) - k
            for k in (1.0, 3.0, 10.0, 40.0)
        ]
        # monotone approach from above, converging to Clark's E[max(X, Y)]
        diffs = [v - clark for v in shifted]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
        assert all(d >= -1e-10 for d in diffs)
        assert shifted[-1] == pytest.approx(clark, abs=1e-9)

    def test_monte_carlo_random_grid(self):
        rng = np.random.default_rng(44)
        for _ in range(12):
            mu1, mu2 = rng.uniform(-1, 1, 2)
            s1, s2 = rng.uniform(0, 1, 2)
            rho = float(rng.uniform(-1, 1))
            x, y = mc_bvn_pair(mu1, mu2, s1, s2, rho, 2_000_000, rng)
            m = np.maximum(0.0, np.maximum(x, y))
            se = m.std(ddof=1) / math.sqrt(m.size)
            got = e_max_zero_bvn(BvnParams(mu1, mu2, s1, s2, rho))
            assert got == pytest.approx(m.mean(), abs=3.5 * se)

    def test_rejects_invalid_params(self):
        with pytest.raises(InputError):
            BvnParams(0.0, 0.0, -1.0, 1.0, 0.0)
        with pytest.raises(InputError):
            BvnParams(0.0, 0.0, 1.0, 1.0, 1.2)
        with pytest.raises(InputError):
            BvnParams(np.nan, 0.0, 1.0, 1.0, 0.0)


class TestPFirstPositiveMax:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            mu1, mu2 = rng.uniform(-0.5, 0.5, 2)
            s1, s2 = rng.uniform(0.05, 1, 2)
            rho = float(rng.uniform(-0.95, 0.95))
            x, y = mc_bvn_pair(mu1, mu2, s1, s2, rho, 1_000_000, rng)
            p_mc = np.mean((x > 0) & (x > y))
            se = math.sqrt(p_mc * (1 - p_mc) / x.size) + 1e-12
            got = p_first_positive_max(BvnParams(mu1, mu2, s1, s2, rho))
            assert got == pytest.approx(p_mc, abs=4 * se)

    def test_degenerate_first_component(self):
        assert p_first_positive_max(BvnParams(0.5, 0.0, 0.0, 0.0, 0.0)) == 1.0
        assert p_first_positive_max(BvnParams(-0.5, 0.0, 0.0, 1.0, 0.0)) == 0.0
        assert p_first_positive_max(BvnParams(0.5, 0.0, 0.0, 1.0, 0.0)) == pytest.approx(
            erf_cdf(0.5), abs=1e-12
        )

    def test_equal_point_mass_difference_is_never_strict(self):
        """With rho = 1 and equal sigmas, X - Y is a point mass; at 0 the
        components are equal, so X is never the strict maximum."""
        assert p_first_positive_max(BvnParams(0.04, 0.04, 0.03, 0.03, 1.0)) == 0.0
        assert p_first_positive_max(BvnParams(0.05, 0.04, 0.03, 0.03, 1.0)) == pytest.approx(
            erf_cdf(0.05 / 0.03), abs=1e-12
        )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestArrayKernel:
    """One array call equals the one-element calls bit for bit, on points
    that reach every mask of the kernel."""

    # (h, k, r) for P(X > h, Y > k), grouped by the case they reach.
    UPPER_POINTS = [
        (0.3, -0.2, 0.0), (-1.3, 0.4, 0.5), (0.4, 0.9, -0.6),  # Owen's identity,
        (-1.2, -0.3, 0.8),                                      # both sides of 0
        (0.0, 0.7, 0.3), (0.0, -0.7, 0.3),                    # h = 0, k of each sign
        (0.7, 0.0, -0.4), (-0.7, 0.0, -0.4),                  # k = 0, h of each sign
        (-0.0, 0.7, 0.5), (-0.0, -0.7, 0.5),                  # h = -0.0
        (0.0, 0.0, 0.6), (-0.0, 0.0, -0.3),                   # h = k = 0
        (0.3, -0.5, 1.0), (0.3, -0.5, -1.0), (0.3, 0.5, -1.0),  # |r| == 1
        (np.inf, 0.2, 0.3), (0.2, np.inf, -0.3), (-np.inf, 0.2, 0.3),
        (0.2, -np.inf, 0.97), (-np.inf, -np.inf, 0.5),        # infinite limits
        (1.1021169771698833, 1.102116396500089, 0.9999999999912381),    # 1 - |r| <= 1e-9,
        (0.6267352727346518, -0.6267353071759564, -0.9999999999989546),  # h ~ k, h ~ -k
    ]

    def test_bvn_upper_array_equals_one_element_calls(self):
        h, k, r = (np.array(col) for col in zip(*self.UPPER_POINTS))
        grid = bvn._bvn_upper(h, k, r)
        assert same_bits(bvn._bvn_upper(h[::-1], k[::-1], r[::-1]), grid[::-1])
        for i, (hi, ki, ri) in enumerate(self.UPPER_POINTS):
            assert same_bits(bvn._bvn_upper(hi, ki, ri), grid[i:i + 1])
            assert same_bits(bvn_cdf(-hi, -ki, ri), grid[i])

    def test_signed_zero_arguments_agree(self):
        for k in (0.7, -0.7, 0.0):
            assert same_bits(bvn._bvn_upper(-0.0, k, 0.5), bvn._bvn_upper(0.0, k, 0.5))
            assert same_bits(bvn._bvn_upper(k, -0.0, -0.5), bvn._bvn_upper(k, 0.0, -0.5))

    # (h, k, r, P(X > h, Y > k)).  References to 30 digits from mpmath at 40
    # digits: quadrature of phi(t) * Phi((r t - k) / sqrt(1 - r^2)) over
    # t > h, with breakpoints around t = k / r, cross-checked against Owen's
    # identity with mpmath's own integral for T.  The first three have
    # 1 - |r| <= 1e-8, where computing y - r*x directly errs by 1e-11 to 5e-14.
    REFERENCE = [
        (0.6267352727346518, -0.6267353071759564, -0.9999999999989546,
         1.94793046485611237681893826638e-7),
        (1.1021169771698833, 1.102116396500089, 0.9999999999912381,
         0.135205106411211281852978700894),
        (1.1440360521793835, -1.1439722982247609, -0.9999999973804558,
         1.56112564802423466635353995654e-6),
        (-0.4, -0.9, 0.9999999, 0.655421741610324174914120456956),
        (0.5, 0.3, 0.95, 0.289802496918888116694034900988),
        (-0.7, 1.3, -0.6, 0.032329269153463399642134043897),
        (0.0, 1.2, 0.4, 0.0880790096355473291144744504515),
        (3.0, -2.5, 0.8, 0.00134989803163009447731313996178),
        (0.3, -0.2, 0.0, 0.221328518562827405997404621208),
    ]

    def test_bvn_upper_matches_high_precision_references(self):
        h, k, r, ref = (np.array(col) for col in zip(*self.REFERENCE))
        assert np.abs(bvn._bvn_upper(h, k, r) - ref).max() <= 1e-15

    # (mu1, mu2, sigma1, sigma2, rho), grouped by the branches they reach.
    PARAM_POINTS = [
        (0.3, 0.1, 0.0, 0.0, 0.0), (-0.2, -0.1, 0.0, 0.0, 0.5),   # both sigmas 0
        (0.5, 0.0, 0.0, 1.0, 0.0), (-0.5, 0.0, 0.0, 1.0, 0.3),    # sigma1 = 0
        (0.05, 0.04, 0.3, 0.0, 0.0), (-0.1, 0.2, 0.3, 0.0, 0.0),  # sigma2 = 0 (P: r = 1)
        (0.3, 0.2, 0.5, 0.5, 1.0), (0.1, 0.2, 0.5, 0.5, 1.0),     # theta^2 <= 0
        (0.0, 0.0, 1.0, 1.0, 0.0), (0.05, 0.04, 0.01, 0.01, 0.5),  # general
        (0.1, -0.3, 0.4, 0.2, -0.7), (0.0, 0.0, 1.0, 1.0, 0.9999),
    ]

    def test_emax_and_pfirst_array_equals_one_element_calls(self):
        cols = [np.array(col) for col in zip(*self.PARAM_POINTS)]
        emax, pfirst = bvn._emax_pfirst(*cols)
        for i, p in enumerate(self.PARAM_POINTS):
            assert same_bits(e_max_zero_bvn(BvnParams(*p)), emax[i])
            assert same_bits(p_first_positive_max(BvnParams(*p)), pfirst[i])

    def test_degenerate_branches_keep_their_own_rules(self):
        """With sigma2 = 0, E[max] is a one-sided normal expectation while
        P(first) takes the general path with r = 1; both match their
        closed forms."""
        mu1, mu2, s1 = 0.05, 0.04, 0.3
        p = BvnParams(mu1, mu2, s1, 0.0, 0.0)
        t = (mu1 - mu2) / s1
        assert e_max_zero_bvn(p) == pytest.approx(
            mu2 + s1 * phi(t) + (mu1 - mu2) * erf_cdf(t), abs=1e-15)
        assert p_first_positive_max(p) == pytest.approx(erf_cdf(t), abs=1e-12)


def owen_lower(x, y, r):
    """P(X < x, Y < y) by Owen's identity (Owen 1956) in scipy's T function,
    for |r| < 1 and (x, y) != (0, 0): the kernel nbvoi used before Genz's.
    For r >= 0, y - r x is (y - x) + (1 - r) x, and (y + x) - (1 + r) x for
    r < 0, so that the cancellation near |r| = 1 does not amplify the
    rounding of r x."""
    s = np.sqrt((1.0 - r) * (1.0 + r))
    sign = np.where(r >= 0.0, 1.0, -1.0)
    d = sign - r
    beta = np.where((x < 0.0) != (y < 0.0), 0.5, 0.0)
    return (0.5 * scipy_ndtr(x) + 0.5 * scipy_ndtr(y) - beta
            - owens_t(x, owen_slope((y - sign * x) + d * x, x, s))
            - owens_t(y, owen_slope((x - sign * y) + d * y, y, s)))


def owen_slope(num, x, s):
    """Owen's ``a = num / (x * s)``, +-inf in the sign of ``num`` where x = 0."""
    a = np.copysign(np.inf, num)
    i = x != 0.0
    a[i] = num[i] / (x[i] * s[i])
    return a


class TestGenzKernel:
    """Genz's BVNU against Owen's identity, and the numpy normal CDF against
    scipy's."""

    def test_bvn_upper_agrees_with_owens_identity(self):
        rng = np.random.default_rng(2004)
        n, m = 120_000, 20_000
        h, k, r = rng.uniform(-7, 7, n), rng.uniform(-7, 7, n), rng.uniform(-1, 1, n)
        # 1 - |r| from 1e-14 to 0.075, both signs: the asymptotic form's range.
        gap = 10.0 ** rng.uniform(-14, math.log10(0.075), m)
        r[:m] = np.where(rng.random(m) < 0.5, 1.0 - gap, gap - 1.0)
        # h = +-k exactly and to seven digits, across every r.
        near = slice(m, 3 * m)
        flip = np.where(rng.random(2 * m) < 0.5, 1.0, -1.0)
        k[near] = flip * h[near] * np.where(rng.random(2 * m) < 0.5, 1.0,
                                             1.0 + rng.normal(0, 1e-7, 2 * m))
        r[m:2 * m] = np.where(rng.random(m) < 0.5, 1.0 - gap, gap - 1.0)
        got = bvn._bvn_upper(h, k, r)
        assert np.abs(got - owen_lower(-h, -k, r)).max() <= 1e-15

    def test_far_limits_agree_with_owens_identity(self):
        """Limits past the +-40 clip, up to 1e300, give the same
        probabilities and no floating-point warning."""
        big = np.array([45.0, -45.0, 1e3, -1e3, 1e300, -1e300, 3.0, -3.0, 0.5])
        h, k = (v.ravel() for v in np.meshgrid(big, big))
        for r in (-0.9999, -0.95, -0.5, 0.0, 0.5, 0.95, 0.9999):
            rr = np.full(h.shape, r)
            keep = (h != 0.0) | (k != 0.0)
            assert np.abs(bvn._bvn_upper(h, k, rr) - owen_lower(-h, -k, rr))[keep].max() <= 1e-15

    def test_rule_is_numpys_20_point_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(20)
        assert same_bits(bvn._GL_X[:, 0], x) and same_bits(bvn._GL_W[:, 0], w)

    def test_ndtr_agrees_with_scipy(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                            np.random.default_rng(7).uniform(-40, 40, 100_000),
                            [-1.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 0.0, -0.0]])
        assert np.abs(bvn.ndtr(x) - scipy_ndtr(x)).max() <= 2.3e-16

    def test_ndtr_shapes(self):
        assert bvn.ndtr(np.array([])).shape == (0,)
        assert bvn.ndtr(0.0).shape == ()
        assert bvn.ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert bvn.ndtr(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]

    def test_ndtr_equals_the_stdlib_reference_bit_for_bit(self):
        """The array route takes ``erf``/``erfc`` per entry and does the
        split, halving and reflection in numpy: the same IEEE operations
        as this one-value reference, on the branch point, the tails,
        signed zeros, subnormals, infinities and NaN."""
        def reference(a):
            x = a * math.sqrt(0.5)
            if abs(x) < math.sqrt(0.5):
                return 0.5 + 0.5 * math.erf(x)
            y = 0.5 * math.erfc(abs(x))
            return 1.0 - y if x > 0.0 else y

        edge = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0),
                math.sqrt(0.5), -math.sqrt(0.5), 40.0, -40.0, 1e300, -1e300]
        rng = np.random.default_rng(11)
        x = np.concatenate([edge, rng.normal(0.0, 3.0, 1000), rng.uniform(-45.0, 45.0, 1000)])
        expected = np.array([reference(v) for v in x.tolist()])
        assert same_bits(bvn.ndtr(x), expected)
        assert same_bits(bvn.ndtr(x.reshape(43, 47)), expected.reshape(43, 47))
