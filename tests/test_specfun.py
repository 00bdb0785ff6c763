"""Special-function kernel against independent series/quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import stats

from faslcr.errors import AccuracyError, ConfigError, DomainError
from faslcr.specfun import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _poisson_pmf,
    _poisson_tail,
    bessel_i0_scaled,
    bessel_j0,
    lower_gamma_int,
    marcum_q1,
)

from oracles import i0_scaled_quad, j0_series, lower_gamma_quad, marcum_q1_quad

# First positive zero of J0, located by bisection on the series oracle.
J0_FIRST_ZERO = 2.404825557695756


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-13
        # bracketing, so the frozen zero really is a sign change of the oracle
        assert j0_series(J0_FIRST_ZERO - 1e-6) > 0 > j0_series(J0_FIRST_ZERO + 1e-6)

    def test_aperture_edge(self):
        # 2*pi*0.38 sits just below the first zero: small and positive
        got = bessel_j0(2.0 * math.pi * 0.38)
        assert got == pytest.approx(0.008968896645303091, abs=1e-12)
        assert 0.0 < got < 0.01

    def test_series_region_against_oracle(self):
        xs = np.linspace(0.0, 3.0, 301)
        for x in xs:
            assert bessel_j0(float(x)) == pytest.approx(j0_series(float(x)), abs=1e-10)

    def test_asymptotic_region_bounded_and_even(self):
        xs = np.linspace(8.5, 40.0, 64)
        vals = bessel_j0(xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.allclose(vals, bessel_j0(-xs), rtol=0, atol=0)

    def test_even_and_bounded_random(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-8.0, 8.0, 200)
        vals = bessel_j0(xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.allclose(vals, bessel_j0(-xs), rtol=0, atol=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            bessel_j0(bad)


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_unit_value(self):
        assert bessel_i0_scaled(1.0) == pytest.approx(0.4657596075936404, rel=1e-12)

    def test_large_argument(self):
        # leading asymptotic term 1/sqrt(2 pi x) = 0.039894 at x = 100; the
        # 1/(8x) correction is positive, so the exact value sits just above
        got = bessel_i0_scaled(100.0)
        assert got == pytest.approx(0.03994437929909674, rel=1e-11)
        leading = 1.0 / math.sqrt(2.0 * math.pi * 100.0)
        assert leading < got < leading * 1.01

    def test_against_quadrature_oracle(self):
        for x in np.linspace(0.0, 30.0, 61):
            want = i0_scaled_quad(float(x))
            assert bessel_i0_scaled(float(x)) == pytest.approx(want, rel=1e-10)

    def test_branch_seam_continuous(self):
        # both branches match the oracle independently on their own side
        assert bessel_i0_scaled(39.9999999) == pytest.approx(i0_scaled_quad(39.9999999), rel=1e-12)
        assert bessel_i0_scaled(40.0000001) == pytest.approx(i0_scaled_quad(40.0000001), rel=1e-12)
        assert bessel_i0_scaled(41.0) == pytest.approx(i0_scaled_quad(41.0), rel=1e-12)

    def test_range_parity_monotonicity(self):
        xs = np.linspace(0.0, 200.0, 400)
        vals = bessel_i0_scaled(xs)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.allclose(vals, bessel_i0_scaled(-xs), rtol=0, atol=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            bessel_i0_scaled(math.nan)


class TestMarcumQ1:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_zero_a_identity(self, b):
        # Q1(0, b) = exp(-b^2/2)
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-14)

    def test_identity_within_series_tolerance(self):
        tol = Tolerance(rel_eps=1e-12, max_terms=1000)
        for b in np.linspace(0.0, 5.0, 51):
            want = math.exp(-0.5 * b * b)
            assert abs(marcum_q1(0.0, float(b), tol) - want) <= 10.0 * tol.rel_eps * want

    def test_b_zero_is_one(self):
        for a in (0.0, 0.5, 3.0, 40.0):
            assert marcum_q1(a, 0.0) == 1.0
            assert marcum_q1(a, 0.0, DEFAULT_TOLERANCE, True) == 0.0

    def test_value_1_1(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.7328798037968204, rel=1e-11)

    @pytest.mark.parametrize("a,b", [(0.3, 2.1), (2.0, 0.7), (5.0, 5.5), (10.0, 8.0), (30.0, 31.0)])
    def test_against_quadrature_oracle(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quad(a, b), rel=1e-10)

    @pytest.mark.parametrize("a,b", [(40.0, 38.0), (40.0, 42.0), (60.0, 60.0)])
    def test_large_argument_path(self, a, b):
        # alpha = a^2/2 of 800 to 1800: the sum starts far from 0, at k0 = floor(alpha)
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quad(a, b), rel=1e-9)

    def test_both_sides_against_ncx2(self):
        # Q1(a, b) = ncx2.sf(b^2, 2, a^2) and 1 - Q1 = ncx2.cdf, in one call
        # over mixed arguments, including alpha <= 700 with beta > 745, where
        # an exp(-beta) pmf seed underflows to 0
        alpha = [al for al in (1e-6, 0.3, 12.0, 650.0, 700.0, 2e4) for _ in range(4)]
        beta = [al * r for al in (1e-6, 0.3, 12.0, 650.0, 700.0, 2e4)
                for r in (0.5, 0.9, 1.1, 2.0)]
        alpha += [650.0, 690.0, 300.0, 700.0]
        beta += [760.0, 800.0, 760.0, 746.0]
        alpha, beta = np.array(alpha), np.array(beta)
        a, b = np.sqrt(2.0 * alpha), np.sqrt(2.0 * beta)
        big = Tolerance(rel_eps=1e-12, max_terms=20000)
        q = marcum_q1(a, b, big)
        c = marcum_q1(a, b, big, True)
        assert q == pytest.approx(stats.ncx2.sf(2.0 * beta, 2, 2.0 * alpha), rel=1e-10, abs=0.0)
        assert c == pytest.approx(stats.ncx2.cdf(2.0 * beta, 2, 2.0 * alpha), rel=1e-10, abs=0.0)
        assert q[-4] == pytest.approx(1.7596e-3, rel=1e-4)     # alpha = 650, beta = 760

    def test_very_large_argument_needs_bigger_cap(self):
        with pytest.raises(AccuracyError) as exc:
            marcum_q1(200.0, 199.0)
        assert exc.value.partial is not None
        big = Tolerance(rel_eps=1e-12, max_terms=20000)
        assert marcum_q1(200.0, 199.0, big) == pytest.approx(
            marcum_q1_quad(200.0, 199.0), rel=1e-9
        )

    def test_bounds_and_monotonicity_random_grid(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 6.0, 300)
        b = rng.uniform(0.0, 6.0, 300)
        q = marcum_q1(a, b)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)
        delta = 0.25
        assert np.all(marcum_q1(a, b + delta) <= q + 1e-14)       # nonincreasing in b
        assert np.all(marcum_q1(a + delta, b) >= q - 1e-14)       # nondecreasing in a

    def test_vector_matches_scalar(self):
        # batched convergence may take a few extra terms, so agreement is to
        # the series tolerance rather than bitwise
        a = np.array([0.0, 1.0, 3.5, 40.0])
        b = np.array([1.0, 2.0, 0.0, 41.0])
        v = marcum_q1(a, b)
        s = [marcum_q1(float(x), float(y)) for x, y in zip(a, b)]
        assert np.allclose(v, s, rtol=1e-12, atol=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, -1.0)
        with pytest.raises(DomainError):
            marcum_q1(math.nan, 1.0)

    def test_cap_raises_accuracy_error_with_partial(self):
        with pytest.raises(AccuracyError) as exc:
            marcum_q1(12.0, 12.0, Tolerance(rel_eps=1e-12, max_terms=5))
        assert 0.0 <= float(np.min(exc.value.partial))


class TestPoissonTail:
    @pytest.mark.parametrize("lam", [1e-12, 0.3, 0.99, 5.0, 700.0, 1e5])
    def test_both_sides_against_scipy(self, lam):
        mode = math.floor(lam)
        spread = 10.0 * math.sqrt(lam) + 10.0
        ks = {0, mode - 1, mode, math.floor(lam - spread), math.ceil(lam + spread)}
        k = np.array(sorted(k for k in ks if k >= 0), dtype=float)
        lams = np.full(k.size, lam)
        # The saddle-point pmf seed carries no eps * k ln(lam) error, so one
        # flat bound holds from lam = 1e-12 to 1e5.
        pmf = _poisson_pmf(k, lams)
        cdf = _poisson_tail(k, lams, pmf, upper=False)
        sf = _poisson_tail(k, lams, pmf, upper=True)
        assert cdf == pytest.approx(stats.poisson.cdf(k, lam), rel=1e-12, abs=0.0)
        assert sf == pytest.approx(stats.poisson.sf(k, lam), rel=1e-12, abs=0.0)
        assert cdf + sf == pytest.approx(np.ones(k.size), rel=1e-15, abs=0.0)


class TestLowerGammaInt:
    def test_k0_closed_form(self):
        assert lower_gamma_int(0, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_zero_argument(self, k):
        assert lower_gamma_int(k, 0.0) == 0.0

    def test_value_2_5(self):
        assert lower_gamma_int(2, 5.0) == pytest.approx(1.7506959610338377, rel=1e-12)
        assert lower_gamma_int(2, 5.0) < 2.0  # bounded by k! = 2

    @pytest.mark.parametrize("k,x", [(0, 0.3), (1, 0.5), (2, 5.0), (3, 2.9), (4, 12.0), (7, 3.0)])
    def test_against_quadrature_oracle(self, k, x):
        assert lower_gamma_int(k, x) == pytest.approx(lower_gamma_quad(k, x), rel=1e-11)

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_limit_is_factorial(self, k):
        got = lower_gamma_int(k, 50.0 * (k + 1))
        assert got == pytest.approx(float(math.factorial(k)), rel=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 20.0, 100)
        vals = [lower_gamma_int(3, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 6.0 for v in vals)

    def test_branch_seam_consistent(self):
        # either side of x = k+1 must agree with the oracle
        for x in (3.999, 4.001):
            assert lower_gamma_int(3, x) == pytest.approx(lower_gamma_quad(3, x), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lower_gamma_int(2, -0.5)
        with pytest.raises(DomainError):
            lower_gamma_int(-1, 1.0)
        with pytest.raises(DomainError):
            lower_gamma_int(1.5, 1.0)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel_eps == 1e-12
        assert tol.max_terms == 1000

    @pytest.mark.parametrize("kwargs", [
        {"rel_eps": 0.0}, {"rel_eps": 1.0}, {"rel_eps": -0.1},
        {"max_terms": 0}, {"max_terms": -3},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            Tolerance(**kwargs)
