"""Special-function kernel against independent series/quadrature oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from faslcr import specfun
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

    def test_chebyshev_seam_continuous(self):
        # the two expansions meet at 8: each matches the oracle on its own side
        for x in (7.9999999, 8.0, 8.0000001, 8.5):
            assert bessel_i0_scaled(x) == pytest.approx(i0_scaled_quad(x), rel=1e-12)
            assert bessel_i0_scaled(x) == pytest.approx(special.i0e(x), rel=2e-15)

    def test_against_scipy_i0e(self):
        xs = np.concatenate([np.linspace(0.0, 200.0, 4001), np.geomspace(1e-8, 1e8, 2000)])
        got = bessel_i0_scaled(xs)
        assert got == pytest.approx(special.i0e(xs), rel=2e-15, abs=0.0)
        assert np.array_equal(bessel_i0_scaled(-xs), got)

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

    def test_very_large_argument_default_tolerance(self):
        # xi = ab = 39800: the expansion route, at the default tolerance
        assert marcum_q1(200.0, 199.0) == pytest.approx(marcum_q1_quad(200.0, 199.0), rel=1e-9)

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
        # xi = 16 stays on the Poisson mixture, the only route with a term cap
        with pytest.raises(AccuracyError) as exc:
            marcum_q1(4.0, 4.0, Tolerance(rel_eps=1e-12, max_terms=5))
        assert 0.0 <= float(np.min(exc.value.partial))

    def test_cap_bounds_the_tail_sum(self, monkeypatch):
        # alpha = beta = 9.68, xi = 19.36: the Poisson tail at k0 alone needs
        # ~40 terms, so the cap has to stop it, not only the mixture around it
        calls = []
        pmf_run = specfun._pmf_run
        monkeypatch.setattr(specfun, "_pmf_run", lambda *args: calls.append(args) or pmf_run(*args))
        with pytest.raises(AccuracyError) as exc:
            marcum_q1(4.4, 4.4, Tolerance(max_terms=5))
        assert len(calls) <= 4
        assert 0.0 <= exc.value.partial <= 1.0


def _dyadic(x):
    """x rounded to a multiple of 1/64, so that its square, the argument scipy
    sees, is exact for |x| < 2^20."""
    return np.round(np.asarray(x) * 64.0) / 64.0


class TestMarcumLargeXi:
    """Temme's expansion, the route of every element with xi = ab > _TEMME_XI."""

    # The small side (Q1 where b >= a, 1 - Q1 where b < a) where scipy's ncx2
    # cannot serve: near 1e-246, below its range, and at xi ~ 1e5 and 1e6, where
    # it strays by up to 7e-12 in the tails.  Sums of the Poisson mixture (the
    # survivor form for b < a) at 50 digits with mpmath.
    MPMATH = (
        (34.0, 67.5, 3.3964081807952713e-246), (67.5, 34.0, 1.7096562247368685e-246),
        (100.0, 133.5, 2.7847174242907944e-246), (133.5, 100.0, 2.0853871304234852e-246),
        (316.0, 316.0, 0.50063123857563485447), (316.0, 320.0, 3.1882332872693661101e-5),
        (316.0, 330.0, 7.9651703219521210227e-45), (316.0, 340.0, 1.4423153875950727718e-127),
        (316.0, 349.5, 2.534469249230305903e-246), (316.0, 305.0, 1.8768369606429126949e-28),
        (316.0, 290.0, 2.371860149044865683e-149), (1000.0, 1000.0, 0.50019947116513462289),
        (1000.0, 1001.0, 0.15877620907759596531), (1000.0, 1005.0, 2.8739400484502948093e-7),
        (1000.0, 1020.0, 2.7810922033045592162e-89), (1000.0, 1033.5, 2.4499065976888920195e-246),
        (1000.0, 990.0, 7.5812833597410685255e-24), (1000.0, 966.5, 2.3690938429462939436e-246),
    )

    def test_against_ncx2_across_switch(self):
        # xi from 10 (the mixture) to 1e4, b/a from 0.5 to 2, both tails, the
        # small side down to 1e-170: scipy's ncx2 returns 0 below about 1e-198
        # and loses digits just above (7.8e-12 at 1.2e-195 against mpmath)
        xi, rho = np.meshgrid(np.geomspace(10.0, 1e4, 25), np.geomspace(0.5, 2.0, 13))
        a, b = _dyadic(np.sqrt(xi / rho)).ravel(), _dyadic(np.sqrt(xi * rho)).ravel()
        want_q, want_p = stats.ncx2.sf(b * b, 2, a * a), stats.ncx2.cdf(b * b, 2, a * a)
        keep = np.minimum(want_q, want_p) >= 1e-170
        assert np.min(np.minimum(want_q, want_p)[keep]) < 1e-140
        assert np.any(a * b <= specfun._TEMME_XI) and np.any(a * b > specfun._TEMME_XI)
        a, b = a[keep], b[keep]
        assert marcum_q1(a, b) == pytest.approx(want_q[keep], rel=1e-12, abs=0.0)
        assert marcum_q1(a, b, DEFAULT_TOLERANCE, True) == pytest.approx(
            want_p[keep], rel=1e-12, abs=0.0)

    def test_against_mpmath_at_large_xi(self):
        a, b, small = (np.array(col) for col in zip(*self.MPMATH))
        q, p = marcum_q1(a, b), marcum_q1(a, b, DEFAULT_TOLERANCE, True)
        low = b < a
        assert np.where(low, p, q) == pytest.approx(small, rel=1e-14, abs=0.0)
        assert np.where(low, q, p) == pytest.approx(1.0 - small, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("complement", [False, True])
    def test_continuous_across_switch(self, monkeypatch, complement):
        # the same arguments either side of xi = _TEMME_XI, on each route
        xi = specfun._TEMME_XI * np.array([1.0 - 1e-6, 1.0 + 1e-6])
        rho = np.geomspace(0.2, 5.0, 21)[:, None]
        a, b = np.sqrt(xi / rho).ravel(), np.sqrt(xi * rho).ravel()
        got = marcum_q1(a, b, DEFAULT_TOLERANCE, complement)
        monkeypatch.setattr(specfun, "_TEMME_XI", math.inf)
        mixture = marcum_q1(a, b, DEFAULT_TOLERANCE, complement)
        monkeypatch.setattr(specfun, "_TEMME_XI", 0.0)
        expansion = marcum_q1(a, b, DEFAULT_TOLERANCE, complement)
        above = a * b > xi.mean()
        assert np.array_equal(got[above], expansion[above])
        assert np.array_equal(got[~above], mixture[~above])
        # Both routes form the large side as 1 - small, except the mixture when
        # it is asked for the large side: it sums that directly and stops at a
        # term below rel_eps = 1e-12 of the sum, so it is good to about that.
        small = (b >= a) != complement
        assert expansion[small] == pytest.approx(mixture[small], rel=1e-13, abs=0.0)
        assert expansion[~small] == pytest.approx(mixture[~small], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("complement", [False, True])
    def test_subnormal_tail_seed_point(self, complement):
        # alpha = 165110.5, beta = 180968: the mixture's Poisson(beta) pmf at
        # k0 = floor(alpha) is subnormal.  scipy's ncx2 is itself 3e-10 off Q1
        # here (an mpmath sum at 50 digits gives 2.0779942655767459e-160 for
        # these rounded a and b).
        a, b = math.sqrt(2 * 165110.5), math.sqrt(2 * 180968.0)
        got = marcum_q1(a, b, Tolerance(1e-12, 20000), complement)
        want = (stats.ncx2.cdf if complement else stats.ncx2.sf)(2 * 180968.0, 2, 2 * 165110.5)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        if not complement:
            assert got == pytest.approx(2.0779942655767459e-160, rel=1e-14, abs=0.0)


def test_import_loads_numpy_only():
    # the runtime depends on numpy alone; scipy and mpmath are test oracles
    src = str(Path(specfun.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, faslcr; "
            "print(faslcr.__file__, [m for m in ('scipy', 'mpmath') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    path, loaded = done.stdout.rsplit(" ", 1)
    assert Path(path).resolve().parent == Path(specfun.__file__).resolve().parent
    assert loaded.strip() == "[]"


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

    def test_subnormal_seed_stops(self):
        # Pr[Poisson(180968) = 165110] ~ 1e-314 is subnormal: 5e-324 times any
        # ratio above 1/2 rounds back to itself, so a stop at 1e-18 of the sum
        # alone (0 here) would walk ~75000 more terms, until k/lam < 1/2
        k = np.array([165110.0, 5.0])
        lam = np.array([180968.0, 5.0])
        pmf = _poisson_pmf(k, lam)
        assert 0.0 < pmf[0] < np.finfo(float).tiny
        cdf = _poisson_tail(k, lam, pmf, False, max_terms=20000)
        sf = _poisson_tail(k, lam, pmf, True, max_terms=20000)
        assert cdf == pytest.approx(stats.poisson.cdf(k, lam), rel=1e-12, abs=1e-300)
        assert sf == pytest.approx(stats.poisson.sf(k, lam), rel=1e-12, abs=0.0)


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
