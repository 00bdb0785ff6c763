"""Analytic crossing-rate paths against brute-force oracles and each other."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from faslcr import lcr_analytic, specfun
from faslcr.channel_model import (
    IDENTICAL_CHANNEL_CUTOFF,
    CorrelationProfile,
    FasConfig,
    correlation_profile,
)
from faslcr.errors import AccuracyError, ConfigError, DomainError, SingularityError
from faslcr.lcr_analytic import (
    _INITIAL_EDGES,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    lcr_identical,
    lcr_iid,
    lcr_theorem1,
    lcr_two_port_series,
)
from faslcr.specfun import marcum_q1

from oracles import (
    n_port_lcr_bruteforce,
    pair_density,
    rayleigh_lcr,
    theorem1_graded_quad,
    theorem1_ncx2_per_term,
    theorem1_per_term,
    two_port_lcr_ncx2,
    two_port_lcr_quad,
)
from scipy import integrate

# The paper's threshold grid.
PAPER_GRID = tuple(float(x) for x in np.linspace(0.05, 3.0, 20))

# sigma = 2^k for the sigma-scale tests, from sigma^2 = 2^-1040 to 2^1020.
SIGMA_SCALE_KS = (-520, -8, 1, 8, 510)


def uncorrelated(n):
    return CorrelationProfile(mu=(0.0,) * n)


def below_threshold_factor(sigma2, mu, x1, x_th):
    """F_k(x1) = 1 - Q1(sqrt(2 mu^2/s) x1, sqrt(2/s) x_th), s = sigma^2 (1 - mu^2),
    from the public ``marcum_q1``; ``mu`` may be an array of correlations."""
    s = sigma2 * (1.0 - np.square(mu))
    return marcum_q1(np.sqrt(2.0 * np.square(mu) / s) * x1, np.sqrt(2.0 / s) * x_th, True)


def theorem1_per_term_quad(cfg, prof, x_th):
    """``theorem1_per_term`` with products of public ``marcum_q1`` complements
    as the factor products."""
    mu = np.asarray(prof.mu[1:], dtype=float)
    ports = np.arange(2, cfg.n_ports + 1)
    return theorem1_per_term(
        cfg.sigma2, prof.mu, x_th,
        lambda x1, i: float(np.prod(below_threshold_factor(cfg.sigma2, mu, x1, x_th)[ports != i])),
        cfg.f_doppler,
    )


class TestLcrIid:
    def test_peak_location_and_value(self):
        # d/dx (x exp(-x^2)) = 0 at x = 1/sqrt(2); peak value 1.0750476...
        cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
        peak_x = 1.0 / math.sqrt(2.0)
        assert lcr_iid(cfg, peak_x) == pytest.approx(1.0750476034999201, rel=1e-14)
        grid = np.linspace(0.01, 3.0, 2000)
        vals = [lcr_iid(cfg, float(x)) for x in grid]
        assert abs(grid[int(np.argmax(vals))] - peak_x) < 2e-3
        assert max(vals) <= lcr_iid(cfg, peak_x) + 1e-12

    def test_diversity_suppresses_deep_fades(self):
        cfg1 = FasConfig(1, 0.0)
        cfg2 = FasConfig(2, 0.0)
        x = 0.1
        ratio = lcr_iid(cfg2, x) / lcr_iid(cfg1, x)
        assert ratio == pytest.approx(2.0 * -math.expm1(-0.01), rel=1e-12)
        assert ratio < 1.0

    def test_limits(self):
        cfg = FasConfig(3, 0.0)
        assert lcr_iid(cfg, 1e-12) == pytest.approx(0.0, abs=1e-20)
        assert lcr_iid(cfg, 50.0) == pytest.approx(0.0, abs=1e-300)

    def test_monotone_in_n_below_rms(self):
        x = 0.3
        vals = [lcr_iid(FasConfig(n, 0.0), x) for n in range(1, 9)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            lcr_iid(FasConfig(2, 0.0), 0.0)
        with pytest.raises(DomainError):
            lcr_iid(FasConfig(2, 0.0), math.inf)
        with pytest.raises(DomainError):
            lcr_iid(FasConfig(2, 0.0), 10**400)


class TestLcrIdentical:
    def test_equals_single_port_iid(self):
        cfg_n = FasConfig(5, 0.0, sigma2=1.3, f_doppler=2.0)
        cfg_1 = FasConfig(1, 0.0, sigma2=1.3, f_doppler=2.0)
        for x in (0.2, 0.9, 1.7, 3.0):
            assert lcr_identical(cfg_n, x) == pytest.approx(lcr_iid(cfg_1, x), rel=1e-14)

    def test_reference_value(self):
        cfg = FasConfig(3, 0.0, sigma2=1.0, f_doppler=10.0)
        assert lcr_identical(cfg, 1.0) == pytest.approx(9.22137008895789, rel=1e-14)

    def test_independent_of_port_count(self):
        for n in (1, 2, 8, 32):
            cfg = FasConfig(n, 0.2, sigma2=1.0, f_doppler=1.0)
            assert lcr_identical(cfg, 0.8) == pytest.approx(
                rayleigh_lcr(1.0, 1.0, 0.8), rel=1e-14
            )

    def test_doppler_scaling(self):
        lo = lcr_identical(FasConfig(2, 0.1, f_doppler=3.0), 1.1)
        hi = lcr_identical(FasConfig(2, 0.1, f_doppler=6.0), 1.1)
        assert hi == pytest.approx(2.0 * lo, rel=1e-15)


@pytest.mark.parametrize("rate", [
    lambda cfg: lcr_iid(cfg, 1.0),
    lambda cfg: lcr_identical(cfg, 1.0),
    lambda cfg: lcr_two_port_series(cfg, 0.5, 1.0),
    lambda cfg: lcr_theorem1(cfg, CorrelationProfile(mu=(0.0, 0.5)), 1.0),
], ids=["iid", "identical", "two_port_series", "theorem1"])
def test_rates_refuse_a_non_config(rate):
    with pytest.raises(ConfigError, match="expected FasConfig, got str"):
        rate("not a config")


@pytest.mark.parametrize("f_doppler", [1.0, 1e300])
@pytest.mark.parametrize("sigmas", [40.0, 1e3, 1e100, 1e300])
@pytest.mark.parametrize("rate", [
    lambda cfg, x: lcr_iid(cfg, x),
    lambda cfg, x: lcr_identical(cfg, x),
    lambda cfg, x: lcr_two_port_series(cfg, 0.5, x),
    lambda cfg, x: lcr_theorem1(cfg, correlation_profile(cfg), x),
], ids=["iid", "identical", "two_port_series", "theorem1"])
def test_rates_vanish_from_forty_sigma(rate, sigmas, f_doppler):
    # below the smallest subnormal there; x_th f_D/sigma and the Marcum
    # arguments would overflow
    cfg = FasConfig(4, 0.3, sigma2=2.0, f_doppler=f_doppler)
    assert rate(cfg, sigmas * cfg.sigma) == 0.0
    # at the other end x_th/sigma underflows to 0
    assert rate(FasConfig(4, 0.3, sigma2=1e100), 1e-300) == 0.0


class TestTwoPortSeries:
    def test_calls_marcum_q1_with_positional_arguments(self, monkeypatch):
        # tracing wrappers of lcr_analytic.marcum_q1 take (a, b, *rest)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return specfun.marcum_q1(*args, **kwargs)

        monkeypatch.setattr(lcr_analytic, "marcum_q1", spy)
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        got = lcr_two_port_series(cfg, 0.6, 0.8)
        monkeypatch.undo()
        assert got == lcr_two_port_series(cfg, 0.6, 0.8)
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert kwargs == {} and len(args) == 3 and args[2] is True

    def test_mu_zero_is_two_port_iid(self):
        cfg = FasConfig(2, 0.1, sigma2=1.4, f_doppler=2.5)
        for x in (0.1, 0.8, 2.2):
            assert lcr_two_port_series(cfg, 0.0, x) == pytest.approx(
                lcr_iid(cfg, x), rel=1e-12
            )

    @pytest.mark.parametrize("mu", [0.3, 0.6, 0.9, 0.99])
    def test_against_quadrature_oracle(self, mu):
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        for x in (0.05, 0.5, 1.0, 2.0, 3.0):
            want = two_port_lcr_quad(1.0, mu, x)
            assert lcr_two_port_series(cfg, mu, x) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mu", [0.3, 0.6, 0.9, 0.99])
    def test_deep_fade_against_ncx2_oracle(self, mu):
        # down to x_th = 1e-10 sigma (-200 dB), where each survivor mass is
        # ~1e-20 and a survivor formed as 1 - CDF would come out 0
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        for x in (1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-10):
            want = two_port_lcr_ncx2(1.0, mu, x)
            assert lcr_two_port_series(cfg, mu, x) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_approach_to_identical_limit(self):
        # the deviation from the fully-correlated closed form shrinks like
        # sqrt(1 - mu^2): about 12.6% at mu = 0.9, 4.0% at 0.99, 1.3% at 0.999
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        ident = lcr_identical(cfg, 1.0)
        devs = [
            abs(lcr_two_port_series(cfg, mu, 1.0) / ident - 1.0)
            for mu in (0.9, 0.99, 0.999)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.02
        ratios = [devs[i] / devs[i + 1] for i in range(2)]
        # each factor-of-10 step in (1 - mu^2)... halves-ish the deviation by sqrt(10)
        assert all(2.5 < r < 4.0 for r in ratios)

    def test_unimodal(self):
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        for mu in (0.3, 0.9):
            grid = np.linspace(0.02, 4.0, 400)
            vals = np.array([lcr_two_port_series(cfg, mu, float(x)) for x in grid])
            diffs = np.diff(vals)
            sign_changes = int(np.sum(np.sign(diffs[:-1]) != np.sign(diffs[1:])))
            assert sign_changes == 1

    def test_extreme_mu_against_quadrature(self):
        # y ~ 5e5: Temme's expansion, whose cost does not grow with y
        cfg = FasConfig(2, 0.1)
        mu = 1.0 - 1e-6
        got = lcr_two_port_series(cfg, mu, 1.0)
        assert got == pytest.approx(two_port_lcr_quad(1.0, mu, 1.0), rel=1e-8)

    def test_errors(self):
        cfg = FasConfig(2, 0.1)
        for mu in (1.0, -1.0, IDENTICAL_CHANNEL_CUTOFF, -IDENTICAL_CHANNEL_CUTOFF):
            with pytest.raises(SingularityError):
                lcr_two_port_series(cfg, mu, 1.0)
        # the profile's domain is [-1, 1], and the rate depends on |mu| only
        assert lcr_two_port_series(cfg, -0.2, 1.0) == lcr_two_port_series(cfg, 0.2, 1.0)
        with pytest.raises(DomainError):
            lcr_two_port_series(cfg, 0.5, -1.0)
        with pytest.raises(DomainError):
            lcr_two_port_series(cfg, "0.5", 1.0)
        for mu in (1.5, -1.5, -1.0 - 1e-15):
            with pytest.raises(DomainError):
                lcr_two_port_series(cfg, mu, 1.0)
        with pytest.raises(ConfigError):
            lcr_two_port_series("not a config", 0.5, 1.0)

    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.9])
    def test_negative_correlation_gives_the_rate_of_its_magnitude(self, mu):
        cfg = FasConfig(2, 0.1, sigma2=1.3, f_doppler=2.0)
        for x in (1e-8, 0.05, 1.0, 3.0):
            assert lcr_two_port_series(cfg, -mu, x) == lcr_two_port_series(cfg, mu, x)

    def test_numpy_scalar_correlations_accepted(self):
        cfg = FasConfig(2, 0.1)
        want = lcr_two_port_series(cfg, 0.5, 1.0)
        assert lcr_two_port_series(cfg, np.float64(0.5), 1.0) == want
        assert lcr_two_port_series(cfg, np.float32(0.5), 1.0) == want
        assert lcr_two_port_series(cfg, np.int64(0), 1.0) == lcr_two_port_series(cfg, 0, 1.0)


class TestBelowThresholdFactor:
    """F_k, the docstring's below-threshold factor: the mass of the pair
    density of the reference (at x1) and port k on [0, x_th]."""

    def test_x1_zero_reduces_to_gaussian_tails(self):
        # Q1(0, b) = exp(-b^2/2) applied termwise
        cfg = FasConfig(3, 0.3, sigma2=1.2)
        prof = correlation_profile(cfg)
        got = math.prod(below_threshold_factor(1.2, mu, 0.0, 0.9) for mu in prof.mu[1:])
        want = 1.0
        for mu in prof.mu[1:]:
            b2 = 2.0 / (1.2 * (1.0 - mu * mu)) * 0.81
            want *= 1.0 - math.exp(-0.5 * b2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_against_per_factor_quadrature(self):
        # each factor is the mass of one bivariate pair on [0, x_th]
        cfg = FasConfig(3, 0.3, sigma2=1.0)
        prof = correlation_profile(cfg)
        x1 = x_th = 1.0
        want = 1.0
        for mu in prof.mu[1:]:
            val, _ = integrate.quad(
                lambda xk, m=mu: pair_density(1.0, m, x1, xk), 0.0, x_th,
                epsabs=1e-12, epsrel=1e-11,
            )
            want *= val
        got = math.prod(below_threshold_factor(1.0, mu, x1, x_th) for mu in prof.mu[1:])
        assert got == pytest.approx(want, rel=1e-6)


class TestTheorem1:
    def test_single_port_is_classical_rayleigh(self):
        cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        for x in (0.1, 0.7, 1.5, 3.0):
            assert lcr_theorem1(cfg, prof, x) == pytest.approx(
                rayleigh_lcr(1.0, 1.0, x), rel=1e-13
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
    def test_uncorrelated_reduction(self, n):
        cfg = FasConfig(n, 0.0, sigma2=2.0, f_doppler=3.0)
        prof = uncorrelated(n)
        for x in np.linspace(0.05, 3.0, 20) * cfg.sigma:
            t = lcr_theorem1(cfg, prof, float(x))
            assert t == pytest.approx(lcr_iid(cfg, float(x)), rel=1e-10)

    # the last three are J0(2 pi W) at N = 2 for W = 2e-5, 3e-4 and 1e-3, near
    # the identical-channel cutoff, where the summand's exponent would cancel
    # terms of order rho^2/(1 - mu^2) if it were not formed from the difference
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 0.9, -0.6, 0.99999999605215828,
                                    0.99999911173580114, 0.99999013041995122])
    def test_two_port_path_equivalence(self, mu):
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        prof = CorrelationProfile(mu=(0.0, mu))
        for x in np.linspace(0.05, 3.0, 20):
            t = lcr_theorem1(cfg, prof, float(x))
            s = lcr_two_port_series(cfg, mu, float(x))
            assert t == pytest.approx(s, rel=1e-8)

    @pytest.mark.parametrize("x_th", [0.3, 0.8, 1.4])
    def test_three_port_first_principles(self, x_th):
        # double integration of the raw joint density over [0, x_th]^2
        cfg = FasConfig(3, 0.3, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        want = n_port_lcr_bruteforce(1.0, prof.mu, x_th)
        assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-6)

    def test_two_port_first_principles_scaled_config(self):
        cfg = FasConfig(2, 0.25, sigma2=1.8, f_doppler=4.0)
        prof = correlation_profile(cfg)
        for x in (0.5, 1.3, 2.4):
            want = n_port_lcr_bruteforce(1.8, prof.mu, x, fd=4.0)
            assert lcr_theorem1(cfg, prof, x) == pytest.approx(want, rel=1e-7)

    def test_nonnegative_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            w = float(rng.uniform(0.0, 0.38))
            cfg = FasConfig(n, w, sigma2=float(rng.uniform(0.5, 2.0)),
                            f_doppler=float(rng.uniform(0.5, 20.0)))
            prof = correlation_profile(cfg)
            if prof.singular_ports():
                continue
            x = float(rng.uniform(0.05, 3.0)) * cfg.sigma
            assert lcr_theorem1(cfg, prof, x) >= 0.0

    @pytest.mark.parametrize("n, w, x_th", [
        (6, 0.3, 0.4), (6, 0.3, 1.2), (6, 0.3, 2.5), (8, 0.1, 1.758),
    ])
    def test_matches_per_term_reference(self, n, w, x_th):
        cfg = FasConfig(n, w, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        want = theorem1_per_term_quad(cfg, prof, x_th)
        assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-8)

    def test_deep_fade_leave_one_out_is_finite(self):
        # down to -200 dB: each factor 1 - Q1 ~ x_th^2 is summed rather than
        # formed as 1 - Q1, which rounds to 0 below x_th ~ 1e-8, and the
        # leave-one-out products never divide by a factor, which would give
        # 0/0 wherever factors underflow
        cfg = FasConfig(4, 0.0, sigma2=1.0, f_doppler=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
                got = lcr_theorem1(cfg, uncorrelated(4), x)
                assert got == pytest.approx(lcr_iid(cfg, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, x_th", [
        (8, PAPER_GRID[11]), (8, PAPER_GRID[12]), (6, PAPER_GRID[16]), (6, PAPER_GRID[17]),
        (64, PAPER_GRID[19]),
    ])
    def test_dense_paper_grid_against_ncx2_factors(self, n, x_th):
        # W = 0.1 rows whose factors see beta > 745 with alpha <= 700, and
        # N = 64 at x_th = 3 (0.00760676), whose factors reach alpha ~ 1.6e5
        cfg = FasConfig(n, 0.1, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        want = theorem1_ncx2_per_term(1.0, prof.mu, x_th)
        assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n, w", [(8, 0.05), (16, 0.1), (32, 0.1), (64, 0.3)])
    def test_high_correlation_against_graded_quad(self, n, w):
        # neighbour correlations of 0.9995 to 0.9999 put a boundary layer of
        # width ~0.01-0.03 at x1 = x_th; the oracle is scipy's quad on dyadic
        # breakpoints toward x_th, with scipy's factors
        cfg = FasConfig(n, w, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        for x_th in (0.05, 0.4, 1.2, 2.534, 3.0):
            want = theorem1_graded_quad(1.0, prof.mu, x_th)
            assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rate, k", [
        *(pytest.param(lcr_theorem1, k, id=str(k)) for k in SIGMA_SCALE_KS),
        *(pytest.param(rate, k, id=f"{name}-{k}") for k in SIGMA_SCALE_KS for name, rate in (
            ("iid", lambda cfg, prof, x: lcr_iid(cfg, x)),
            ("identical", lambda cfg, prof, x: lcr_identical(cfg, x)),
            ("two_port_series",
             lambda cfg, prof, x: lcr_two_port_series(replace(cfg, n_ports=2), 0.5, x)),
        )),
    ])
    def test_depends_on_the_threshold_through_x_over_sigma(self, rate, k):
        # at sigma = 2^k every quantity scales exactly, so the rate equals
        # its sigma = 1 value bit for bit, from sigma^2 = 2^-1040 to 2^1020;
        # the closed forms take the same points
        sigma = 2.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, w in ((2, 0.3), (4, 0.3), (8, 0.1)):
                unit = FasConfig(n, w)
                prof = correlation_profile(unit)
                scaled = FasConfig(n, w, sigma2=sigma * sigma)
                for rho in (0.5, 1.0, 2.0, 3.0, 4.0):
                    assert rate(scaled, prof, rho * sigma) == rate(unit, prof, rho)

    def test_doppler_linearity(self):
        # every rate is formed at f_D = 1 and multiplied by f_D last, so it is
        # f_D times its f_D = 1 value bit for bit, and stays finite where
        # sqrt(2 pi) f_D alone would overflow
        cfg1 = FasConfig(3, 0.2)
        prof = correlation_profile(cfg1)
        rates = (lcr_theorem1, lambda cfg, prof, x: lcr_iid(cfg, x),
                 lambda cfg, prof, x: lcr_identical(cfg, x),
                 lambda cfg, prof, x: lcr_two_port_series(replace(cfg, n_ports=2), 0.5, x))
        for f_d in (7.0, 2.0 ** -1000, 1e308):
            cfg = FasConfig(3, 0.2, f_doppler=f_d)
            for rate in rates:
                for x in (0.4, 1.0, 2.0):
                    got = rate(cfg, prof, x)
                    assert math.isfinite(got) and got == f_d * rate(cfg1, prof, x)

    @pytest.mark.parametrize("n, w", [(4, 0.1), (16, 3e-4), (64, 1e-3), (8, 1e-4)])
    def test_dense_profile_near_unity_correlation(self, n, w):
        # W = 0.1 with 4 ports puts mu_2 near 0.989, and the other three put
        # 1 - mu_2 at 2e-9 to 4e-9, mu_2 just below the cutoff; the conditional
        # densities' exponents and the quadrature budget must cope across the
        # threshold grid
        cfg = FasConfig(n, w, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        vals = [lcr_theorem1(cfg, prof, float(x)) for x in np.linspace(0.05, 3.0, 12)]
        assert all(math.isfinite(v) and v >= 0.0 for v in vals)
        assert max(vals) > 1.0  # peak NLCR of this config exceeds 1

    def test_mixed_singular_profile_rejected(self):
        cfg = FasConfig(3, 0.1)
        prof = CorrelationProfile(mu=(0.0, 1.0 - 1e-10, 0.5))
        with pytest.raises(SingularityError):
            lcr_theorem1(cfg, prof, 1.0)

    def test_profile_mismatch_rejected(self):
        cfg = FasConfig(3, 0.1)
        with pytest.raises(ConfigError):
            lcr_theorem1(cfg, correlation_profile(FasConfig(2, 0.1)), 1.0)

    def test_quadrature_cap_raises_with_partial(self, monkeypatch):
        cfg = FasConfig(4, 0.1)
        prof = correlation_profile(cfg)
        monkeypatch.setattr(lcr_analytic, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(AccuracyError) as exc:
            lcr_theorem1(cfg, prof, 1.0)
        assert exc.value.partial is not None

    @pytest.mark.parametrize("n,w,x_th", [
        (4, 0.1, 1.0), (8, 0.3, 2.0), (6, 0.1, 2.5),
        pytest.param(4, 0.1, np.float64(1.0), id="4-0.1-float64"),
    ])
    def test_quadrature_cap_partial_is_a_rate(self, monkeypatch, n, w, x_th):
        cfg = FasConfig(n, w)
        prof = correlation_profile(cfg)
        want = lcr_theorem1(cfg, prof, x_th)
        monkeypatch.setattr(lcr_analytic, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(AccuracyError) as exc:
            lcr_theorem1(cfg, prof, x_th)
        assert exc.value.partial == pytest.approx(want, rel=1e-6)
        # the message names the validated float threshold, never np.float64(...)
        assert f"N = {n}, x_th = {float(x_th)!r}" in str(exc.value)
        assert "np.float64" not in str(exc.value)

    @pytest.mark.parametrize("n,w,x_th", [
        (1, 0.0, 1.0), (2, 0.3, 0.05), (4, 0.3, 1.2), (8, 0.1, 1.758), (12, 0.3, 3.0),
    ])
    def test_starting_cuts_count_as_subdivisions(self, monkeypatch, n, w, x_th):
        # five starting panels are four subdivisions, so caps of 2 and 3 are
        # exceeded by the first round at every point, converged or not
        cfg = FasConfig(n, w)
        prof = correlation_profile(cfg)
        want = lcr_theorem1(cfg, prof, x_th)
        for cap in (2, 3):
            monkeypatch.setattr(lcr_analytic, "_MAX_SUBDIVISIONS", cap)
            with pytest.raises(AccuracyError) as exc:
                lcr_theorem1(cfg, prof, x_th)
            assert exc.value.partial == pytest.approx(want, rel=1e-6)

    def test_cap_of_four_admits_the_starting_panels(self, monkeypatch):
        # a one-port rate has a zero integral: the starting panels all converge
        cfg = FasConfig(1, 0.0)
        prof = correlation_profile(cfg)
        want = lcr_theorem1(cfg, prof, 1.0)
        monkeypatch.setattr(lcr_analytic, "_MAX_SUBDIVISIONS", 4)
        assert lcr_theorem1(cfg, prof, 1.0) == want


class TestKronrodRule:
    def test_table_matches_quadpack(self, monkeypatch):
        # scipy's qk21 constants, read by stubbing the panel evaluator they feed;
        # both tables are correctly rounded from more digits, so they agree exactly
        from scipy.integrate import _quad_vec
        monkeypatch.setattr(_quad_vec, "_quadrature_gk", lambda a, b, f, norm, x, w, v: (x, w, v))
        x, w, v = (np.array(t, dtype=float)[::-1]
                   for t in _quad_vec._quadrature_gk21(-1.0, 1.0, None, None))
        assert np.array_equal(_KRONROD_NODES, x)
        assert np.array_equal(_KRONROD_WEIGHTS[:, 0], v)
        assert np.array_equal(_KRONROD_WEIGHTS[1::2, 1], w)
        assert not np.any(_KRONROD_WEIGHTS[0::2, 1])

    def test_polynomial_exactness(self):
        # K21 integrates x^d over [-1, 1] exactly up to d = 31, and G10 up to 19
        for d in range(32):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            k21, g10 = _KRONROD_NODES ** d @ _KRONROD_WEIGHTS
            assert k21 == pytest.approx(exact, abs=1e-15)
            if d < 20:
                assert g10 == pytest.approx(exact, abs=1e-15)
        assert abs(_KRONROD_NODES ** 20 @ _KRONROD_WEIGHTS[:, 1] - 2.0 / 21) > 1e-7

    def test_every_round_evaluates_21_nodes_per_panel(self, monkeypatch):
        calls = []
        integrate_adaptive = lcr_analytic._integrate_adaptive

        def spy(f, lo, hi):
            def recorded(x):
                calls.append(x.copy())
                return f(x)
            return integrate_adaptive(recorded, lo, hi)

        monkeypatch.setattr(lcr_analytic, "_integrate_adaptive", spy)
        cfg = FasConfig(16, 0.05)
        lcr_theorem1(cfg, correlation_profile(cfg), 2.534)   # a point that splits
        assert len(calls) > 2
        for r, x in enumerate(calls):
            panels = x.reshape(-1, 21)
            assert len(panels) == len(_INITIAL_EDGES) - 1 if r == 0 else len(panels) % 2 == 0
            mid = 0.5 * (panels[:, 0] + panels[:, -1])
            half = (panels[:, -1] - panels[:, 0]) / (2.0 * _KRONROD_NODES[-1])
            assert panels == pytest.approx(mid[:, None] + half[:, None] * _KRONROD_NODES,
                                           rel=0.0, abs=1e-14)
        # round 0: the panels graded toward x_th, edges x_th (0, 1/2, 3/4, 7/8, 15/16, 1)
        assert _INITIAL_EDGES == (0.0, 0.5, 0.75, 0.875, 0.9375, 1.0)
        edges = 2.534 * np.array(_INITIAL_EDGES)
        lo, hi = edges[:-1, None], edges[1:, None]
        want = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _KRONROD_NODES
        assert calls[0] == pytest.approx(want.ravel(), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("w", [0.1, 0.3])
    @pytest.mark.parametrize("x_th", [1.758, 2.534])
    def test_one_marcum_call_per_round(self, monkeypatch, n, w, x_th):
        # the reference-port factors F_k(x_th) ride on the first round's call
        marcum_calls, rounds = [], []
        marcum_kernel = lcr_analytic._marcum_kernel
        integrate_adaptive = lcr_analytic._integrate_adaptive

        def marcum_spy(*args, **kwargs):
            marcum_calls.append(args)
            return marcum_kernel(*args, **kwargs)

        def integrate_spy(f, lo, hi):
            def recorded(x):
                rounds.append(x.size)
                return f(x)
            return integrate_adaptive(recorded, lo, hi)

        monkeypatch.setattr(lcr_analytic, "_marcum_kernel", marcum_spy)
        monkeypatch.setattr(lcr_analytic, "_integrate_adaptive", integrate_spy)
        cfg = FasConfig(n, w)
        lcr_theorem1(cfg, correlation_profile(cfg), x_th)
        assert len(rounds) >= 1
        assert len(marcum_calls) == len(rounds)

    @pytest.mark.parametrize("n", [6, 8])
    def test_dense_paper_grid_converges_in_one_round(self, monkeypatch, n):
        # the graded starting panels resolve the boundary layer at x1 = x_th,
        # so at W = 0.1 no point of the paper grid needs a second round
        marcum_calls = []
        marcum_kernel = lcr_analytic._marcum_kernel

        def marcum_spy(*args, **kwargs):
            marcum_calls.append(args)
            return marcum_kernel(*args, **kwargs)

        monkeypatch.setattr(lcr_analytic, "_marcum_kernel", marcum_spy)
        cfg = FasConfig(n, 0.1)
        prof = correlation_profile(cfg)
        for x_th in PAPER_GRID:
            marcum_calls.clear()
            lcr_theorem1(cfg, prof, x_th)
            assert len(marcum_calls) == 1, x_th

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("w", [0.1, 0.3])
    @pytest.mark.parametrize("x_th", [0.05, 1.758, 2.534])
    def test_one_scaled_i0_per_round(self, monkeypatch, n, w, x_th):
        # the Marcum kernel and the integrand share one I0~(xi) per round,
        # also in rounds with elements on the Bessel-series route, which reads it
        i0_args, rounds = [], []
        integrate_adaptive = lcr_analytic._integrate_adaptive

        def integrate_spy(f, lo, hi):
            def recorded(x):
                rounds.append(x.size)
                return f(x)
            return integrate_adaptive(recorded, lo, hi)

        for module in (specfun, lcr_analytic):
            def i0_spy(x, i0=module.bessel_i0_scaled):
                i0_args.append(np.asarray(x))
                return i0(x)
            monkeypatch.setattr(module, "bessel_i0_scaled", i0_spy)
        monkeypatch.setattr(lcr_analytic, "_integrate_adaptive", integrate_spy)
        cfg = FasConfig(n, w)
        lcr_theorem1(cfg, correlation_profile(cfg), x_th)
        assert len(rounds) >= 1
        assert len(i0_args) == len(rounds)
        assert any(np.any(xi <= specfun._TEMME_XI) for xi in i0_args)


class TestQuadratureBudget:
    def test_defaults(self):
        assert lcr_analytic._ABS_EPS == 1e-12
        assert lcr_analytic._REL_EPS == 1e-9
        assert lcr_analytic._MAX_SUBDIVISIONS == 200
