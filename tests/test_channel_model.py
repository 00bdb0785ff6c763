"""Configuration, correlation profile, and envelope-density contracts."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from faslcr.channel_model import (
    APERTURE_IN_RANGE_MAX,
    IDENTICAL_CHANNEL_CUTOFF,
    CorrelationProfile,
    FasConfig,
    correlation_profile,
    joint_pdf,
)
from faslcr.errors import ConfigError, DomainError, SingularityError

from oracles import j0_series, joint_density

# joint_pdf at N = 2, sigma^2 = 1, mu = float(1 - 1e-6) exactly, on the
# diagonal (x, x): mpmath at 40 digits of 2x exp(-x^2) (2x/s)
# exp(-(x^2 + mu^2 x^2)/s) I0(2 mu x^2/s), s = 1 - mu^2
NEAR_CUTOFF_DIAGONAL = [(1.0, 293.52543641533260), (2.0, 29.227495359651676),
                        (2.5, 3.8506898081399916), (3.0, 0.29539922834618569)]


class TestFasConfig:
    def test_valid(self):
        cfg = FasConfig(n_ports=4, aperture=0.3, sigma2=2.0, f_doppler=10.0)
        assert cfg.sigma == math.sqrt(2.0)
        assert cfg.aperture_in_range

    @pytest.mark.parametrize("kwargs", [
        {"n_ports": 0, "aperture": 0.1},
        {"n_ports": -2, "aperture": 0.1},
        {"n_ports": 2.5, "aperture": 0.1},
        {"n_ports": 2, "aperture": -0.1},
        {"n_ports": 2, "aperture": math.nan},
        {"n_ports": 2, "aperture": 0.1, "sigma2": 0.0},
        {"n_ports": 2, "aperture": 0.1, "sigma2": -1.0},
        {"n_ports": 2, "aperture": 0.1, "f_doppler": 0.0},
        {"n_ports": True, "aperture": 0.1},
        {"n_ports": 2, "aperture": True},
        {"n_ports": 2, "aperture": 0.1, "sigma2": True},
        {"n_ports": 2, "aperture": 0.1, "f_doppler": True},
        {"n_ports": 2, "aperture": 10**400},
        {"n_ports": 2, "aperture": 0.1, "sigma2": 10**400},
        {"n_ports": 2, "aperture": 0.1, "f_doppler": -10**400},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            FasConfig(**kwargs)

    def test_out_of_range_flagged_but_constructible(self):
        assert FasConfig(2, APERTURE_IN_RANGE_MAX).aperture_in_range
        cfg = FasConfig(2, APERTURE_IN_RANGE_MAX + 1e-6)
        assert not cfg.aperture_in_range


class TestCorrelationProfile:
    def test_single_port(self):
        assert correlation_profile(FasConfig(1, 0.5)).mu == (0.0,)

    def test_colocated_two_ports(self):
        # W = 0: J0(0) = 1, fully correlated
        assert correlation_profile(FasConfig(2, 0.0)).mu == (0.0, 1.0)

    def test_aperture_edge(self):
        prof = correlation_profile(FasConfig(2, 0.38))
        assert prof.mu[1] == pytest.approx(j0_series(2.0 * math.pi * 0.38), abs=1e-12)
        assert prof.mu[1] == pytest.approx(0.008968896645303091, abs=1e-12)

    def test_three_ports(self):
        prof = correlation_profile(FasConfig(3, 0.3))
        # arguments 0.3*pi and 0.6*pi against the series oracle
        assert prof.mu[1] == pytest.approx(0.7899622341253822, abs=1e-12)
        assert prof.mu[2] == pytest.approx(0.2905642140891243, abs=1e-12)
        assert prof.mu == (0.0,) + tuple(
            j0_series(2.0 * math.pi * k * 0.3 / 2.0) for k in (1, 2)
        )

    def test_deterministic(self):
        cfg = FasConfig(7, 0.22, sigma2=1.5)
        assert correlation_profile(cfg) == correlation_profile(cfg)

    @pytest.mark.parametrize("n,w", [(3, 0.1), (5, 0.25), (8, 0.38)])
    def test_strictly_decreasing_in_range(self, n, w):
        prof = correlation_profile(FasConfig(n, w))
        tail = prof.mu[1:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert all(0.0 <= m < 1.0 for m in tail)

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=())
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=(0.5, 0.2))
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=(0.0, math.nan))
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=(0.0, True))
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=(0.0, "0.5"))
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=(0.0, 1.5))
        with pytest.raises(ConfigError):
            CorrelationProfile(mu=(False, 0.5))

    def test_profile_accepts_numbers_in_the_unit_interval(self):
        prof = CorrelationProfile(mu=(0, np.float32(-0.4), -1.0, np.int64(1)))
        assert prof.n_ports == 4
        assert prof.singular_ports() == [3, 4]

    def test_singular_ports_reported(self):
        prof = CorrelationProfile(mu=(0.0, 0.5, 1.0 - 1e-10))
        assert prof.singular_ports() == [3]


class TestJointPdf:
    def test_single_port_rayleigh_at_rms(self):
        cfg = FasConfig(1, 0.0, sigma2=1.0)
        got = joint_pdf(cfg, correlation_profile(cfg), [1.0])
        assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_uncorrelated_ports_decouple(self):
        cfg = FasConfig(2, 0.1)
        prof = CorrelationProfile(mu=(0.0, 0.0))
        got = joint_pdf(cfg, prof, [0.7, 1.3])
        rayleigh = lambda x: 2.0 * x * math.exp(-x * x)
        assert got == pytest.approx(rayleigh(0.7) * rayleigh(1.3), rel=1e-12)

    def test_correlated_pair_value(self):
        cfg = FasConfig(2, 0.1, sigma2=1.0)
        prof = CorrelationProfile(mu=(0.0, 0.5))
        got = joint_pdf(cfg, prof, [1.0, 1.0])
        assert got == pytest.approx(0.5545093557144033, rel=1e-12)

    def test_nonnegative_and_matches_oracle(self):
        cfg = FasConfig(3, 0.3, sigma2=1.3)
        prof = correlation_profile(cfg)
        rng = np.random.default_rng(5)
        for _ in range(50):
            xs = rng.uniform(0.0, 3.0, 3)
            got = joint_pdf(cfg, prof, xs)
            assert got >= 0.0
            assert got == pytest.approx(float(joint_density(1.3, prof.mu, xs)), rel=1e-11)

    def test_extreme_correlation_is_finite(self):
        # within the admissible band just below the singularity cutoff the
        # conditional density's exponent must not overflow
        cfg = FasConfig(2, 0.01, sigma2=1.0)
        prof = CorrelationProfile(mu=(0.0, 1.0 - 1e-8))
        got = joint_pdf(cfg, prof, [1.0, 1.0])
        assert math.isfinite(got) and got >= 0.0
        # and at 1 - mu = 1e-6 it stays accurate: the exponent is formed from
        # the difference, not as a difference of two terms of order x^2/(1 - mu^2)
        prof = CorrelationProfile(mu=(0.0, 1.0 - 1e-6))
        for x, want in NEAR_CUTOFF_DIAGONAL:
            assert joint_pdf(cfg, prof, [x, x]) == pytest.approx(want, rel=1e-10)

    def test_oracle_is_exact_near_the_cutoff(self):
        # the scipy oracle forms its exponent from the difference as well, so
        # it can check joint_pdf below the 1e-10 that cancellation left it
        for x, want in NEAR_CUTOFF_DIAGONAL:
            got = joint_density(1.0, (0.0, 1.0 - 1e-6), [x, x])
            assert got == pytest.approx(want, rel=1e-11)

    def test_far_above_sigma_is_zero(self):
        # the density is 0.0 in double precision above 1e145 sigma and at the
        # cut itself, and no x / sigma or square of r may overflow on the way:
        # warnings are errors here
        for sigma2, point in [(0.25, [1.0, 1e308]), (1.0, [1.0, 1e200]), (0.25, [1e308]),
                              (1.0, [1e145, 1.0]), (1.0, [1.0, 1e145])]:
            cfg = FasConfig(len(point), 0.3, sigma2=sigma2)
            assert joint_pdf(cfg, correlation_profile(cfg), point) == 0.0

    @pytest.mark.parametrize("k", [-520, -8, 1, 8, 510])
    def test_scales_with_sigma(self, k):
        # at sigma = 2^k every quantity scales exactly, so the density at
        # x sigma is its sigma = 1 value divided by sigma once per port, bit
        # for bit; at |k| > 500 only one-port densities stay normal floats
        sigma = 2.0 ** k
        points = [[0.5], [1.0], [8.0]]
        if abs(k) < 500:
            points += [[1.0, 1.0], [0.3, 2.2], [2.0, 8.0, 1.0], [0.1, 3.0, 2.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in points:
                unit = FasConfig(len(point), 0.3)
                prof = correlation_profile(unit)
                want = joint_pdf(unit, prof, point)
                for _ in point:
                    want /= sigma
                assert sys.float_info.min <= want < math.inf
                scaled = FasConfig(len(point), 0.3, sigma2=sigma * sigma)
                assert joint_pdf(scaled, prof, [x * sigma for x in point]) == want
            if k == 510:
                # a valid point whose density underflows is 0.0, not an error
                cfg = FasConfig(3, 0.3, sigma2=sigma * sigma)
                point = [2.0 * sigma, 8.0 * sigma, sigma]
                assert joint_pdf(cfg, correlation_profile(cfg), point) == 0.0

    def test_singularity_error(self):
        cfg = FasConfig(2, 0.0)
        with pytest.raises(SingularityError):
            joint_pdf(cfg, correlation_profile(cfg), [1.0, 1.0])
        for mu in (1.0 - 1e-10, IDENTICAL_CHANNEL_CUTOFF, -IDENTICAL_CHANNEL_CUTOFF):
            with pytest.raises(SingularityError):
                joint_pdf(cfg, CorrelationProfile(mu=(0.0, mu)), [1.0, 1.0])

    def test_domain_and_config_errors(self):
        cfg = FasConfig(2, 0.1)
        prof = correlation_profile(cfg)
        with pytest.raises(DomainError):
            joint_pdf(cfg, prof, [1.0])                 # wrong length
        with pytest.raises(DomainError):
            joint_pdf(cfg, prof, [-1.0, 1.0])           # negative amplitude
        with pytest.raises(ConfigError):
            joint_pdf(cfg, correlation_profile(FasConfig(3, 0.1)), [1.0, 1.0, 1.0])
        with pytest.raises(ConfigError):
            joint_pdf("not a config", prof, [1.0, 1.0])
        for point in (["1.0", True], [True, False], [1.0, 10**400], [1.0, True]):
            with pytest.raises(DomainError):
                joint_pdf(cfg, prof, point)


class TestPairDensity:
    """joint_pdf at N = 2: the bivariate Rayleigh density of a port pair."""

    @staticmethod
    def pdf(sigma2, mu):
        """(x1, x2) -> the pair density at channel power sigma2 and correlation mu."""
        cfg = FasConfig(2, 0.1, sigma2=sigma2)
        prof = CorrelationProfile(mu=(0.0, mu))
        return lambda x1, x2: joint_pdf(cfg, prof, [x1, x2])

    def test_independent_product_form(self):
        pdf = self.pdf(1.0, 0.0)
        for x1, x2 in [(0.5, 0.5), (1.0, 2.0), (0.1, 3.0)]:
            want = 4.0 * x1 * x2 * math.exp(-x1 * x1 - x2 * x2)
            assert pdf(x1, x2) == pytest.approx(want, rel=1e-14)

    def test_symmetry(self):
        pdf = self.pdf(1.4, 0.6)
        assert pdf(0.8, 1.9) == pytest.approx(pdf(1.9, 0.8), rel=1e-14)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 0.95, -0.7])
    def test_normalization(self, mu):
        # integral over the truncated quadrant [0, 8 sigma]^2 is 1 to 1e-6
        pdf = self.pdf(1.0, mu)
        val, _ = integrate.dblquad(
            lambda x2, x1: pdf(x1, x2),
            0.0, 8.0, 0.0, 8.0, epsabs=1e-9, epsrel=1e-8,
        )
        assert val == pytest.approx(1.0, abs=1e-6)
