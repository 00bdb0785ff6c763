"""Configuration, correlation profile, and envelope-density contracts."""

import math

import numpy as np
import pytest
from scipy import integrate

from faslcr.channel_model import (
    APERTURE_IN_RANGE_MAX,
    IDENTICAL_CHANNEL_CUTOFF,
    CorrelationProfile,
    FasConfig,
    bivariate_pdf,
    correlation_profile,
    joint_pdf,
)
from faslcr.errors import ConfigError, DomainError, SingularityError

from oracles import j0_series, joint_density


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

    def test_matches_bivariate_specialization(self):
        cfg = FasConfig(2, 0.1, sigma2=1.7)
        prof = CorrelationProfile(mu=(0.0, 0.5))
        for x1, x2 in [(0.3, 1.1), (1.0, 1.0), (2.0, 0.2)]:
            assert joint_pdf(cfg, prof, [x1, x2]) == pytest.approx(
                bivariate_pdf(1.7, 0.5, x1, x2), rel=1e-13
            )

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
        # fused exponents must not overflow
        cfg = FasConfig(2, 0.01, sigma2=1.0)
        prof = CorrelationProfile(mu=(0.0, 1.0 - 1e-8))
        got = joint_pdf(cfg, prof, [1.0, 1.0])
        assert math.isfinite(got) and got >= 0.0

    def test_singularity_error(self):
        cfg = FasConfig(2, 0.0)
        with pytest.raises(SingularityError):
            joint_pdf(cfg, correlation_profile(cfg), [1.0, 1.0])
        with pytest.raises(SingularityError):
            joint_pdf(cfg, CorrelationProfile(mu=(0.0, 1.0 - 1e-10)), [1.0, 1.0])

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


class TestBivariatePdf:
    def test_independent_product_form(self):
        for x1, x2 in [(0.5, 0.5), (1.0, 2.0), (0.1, 3.0)]:
            got = bivariate_pdf(1.0, 0.0, x1, x2)
            want = 4.0 * x1 * x2 * math.exp(-x1 * x1 - x2 * x2)
            assert got == pytest.approx(want, rel=1e-14)

    def test_symmetry(self):
        assert bivariate_pdf(1.4, 0.6, 0.8, 1.9) == pytest.approx(
            bivariate_pdf(1.4, 0.6, 1.9, 0.8), rel=1e-14
        )

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 0.95])
    def test_normalization(self, mu):
        # integral over the truncated quadrant [0, 8 sigma]^2 is 1 to 1e-6
        val, _ = integrate.dblquad(
            lambda x2, x1: bivariate_pdf(1.0, mu, x1, x2),
            0.0, 8.0, 0.0, 8.0, epsabs=1e-9, epsrel=1e-8,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_errors(self):
        with pytest.raises(SingularityError):
            bivariate_pdf(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(SingularityError):
            bivariate_pdf(1.0, IDENTICAL_CHANNEL_CUTOFF, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, -0.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, "0.5", 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, False, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, 0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(0.0, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(True, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, 1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, 0.5, "1.0", 1.0)
        with pytest.raises(DomainError):
            bivariate_pdf(1.0, 0.5, 1.0, True)
