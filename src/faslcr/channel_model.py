"""System parameterization, spatial-correlation law, and the joint envelope density.

A fluid antenna occupies one of ``n_ports`` locations spread evenly over a
linear space of ``aperture`` wavelengths.  Port 1 is the reference; the
correlation of port k with port 1 follows the zero-order Bessel law of their
separation, so the admissible aperture range [0, 0.38] keeps every J0
argument below the first zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SingularityError, _is_finite_number, _is_whole_number
from .specfun import _as_float_array, bessel_i0_scaled, bessel_j0

__all__ = [
    "APERTURE_IN_RANGE_MAX",
    "IDENTICAL_CHANNEL_CUTOFF",
    "FasConfig",
    "CorrelationProfile",
    "correlation_profile",
    "joint_pdf",
]

# Largest aperture for which every correlation argument stays below the first
# zero of J0.  Larger apertures are constructible but flagged out of range.
APERTURE_IN_RANGE_MAX = 0.38

# Correlations at or above this are treated as the identical-channel case:
# the joint density divides by (1 - mu^2) and is singular at mu = 1.
IDENTICAL_CHANNEL_CUTOFF = 1.0 - 1e-9


@dataclass(frozen=True)
class FasConfig:
    """Fluid antenna system parameters.

    n_ports   -- number of switchable antenna locations, N >= 1
    aperture  -- linear span of the ports in wavelengths (dimensionless W)
    sigma2    -- per-port channel power E[|h_k|^2], linear units
    f_doppler -- maximum Doppler frequency in Hz
    """

    n_ports: int
    aperture: float
    sigma2: float = 1.0
    f_doppler: float = 1.0

    def __post_init__(self):
        if not (_is_whole_number(self.n_ports) and self.n_ports >= 1):
            raise ConfigError(f"n_ports must be an integer >= 1, got {self.n_ports!r}")
        for name in ("aperture", "sigma2", "f_doppler"):
            v = getattr(self, name)
            if not _is_finite_number(v):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
        if self.aperture < 0.0:
            raise ConfigError(f"aperture must be >= 0, got {self.aperture!r}")
        if self.sigma2 <= 0.0:
            raise ConfigError(f"sigma2 must be > 0, got {self.sigma2!r}")
        if self.f_doppler <= 0.0:
            raise ConfigError(f"f_doppler must be > 0, got {self.f_doppler!r}")

    @property
    def sigma(self):
        """RMS envelope amplitude, sqrt(sigma2)."""
        return math.sqrt(self.sigma2)

    @property
    def aperture_in_range(self):
        """True when the aperture keeps all correlations below the first J0 zero."""
        return self.aperture <= APERTURE_IN_RANGE_MAX


@dataclass(frozen=True)
class CorrelationProfile:
    """Spatial correlation coefficients mu_1..mu_N in [-1, 1]; mu_1 = 0 by convention."""

    mu: tuple

    def __post_init__(self):
        if len(self.mu) < 1:
            raise ConfigError("correlation profile must contain at least one entry")
        if not all(_is_finite_number(m) and abs(m) <= 1.0 for m in self.mu):
            raise ConfigError(f"each mu_k must be a number in [-1, 1], got {self.mu!r}")
        if self.mu[0] != 0.0:
            raise ConfigError(f"mu_1 must be 0 by convention, got {self.mu[0]!r}")

    @property
    def n_ports(self):
        return len(self.mu)

    def singular_ports(self):
        """1-based indices whose correlation sits at the identical-channel cutoff."""
        return [
            k + 1
            for k, m in enumerate(self.mu)
            if k > 0 and abs(m) >= IDENTICAL_CHANNEL_CUTOFF
        ]


def _validate_threshold(x_th):
    """The threshold as a float; DomainError unless it is a finite number > 0."""
    if not (_is_finite_number(x_th) and x_th > 0.0):
        raise DomainError(f"threshold must be finite and > 0, got {x_th!r}")
    return float(x_th)


def _validate_mu(mu):
    """|mu| of a pair correlation as a float, since the model depends on |mu| only.
    DomainError unless mu is a number in [-1, 1], the profile's domain;
    SingularityError where |mu| is at or above the identical-channel cutoff."""
    if not (_is_finite_number(mu) and abs(mu) <= 1.0):
        raise DomainError(f"mu must be a number in [-1, 1], got {mu!r}")
    mu = abs(float(mu))
    if mu >= IDENTICAL_CHANNEL_CUTOFF:
        raise SingularityError(
            f"|mu| = {mu!r} is at the identical-channel singularity; use lcr_identical")
    return mu


def _check_config(cfg):
    """ConfigError unless ``cfg`` is a FasConfig."""
    if not isinstance(cfg, FasConfig):
        raise ConfigError(f"expected FasConfig, got {type(cfg).__name__}")


def _check_port_count(cfg, profile):
    """ConfigError unless ``cfg`` is a FasConfig, ``profile`` a CorrelationProfile of its size."""
    _check_config(cfg)
    if not isinstance(profile, CorrelationProfile) or profile.n_ports != cfg.n_ports:
        raise ConfigError("profile does not match the configuration's port count")


def _check_profile(cfg, profile):
    """``_check_port_count``, then SingularityError for a port at the identical-channel cutoff."""
    _check_port_count(cfg, profile)
    singular = profile.singular_ports()
    if singular:
        raise SingularityError(
            f"correlation at port(s) {singular} is at the identical-channel "
            "singularity; mixed singular profiles are outside the model, and "
            "all-identical profiles are covered by lcr_identical"
        )


def correlation_profile(cfg):
    """Correlation of each port with the reference port.

    mu_1 = 0, and mu_k = J0(2 pi (k-1) W / (N-1)) for k = 2..N.  A single-port
    system degenerates to the profile (0,), which makes the classical Rayleigh
    crossing rate fall out of the N-port machinery unchanged.
    """
    _check_config(cfg)
    n = cfg.n_ports
    if n == 1:
        return CorrelationProfile(mu=(0.0,))
    args = 2.0 * math.pi * np.arange(1, n) * cfg.aperture / (n - 1)
    mus = bessel_j0(args)
    return CorrelationProfile(mu=(0.0, *(float(m) for m in np.atleast_1d(mus))))


def _conditional_density(mu, given, r, i0):
    """Density of one port's amplitude r given another's, ``given``, in units
    of sigma, for a Rayleigh pair of correlation magnitude mu >= 0.

    Evaluates (2 r / s) exp(-(r^2 + mu^2 given^2)/s) I0(2 mu given r / s) with
    s = 1 - mu^2, as (2 r / s) i0 exp(-(r - mu given)^2 / s), where the caller
    passes i0 = bessel_i0_scaled(2 mu given r / s).  The exponent is formed
    from the difference, so it is <= 0 and carries no cancellation between
    terms of order given^2 / s, however close mu is to 1.
    """
    s = 1.0 - mu * mu
    return (2.0 * r / s) * i0 * np.exp(-np.square(r - mu * given) / s)


def joint_pdf(cfg, profile, point):
    """Joint density of the N port envelopes at ``point`` (length-N vector).

    The density is a product of N factors, each the conditional density of
    port k given the reference port (the reference port's own factor, at
    mu_1 = 0, is its Rayleigh density); it is not a general N-variate Rayleigh
    law.  At N = 2 it is the pair's bivariate Rayleigh density, symmetric in
    (x1, x2).
    """
    _check_profile(cfg, profile)
    x = _as_float_array(point, "envelope amplitudes")[0]
    if x.ndim != 1 or x.size != cfg.n_ports:
        raise DomainError(f"point must be a length-{cfg.n_ports} vector, got shape {x.shape}")
    if np.any(x < 0.0):
        raise DomainError("envelope amplitudes must be finite and >= 0")
    sigma = cfg.sigma
    # Above 1e145 sigma the factor exp(-r_1^2) of the reference port, or a
    # port's exp(-(r_k - |mu_k| r_1)^2 / s), is 0.0; below it no term overflows.
    if np.any(x > 1e145 * sigma):
        return 0.0
    r = x / sigma
    mu = np.abs(np.asarray(profile.mu, dtype=float))
    i0 = bessel_i0_scaled(2.0 * mu * r[0] * r / (1.0 - mu * mu))
    return float(np.prod(_conditional_density(mu, r[0], r, i0) / sigma))
