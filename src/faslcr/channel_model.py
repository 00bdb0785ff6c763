"""System parameterization, spatial-correlation law, and envelope densities.

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
from .specfun import bessel_i0_scaled, bessel_j0

__all__ = [
    "APERTURE_IN_RANGE_MAX",
    "IDENTICAL_CHANNEL_CUTOFF",
    "FasConfig",
    "CorrelationProfile",
    "correlation_profile",
    "joint_pdf",
    "bivariate_pdf",
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
    """A pair correlation as a float.

    DomainError unless it is a number in [0, 1]; SingularityError at or
    above the identical-channel cutoff, where the pair density is singular.
    """
    if not (_is_finite_number(mu) and 0.0 <= mu <= 1.0):
        raise DomainError(f"mu must be a number in [0, 1], got {mu!r}")
    mu = float(mu)
    if mu >= IDENTICAL_CHANNEL_CUTOFF:
        raise SingularityError(
            f"mu = {mu!r} is at the identical-channel singularity; use lcr_identical")
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


def _pair_density_factor(sigma2, mu, x_ref, x):
    """One bivariate factor of the joint density, overflow-safe.

    Evaluates (2 x / c) exp(-(x^2 + mu^2 x_ref^2)/c) I0(2 |mu| x_ref x / c)
    with c = sigma2 (1 - mu^2), fusing the exponents so the scaled I0 never
    sees a positive net exponent: u - v = (x - |mu| x_ref)^2 / c >= 0.
    """
    am = abs(mu)
    c = sigma2 * (1.0 - mu * mu)
    v = 2.0 * am * x_ref * x / c
    u = (x * x + mu * mu * x_ref * x_ref) / c
    return (2.0 * x / c) * bessel_i0_scaled(v) * np.exp(v - u)


def joint_pdf(cfg, profile, point):
    """Joint density of the N port envelopes at ``point`` (length-N vector).

    The density is a product of N bivariate factors, each tying port k to the
    reference port; it is not a general N-variate Rayleigh law.
    """
    _check_profile(cfg, profile)
    x = np.asarray(point, dtype=float)
    if x.ndim != 1 or x.size != cfg.n_ports:
        raise DomainError(f"point must be a length-{cfg.n_ports} vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError("envelope amplitudes must be finite and >= 0")
    sigma2 = cfg.sigma2
    density = _pair_density_factor(sigma2, 0.0, x[0], x[0])
    for k in range(1, cfg.n_ports):
        density = density * _pair_density_factor(sigma2, profile.mu[k], x[0], x[k])
    return float(density)


def bivariate_pdf(sigma2, mu, x1, x2):
    """Two-port specialization of the joint envelope density; symmetric in (x1, x2)."""
    if not (_is_finite_number(sigma2) and sigma2 > 0.0):
        raise DomainError(f"sigma2 must be finite and > 0, got {sigma2!r}")
    mu = _validate_mu(mu)
    if not all(_is_finite_number(x) and x >= 0.0 for x in (x1, x2)):
        raise DomainError(f"x1 and x2 must be finite and >= 0, got {x1!r} and {x2!r}")
    x1 = float(x1)
    x2 = float(x2)
    c = sigma2 * (1.0 - mu * mu)
    v = 2.0 * mu * x1 * x2 / c
    u = (x1 * x1 + x2 * x2) / c
    return float(4.0 * x1 * x2 / (sigma2 * c) * bessel_i0_scaled(v) * math.exp(v - u))
