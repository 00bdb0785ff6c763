"""Exact N-port level crossing rate and its closed-form specializations.

With s_k = sigma^2 (1 - mu_k^2), let

    F_k(x1) = 1 - Q1(sqrt(2 mu_k^2/s_k) x1, sqrt(2/s_k) x_th),   k = 2..N,

be the probability that port k stays below the threshold given the reference
amplitude x1, and P_{-i} = prod_{k != i} F_k the product that leaves port i
out.  The downward crossing rate of the selected envelope at ``x_th`` is

    L(x_th) = sqrt(2 pi) x_th f_D / sigma
              * { exp(-x_th^2/sigma^2) prod_k F_k(x_th)
                  + int_0^{x_th} sum_{i=2}^N g_i(x1) P_{-i}(x1) / (1 - mu_i^2) dx1 }

with g_i(x1) = (2 x1/sigma^2) exp(-(x_th^2 + x1^2)/s_i) I0(2 |mu_i| x_th x1/s_i).
The first term covers the reference port carrying the maximum, and summand
i covers port i doing so.  The N - 1 factors are computed once per
quadrature node, every P_{-i} comes from prefix and suffix products of them,
and the summed integrand is integrated in one adaptive pass, so the Marcum
work per node grows like N rather than N^2.  Three special cases collapse to
closed forms:

* all correlations zero  -> the i.i.d. selection-combining rate,
* all correlations one   -> the classical single-channel Rayleigh rate,
* two ports              -> a single incomplete-gamma series.

Every product exp(-u) I0(v) is evaluated as ``bessel_i0_scaled(v) * exp(v-u)``
with the exponents merged analytically; the merged exponent is a negative
quadratic form, so nothing overflows even with correlations within 1e-9 of 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import _check_port_count, _validate_mu, _validate_threshold
from .errors import AccuracyError, ConfigError, DomainError, SingularityError
from .specfun import Tolerance, bessel_i0_scaled, marcum_q1

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "SERIES_TOLERANCE",
    "lcr_theorem1",
    "lcr_iid",
    "lcr_identical",
    "lcr_two_port_series",
    "surviving_product",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature budget for the inner integral of the exact rate."""

    abs_eps: float = 1e-12
    rel_eps: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        for name in ("abs_eps", "rel_eps"):
            v = getattr(self, name)
            if not (isinstance(v, float) and 0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v!r}")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise ConfigError(
                f"max_subdivisions must be a positive integer, got {self.max_subdivisions!r}"
            )


DEFAULT_QUADRATURE = QuadratureSpec()

# Default truncation budget for the two-port series.  The number of terms
# grows like sqrt(mu^2 x_th^2 / (sigma^2 (1 - mu^2))), so correlations within
# ~1e-4 of 1 need an explicitly larger cap.
SERIES_TOLERANCE = Tolerance(rel_eps=1e-12, max_terms=500)

# The exact rate's Marcum factors see Poisson means up to mu^2 x_th^2/s with
# s = sigma^2 (1 - mu^2), which dense port layouts push into the thousands.
# The Marcum kernel is vectorised over all of them, with no scalar loop, but
# its term count per element still grows like their square root; the cap
# covers the layouts the test suite and benchmark run, and stays until a
# bounded-cost large-argument Marcum route takes over such arguments.
_THEOREM1_MARCUM = Tolerance(rel_eps=1e-12, max_terms=20000)

# Paired fixed-order Gauss panels; the high rule's value is kept, the
# difference to the low rule is the panel error estimate.
_GL_LO_NODES, _GL_LO_WEIGHTS = np.polynomial.legendre.leggauss(10)
_GL_HI_NODES, _GL_HI_WEIGHTS = np.polynomial.legendre.leggauss(21)


def _check_profile(cfg, profile):
    _check_port_count(cfg, profile)
    singular = profile.singular_ports()
    if singular:
        raise SingularityError(
            f"correlation at port(s) {singular} is at the identical-channel "
            "singularity; mixed singular profiles are outside the model, and "
            "all-identical profiles are covered by lcr_identical"
        )


# ---------------------------------------------------------------------------
# Adaptive panel quadrature
# ---------------------------------------------------------------------------

def _integrate_adaptive(f, lo, hi, quad):
    """Integrate a smooth vectorised integrand over [lo, hi] adaptively.

    Each panel is evaluated with 10- and 21-point Gauss rules; |difference|
    is the error estimate, and panels failing their width-proportional share
    of the budget are bisected.  All pending panels are evaluated in a single
    integrand call per round.
    """
    if hi <= lo:
        return 0.0
    width = hi - lo
    panels = [(lo, hi)]
    accepted = 0.0
    splits = 0
    scale = None
    while panels:
        a = np.array([p[0] for p in panels])
        b = np.array([p[1] for p in panels])
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        # nodes: shape (n_panels, n_lo + n_hi), flattened for one call
        x_lo = mid[:, None] + half[:, None] * _GL_LO_NODES[None, :]
        x_hi = mid[:, None] + half[:, None] * _GL_HI_NODES[None, :]
        xs = np.concatenate([x_lo, x_hi], axis=1)
        vals = f(xs.ravel()).reshape(xs.shape)
        n_lo = _GL_LO_NODES.size
        i_lo = half * (vals[:, :n_lo] @ _GL_LO_WEIGHTS)
        i_hi = half * (vals[:, n_lo:] @ _GL_HI_WEIGHTS)
        err = np.abs(i_hi - i_lo)
        if scale is None:
            scale = max(float(np.sum(np.abs(i_hi))), 1e-300)
        budget = np.maximum(quad.abs_eps, quad.rel_eps * scale) * (b - a) / width
        ok = err <= budget
        accepted += float(np.sum(i_hi[ok]))
        next_panels = []
        for j in np.nonzero(~ok)[0]:
            splits += 1
            if splits > quad.max_subdivisions:
                partial = accepted + float(np.sum(i_hi[~ok]))
                raise AccuracyError(
                    f"adaptive quadrature exceeded {quad.max_subdivisions} subdivisions",
                    partial=partial,
                )
            m = float(mid[j])
            next_panels.append((float(a[j]), m))
            next_panels.append((m, float(b[j])))
        panels = next_panels
    return accepted


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def lcr_iid(cfg, x_th):
    """Crossing rate with all correlations zero (i.i.d. selection combining).

    N sqrt(2 pi) f_D (x_th/sigma) exp(-x_th^2/sigma^2) (1 - exp(-x_th^2/sigma^2))^(N-1)
    """
    x_th = _validate_threshold(x_th)
    rho2 = x_th * x_th / cfg.sigma2
    cdf = -math.expm1(-rho2)
    return (
        cfg.n_ports * _SQRT_2PI * cfg.f_doppler * (x_th / cfg.sigma)
        * math.exp(-rho2) * cdf ** (cfg.n_ports - 1)
    )


def lcr_identical(cfg, x_th):
    """Crossing rate with fully correlated ports; independent of the port count."""
    x_th = _validate_threshold(x_th)
    rho2 = x_th * x_th / cfg.sigma2
    return _SQRT_2PI / cfg.sigma * cfg.f_doppler * x_th * math.exp(-rho2)


# ---------------------------------------------------------------------------
# Exact N-port rate
# ---------------------------------------------------------------------------

def _below_threshold_factors(cfg, profile, x1, x_th, tol):
    """(N-1, m) matrix of F_k(x1) = 1 - Q1(a_k x1, b_k) over ports k = 2..N
    (rows) and the m nodes of the 1-D array ``x1`` (columns), with
    a_k = sqrt(2 mu_k^2/s_k), b_k = sqrt(2/s_k) x_th and s_k = sigma^2 (1 - mu_k^2).
    The complement is summed directly, so factors near 0 in deep fades keep
    their relative accuracy.
    """
    mu = np.abs(np.asarray(profile.mu[1:], dtype=float))[:, None]
    s = cfg.sigma2 * (1.0 - mu * mu)
    a = np.sqrt(2.0 * mu * mu / s) * x1
    b = np.sqrt(2.0 / s) * x_th
    return marcum_q1(a, b, tol, True)


def surviving_product(cfg, profile, x1, x_th, skip_index, tol=_THEOREM1_MARCUM):
    """prod_{k>=2, k != skip_index} [1 - Q1(sqrt(2 mu_k^2/s_k) x1, sqrt(2/s_k) x_th)]
    with s_k = sigma^2 (1 - mu_k^2).

    Each factor is the probability that the bivariate pair (reference = x1,
    port k) stays below the threshold.  ``x1`` may be a vector; the result is
    clipped into [0, 1].
    """
    x_th = _validate_threshold(x_th)
    _check_profile(cfg, profile)
    if not (1 <= skip_index <= cfg.n_ports):
        raise DomainError(
            f"skip_index must lie in 1..{cfg.n_ports}, got {skip_index!r}"
        )
    x1_arr = np.asarray(x1, dtype=float)
    scalar = x1_arr.ndim == 0
    x1_arr = np.atleast_1d(x1_arr)
    if not np.all(np.isfinite(x1_arr)) or np.any(x1_arr < 0.0) or np.any(x1_arr > x_th):
        raise DomainError("x1 must satisfy 0 <= x1 <= x_th")
    factors = _below_threshold_factors(cfg, profile, x1_arr, x_th, tol)
    kept = np.arange(2, cfg.n_ports + 1) != skip_index
    result = np.clip(np.prod(factors[kept], axis=0), 0.0, 1.0)
    return float(result[0]) if scalar else result


def lcr_theorem1(cfg, profile, x_th, quad=DEFAULT_QUADRATURE):
    """Exact crossing rate of the N-port selected envelope, in crossings/second.

    The first term covers the reference port being the strongest at the
    crossing instant; the integral covers every other port i being the
    strongest, summed over i under one integral over the reference amplitude
    x1 in [0, x_th] and evaluated in a single adaptive pass.  At each node the
    N - 1 below-threshold factors are computed once, and the product leaving
    out port i is the prefix product of the factors before i times the suffix
    product of those after it.  It is never the full product divided by
    factor i: factors reach exactly 0 in deep fades.  Each summand fuses the
    Gaussian exponents with the scaled I0 so that the net exponent
    -((x_th - |mu_i| x1)^2 + (1 - mu_i^2) x1^2)/s_i stays <= 0.
    """
    x_th = _validate_threshold(x_th)
    _check_profile(cfg, profile)
    sigma2 = cfg.sigma2
    mu = np.abs(np.asarray(profile.mu[1:], dtype=float))[:, None]
    s = sigma2 * (1.0 - mu * mu)

    first = math.exp(-x_th * x_th / sigma2) * float(np.prod(
        _below_threshold_factors(cfg, profile, np.array([x_th]), x_th, _THEOREM1_MARCUM)
    ))

    def integrand(x1):
        factors = _below_threshold_factors(cfg, profile, x1, x_th, _THEOREM1_MARCUM)
        # leave_out[j] = prod_{l<j} factors[l] * prod_{l>j} factors[l]
        leave_out = np.ones_like(factors)
        np.cumprod(factors[:-1], axis=0, out=leave_out[1:])
        leave_out[:-1] *= np.cumprod(factors[:0:-1], axis=0)[::-1]
        v = 2.0 * mu * x_th * x1 / s
        fused = v - (x_th * x_th + x1 * x1) / s
        terms = bessel_i0_scaled(v) * np.exp(fused) * leave_out / (1.0 - mu * mu)
        return (2.0 * x1 / sigma2) * np.sum(terms, axis=0)

    second = _integrate_adaptive(integrand, 0.0, x_th, quad)
    return _SQRT_2PI * x_th * cfg.f_doppler / cfg.sigma * (first + second)


# ---------------------------------------------------------------------------
# Two-port incomplete-gamma series
# ---------------------------------------------------------------------------

def lcr_two_port_series(cfg, mu, x_th, tol=SERIES_TOLERANCE):
    """Two-port crossing rate as an incomplete-gamma series in the correlation.

    With s = sigma^2 (1 - mu^2) and y = x_th^2 / s, the series

        prefactor * sum_k (mu x_th)^{2k} / ((k!)^2 s^{k-1}) gamma(k+1, y)

    is summed in its regularized form: each term equals the Poisson(mu^2 y)
    weight at k times the survivor mass Pr[Poisson(y) > k], with the common
    factor 2 sqrt(2 pi) f_D (x_th/sigma) exp(-x_th^2/sigma^2) pulled out.
    The sum is 1 - Q1(mu sqrt(2 y), sqrt(2 y)), the survivor form of the
    Poisson mixture, and is one ``marcum_q1`` call with ``complement``: it
    starts at the dominant weight k0 = floor(mu^2 y), so correlations within
    1e-6 of 1 (where y reaches ~1e6) stay computable, and each survivor mass
    is summed on its small side, so the rate stays exact in deep fades (x_th
    down to 1e-10 sigma).  Terms are added outward until their relative
    contribution drops below ``tol.rel_eps``; AccuracyError carries the
    prefactor times the partial sum.
    """
    x_th = _validate_threshold(x_th)
    mu = _validate_mu(mu)
    rho2 = x_th * x_th / cfg.sigma2
    prefactor = 2.0 * _SQRT_2PI * cfg.f_doppler * (x_th / cfg.sigma) * math.exp(-rho2)
    y = rho2 / (1.0 - mu * mu)
    try:
        mixture = marcum_q1(mu * math.sqrt(2.0 * y), math.sqrt(2.0 * y), tol, True)
    except AccuracyError as exc:
        raise AccuracyError(
            f"two-port series did not converge within {tol.max_terms} terms",
            partial=prefactor * exc.partial,
        ) from exc
    return prefactor * mixture
