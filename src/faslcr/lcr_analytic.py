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
work per node grows like N rather than N^2.  The pass starts from four
panels, and its first round also evaluates the factors at x1 = x_th for the
first term, so a point makes exactly one Marcum call per quadrature round.
Three special cases collapse to closed forms:

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

from .channel_model import _check_config, _check_profile, _validate_mu, _validate_threshold
from .errors import AccuracyError, ConfigError, DomainError, _is_finite_number, _is_whole_number
from .specfun import DEFAULT_TOLERANCE, bessel_i0_scaled, marcum_q1

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
    """Adaptive-quadrature budget for the inner integral of the exact rate.

    ``max_subdivisions`` caps the panel count less one.  The quadrature
    starts from four equal panels, and those three starting cuts count as
    subdivisions, so a cap below 3 raises ``AccuracyError`` at every point.
    """

    abs_eps: float = 1e-12
    rel_eps: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        for name in ("abs_eps", "rel_eps"):
            v = getattr(self, name)
            if not (_is_finite_number(v) and 0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v!r}")
        if not (_is_whole_number(self.max_subdivisions) and self.max_subdivisions >= 1):
            raise ConfigError(
                f"max_subdivisions must be an integer >= 1, got {self.max_subdivisions!r}")


DEFAULT_QUADRATURE = QuadratureSpec()

# The two-port series' truncation control, kept as a public name; nothing
# reads it now, since every Marcum route sums a fixed number of terms.
SERIES_TOLERANCE = DEFAULT_TOLERANCE

# The 21-point Gauss-Kronrod rule on [-1, 1] and the 10-point Gauss rule
# embedded in it, as in QUADPACK's qk21 (Piessens et al., 1983): the
# abscissae x >= 0 of the symmetric rule, from 1 down to the centre, with
# their Kronrod weights; every second abscissa from the first is a Gauss
# node, with the Gauss weight in _G10_HALF.  Computed offline with mpmath at
# 50 digits: the Kronrod-only abscissae are the roots of the Stieltjes
# polynomial E_11 (orthogonal to x^k P_10(x), k < 11), and the Kronrod
# weights make the rule exact on 1, x, ..., x^20.
_K21_HALF = (
    (0.9956571630258081, 0.011694638867371874),
    (0.9739065285171717, 0.032558162307964725),
    (0.9301574913557082, 0.054755896574351995),
    (0.8650633666889845, 0.07503967481091996),
    (0.7808177265864169, 0.0931254545836976),
    (0.6794095682990244, 0.10938715880229764),
    (0.5627571346686047, 0.12349197626206584),
    (0.4333953941292472, 0.13470921731147334),
    (0.2943928627014602, 0.14277593857706009),
    (0.14887433898163122, 0.14773910490133849),
    (0.0, 0.1494455540029169),
)
_G10_HALF = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
             0.26926671930999635, 0.29552422471475287)


def _kronrod_table():
    """(nodes, weights): the 21 abscissae in increasing order, and a (21, 2)
    matrix whose columns are the K21 weights and the G10 weights (0 at the
    Kronrod-only abscissae), so one product gives both panel values."""
    x, wk = np.array(_K21_HALF).T
    wg = np.zeros(11)
    wg[1::2] = _G10_HALF
    nodes = np.concatenate([-x[:-1], x[::-1]])
    weights = np.column_stack([np.concatenate([wk[:-1], wk[::-1]]),
                               np.concatenate([wg[:-1], wg[::-1]])])
    return nodes, weights


_KRONROD_NODES, _KRONROD_WEIGHTS = _kronrod_table()

# Equal panels the adaptive quadrature starts from.  A round costs mostly
# the fixed overhead of its one integrand call, whatever its node count, and
# most theorem1 points would bisect a single starting panel at least once;
# starting from four spares those early rounds.
_INITIAL_PANELS = 4


# ---------------------------------------------------------------------------
# Adaptive panel quadrature
# ---------------------------------------------------------------------------

def _integrate_adaptive(f, lo, hi, quad):
    """Integrate a smooth vectorised integrand over [lo, hi] adaptively.

    The interval starts as ``_INITIAL_PANELS`` equal panels, and the cuts
    between them count as subdivisions against ``quad.max_subdivisions``.
    Each panel is evaluated at the 21 nodes of the Gauss-Kronrod rule: the
    K21 value is kept and |K21 - G10|, from the 10-point Gauss rule on every
    second node, is its error estimate.  Panels failing their
    width-proportional share of the budget are bisected.  All pending panels
    are evaluated in a single integrand call per round, of 21 nodes each.
    """
    if hi <= lo:
        return 0.0
    width = hi - lo
    edges = np.linspace(lo, hi, _INITIAL_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    accepted = 0.0
    splits = _INITIAL_PANELS - 1
    scale = None
    while a.size:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        # nodes: shape (n_panels, 21), flattened for one call
        xs = mid[:, None] + half[:, None] * _KRONROD_NODES
        vals = f(xs.ravel()).reshape(xs.shape)
        i_hi, i_lo = (vals @ _KRONROD_WEIGHTS).T * half
        err = np.abs(i_hi - i_lo)
        if scale is None:
            scale = max(float(np.sum(np.abs(i_hi))), 1e-300)
        budget = np.maximum(quad.abs_eps, quad.rel_eps * scale) * (b - a) / width
        ok = err <= budget
        accepted += float(np.sum(i_hi[ok]))
        splits += int(np.count_nonzero(~ok))
        if splits > quad.max_subdivisions:
            partial = accepted + float(np.sum(i_hi[~ok]))
            raise AccuracyError(
                f"adaptive quadrature exceeded {quad.max_subdivisions} subdivisions",
                partial=partial,
            )
        # each failing panel becomes its two halves, in the same order
        a, mid, b = a[~ok], mid[~ok], b[~ok]
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()
    return accepted


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def lcr_iid(cfg, x_th):
    """Crossing rate with all correlations zero (i.i.d. selection combining).

    N sqrt(2 pi) f_D (x_th/sigma) exp(-x_th^2/sigma^2) (1 - exp(-x_th^2/sigma^2))^(N-1)
    """
    _check_config(cfg)
    x_th = _validate_threshold(x_th)
    rho2 = x_th * x_th / cfg.sigma2
    cdf = -math.expm1(-rho2)
    return (
        cfg.n_ports * _SQRT_2PI * cfg.f_doppler * (x_th / cfg.sigma)
        * math.exp(-rho2) * cdf ** (cfg.n_ports - 1)
    )


def lcr_identical(cfg, x_th):
    """Crossing rate with fully correlated ports; independent of the port count."""
    _check_config(cfg)
    x_th = _validate_threshold(x_th)
    rho2 = x_th * x_th / cfg.sigma2
    return _SQRT_2PI / cfg.sigma * cfg.f_doppler * x_th * math.exp(-rho2)


# ---------------------------------------------------------------------------
# Exact N-port rate
# ---------------------------------------------------------------------------

def _below_threshold_factors(cfg, profile, x1, x_th):
    """(N-1, m) matrix of F_k(x1) = 1 - Q1(a_k x1, b_k) over ports k = 2..N
    (rows) and the m nodes of the 1-D array ``x1`` (columns), with
    a_k = sqrt(2 mu_k^2/s_k), b_k = sqrt(2/s_k) x_th and s_k = sigma^2 (1 - mu_k^2).
    The complement is computed directly where it is the small side, so
    factors near 0 in deep fades keep their relative accuracy.
    """
    mu = np.abs(np.asarray(profile.mu[1:], dtype=float))[:, None]
    s = cfg.sigma2 * (1.0 - mu * mu)
    a = np.sqrt(2.0 * mu * mu / s) * x1
    b = np.sqrt(2.0 / s) * x_th
    # positional, as perfbench's tracer wraps this name and reads (a, b, *rest)
    return marcum_q1(a, b, DEFAULT_TOLERANCE, True)


def surviving_product(cfg, profile, x1, x_th, skip_index, tol=DEFAULT_TOLERANCE):
    """prod_{k>=2, k != skip_index} [1 - Q1(sqrt(2 mu_k^2/s_k) x1, sqrt(2/s_k) x_th)]
    with s_k = sigma^2 (1 - mu_k^2).

    Each factor is the probability that the bivariate pair (reference = x1,
    port k) stays below the threshold.  ``x1`` may be a vector; the result is
    clipped into [0, 1].  ``tol`` is accepted for compatibility and not read:
    the Marcum kernel sums a fixed number of terms.
    """
    x_th = _validate_threshold(x_th)
    _check_profile(cfg, profile)
    if not (_is_whole_number(skip_index) and 1 <= skip_index <= cfg.n_ports):
        raise DomainError(f"skip_index must be an integer in 1..{cfg.n_ports}, got {skip_index!r}")
    x1_arr = np.asarray(x1, dtype=float)
    scalar = x1_arr.ndim == 0
    x1_arr = np.atleast_1d(x1_arr)
    if not np.all(np.isfinite(x1_arr)) or np.any(x1_arr < 0.0) or np.any(x1_arr > x_th):
        raise DomainError("x1 must satisfy 0 <= x1 <= x_th")
    factors = _below_threshold_factors(cfg, profile, x1_arr, x_th)
    kept = np.arange(2, cfg.n_ports + 1) != skip_index
    result = np.clip(np.prod(factors[kept], axis=0), 0.0, 1.0)
    return float(result[0]) if scalar else result


def lcr_theorem1(cfg, profile, x_th, quad=DEFAULT_QUADRATURE):
    """Exact crossing rate of the N-port selected envelope, in crossings/second.

    The first term covers the reference port being the strongest at the
    crossing instant; the integral covers every other port i being the
    strongest, summed over i under one integral over the reference amplitude
    x1 in [0, x_th] and evaluated in a single adaptive pass.  The factors
    F_k(x_th) of the first term come from the first round's Marcum call, as
    one extra node column, so each round costs one call.  At each node the
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

    first = None

    def integrand(x1):
        nonlocal first
        if first is None:
            # the first round also gives the reference-port factors F_k(x_th),
            # from one extra node column of the same Marcum call
            factors = _below_threshold_factors(cfg, profile, np.append(x1, x_th), x_th)
            first = math.exp(-x_th * x_th / sigma2) * float(np.prod(factors[:, -1]))
            factors = factors[:, :-1]
        else:
            factors = _below_threshold_factors(cfg, profile, x1, x_th)
        # leave_out[j] = prod_{l<j} factors[l] * prod_{l>j} factors[l]
        leave_out = np.ones_like(factors)
        np.cumprod(factors[:-1], axis=0, out=leave_out[1:])
        leave_out[:-1] *= np.cumprod(factors[:0:-1], axis=0)[::-1]
        v = 2.0 * mu * x_th * x1 / s
        fused = v - (x_th * x_th + x1 * x1) / s
        terms = bessel_i0_scaled(v) * np.exp(fused) * leave_out / (1.0 - mu * mu)
        return (2.0 * x1 / sigma2) * np.sum(terms, axis=0)

    prefactor = _SQRT_2PI * x_th * cfg.f_doppler / cfg.sigma
    try:
        second = _integrate_adaptive(integrand, 0.0, x_th, quad)
    except AccuracyError as exc:
        raise AccuracyError(
            f"theorem1 at N = {cfg.n_ports}, x_th = {x_th!r}: {exc}",
            partial=prefactor * (first + exc.partial),
        ) from exc
    return prefactor * (first + second)


# ---------------------------------------------------------------------------
# Two-port incomplete-gamma series
# ---------------------------------------------------------------------------

def lcr_two_port_series(cfg, mu, x_th, tol=DEFAULT_TOLERANCE):
    """Two-port crossing rate as an incomplete-gamma series in the correlation.

    With s = sigma^2 (1 - mu^2) and y = x_th^2 / s, the series

        prefactor * sum_k (mu x_th)^{2k} / ((k!)^2 s^{k-1}) gamma(k+1, y)

    is summed in its regularized form: each term equals the Poisson(mu^2 y)
    weight at k times the survivor mass Pr[Poisson(y) > k], with the common
    factor 2 sqrt(2 pi) f_D (x_th/sigma) exp(-x_th^2/sigma^2) pulled out.
    The sum is 1 - Q1(mu sqrt(2 y), sqrt(2 y)), the survivor form of the
    Poisson mixture, and is one ``marcum_q1`` call with ``complement``.
    Where xi = 2 mu y is large, as for correlations within 1e-6 of 1 (where
    y reaches ~1e6), that call takes Temme's expansion, and elsewhere the
    Bessel series, each at a fixed cost.  Where 1 - Q1 is small it is
    computed directly, not as 1 minus Q1, so the rate stays exact in deep
    fades (x_th down to 1e-10 sigma).  ``tol`` is accepted for
    compatibility and not read.
    """
    _check_config(cfg)
    x_th = _validate_threshold(x_th)
    mu = _validate_mu(mu)
    rho2 = x_th * x_th / cfg.sigma2
    prefactor = 2.0 * _SQRT_2PI * cfg.f_doppler * (x_th / cfg.sigma) * math.exp(-rho2)
    y = rho2 / (1.0 - mu * mu)
    return prefactor * marcum_q1(mu * math.sqrt(2.0 * y), math.sqrt(2.0 * y), tol, True)
