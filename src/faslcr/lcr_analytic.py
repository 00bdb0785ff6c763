"""Exact N-port level crossing rate and its closed-form specializations.

Every rate here depends on the threshold only through rho = x_th/sigma, so
each runs in units of sigma; the exact rate integrates over u = x1/sigma,
the reference amplitude in units of sigma.  With s_k = 1 - mu_k^2, let

    F_k(u) = 1 - Q1(a_k u, b_k),   a_k = sqrt(2 mu_k^2/s_k),  b_k = sqrt(2/s_k) rho,

for k = 2..N, be the probability that port k stays below the threshold given
the reference amplitude, and P_{-i} = prod_{k != i} F_k the product that
leaves port i out.  The downward crossing rate of the selected envelope at
``x_th`` is

    L(x_th) = sqrt(2 pi) rho f_D
              * { exp(-rho^2) prod_k F_k(rho)
                  + int_0^rho sum_{i=2}^N exp(-rho^2) p_i(u | rho) P_{-i}(u) du }

with p_i(u | rho) = (2 u/s_i) exp(-(u^2 + mu_i^2 rho^2)/s_i) I0(2 |mu_i| rho u/s_i),
the density of the reference amplitude given port i at rho.  The first term
covers the reference port carrying the maximum, and summand i covers port i
doing so.  The N - 1 factors are computed once per quadrature node, every
P_{-i} comes from prefix and suffix products of them, and the summed
integrand is integrated in one adaptive pass, so the Marcum work per node
grows like N rather than N^2.  Summand i has a boundary layer at u = rho, of
width ~sqrt(s_i), so the pass starts from five panels graded toward rho.
Its first round also evaluates the factors at u = rho for the first term, so
a point makes exactly one Marcum kernel call per quadrature round.  p_i
reuses the scaled I0 that the kernel takes, as its argument is that of the
Marcum factor, xi = a_i u b_i.  Three special cases collapse to closed forms:

* all correlations zero  -> the i.i.d. selection-combining rate,
* all correlations one   -> the classical single-channel Rayleigh rate,
* two ports              -> a single incomplete-gamma series.

p_i is ``channel_model._conditional_density``, which also builds ``joint_pdf``:
(2 u/s_i) bessel_i0_scaled(xi) exp(-(u - |mu_i| rho)^2/s_i).  Formed from the
difference, the exponent is <= 0 and cancels nothing, even for |mu_i| near 1.
"""

import math

import numpy as np

from .channel_model import (_check_config, _check_profile, _conditional_density, _validate_mu,
                            _validate_threshold)
from .errors import AccuracyError
from .specfun import _marcum_kernel, bessel_i0_scaled, marcum_q1

__all__ = [
    "lcr_theorem1",
    "lcr_iid",
    "lcr_identical",
    "lcr_two_port_series",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Thresholds from this many sigma up have a crossing rate of exactly 0.0.
# Every rate here is at most sqrt(2 pi) rho f_D e^(-rho^2) (1 + sum_i
# rho^2/(1 - mu_i^2)), with 1 - mu_i^2 > 2e-9 below the identical-channel
# cutoff, and from rho = 40 on that bound is below the smallest subnormal for
# any f_D; the formulas would overflow there (rho f_D, or the Marcum
# arguments ~ rho/sqrt(1 - mu^2)).  At rho = 27 rates are still subnormal.
_ZERO_RATE_SIGMAS = 40.0


def _rho(cfg, x_th):
    """(rho, rho^2) at a checked config and validated threshold, rho = x_th/sigma;
    (None, None) where every rate is exactly 0.0: rho underflows to 0 or is 40
    or more.  rho^2 is (x_th/sigma^2) x_th: half the rounding of rho rho, no overflow."""
    _check_config(cfg)
    x_th = _validate_threshold(x_th)
    rho = x_th / cfg.sigma
    if not 0.0 < rho < _ZERO_RATE_SIGMAS:
        return None, None
    return rho, x_th / cfg.sigma2 * x_th


# The adaptive-quadrature budget of the inner integral, in QUADPACK's
# epsabs/epsrel form: each panel must meet its width-proportional share of
# max(_ABS_EPS, _REL_EPS * the first round's sum of |K21|).
# _MAX_SUBDIVISIONS caps the panel count less one.  The quadrature starts
# from five panels graded toward the upper limit, and those four starting
# cuts count against the cap, so a cap below 4 raises AccuracyError at
# every point.
_ABS_EPS = 1e-12
_REL_EPS = 1e-9
_MAX_SUBDIVISIONS = 200

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

# Edges of the panels the adaptive quadrature starts from, as fractions of
# [lo, hi]: each panel halves the one before, toward hi.  A round costs
# mostly the fixed overhead of its one integrand call, whatever its node
# count.  The theorem1 summands carry exp(-(x_th - |mu_i| x1)^2 / s_i), a
# boundary layer at x1 = x_th whose width shrinks like sqrt(1 - mu_i^2), so
# bisection of equal panels would spend its extra rounds halving the last
# panel toward x_th; the graded start makes those cuts up front.
_INITIAL_EDGES = (0.0, 0.5, 0.75, 0.875, 0.9375, 1.0)


# ---------------------------------------------------------------------------
# Adaptive panel quadrature
# ---------------------------------------------------------------------------

def _integrate_adaptive(f, lo, hi):
    """Integrate a smooth vectorised integrand over [lo, hi], lo < hi, adaptively.

    The interval starts as the panels of ``_INITIAL_EDGES``, graded toward
    ``hi`` where the theorem1 integrand has its boundary layer, and the cuts
    between them count as subdivisions against ``_MAX_SUBDIVISIONS``.
    Each panel is evaluated at the 21 nodes of the Gauss-Kronrod rule: the
    K21 value is kept and |K21 - G10|, from the 10-point Gauss rule on every
    second node, is its error estimate.  Panels failing their
    width-proportional share of the budget are bisected.  All pending panels
    are evaluated in a single integrand call per round, of 21 nodes each.
    """
    width = hi - lo
    edges = lo + width * np.array(_INITIAL_EDGES)
    a, b = edges[:-1], edges[1:]
    accepted = 0.0
    splits = len(_INITIAL_EDGES) - 2
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
        budget = np.maximum(_ABS_EPS, _REL_EPS * scale) * (b - a) / width
        ok = err <= budget
        accepted += float(np.sum(i_hi[ok]))
        splits += int(np.count_nonzero(~ok))
        if splits > _MAX_SUBDIVISIONS:
            partial = accepted + float(np.sum(i_hi[~ok]))
            raise AccuracyError(
                f"adaptive quadrature exceeded {_MAX_SUBDIVISIONS} subdivisions",
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

    N sqrt(2 pi) f_D rho exp(-rho^2) (1 - exp(-rho^2))^(N-1),  rho = x_th/sigma
    """
    rho, rho2 = _rho(cfg, x_th)
    if rho is None:
        return 0.0
    return (cfg.n_ports * _SQRT_2PI * cfg.f_doppler * rho
            * math.exp(-rho2) * (-math.expm1(-rho2)) ** (cfg.n_ports - 1))


def lcr_identical(cfg, x_th):
    """Crossing rate with fully correlated ports; independent of the port count."""
    rho, rho2 = _rho(cfg, x_th)
    if rho is None:
        return 0.0
    return _SQRT_2PI * cfg.f_doppler * rho * math.exp(-rho2)


# ---------------------------------------------------------------------------
# Exact N-port rate
# ---------------------------------------------------------------------------

def lcr_theorem1(cfg, profile, x_th):
    """Exact crossing rate of the N-port selected envelope, in crossings/second.

    Evaluates the module's formula in units of sigma, with a_k and b_k formed
    once per point.  The factors F_k(rho) of the first term come from the
    first round's Marcum kernel call, as one extra node column, so each round
    costs one call, and the summands reuse the scaled I0 that the kernel was
    given.  The product leaving out port i is the prefix product of the
    factors before i times the suffix product of those after it, never the
    full product divided by factor i: factors reach exactly 0 in deep fades.
    Summand i is exp(-rho^2) times the conditional density p_i(u | rho),
    whose exponent -(u - |mu_i| rho)^2/s_i is <= 0 and free of cancellation.
    The rate is 0.0 where rho underflows to 0 or is 40 or more.
    """
    rho, _ = _rho(cfg, x_th)
    _check_profile(cfg, profile)
    if rho is None:
        return 0.0
    mu = np.abs(np.asarray(profile.mu[1:], dtype=float))[:, None]
    s = 1.0 - mu * mu
    a = np.sqrt(2.0 * mu * mu / s)
    b = np.sqrt(2.0 / s) * rho

    first = None

    def integrand(u):
        nonlocal first
        # the first round also gives the reference-port factors F_k(rho),
        # from one extra node column of the same Marcum call
        nodes = u if first is not None else np.append(u, rho)
        a_u, b_u = np.broadcast_arrays(a * nodes, b)
        i0 = bessel_i0_scaled(a_u * b_u)
        # 1 - Q1 comes directly where it is the small side, so factors near 0
        # in deep fades keep their relative accuracy
        factors = _marcum_kernel(a_u, b_u, i0, True)
        if first is None:
            first = math.exp(-rho * rho) * float(np.prod(factors[:, -1]))
            factors, i0 = factors[:, :-1], i0[:, :-1]
        # leave_out[j] = prod_{l<j} factors[l] * prod_{l>j} factors[l]
        leave_out = np.ones_like(factors)
        np.cumprod(factors[:-1], axis=0, out=leave_out[1:])
        leave_out[:-1] *= np.cumprod(factors[:0:-1], axis=0)[::-1]
        densities = _conditional_density(mu, rho, u, i0)
        return math.exp(-rho * rho) * np.sum(densities * leave_out, axis=0)

    prefactor = _SQRT_2PI * rho * cfg.f_doppler
    try:
        second = _integrate_adaptive(integrand, 0.0, rho)
    except AccuracyError as exc:
        raise AccuracyError(
            f"theorem1 at N = {cfg.n_ports}, x_th = {float(x_th)!r}: {exc}",
            partial=prefactor * (first + exc.partial),
        ) from exc
    return prefactor * (first + second)


# ---------------------------------------------------------------------------
# Two-port incomplete-gamma series
# ---------------------------------------------------------------------------

def lcr_two_port_series(cfg, mu, x_th):
    """Two-port crossing rate as an incomplete-gamma series in the correlation.

    With rho = x_th/sigma and y = rho^2 / (1 - mu^2), the series

        prefactor * sum_k mu^{2k} y^k / (k!)^2 gamma(k+1, y)

    is summed in its regularized form: each term equals the Poisson(mu^2 y)
    weight at k times the survivor mass Pr[Poisson(y) > k], with the common
    factor 2 sqrt(2 pi) f_D rho exp(-rho^2) pulled out.
    The sum is 1 - Q1(mu sqrt(2 y), sqrt(2 y)), the survivor form of the
    Poisson mixture, and is one ``marcum_q1`` call with ``complement``.
    Where xi = 2 mu y is large, as for correlations within 1e-6 of 1 (where
    y reaches ~1e6), that call takes Temme's expansion, and elsewhere the
    Bessel series, each at a fixed cost.  Where 1 - Q1 is small it is
    computed directly, not as 1 minus Q1, so the rate stays exact in deep
    fades (x_th down to 1e-10 sigma).  The rate depends on |mu| only: mu may
    be any number in [-1, 1] with |mu| below the identical-channel cutoff.
    """
    rho, rho2 = _rho(cfg, x_th)
    mu = _validate_mu(mu)
    if rho is None:
        return 0.0
    prefactor = 2.0 * _SQRT_2PI * cfg.f_doppler * rho * math.exp(-rho2)
    y = rho2 / (1.0 - mu * mu)
    # complement goes positionally: tracing wrappers take (a, b, *rest)
    return prefactor * marcum_q1(mu * math.sqrt(2.0 * y), math.sqrt(2.0 * y), True)
