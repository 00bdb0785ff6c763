"""Self-contained, overflow-safe special-function kernel.

Provides the four primitives the crossing-rate formulas are built from:

* ``bessel_j0``        -- J0(x), Bessel function of the first kind, order zero
* ``bessel_i0_scaled`` -- exp(-|x|) * I0(x), modified Bessel, order zero
* ``marcum_q1``        -- Q1(a, b), first-order Marcum Q-function
* ``lower_gamma_int``  -- gamma(k+1, x), lower incomplete gamma, integer order

Q1 and the two-port crossing-rate series are one sum, a Poisson(alpha)-weighted
mixture of one Poisson(beta) tail: Q1 mixes CDFs, the series survivors.  Both
run on one peak-centred scalar kernel, ``_poisson_mixture``, over one
Poisson-tail function, ``_poisson_tail``: ``marcum_q1`` calls it (CDF side)
for alpha > 700, and ``lcr_analytic.lcr_two_port_series`` (survivor side)
for every argument.  Smaller alpha in Q1 goes through a vectorised from-zero
series instead.

All functions accept scalars or numpy arrays (broadcast where meaningful) and
are pure, so they are safe to call concurrently.  I0 is only ever exposed in
its exponentially scaled form: the crossing-rate integrands contain products
exp(-u) * I0(v) whose factors overflow individually long before the product
does, so callers fuse the exponents analytically and multiply by
``bessel_i0_scaled(v)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConfigError, DomainError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "bessel_j0",
    "bessel_i0_scaled",
    "marcum_q1",
    "lower_gamma_int",
]


@dataclass(frozen=True)
class Tolerance:
    """Truncation control for the series evaluations.

    rel_eps   -- stop once a term's relative contribution drops below this
    max_terms -- hard cap on the number of series terms summed
    """

    rel_eps: float = 1e-12
    max_terms: int = 1000

    def __post_init__(self):
        if not (0.0 < self.rel_eps < 1.0):
            raise ConfigError(f"rel_eps must lie in (0, 1), got {self.rel_eps!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 1):
            raise ConfigError(f"max_terms must be a positive integer, got {self.max_terms!r}")


DEFAULT_TOLERANCE = Tolerance()

# Power series is machine accurate (and cancellation-safe) up to here.
_J0_SERIES_CUTOFF = 8.0
# I0 series needs ~90 terms at 40; the scaled asymptotic expansion takes over beyond.
_I0_SERIES_CUTOFF = 40.0
# Largest Poisson mean for which the Marcum series can start from k = 0:
# exp(-700) is still a normal double, and the series then needs < 1000 terms.
_MARCUM_DIRECT_LIMIT = 700.0


def _as_float_array(x, name):
    """Validate finiteness and return (ndarray, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr, arr.ndim == 0


def _restore(value, scalar):
    return float(value[()]) if scalar else value


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def bessel_j0(x):
    """J0(x) for real x.

    Power series for |x| <= 8 (exact to machine precision there, covering the
    in-range correlation arguments, which never exceed 2*pi*0.38); Hankel
    asymptotic expansion beyond, accurate to ~1e-9, so out-of-range apertures
    degrade gracefully instead of diverging.
    """
    arr, scalar = _as_float_array(x, "x")
    ax = np.abs(np.atleast_1d(arr))
    out = np.empty_like(ax)
    small = ax <= _J0_SERIES_CUTOFF
    if small.any():
        out[small] = _j0_series(ax[small])
    if not small.all():
        out[~small] = _j0_asymptotic(ax[~small])
    out = out.reshape(arr.shape)
    return _restore(out, scalar)


def _j0_series(ax):
    # J0(x) = sum_m (-1)^m (x^2/4)^m / (m!)^2.  40 terms suffice at x = 8:
    # term_40 ~ 16^40/(40!)^2 ~ 1e-48.
    z = -0.25 * ax * ax
    term = np.ones_like(ax)
    total = np.ones_like(ax)
    for m in range(1, 40):
        term = term * z / (m * m)
        total = total + term
    return total


def _j0_asymptotic(ax):
    # Hankel expansion: J0(x) ~ sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)]
    inv2 = 1.0 / (ax * ax)
    p = 1.0 + inv2 * (-9.0 / 128.0 + inv2 * (3675.0 / 32768.0 - inv2 * 2401245.0 / 4194304.0))
    q = (1.0 / ax) * (-1.0 / 8.0 + inv2 * (75.0 / 1024.0 - inv2 * 59535.0 / 262144.0))
    chi = ax - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * ax)) * (p * np.cos(chi) - q * np.sin(chi))


# ---------------------------------------------------------------------------
# Scaled Bessel I0
# ---------------------------------------------------------------------------

def bessel_i0_scaled(x):
    """exp(-|x|) * I0(x); lies in (0, 1], even, decreasing in |x|.

    The all-positive power series (scaled afterwards) is used up to |x| = 40;
    the asymptotic series for exp(-x) I0(x) = (1/sqrt(2 pi x)) sum_k a_k x^-k
    takes over beyond and never touches exp(x), so no argument overflows.
    """
    arr, scalar = _as_float_array(x, "x")
    ax = np.abs(np.atleast_1d(arr))
    out = np.empty_like(ax)
    small = ax <= _I0_SERIES_CUTOFF
    if small.any():
        out[small] = np.exp(-ax[small]) * _i0_series(ax[small])
    if not small.all():
        out[~small] = _i0_scaled_asymptotic(ax[~small])
    out = out.reshape(arr.shape)
    return _restore(out, scalar)


def _i0_series(ax):
    # I0(x) = sum_m (x^2/4)^m / (m!)^2, all terms positive.
    z = 0.25 * ax * ax
    term = np.ones_like(ax)
    total = np.ones_like(ax)
    for m in range(1, 220):
        term = term * z / (m * m)
        total = total + term
        if np.all(term <= 1e-17 * total):
            break
    return total


def _i0_scaled_asymptotic(ax):
    # exp(-x) I0(x) ~ (2 pi x)^(-1/2) [1 + 1/(8x) + 9/(2!(8x)^2) + ...];
    # at x > 40 the (divergent) expansion bottoms out far below 1e-16.
    term = np.ones_like(ax)
    total = np.ones_like(ax)
    for k in range(1, 40):
        term = term * (2 * k - 1) ** 2 / (8.0 * k * ax)
        total = total + term
        if np.all(term <= 1e-17 * total):
            break
    return total / np.sqrt(2.0 * math.pi * ax)


# ---------------------------------------------------------------------------
# Marcum Q1
# ---------------------------------------------------------------------------

def marcum_q1(a, b, tol=DEFAULT_TOLERANCE):
    """First-order Marcum Q-function Q1(a, b) for a, b >= 0.

    Canonical series: with alpha = a^2/2 and beta = b^2/2,

        Q1(a, b) = sum_{k>=0} PoisPmf(k; alpha) * PoisCdf(k; beta),

    i.e. a Poisson(alpha)-weighted mixture of Poisson(beta) CDF values.  The
    sum runs from k = 0 while exp(-alpha) is representable (alpha <= 700) and
    is restarted from the dominant weight k0 = floor(alpha) in log space
    beyond that, which keeps the evaluation exact for the near-unity
    correlations produced by small apertures with many ports.

    Raises AccuracyError (carrying the partial sum) if ``tol.max_terms`` is
    exhausted before the truncation criterion is met.
    """
    a_arr, a_scalar = _as_float_array(a, "a")
    b_arr, b_scalar = _as_float_array(b, "b")
    if np.any(a_arr < 0.0) or np.any(b_arr < 0.0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    alpha, beta = np.broadcast_arrays(0.5 * a_arr * a_arr, 0.5 * b_arr * b_arr)
    shape = alpha.shape
    alpha = np.atleast_1d(alpha).astype(float, copy=True)
    beta = np.atleast_1d(beta).astype(float, copy=True)
    scalar = a_scalar and b_scalar

    out = np.empty_like(alpha)
    direct = alpha <= _MARCUM_DIRECT_LIMIT
    if direct.any():
        out[direct] = _marcum_direct(alpha[direct], beta[direct], tol)
    if not direct.all():
        big = ~direct
        out[big] = [
            _poisson_mixture(al, be, tol, upper=False)
            for al, be in zip(alpha[big], beta[big])
        ]
    out[beta == 0.0] = 1.0
    out = out.reshape(shape)
    return _restore(out, scalar)


def _marcum_direct(alpha, beta, tol):
    """Vectorised from-zero summation, valid for alpha <= 700."""
    p = np.exp(-alpha)          # Poisson(alpha) pmf at k
    r = np.exp(-beta)           # Poisson(beta) pmf at k
    cdf = r.copy()              # Poisson(beta) CDF at k
    total = p * cdf
    k_safe = float(np.max(alpha))   # terms cannot start decaying before the peak
    for k in range(1, tol.max_terms):
        p = p * (alpha / k)
        r = r * (beta / k)
        cdf = cdf + r
        term = p * cdf
        total = total + term
        if k >= k_safe and np.all(term <= tol.rel_eps * total):
            return np.minimum(total, 1.0)
    raise AccuracyError(
        f"marcum_q1 series did not converge within {tol.max_terms} terms",
        partial=np.minimum(total, 1.0),
    )


def _poisson_mixture(alpha, beta, tol, upper):
    """sum_k PoisPmf(k; alpha) * T(k; beta), summed outward from k0 = floor(alpha).

    T(k; beta) is the Poisson(beta) survivor Pr[Poisson(beta) > k] when
    ``upper`` is true and the CDF Pr[Poisson(beta) <= k] otherwise.  The CDF
    mixture is Q1(sqrt(2 alpha), sqrt(2 beta)); the survivor mixture is the
    two-port crossing-rate series.  The weights are seeded at their peak in
    log space, so any alpha is reachable, and T moves by one signed
    Poisson(beta) pmf per step.  Raises AccuracyError (carrying the partial
    sum) if ``tol.max_terms`` runs out first.
    """
    k0 = int(alpha)
    w0 = _poisson_pmf(k0, alpha)
    t0 = _poisson_tail(k0, beta, upper)
    sign = -1.0 if upper else 1.0
    total = w0 * t0
    terms = 1

    # upward: w_{k+1} = w_k alpha/(k+1), T_{k+1} = T_k -/+ pmf_{k+1}(beta)
    w, t = w0, t0
    r = sign * _poisson_pmf(k0 + 1, beta)
    k = k0
    while terms < tol.max_terms:
        w = w * alpha / (k + 1)
        t = t + r
        term = w * t
        total += term
        terms += 1
        k += 1
        r = r * beta / (k + 1)
        if term <= tol.rel_eps * total:
            break
    else:
        raise AccuracyError(
            f"Poisson-mixture series did not converge within {tol.max_terms} terms",
            partial=min(max(total, 0.0), 1.0),
        )

    # downward: w_{k-1} = w_k k/alpha, T_{k-1} = T_k +/- pmf_k(beta)
    w, t = w0, t0
    r = -sign * _poisson_pmf(k0, beta)
    k = k0
    while k > 0 and terms < tol.max_terms:
        w = w * k / alpha
        t = t + r
        k -= 1
        r = r * (k + 1) / beta if beta > 0.0 else 0.0
        term = w * t
        total += term
        terms += 1
        if term <= tol.rel_eps * total:
            break
    else:
        if k > 0:
            raise AccuracyError(
                f"Poisson-mixture series did not converge within {tol.max_terms} terms",
                partial=min(max(total, 0.0), 1.0),
            )
    return min(max(total, 0.0), 1.0)


def _poisson_pmf(k, lam):
    """Pr[Poisson(lam) = k] via log space; exact enough to seed recurrences."""
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _poisson_tail(k0, lam, upper):
    """Pr[Poisson(lam) > k0] if ``upper``, else Pr[Poisson(lam) <= k0]; k0 >= 0.

    Sums the pmf on the side of k0 with less mass: the CDF downward from k0
    when k0 < lam - 1, otherwise the survivor upward from k0 + 1.  Either sum
    is at most about 1/2, so only the complement of a sum is ever formed as
    1 - sum and a small tail never comes out of cancellation (Shnidman, IEEE
    Trans. Inf. Theory 35(2), 1989).  Both sums decay geometrically within
    ~10*sqrt(lam) terms.
    """
    survivor_side = k0 >= lam - 1.0
    if survivor_side:
        r = _poisson_pmf(k0 + 1, lam)
        total = r
        j = k0 + 1
        while r > 1e-18 * total:
            r = r * lam / (j + 1)
            j += 1
            total += r
    else:
        r = _poisson_pmf(k0, lam)
        total = r
        j = k0
        while j > 0 and r > 1e-18 * total:
            r = r * j / lam
            j -= 1
            total += r
    return total if upper == survivor_side else 1.0 - total


# ---------------------------------------------------------------------------
# Lower incomplete gamma, integer order
# ---------------------------------------------------------------------------

def lower_gamma_int(k, x):
    """gamma(k+1, x) = integral_0^x t^k exp(-t) dt for integer k >= 0.

    For x < k+1 the ascending series is used (no cancellation); for x >= k+1
    the closed form k! (1 - exp(-x) sum_{j<=k} x^j/j!) is safe because the
    bracket is order one there.  Monotone nondecreasing in x with limit k!.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    xf = float(x)
    if not math.isfinite(xf) or xf < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    k = int(k)
    if xf == 0.0:
        return 0.0
    if xf < k + 1.0:
        # gamma(k+1, x) = x^(k+1) e^-x sum_{j>=0} x^j / ((k+1)(k+2)...(k+1+j))
        log_pref = (k + 1) * math.log(xf) - xf
        term = 1.0 / (k + 1)
        total = term
        denom = k + 1
        while True:
            denom += 1
            term *= xf / denom
            total += term
            if term <= 1e-17 * total:
                break
        return math.exp(log_pref) * total
    try:
        fact = float(math.factorial(k))
    except OverflowError:
        fact = math.inf
    term = 1.0
    partial = 1.0
    for j in range(1, k + 1):
        term *= xf / j
        partial += term
    return fact * (1.0 - math.exp(-xf) * partial)
