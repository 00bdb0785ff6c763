"""Self-contained, overflow-safe special-function kernel.

Provides the four primitives the crossing-rate formulas are built from:

* ``bessel_j0``        -- J0(x), Bessel function of the first kind, order zero
* ``bessel_i0_scaled`` -- exp(-|x|) * I0(x), modified Bessel, order zero
* ``marcum_q1``        -- Q1(a, b), first-order Marcum Q-function
* ``lower_gamma_int``  -- gamma(k+1, x), lower incomplete gamma, integer order

Q1, its complement 1 - Q1 and the two-port crossing-rate series are one
sum, a Poisson(alpha)-weighted mixture of Poisson(beta) tails: Q1 mixes
CDFs, 1 - Q1 and the series mix survivors.  All of them run on one array
kernel, ``_poisson_mixture``, which sums every element outward from its
dominant weight in lock-step blocks.  ``marcum_q1`` sends every b > 0
through it, with ``complement`` choosing the side; ``lcr_analytic`` calls
``marcum_q1`` for the N-port factors and the two-port series alike.  The
Poisson pmfs are seeded in Loader's saddle-point form and the tails summed
on their small side, so either side stays exact where it is small.

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

def marcum_q1(a, b, tol=DEFAULT_TOLERANCE, complement=False):
    """First-order Marcum Q-function Q1(a, b) for a, b >= 0, or 1 - Q1(a, b)
    if ``complement``.  With alpha = a^2/2 and beta = b^2/2,

        Q1(a, b)     = sum_{k>=0} PoisPmf(k; alpha) * PoisCdf(k; beta),
        1 - Q1(a, b) = sum_{k>=0} PoisPmf(k; alpha) * PoisSf(k; beta),

    and every element with b > 0 is summed by ``_poisson_mixture`` outward
    from its dominant weight k0 = floor(alpha), so any argument is reachable
    and the complement is summed, never formed as 1 - Q1: each side stays
    exact where it is small.  ``tol.max_terms`` caps the terms per element,
    counted per block of consecutive terms; AccuracyError (carrying the
    partial sums) is raised if it runs out before the truncation criterion
    is met.
    """
    a_arr, a_scalar = _as_float_array(a, "a")
    b_arr, b_scalar = _as_float_array(b, "b")
    if np.any(a_arr < 0.0) or np.any(b_arr < 0.0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    alpha, beta = np.broadcast_arrays(0.5 * a_arr * a_arr, 0.5 * b_arr * b_arr)
    scalar = a_scalar and b_scalar
    out = np.full(alpha.shape, 0.0 if complement else 1.0)   # its value at b = 0
    pos = beta > 0.0
    if pos.any():
        try:
            out[pos] = _poisson_mixture(alpha[pos], beta[pos], tol, complement)
        except AccuracyError as exc:
            out[pos] = exc.partial
            raise AccuracyError(str(exc), partial=_restore(out, scalar)) from None
    return _restore(out, scalar)


def _poisson_mixture(alpha, beta, tol, upper):
    """sum_k PoisPmf(k; alpha) * T(k; beta) over 1-D arrays alpha >= 0, beta > 0,
    with T(k; beta) = Pr[Poisson(beta) > k] if ``upper``, else Pr[Poisson(beta) <= k].

    Each element starts at its own k0 = floor(alpha), with the weight and the
    Poisson(beta) pmf seeded by ``_poisson_pmf`` and T(k0; beta) by
    ``_poisson_tail``, then sums upward, and downward to k = 0, in lock-step
    blocks of consecutive k laid out (k, element): weights and pmfs are
    ``_pmf_run`` products, and T moves by one signed pmf per step.  An
    element leaves a direction once its block ends on a term below
    ``tol.rel_eps`` times its sum.
    """
    n = alpha.size
    block = _block_length(n)
    k0 = np.floor(alpha)
    w0, r0 = np.split(_poisson_pmf(np.concatenate([k0, k0]), np.concatenate([alpha, beta])), 2)
    t0 = _poisson_tail(k0, beta, r0, upper)
    total = w0 * t0
    budget = tol.max_terms - 1
    sign = -1.0 if upper else 1.0
    for step in (1, -1):
        # T(k+1) = T(k) + sign pmf(k+1); T(k-1) = T(k) - sign pmf(k)
        idx = np.arange(n) if step > 0 else np.nonzero(k0)[0]
        k, w, r, t, lam = k0[idx], w0[idx], r0[idx], t0[idx], beta[idx]
        length = 8
        while idx.size:
            length = min(2 * length, block, budget)
            if length == 0:
                raise AccuracyError(f"Poisson-mixture series did not converge within "
                                    f"{tol.max_terms} terms", partial=np.clip(total, 0.0, 1.0))
            budget -= length
            ws = _pmf_run(k, alpha[idx], w, step, length)
            rs = _pmf_run(k, lam, r, step, length)
            inc = rs if step > 0 else np.concatenate([r[None], rs[:-1]])
            ts = t + (sign * step) * np.cumsum(inc, axis=0)
            terms = ws * ts
            sums = total[idx] + terms.sum(axis=0)
            total[idx] = sums
            live = terms[-1] > tol.rel_eps * sums
            idx, lam = idx[live], lam[live]
            k = k[live] + step * length
            w, r, t = ws[-1, live], rs[-1, live], ts[-1, live]
    return np.clip(total, 0.0, 1.0)


def _block_length(n):
    """Longest block of consecutive k over n elements (blocks double from 16
    up to it): 256 for a few elements, so a long series is not one numpy step
    per term, down to 1 for arrays that are already wide."""
    return max(1, min(256, 8192 // n))


def _pmf_run(k, lam, p, step, length):
    """(length, n) block of Pr[Poisson(lam) = k + step*j] for j = 1..length,
    from p = Pr[Poisson(lam) = k], one ratio per step; downward (lam > 0) the
    ratio from k = 0 is 0, so every value below k = 0 comes out 0."""
    j = np.arange(1, length + 1)[:, None]
    if step > 0:
        ratio = lam / (k + j)
    else:
        ratio = (k - j + 1) / lam
    ratio[0] *= p
    return np.cumprod(ratio, axis=0, out=ratio)


def _poisson_tail(k, lam, p, upper):
    """Pr[Poisson(lam) > k] if ``upper``, else Pr[Poisson(lam) <= k], over 1-D
    arrays of integer-valued k >= 0 and lam > 0, given p = Pr[Poisson(lam) = k].

    Sums the pmf on the side of k with less mass, which decays geometrically
    within ~10*sqrt(lam) terms: the CDF downward from k when k < lam - 1,
    otherwise the survivor upward from k + 1.  Either sum is at most about
    1/2, so only its complement is formed as 1 - sum and a small tail never
    comes out of cancellation (Shnidman, IEEE Trans. Inf. Theory 35(2), 1989).
    """
    survivor = k >= lam - 1.0
    total = np.empty_like(lam)
    block = _block_length(lam.size)
    for side, step in ((survivor, 1), (~survivor, -1)):
        start, mean, last = k[side], lam[side], p[side]
        acc = np.zeros_like(last) if step > 0 else last.copy()
        length = 8
        while np.any(last > 1e-18 * acc):
            length = min(2 * length, block)
            run = _pmf_run(start, mean, last, step, length)
            acc += run.sum(axis=0)
            start, last = start + step * length, run[-1]
        total[side] = acc
    return np.where(survivor == upper, total, 1.0 - total)


# stirlerr(k) = ln k! - ln(sqrt(2 pi k) (k/e)^k) for k = 0..15 (Loader's table).
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _poisson_pmf(k, lam):
    """Pr[Poisson(lam) = k] elementwise, for integer-valued k >= 0 and lam > 0
    (lam = 0 only at k = 0).

    Loader's saddle-point form exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k)
    (C. Loader, "Fast and accurate computation of binomial probabilities",
    2000): both parts are small and computed without cancellation, so the
    relative error stays a few eps at any k, where exp(k ln lam - lam -
    ln k!) loses about eps * k ln lam.
    """
    x = np.maximum(k, 1.0)
    m = np.maximum(lam, np.finfo(float).tiny)
    # bd0(x, m) = x ln(x/m) + m - x; near x = m, the series in v = (x-m)/(x+m)
    # d v + 2 x v sum_{j>=1} v^(2j)/(2j+1), converged by j = 9 for |v| < 0.1
    d = x - m
    v = d / (x + m)
    v2 = v * v
    odd = 0.0
    for j in range(9, 0, -1):
        odd = (odd + 1.0 / (2 * j + 1)) * v2
    bd0 = np.where(np.abs(v) < 0.1, d * v + 2.0 * x * v * odd, x * np.log(x / m) - d)
    # stirlerr beyond the table: Loader's asymptotic series in 1/k^2
    xx = 1.0 / (x * x)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - xx / 1188) * xx) * xx) * xx) / x
    stirlerr = np.where(x <= 15.0, _STIRLERR[np.minimum(x, 15.0).astype(int)], series)
    return np.where(k == 0.0, np.exp(-lam), np.exp(-stirlerr - bd0) / np.sqrt(2.0 * math.pi * x))


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
