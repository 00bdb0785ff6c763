"""Self-contained, overflow-safe special-function kernel.

Provides the four primitives the crossing-rate formulas are built from:

* ``bessel_j0``        -- J0(x), Bessel function of the first kind, order zero
* ``bessel_i0_scaled`` -- exp(-|x|) * I0(x), modified Bessel, order zero
* ``marcum_q1``        -- Q1(a, b), first-order Marcum Q-function
* ``lower_gamma_int``  -- gamma(k+1, x), lower incomplete gamma, integer order

Both Bessel functions are even and switch branch at |x| = 8 through one
wrapper, ``_even_function``: J0 is a power series below and a Hankel
expansion above, and scaled I0 is a fixed-length Chebyshev expansion on
either side (Cephes' ``i0e`` layout), so an I0 call costs a fixed number of
array operations, whatever its arguments.

Q1, its complement 1 - Q1 and the two-port crossing-rate series are one
function, with ``complement`` choosing the side; ``lcr_analytic`` calls
``marcum_q1`` for the N-port factors and the two-port series alike.  It has
two routes, chosen per element by xi = ab:

* xi <= 20: a Poisson(alpha)-weighted mixture of Poisson(beta) tails (Q1
  mixes CDFs, 1 - Q1 mixes survivors), summed by one array kernel,
  ``_poisson_mixture``, outward from each element's dominant weight in
  lock-step blocks.  The Poisson pmfs are seeded in Loader's saddle-point
  form and the tails summed on their small side.
* xi > 20: Temme's uniform expansion for large xi, an erfc term (Cody's
  rational erfc) plus 20 terms of a recurrence, a fixed number of array
  operations whatever the arguments; its cost does not grow with alpha and
  beta as the mixture's does.

Each route computes the side that is small and forms only the other one as
1 minus it, so either side stays exact where it is small.

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

_TINY = np.finfo(float).tiny

# |x| at which both Bessel evaluators switch branch: J0's power series is
# machine accurate (and cancellation-safe) up to here, and I0's two Chebyshev
# expansions meet here.
_BESSEL_SPLIT = 8.0


def _as_float_array(x, name):
    """Validate finiteness and return (ndarray, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr, arr.ndim == 0


def _restore(value, scalar):
    return float(value[()]) if scalar else value


def _even_function(x, small, large):
    """An even function of real x: ``small(|x|)`` for |x| <= _BESSEL_SPLIT and
    ``large(|x|)`` beyond, each over a 1-D array, in the shape of x."""
    arr, scalar = _as_float_array(x, "x")
    ax = np.abs(np.atleast_1d(arr))
    out = np.empty_like(ax)
    inner = ax <= _BESSEL_SPLIT
    if inner.any():
        out[inner] = small(ax[inner])
    if not inner.all():
        out[~inner] = large(ax[~inner])
    return _restore(out.reshape(arr.shape), scalar)


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
    return _even_function(x, _j0_series, _j0_asymptotic)


def _j0_series(ax):
    # J0(x) = sum_m (-1)^m (x^2/4)^m / (m!)^2, stopped once every term is
    # below 1e-17 of its sum.  40 terms suffice at x = 8:
    # term_40 ~ 16^40/(40!)^2 ~ 1e-48.
    z = -0.25 * ax * ax
    term = np.ones_like(z)
    total = np.ones_like(z)
    for m in range(1, 40):
        term = term * z / (m * m)
        total = total + term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
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

    Two Chebyshev expansions in Cephes' ``i0e`` layout, each summed by
    Clenshaw's recurrence at a fixed cost per element: exp(-x) I0(x) itself
    in t = x/4 - 1 for |x| <= 8, and sqrt(x) exp(-x) I0(x), which tends to
    1/sqrt(2 pi), in t = 16/x - 1 beyond.  Neither touches exp(x), so no
    argument overflows; both agree with I0 to within a few ulp.
    """
    return _even_function(x, _i0_scaled_small, _i0_scaled_large)


# Chebyshev coefficients c_k of f(t) = exp(-x) I0(x) at x = 4 (t + 1) (small)
# and of f(t) = sqrt(x) exp(-x) I0(x) at x = 16/(t + 1) (large), for t in
# [-1, 1].  Computed offline with mpmath at 40 digits (mp.besseli, mp.exp) as
# c_k = (2/M) sum_j f(cos th_j) cos(k th_j), th_j = pi (j + 1/2)/M, M = 80,
# with c_0 halved, and cut after the last |c_k| >= 1e-18 (30 and 27 terms);
# the dropped tails sum to 6.5e-19 and 5.6e-19, far below an ulp of f.
_I0_SMALL = (
    0.33839763720473803, -0.3046826723431984, 0.17162090152220877, -0.09490109704804764,
    0.04930528423967071, -0.02373741480589947, 0.010546460394594998,
    -0.004324309995050576, 0.0016394756169413357, -0.0005763755745385824,
    0.00018850288509584165, -5.754195010082104e-05, 1.6448448070728896e-05,
    -4.4167383584587505e-06, 1.1173875391201037e-06, -2.670793853940612e-07,
    6.046995022541919e-08, -1.300025009986248e-08, 2.6598237246823866e-09,
    -5.189795601635263e-10, 9.675809035373237e-11, -1.726826291441556e-11,
    2.95505266312964e-12, -4.856446783111929e-13, 7.676185498604936e-14,
    -1.1685332877993451e-14, 1.715391285555133e-15, -2.431279846547955e-16,
    3.3307945188222384e-17, -4.4153416464793395e-18,
)

_I0_LARGE = (
    0.4022452055070544, 0.0033691164782556943, 6.889758346916825e-05,
    2.8913705208347567e-06, 2.0489185894690638e-07, 2.266668990498178e-08,
    3.3962320257083865e-09, 4.94060238822497e-10, 1.1889147107846439e-11,
    -3.1499165279632416e-11, -1.3215811840447713e-11, -1.7941785315068062e-12,
    7.180124451383666e-13, 3.8527783827421426e-13, 1.54008621752141e-14,
    -4.150569347287222e-14, -9.554846698828307e-15, 3.8116806693526224e-15,
    1.7725601330565263e-15, -3.425485619677219e-16, -2.8276239805165836e-16,
    3.461222867697461e-17, 4.46562142029676e-17, -4.830504485944182e-18,
    -7.233180487874754e-18, 9.921475412173699e-19, 1.193650890845982e-18,
)


def _chebyshev(coefs, t):
    """sum_k coefs[k] T_k(t) over an array t in [-1, 1], by Clenshaw's recurrence."""
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    t2 = 2.0 * t
    for c in coefs[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coefs[0] + t * b1 - b2


def _i0_scaled_small(ax):
    # the sum lands 1 ulp below the exact value 1 at x = 0
    return np.where(ax > 0.0, _chebyshev(_I0_SMALL, 0.25 * ax - 1.0), 1.0)


def _i0_scaled_large(ax):
    return _chebyshev(_I0_LARGE, 16.0 / ax - 1.0) / np.sqrt(ax)


# ---------------------------------------------------------------------------
# Marcum Q1
# ---------------------------------------------------------------------------

def marcum_q1(a, b, tol=DEFAULT_TOLERANCE, complement=False):
    """First-order Marcum Q-function Q1(a, b) for a, b >= 0, or 1 - Q1(a, b)
    if ``complement``.  With alpha = a^2/2 and beta = b^2/2,

        Q1(a, b)     = sum_{k>=0} PoisPmf(k; alpha) * PoisCdf(k; beta),
        1 - Q1(a, b) = sum_{k>=0} PoisPmf(k; alpha) * PoisSf(k; beta).

    Elements with xi = ab > _TEMME_XI go to Temme's large-xi expansion
    (``_temme_small_side``), a fixed number of array operations per call;
    every other element with b > 0 is summed by ``_poisson_mixture`` outward
    from its dominant weight k0 = floor(alpha), and the complement is summed,
    never formed as 1 - Q1.  Either route computes the side that is small
    and forms only the other one as 1 minus it, so each side stays exact
    where it is small.  ``tol`` applies to the mixture alone: ``max_terms``
    caps its terms per element, counted per block of consecutive terms, in
    the mixture and in the Poisson tail that seeds it; AccuracyError
    (carrying the partial sums) is raised if it runs out before the
    truncation criterion is met.
    """
    a_arr, a_scalar = _as_float_array(a, "a")
    b_arr, b_scalar = _as_float_array(b, "b")
    if np.any(a_arr < 0.0) or np.any(b_arr < 0.0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    alpha, beta = 0.5 * a_arr * a_arr, 0.5 * b_arr * b_arr
    scalar = a_scalar and b_scalar
    out = np.full(alpha.shape, 0.0 if complement else 1.0)   # its value at b = 0
    pos = beta > 0.0
    large = a_arr * b_arr > _TEMME_XI
    if large.any():
        a_l, b_l = a_arr[large], b_arr[large]
        small = _temme_small_side(a_l, b_l)
        # the small side is Q1 where b >= a, and 1 - Q1 where b < a
        out[large] = np.where((b_l >= a_l) != complement, small, 1.0 - small)
        pos &= ~large
    if pos.any():
        try:
            out[pos] = _poisson_mixture(alpha[pos], beta[pos], tol, complement)
        except AccuracyError as exc:
            out[pos] = exc.partial
            raise AccuracyError(str(exc), partial=_restore(out, scalar)) from None
    return _restore(out, scalar)


# xi = ab above which ``marcum_q1`` leaves the Poisson mixture for Temme's
# expansion, and the expansion's number of terms.  Against Poisson-mixture
# sums at 50 digits with mpmath over rho = b/a in [0.02, 50], 20 terms are
# within 1.0e-15 relative of the small side, down to 1e-300, for xi >= 20
# (9.3e-15 at xi = 17.5, 3.0e-13 at 15); where it is above 1e-15, the
# mixture agrees with them to 1.9e-14 from xi = 17.5 to 50.  The full
# switch map is in CHANGES.md.
_TEMME_XI = 20.0
_TEMME_TERMS = 20

# (-1)^n A_n(0) and (-1)^n A_n(1), n = 1..20: the coefficients of xi^-n in the
# Hankel expansions sqrt(2 pi xi) e^-xi I_nu(xi) ~ sum_n (-1)^n A_n(nu) xi^-n,
# A_n(nu) = prod_{k=1..n} (4 nu^2 - (2k - 1)^2)/(8k).  Exact rationals,
# computed offline with fractions.Fraction and rounded once to double.
_HANKEL_I0 = (
    0.125, 0.0703125, 0.0732421875, 0.112152099609375, 0.22710800170898438,
    0.5725014209747314, 1.7277275025844574, 6.074042001273483, 24.380529699556064,
    110.01714026924674, 551.3358961220206, 3038.090510922384, 18257.755474293175,
    118838.42625678325, 832859.3040162893, 6252951.493434797, 50069589.531988926,
    425939216.5047669, 3836255180.2304335, 36468400807.06556,
)
_HANKEL_I1 = (
    -0.375, -0.1171875, -0.1025390625, -0.144195556640625, -0.2775764465332031,
    -0.6765925884246826, -1.993531733751297, -6.883914268109947, -27.248827311268542,
    -121.59789187653587, -603.8440767050702, -3302.2722944808525, -19718.37591223663,
    -127641.2726461746, -890297.8767070678, -6656367.718817688, -53104110.10968523,
    -450278600.3050393, -4043620325.107754, -38338575207.427895,
)


def _temme_small_side(a, b):
    """Q1(a, b) where b >= a and 1 - Q1(a, b) where b < a, over 1-D arrays with
    xi = ab > _TEMME_XI, by Temme's expansion for large xi (N. M. Temme,
    Comput. Math. Appl. 25(5), 1993; Gil, Segura & Temme, ACM TOMS 40(3),
    2014).

    Along a ray of fixed rho = b/a, dQ1/dxi = e^(-sigma xi) (I1~(xi) - rho
    I0~(xi))/2, with I~(xi) = e^-xi I(xi) and sigma = (b - a)^2/(2 xi).
    Integrating the Hankel expansions of I0~ and I1~ over [xi, inf) gives

        small side = sqrt(rho)/2 erfc(sqrt(z)) + sgn(b - a) sum_{n>=1} psi_n,
        psi_n      = (rho A0_n - A1_n) e^-z xi^(1/2 - n) g_n / (2 sqrt(2 pi)),

    with z = sigma xi = (b - a)^2/2, A0_n and A1_n the Hankel coefficients
    ``_HANKEL_I0`` and ``_HANKEL_I1``, and g_n(z) = z^(n-1/2) e^z
    Gamma(1/2 - n, z) = (1 - z g_(n-1))/(n - 1/2).  The first _TEMME_TERMS
    terms are summed.  The erfc comes from ``_erfcx``, and e^-z is formed from
    the exact b - a, so the small side keeps its relative accuracy deep into
    either tail.
    """
    xi, rho = a * b, b / a
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    d = hi - lo
    d_err = (hi - d) - lo            # hi - lo = d + d_err exactly (Fast2Sum)
    z = 0.5 * d * d
    ex = _erfcx(d * math.sqrt(0.5))
    series = _temme_series(z, xi, rho, ex)
    # e^-((d + d_err)^2/2): h = d cut to a multiple of 1/16 squares exactly, so
    # only the small remainder's exponent is rounded (Cody's device in CALERF).
    # That exponent is at most d^2 eps, far below h^2/2; the cap keeps its exp
    # finite where e^(-h^2/2) is 0.
    h = np.floor(16.0 * d) / 16.0
    rest = np.minimum(-0.5 * (d - h) * (d + h) - d * d_err, 700.0)
    scale = np.exp(-0.5 * h * h) * np.exp(rest)
    sign = np.where(b >= a, 1.0, -1.0)
    return scale * (0.5 * np.sqrt(rho) * ex
                    + sign * np.sqrt(xi) * series / (2.0 * math.sqrt(2.0 * math.pi)))


def _temme_series(z, xi, rho, ex):
    """sum_{n=1..N} (rho A0_n - A1_n) g_n(z) xi^-n with N = _TEMME_TERMS, given
    ex = erfcx(sqrt(z)).

    The recurrence for g_n is stable forward while z < n + 1/2 and backward
    beyond it.  Where z <= 2N it runs forward from g_1 = 2 (1 - sqrt(pi z) ex):
    its error there grows like (z/(n + 1/2))^n, but enters the sum with weight
    A_n xi^-n, so it stays at rounding level for sigma = z/xi < 2.  Elsewhere
    it runs backward from g_N ~ 1/(z + N + 1/2), whose error shrinks by
    (n + 1/2)/z < 1/2 a step.  Every term of the sum is positive.
    """
    out = np.empty_like(z)
    fwd = z <= 2.0 * _TEMME_TERMS
    if fwd.any():
        zf = z[fwd]
        g = np.empty((_TEMME_TERMS, zf.size))     # row n - 1 holds g_n
        g[0] = 2.0 * (1.0 - np.sqrt(math.pi * zf) * ex[fwd])
        for n in range(1, _TEMME_TERMS):
            row = np.multiply(zf, g[n - 1], out=g[n])
            np.subtract(1.0, row, out=row)
            row *= 1.0 / (n + 0.5)
        out[fwd] = _hankel_sum(g, xi[fwd], rho[fwd])
    if not fwd.all():
        bwd = ~fwd
        zb = z[bwd]
        g = np.empty((_TEMME_TERMS, zb.size))
        g[-1] = 1.0 / (zb + _TEMME_TERMS + 0.5)
        for n in range(_TEMME_TERMS - 1, 0, -1):
            row = np.multiply(g[n], -(n + 0.5), out=g[n - 1])
            row += 1.0
            row /= zb
        out[bwd] = _hankel_sum(g, xi[bwd], rho[bwd])
    return out


def _hankel_sum(g, xi, rho):
    """sum_n (rho A0_n - A1_n) g_n xi^-n, with g_n in row n - 1 of g (overwritten)."""
    g *= np.cumprod(np.broadcast_to(1.0 / xi, g.shape), axis=0)
    i0_sum, i1_sum = np.array([_HANKEL_I0, _HANKEL_I1]) @ g
    return rho * i0_sum - i1_sum


# W. J. Cody's rational Chebyshev approximations ("Rational Chebyshev
# approximations for the error function", Math. Comp. 23, 1969), with the
# coefficients of his CALERF, highest power first: erf(x) = x P(x^2)/Q(x^2)
# for x <= 0.46875; erfc(x) = e^(-x^2) P(x)/Q(x) for x <= 4; and e^(x^2)
# erfc(x) = (1/sqrt(pi) - t P(t)/Q(t))/x with t = 1/x^2 beyond.  Checked
# offline against mpmath's erfc at 40 digits on 3000 points of [0, 1e8]: the
# relative error of ``_erfcx`` is at most 6.0e-16.
_ERF_P = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_Q = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_P = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
           1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_Q = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFCX_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
            1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFCX_Q = (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
            6.05183413124413191e-2, 2.33520497626869185e-3)


def _erfcx(x):
    """exp(x^2) erfc(x) over a 1-D array x >= 0, by Cody's approximations."""
    out = np.empty_like(x)
    near, far = x <= 0.46875, x > 4.0
    mid = ~(near | far)
    if near.any():
        y = x[near]
        t = y * y
        out[near] = np.exp(t) * (1.0 - y * _horner(_ERF_P, t) / _horner(_ERF_Q, t))
    if mid.any():
        y = x[mid]
        out[mid] = _horner(_ERFC_P, y) / _horner(_ERFC_Q, y)
    if far.any():
        y = x[far]
        t = 1.0 / (y * y)
        out[far] = (1.0 / math.sqrt(math.pi) - t * _horner(_ERFCX_P, t) / _horner(_ERFCX_Q, t)) / y
    return out


def _horner(coefs, t):
    """coefs[0] t^m + coefs[1] t^(m-1) + ... + coefs[m]."""
    out = coefs[0]
    for c in coefs[1:]:
        out = out * t + c
    return out


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
    try:
        t0 = _poisson_tail(k0, beta, r0, upper, tol.max_terms)
    except AccuracyError as exc:
        raise AccuracyError(str(exc), partial=w0 * exc.partial) from None
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


def _poisson_tail(k, lam, p, upper, max_terms=math.inf):
    """Pr[Poisson(lam) > k] if ``upper``, else Pr[Poisson(lam) <= k], over 1-D
    arrays of integer-valued k >= 0 and lam > 0, given p = Pr[Poisson(lam) = k].

    Sums the pmf on the side of k with less mass, which decays geometrically
    within ~10*sqrt(lam) terms: the CDF downward from k when k < lam - 1,
    otherwise the survivor upward from k + 1.  Either sum is at most about
    1/2, so only its complement is formed as 1 - sum and a small tail never
    comes out of cancellation (Shnidman, IEEE Trans. Inf. Theory 35(2), 1989).
    At most ``max_terms`` terms are summed per element; AccuracyError carries
    the partial tails, in [0, 1], if that is not enough.  An element leaves
    the loop once its last term is below 1e-18 of its sum, or below the
    smallest normal double: a subnormal term times a ratio above 1/2 can
    round back to itself, so it would never fall to 0.
    """
    survivor = k >= lam - 1.0
    # the CDF starts from the term p itself
    total = np.where(survivor, 0.0, p)
    block = _block_length(lam.size)
    for side, step in ((survivor, 1), (~survivor, -1)):
        idx = np.nonzero(side)[0]
        start, mean, last = k[idx], lam[idx], p[idx]
        budget = max_terms if step > 0 else max_terms - 1
        length = 8
        while True:
            live = last > np.maximum(1e-18 * total[idx], _TINY)
            if not live.any():
                break
            idx, start, mean, last = idx[live], start[live], mean[live], last[live]
            length = min(2 * length, block, budget)
            if length == 0:
                partial = np.where(survivor == upper, total, 1.0 - total)
                raise AccuracyError(f"Poisson tail did not converge within {max_terms} terms",
                                    partial=np.clip(partial, 0.0, 1.0))
            budget -= length
            run = _pmf_run(start, mean, last, step, length)
            total[idx] += run.sum(axis=0)
            start, last = start + step * length, run[-1]
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
    m = np.maximum(lam, _TINY)
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
