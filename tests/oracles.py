"""Independent brute-force oracles used to validate the package.

Everything here deliberately avoids the faslcr implementation: special
functions come from power series / quadrature built on scipy, and the
crossing-rate oracles integrate the raw joint density directly.  Tests
compare faslcr's fast paths against these slow-but-simple routes.
"""

import math

import numpy as np
from scipy import integrate, special, stats


def j0_series(x, terms=60):
    """Power-series J0, adequate to ~1e-14 on [0, 8]."""
    z = -0.25 * x * x
    term, total = 1.0, 1.0
    for m in range(1, terms):
        term *= z / (m * m)
        total += term
    return total


def i0_scaled_quad(x):
    """exp(-|x|) I0(x) via the integral (1/pi) int_0^pi exp(x (cos t - 1)) dt."""
    x = abs(x)
    val, _ = integrate.quad(
        lambda t: math.exp(x * (math.cos(t) - 1.0)), 0.0, math.pi,
        epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    return val / math.pi


def marcum_q1_quad(a, b):
    """Q1(a, b) by adaptive quadrature of x exp(-(x^2+a^2)/2) I0(ax) over [b, inf)."""
    if b == 0.0:
        return 1.0

    def f(x):
        return x * special.i0e(a * x) * np.exp(-0.5 * (x - a) ** 2)

    hi = max(a, b) + 45.0
    val, _ = integrate.quad(f, b, hi, epsabs=1e-15, epsrel=1e-13, limit=400)
    return val


def lower_gamma_quad(k, x):
    """gamma(k+1, x) by adaptive quadrature of t^k exp(-t)."""
    val, _ = integrate.quad(
        lambda t: t ** k * math.exp(-t), 0.0, x,
        epsabs=1e-15, epsrel=1e-13, limit=400,
    )
    return val


def clarke_process_direct(rng, n_samples, dt, f_doppler, n_sinusoids):
    """Clarke sum-of-sinusoids process as a direct per-sinusoid cosine sum.

    Takes theta, then the phases, from ``rng`` in the simulator's order, so
    a generator in the same state yields the same realization.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_sinusoids)
    t = np.arange(n_samples) * dt
    acc = np.zeros(n_samples)
    for m, phase in enumerate(phases, start=1):
        angle = (2.0 * math.pi * m - math.pi + theta) / (4.0 * n_sinusoids)
        acc += np.cos(2.0 * math.pi * f_doppler * math.cos(angle) * t + phase)
    return acc / math.sqrt(n_sinusoids)


def pair_density(sigma2, mu, x_ref, xk):
    """One bivariate factor of the joint envelope density (scipy I0)."""
    c = sigma2 * (1.0 - mu * mu)
    v = 2.0 * abs(mu) * x_ref * xk / c
    return 2.0 * xk / c * special.i0e(v) * np.exp(v - (xk * xk + mu * mu * x_ref * x_ref) / c)


def joint_density(sigma2, mus, xs):
    """Full joint density as the product of pair factors against port 1."""
    out = pair_density(sigma2, 0.0, xs[0], xs[0])
    for mu, xk in zip(mus[1:], xs[1:]):
        out = out * pair_density(sigma2, mu, xs[0], xk)
    return out


def rayleigh_lcr(sigma, fd, x_th):
    """Classical single-channel Rayleigh crossing rate."""
    return math.sqrt(2.0 * math.pi) / sigma * fd * x_th * math.exp(-x_th * x_th / (sigma * sigma))


def two_port_lcr_quad(sigma2, mu, x_th, fd=1.0):
    """Two-port crossing rate by direct quadrature of the bivariate density.

    L = sqrt(2 pi) sigma f_D int_0^{x_th} p(x_th, x2) dx2 (the two symmetric
    contributions already combined).
    """
    sigma = math.sqrt(sigma2)
    s = sigma2 * (1.0 - mu * mu)
    ridge = max(0.0, x_th - 6.0 * math.sqrt(s / 2.0))
    val, _ = integrate.quad(
        lambda x2: joint_density(sigma2, (0.0, mu), (x_th, x2)),
        0.0, x_th, epsabs=1e-14, epsrel=1e-12, points=[ridge, x_th], limit=400,
    )
    return math.sqrt(2.0 * math.pi) * sigma * fd * val


def two_port_lcr_ncx2(sigma2, mu, x_th, fd=1.0):
    """Two-port crossing rate through scipy's noncentral chi-square CDF.

    The series' Poisson(mu^2 y)-mixture of Poisson(y) survivor masses, with
    y = x_th^2/(sigma^2 (1 - mu^2)), is Pr[chi'^2_2(2 mu^2 y) <= 2 y]; scipy
    evaluates it without cancellation at small y, so it anchors deep fades.
    """
    sigma = math.sqrt(sigma2)
    rho2 = x_th * x_th / sigma2
    y = rho2 / (1.0 - mu * mu)
    prefactor = 2.0 * math.sqrt(2.0 * math.pi) * fd * (x_th / sigma) * math.exp(-rho2)
    return prefactor * stats.ncx2.cdf(2.0 * y, 2, 2.0 * mu * mu * y)


def theorem1_per_term(sigma2, mus, x_th, product, fd=1.0):
    """The exact N-port rate with one quad per port i of g_i(x1) * product(x1, i).

    ``product(x1, i)`` is the product of the below-threshold factors of the
    ports k >= 2 other than port i (i = 1 leaves none out).  Each port's
    term is integrated on its own; slow, a reference for lcr_theorem1's
    single summed leave-one-out pass.
    """
    sigma = math.sqrt(sigma2)
    first = math.exp(-x_th * x_th / sigma2) * product(x_th, 1)
    second = 0.0
    for i, mu in enumerate((abs(m) for m in mus[1:]), start=2):
        s = sigma2 * (1.0 - mu * mu)

        def g(x1, _mu=mu, _s=s, _i=i):
            v = 2.0 * _mu * x_th * x1 / _s
            return (2.0 * x1 / sigma2 * special.i0e(v)
                    * math.exp(v - (x_th * x_th + x1 * x1) / _s) * product(x1, _i))

        # the integrand peaks at x1 = mu x_th, on a ridge of width ~sqrt(s)
        points = [mu * x_th] if 0.0 < mu * x_th < x_th else None
        val, _ = integrate.quad(g, 0.0, x_th, epsabs=1e-14, epsrel=1e-11,
                                points=points, limit=400)
        second += val / (1.0 - mu * mu)
    return math.sqrt(2.0 * math.pi) * x_th * fd / sigma * (first + second)


def theorem1_ncx2_per_term(sigma2, mus, x_th, fd=1.0):
    """``theorem1_per_term`` with scipy's noncentral chi-square as every factor:
    port k's 1 - Q1(a_k x1, b_k) is Pr[chi'^2_2((a_k x1)^2) <= b_k^2].
    Independent of faslcr's Marcum kernel.
    """
    def product(x1, skip):
        out = 1.0
        for k, mu in enumerate(mus[1:], start=2):
            if k != skip:
                s = sigma2 * (1.0 - mu * mu)
                out *= stats.ncx2.cdf(2.0 * x_th * x_th / s, 2, 2.0 * mu * mu * x1 * x1 / s)
        return out

    return theorem1_per_term(sigma2, mus, x_th, product, fd)


def n_port_lcr_bruteforce(sigma2, mus, x_th, fd=1.0):
    """N-port crossing rate from first principles for N <= 3.

    Evaluates sqrt(pi/2) sigma f_D sum_i int...int p(x_1,...,x_i=x_th,...)
    over [0, x_th]^(N-1) with adaptive (double) quadrature of the raw joint
    density.  Slow; used as the ground-truth anchor.
    """
    sigma = math.sqrt(sigma2)
    n = len(mus)
    total = 0.0
    if n == 1:
        total = joint_density(sigma2, mus, (x_th,))
    elif n == 2:
        for i in range(2):
            def f(xo, _i=i):
                xs = [xo, xo]
                xs[_i] = x_th
                return joint_density(sigma2, mus, xs)
            val, _ = integrate.quad(f, 0.0, x_th, epsabs=1e-13, epsrel=1e-11, limit=400)
            total += val
    elif n == 3:
        for i in range(3):
            def f(xa, xb, _i=i):
                xs = [None, None, None]
                free = [j for j in range(3) if j != _i]
                xs[_i] = x_th
                xs[free[0]] = xa
                xs[free[1]] = xb
                return joint_density(sigma2, mus, xs)
            val, _ = integrate.dblquad(
                lambda xb, xa: f(xa, xb), 0.0, x_th, 0.0, x_th,
                epsabs=1e-12, epsrel=1e-10,
            )
            total += val
    else:
        raise ValueError("brute-force oracle implemented for N <= 3 only")
    return math.sqrt(math.pi / 2.0) * sigma * fd * total
