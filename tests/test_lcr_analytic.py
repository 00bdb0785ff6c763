"""Analytic crossing-rate paths against brute-force oracles and each other."""

import math
import warnings

import numpy as np
import pytest

from faslcr import lcr_analytic
from faslcr.channel_model import CorrelationProfile, FasConfig, correlation_profile
from faslcr.errors import AccuracyError, ConfigError, DomainError, SingularityError
from faslcr.lcr_analytic import (
    _INITIAL_PANELS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    lcr_identical,
    lcr_iid,
    lcr_theorem1,
    lcr_two_port_series,
    surviving_product,
)
from faslcr.specfun import Tolerance

from oracles import (
    marcum_q1_quad,
    n_port_lcr_bruteforce,
    pair_density,
    rayleigh_lcr,
    theorem1_ncx2_per_term,
    theorem1_per_term,
    two_port_lcr_ncx2,
    two_port_lcr_quad,
)
from scipy import integrate

# The paper's threshold grid.
PAPER_GRID = tuple(float(x) for x in np.linspace(0.05, 3.0, 20))


def uncorrelated(n):
    return CorrelationProfile(mu=(0.0,) * n)


def theorem1_per_term_quad(cfg, prof, x_th):
    """``theorem1_per_term`` with surviving_product as the factor product."""
    return theorem1_per_term(
        cfg.sigma2, prof.mu, x_th,
        lambda x1, i: surviving_product(cfg, prof, x1, x_th, skip_index=i), cfg.f_doppler,
    )


class TestLcrIid:
    def test_peak_location_and_value(self):
        # d/dx (x exp(-x^2)) = 0 at x = 1/sqrt(2); peak value 1.0750476...
        cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
        peak_x = 1.0 / math.sqrt(2.0)
        assert lcr_iid(cfg, peak_x) == pytest.approx(1.0750476034999201, rel=1e-14)
        grid = np.linspace(0.01, 3.0, 2000)
        vals = [lcr_iid(cfg, float(x)) for x in grid]
        assert abs(grid[int(np.argmax(vals))] - peak_x) < 2e-3
        assert max(vals) <= lcr_iid(cfg, peak_x) + 1e-12

    def test_diversity_suppresses_deep_fades(self):
        cfg1 = FasConfig(1, 0.0)
        cfg2 = FasConfig(2, 0.0)
        x = 0.1
        ratio = lcr_iid(cfg2, x) / lcr_iid(cfg1, x)
        assert ratio == pytest.approx(2.0 * -math.expm1(-0.01), rel=1e-12)
        assert ratio < 1.0

    def test_limits(self):
        cfg = FasConfig(3, 0.0)
        assert lcr_iid(cfg, 1e-12) == pytest.approx(0.0, abs=1e-20)
        assert lcr_iid(cfg, 50.0) == pytest.approx(0.0, abs=1e-300)

    def test_monotone_in_n_below_rms(self):
        x = 0.3
        vals = [lcr_iid(FasConfig(n, 0.0), x) for n in range(1, 9)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            lcr_iid(FasConfig(2, 0.0), 0.0)
        with pytest.raises(DomainError):
            lcr_iid(FasConfig(2, 0.0), math.inf)


class TestLcrIdentical:
    def test_equals_single_port_iid(self):
        cfg_n = FasConfig(5, 0.0, sigma2=1.3, f_doppler=2.0)
        cfg_1 = FasConfig(1, 0.0, sigma2=1.3, f_doppler=2.0)
        for x in (0.2, 0.9, 1.7, 3.0):
            assert lcr_identical(cfg_n, x) == pytest.approx(lcr_iid(cfg_1, x), rel=1e-14)

    def test_reference_value(self):
        cfg = FasConfig(3, 0.0, sigma2=1.0, f_doppler=10.0)
        assert lcr_identical(cfg, 1.0) == pytest.approx(9.22137008895789, rel=1e-14)

    def test_independent_of_port_count(self):
        for n in (1, 2, 8, 32):
            cfg = FasConfig(n, 0.2, sigma2=1.0, f_doppler=1.0)
            assert lcr_identical(cfg, 0.8) == pytest.approx(
                rayleigh_lcr(1.0, 1.0, 0.8), rel=1e-14
            )

    def test_doppler_scaling(self):
        lo = lcr_identical(FasConfig(2, 0.1, f_doppler=3.0), 1.1)
        hi = lcr_identical(FasConfig(2, 0.1, f_doppler=6.0), 1.1)
        assert hi == pytest.approx(2.0 * lo, rel=1e-15)


@pytest.mark.parametrize("rate", [
    lambda cfg: lcr_iid(cfg, 1.0),
    lambda cfg: lcr_identical(cfg, 1.0),
    lambda cfg: lcr_two_port_series(cfg, 0.5, 1.0),
    lambda cfg: lcr_theorem1(cfg, CorrelationProfile(mu=(0.0, 0.5)), 1.0),
], ids=["iid", "identical", "two_port_series", "theorem1"])
def test_rates_refuse_a_non_config(rate):
    with pytest.raises(ConfigError, match="expected FasConfig, got str"):
        rate("not a config")


class TestTwoPortSeries:
    def test_mu_zero_is_two_port_iid(self):
        cfg = FasConfig(2, 0.1, sigma2=1.4, f_doppler=2.5)
        for x in (0.1, 0.8, 2.2):
            assert lcr_two_port_series(cfg, 0.0, x) == pytest.approx(
                lcr_iid(cfg, x), rel=1e-12
            )

    @pytest.mark.parametrize("mu", [0.3, 0.6, 0.9, 0.99])
    def test_against_quadrature_oracle(self, mu):
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        for x in (0.05, 0.5, 1.0, 2.0, 3.0):
            want = two_port_lcr_quad(1.0, mu, x)
            assert lcr_two_port_series(cfg, mu, x) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mu", [0.3, 0.6, 0.9, 0.99])
    def test_deep_fade_against_ncx2_oracle(self, mu):
        # down to x_th = 1e-10 sigma (-200 dB), where each survivor mass is
        # ~1e-20 and a survivor formed as 1 - CDF would come out 0
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        for x in (1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-10):
            want = two_port_lcr_ncx2(1.0, mu, x)
            assert lcr_two_port_series(cfg, mu, x) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_approach_to_identical_limit(self):
        # the deviation from the fully-correlated closed form shrinks like
        # sqrt(1 - mu^2): about 12.6% at mu = 0.9, 4.0% at 0.99, 1.3% at 0.999
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        ident = lcr_identical(cfg, 1.0)
        tol = Tolerance(rel_eps=1e-12, max_terms=5000)
        devs = [
            abs(lcr_two_port_series(cfg, mu, 1.0, tol) / ident - 1.0)
            for mu in (0.9, 0.99, 0.999)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.02
        ratios = [devs[i] / devs[i + 1] for i in range(2)]
        # each factor-of-10 step in (1 - mu^2)... halves-ish the deviation by sqrt(10)
        assert all(2.5 < r < 4.0 for r in ratios)

    def test_unimodal(self):
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        for mu in (0.3, 0.9):
            grid = np.linspace(0.02, 4.0, 400)
            vals = np.array([lcr_two_port_series(cfg, mu, float(x)) for x in grid])
            diffs = np.diff(vals)
            sign_changes = int(np.sum(np.sign(diffs[:-1]) != np.sign(diffs[1:])))
            assert sign_changes == 1

    def test_extreme_mu_default_tolerance(self):
        # y ~ 5e5: Temme's expansion, whose cost does not grow with y
        cfg = FasConfig(2, 0.1)
        mu = 1.0 - 1e-6
        got = lcr_two_port_series(cfg, mu, 1.0)
        assert got == pytest.approx(two_port_lcr_quad(1.0, mu, 1.0), rel=1e-8)

    def test_errors(self):
        cfg = FasConfig(2, 0.1)
        with pytest.raises(SingularityError):
            lcr_two_port_series(cfg, 1.0, 1.0)
        with pytest.raises(DomainError):
            lcr_two_port_series(cfg, -0.2, 1.0)
        with pytest.raises(DomainError):
            lcr_two_port_series(cfg, 0.5, -1.0)
        with pytest.raises(DomainError):
            lcr_two_port_series(cfg, "0.5", 1.0)
        with pytest.raises(DomainError):
            lcr_two_port_series(cfg, 1.5, 1.0)
        with pytest.raises(ConfigError):
            lcr_two_port_series("not a config", 0.5, 1.0)

    def test_numpy_scalar_correlations_accepted(self):
        cfg = FasConfig(2, 0.1)
        want = lcr_two_port_series(cfg, 0.5, 1.0)
        assert lcr_two_port_series(cfg, np.float64(0.5), 1.0) == want
        assert lcr_two_port_series(cfg, np.float32(0.5), 1.0) == want
        assert lcr_two_port_series(cfg, np.int64(0), 1.0) == lcr_two_port_series(cfg, 0, 1.0)


class TestSurvivingProduct:
    def test_two_ports_skip_partner_is_empty_product(self):
        cfg = FasConfig(2, 0.2)
        prof = correlation_profile(cfg)
        assert surviving_product(cfg, prof, 0.4, 1.0, skip_index=2) == 1.0

    def test_x1_zero_reduces_to_gaussian_tails(self):
        # Q1(0, b) = exp(-b^2/2) applied termwise
        cfg = FasConfig(3, 0.3, sigma2=1.2)
        prof = correlation_profile(cfg)
        got = surviving_product(cfg, prof, 0.0, 0.9, skip_index=1)
        want = 1.0
        for mu in prof.mu[1:]:
            b2 = 2.0 / (1.2 * (1.0 - mu * mu)) * 0.81
            want *= 1.0 - math.exp(-0.5 * b2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_against_per_factor_quadrature(self):
        # each factor is the mass of one bivariate pair on [0, x_th]
        cfg = FasConfig(3, 0.3, sigma2=1.0)
        prof = correlation_profile(cfg)
        x1 = x_th = 1.0
        want = 1.0
        for mu in prof.mu[1:]:
            val, _ = integrate.quad(
                lambda xk, m=mu: pair_density(1.0, m, x1, xk), 0.0, x_th,
                epsabs=1e-12, epsrel=1e-11,
            )
            want *= val
        got = surviving_product(cfg, prof, x1, x_th, skip_index=1)
        assert got == pytest.approx(want, rel=1e-6)

    def test_marcum_factor_identity(self):
        # a single factor equals 1 - Q1 at the right arguments
        cfg = FasConfig(2, 0.2, sigma2=1.0)
        prof = correlation_profile(cfg)
        mu = prof.mu[1]
        s = 1.0 - mu * mu
        x1, x_th = 0.6, 1.3
        got = surviving_product(cfg, prof, x1, x_th, skip_index=1)
        want = 1.0 - marcum_q1_quad(math.sqrt(2.0 * mu * mu / s) * x1, math.sqrt(2.0 / s) * x_th)
        assert got == pytest.approx(want, rel=1e-10)

    def test_vectorized_over_x1(self):
        cfg = FasConfig(4, 0.3)
        prof = correlation_profile(cfg)
        xs = np.linspace(0.0, 1.0, 7)
        vec = surviving_product(cfg, prof, xs, 1.0, skip_index=3)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(
                surviving_product(cfg, prof, float(x), 1.0, skip_index=3), rel=1e-12
            )
        assert np.all((vec >= 0.0) & (vec <= 1.0))

    def test_errors(self):
        cfg = FasConfig(3, 0.2)
        prof = correlation_profile(cfg)
        with pytest.raises(DomainError):
            surviving_product(cfg, prof, 1.5, 1.0, skip_index=1)   # x1 > x_th
        with pytest.raises(DomainError):
            surviving_product(cfg, prof, 0.5, 1.0, skip_index=4)   # bad index
        with pytest.raises(DomainError):
            surviving_product(cfg, prof, 0.5, 1.0, skip_index=True)
        with pytest.raises(DomainError):
            surviving_product(cfg, prof, 0.5, 1.0, skip_index=1.5)
        with pytest.raises(ConfigError):
            surviving_product("not a config", prof, 0.5, 1.0, skip_index=1)
        assert surviving_product(cfg, prof, 0.5, 1.0, skip_index=np.int64(2)) == (
            surviving_product(cfg, prof, 0.5, 1.0, skip_index=2))


class TestTheorem1:
    def test_single_port_is_classical_rayleigh(self):
        cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        for x in (0.1, 0.7, 1.5, 3.0):
            assert lcr_theorem1(cfg, prof, x) == pytest.approx(
                rayleigh_lcr(1.0, 1.0, x), rel=1e-13
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
    def test_uncorrelated_reduction(self, n):
        cfg = FasConfig(n, 0.0, sigma2=2.0, f_doppler=3.0)
        prof = uncorrelated(n)
        for x in np.linspace(0.05, 3.0, 20) * cfg.sigma:
            t = lcr_theorem1(cfg, prof, float(x))
            assert t == pytest.approx(lcr_iid(cfg, float(x)), rel=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 0.9])
    def test_two_port_path_equivalence(self, mu):
        cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
        prof = CorrelationProfile(mu=(0.0, mu))
        for x in np.linspace(0.05, 3.0, 20):
            t = lcr_theorem1(cfg, prof, float(x))
            s = lcr_two_port_series(cfg, mu, float(x))
            assert t == pytest.approx(s, rel=1e-8)

    @pytest.mark.parametrize("x_th", [0.3, 0.8, 1.4])
    def test_three_port_first_principles(self, x_th):
        # double integration of the raw joint density over [0, x_th]^2
        cfg = FasConfig(3, 0.3, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        want = n_port_lcr_bruteforce(1.0, prof.mu, x_th)
        assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-6)

    def test_two_port_first_principles_scaled_config(self):
        cfg = FasConfig(2, 0.25, sigma2=1.8, f_doppler=4.0)
        prof = correlation_profile(cfg)
        for x in (0.5, 1.3, 2.4):
            want = n_port_lcr_bruteforce(1.8, prof.mu, x, fd=4.0)
            assert lcr_theorem1(cfg, prof, x) == pytest.approx(want, rel=1e-7)

    def test_nonnegative_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            w = float(rng.uniform(0.0, 0.38))
            cfg = FasConfig(n, w, sigma2=float(rng.uniform(0.5, 2.0)),
                            f_doppler=float(rng.uniform(0.5, 20.0)))
            prof = correlation_profile(cfg)
            if prof.singular_ports():
                continue
            x = float(rng.uniform(0.05, 3.0)) * cfg.sigma
            assert lcr_theorem1(cfg, prof, x) >= 0.0

    @pytest.mark.parametrize("n, w, x_th", [
        (6, 0.3, 0.4), (6, 0.3, 1.2), (6, 0.3, 2.5), (8, 0.1, 1.758),
    ])
    def test_matches_per_term_reference(self, n, w, x_th):
        cfg = FasConfig(n, w, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        want = theorem1_per_term_quad(cfg, prof, x_th)
        assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-8)

    def test_deep_fade_leave_one_out_is_finite(self):
        # down to -200 dB: each factor 1 - Q1 ~ x_th^2 is summed rather than
        # formed as 1 - Q1, which rounds to 0 below x_th ~ 1e-8, and the
        # leave-one-out products never divide by a factor, which would give
        # 0/0 wherever factors underflow
        cfg = FasConfig(4, 0.0, sigma2=1.0, f_doppler=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
                got = lcr_theorem1(cfg, uncorrelated(4), x)
                assert got == pytest.approx(lcr_iid(cfg, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, x_th", [
        (8, PAPER_GRID[11]), (8, PAPER_GRID[12]), (6, PAPER_GRID[16]), (6, PAPER_GRID[17]),
        (64, PAPER_GRID[19]),
    ])
    def test_dense_paper_grid_against_ncx2_factors(self, n, x_th):
        # W = 0.1 rows whose factors see beta > 745 with alpha <= 700, and
        # N = 64 at x_th = 3 (0.00760676), whose factors reach alpha ~ 1.6e5
        cfg = FasConfig(n, 0.1, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        want = theorem1_ncx2_per_term(1.0, prof.mu, x_th)
        assert lcr_theorem1(cfg, prof, x_th) == pytest.approx(want, rel=1e-8)

    def test_doppler_linearity(self):
        cfg1 = FasConfig(3, 0.2, sigma2=1.0, f_doppler=1.0)
        cfg7 = FasConfig(3, 0.2, sigma2=1.0, f_doppler=7.0)
        prof = correlation_profile(cfg1)
        for x in (0.4, 1.0, 2.0):
            assert lcr_theorem1(cfg7, prof, x) == pytest.approx(
                7.0 * lcr_theorem1(cfg1, prof, x), rel=1e-12
            )
        # NLCR is Doppler-invariant
        assert lcr_theorem1(cfg7, prof, 1.0) / 7.0 == pytest.approx(
            lcr_theorem1(cfg1, prof, 1.0), rel=1e-12
        )

    def test_dense_profile_near_unity_correlation(self):
        # W = 0.1 with 4 ports puts mu_2 near 0.989; the fused exponents and
        # the Marcum budget must cope across the threshold grid
        cfg = FasConfig(4, 0.1, sigma2=1.0, f_doppler=1.0)
        prof = correlation_profile(cfg)
        vals = [lcr_theorem1(cfg, prof, float(x)) for x in np.linspace(0.05, 3.0, 12)]
        assert all(math.isfinite(v) and v >= 0.0 for v in vals)
        assert max(vals) > 1.0  # peak NLCR of this config exceeds 1

    def test_mixed_singular_profile_rejected(self):
        cfg = FasConfig(3, 0.1)
        prof = CorrelationProfile(mu=(0.0, 1.0 - 1e-10, 0.5))
        with pytest.raises(SingularityError):
            lcr_theorem1(cfg, prof, 1.0)

    def test_profile_mismatch_rejected(self):
        cfg = FasConfig(3, 0.1)
        with pytest.raises(ConfigError):
            lcr_theorem1(cfg, correlation_profile(FasConfig(2, 0.1)), 1.0)

    def test_quadrature_cap_raises_with_partial(self):
        cfg = FasConfig(4, 0.1)
        prof = correlation_profile(cfg)
        tiny = QuadratureSpec(abs_eps=1e-13, rel_eps=1e-12, max_subdivisions=1)
        with pytest.raises(AccuracyError) as exc:
            lcr_theorem1(cfg, prof, 1.0, tiny)
        assert exc.value.partial is not None

    @pytest.mark.parametrize("n,w,x_th", [(4, 0.1, 1.0), (8, 0.3, 2.0), (6, 0.1, 2.5)])
    def test_quadrature_cap_partial_is_a_rate(self, n, w, x_th):
        cfg = FasConfig(n, w)
        prof = correlation_profile(cfg)
        with pytest.raises(AccuracyError) as exc:
            lcr_theorem1(cfg, prof, x_th, QuadratureSpec(max_subdivisions=1))
        assert exc.value.partial == pytest.approx(lcr_theorem1(cfg, prof, x_th), rel=1e-6)
        assert f"N = {n}, x_th = {x_th!r}" in str(exc.value)

    @pytest.mark.parametrize("n,w,x_th", [
        (1, 0.0, 1.0), (2, 0.3, 0.05), (4, 0.3, 1.2), (8, 0.1, 1.758), (12, 0.3, 3.0),
    ])
    def test_starting_cuts_count_as_subdivisions(self, n, w, x_th):
        # four starting panels are three subdivisions, so a cap of 2 is
        # exceeded by the first round at every point, converged or not
        cfg = FasConfig(n, w)
        prof = correlation_profile(cfg)
        with pytest.raises(AccuracyError) as exc:
            lcr_theorem1(cfg, prof, x_th, QuadratureSpec(max_subdivisions=2))
        assert exc.value.partial == pytest.approx(lcr_theorem1(cfg, prof, x_th), rel=1e-6)

    def test_cap_of_three_admits_the_starting_panels(self):
        # a one-port rate has a zero integral: the starting panels all converge
        cfg = FasConfig(1, 0.0)
        prof = correlation_profile(cfg)
        got = lcr_theorem1(cfg, prof, 1.0, QuadratureSpec(max_subdivisions=3))
        assert got == lcr_theorem1(cfg, prof, 1.0)


class TestKronrodRule:
    def test_table_matches_quadpack(self, monkeypatch):
        # scipy's qk21 constants, read by stubbing the panel evaluator they feed;
        # both tables are correctly rounded from more digits, so they agree exactly
        from scipy.integrate import _quad_vec
        monkeypatch.setattr(_quad_vec, "_quadrature_gk", lambda a, b, f, norm, x, w, v: (x, w, v))
        x, w, v = (np.array(t, dtype=float)[::-1]
                   for t in _quad_vec._quadrature_gk21(-1.0, 1.0, None, None))
        assert np.array_equal(_KRONROD_NODES, x)
        assert np.array_equal(_KRONROD_WEIGHTS[:, 0], v)
        assert np.array_equal(_KRONROD_WEIGHTS[1::2, 1], w)
        assert not np.any(_KRONROD_WEIGHTS[0::2, 1])

    def test_polynomial_exactness(self):
        # K21 integrates x^d over [-1, 1] exactly up to d = 31, and G10 up to 19
        for d in range(32):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            k21, g10 = _KRONROD_NODES ** d @ _KRONROD_WEIGHTS
            assert k21 == pytest.approx(exact, abs=1e-15)
            if d < 20:
                assert g10 == pytest.approx(exact, abs=1e-15)
        assert abs(_KRONROD_NODES ** 20 @ _KRONROD_WEIGHTS[:, 1] - 2.0 / 21) > 1e-7

    def test_every_round_evaluates_21_nodes_per_panel(self, monkeypatch):
        calls = []
        integrate_adaptive = lcr_analytic._integrate_adaptive

        def spy(f, lo, hi, quad):
            def recorded(x):
                calls.append(x.copy())
                return f(x)
            return integrate_adaptive(recorded, lo, hi, quad)

        monkeypatch.setattr(lcr_analytic, "_integrate_adaptive", spy)
        cfg = FasConfig(6, 0.1)
        lcr_theorem1(cfg, correlation_profile(cfg), 2.534)   # a point that splits
        assert len(calls) > 2
        for r, x in enumerate(calls):
            panels = x.reshape(-1, 21)
            assert len(panels) == _INITIAL_PANELS if r == 0 else len(panels) % 2 == 0
            mid = 0.5 * (panels[:, 0] + panels[:, -1])
            half = (panels[:, -1] - panels[:, 0]) / (2.0 * _KRONROD_NODES[-1])
            assert panels == pytest.approx(mid[:, None] + half[:, None] * _KRONROD_NODES,
                                           rel=0.0, abs=1e-14)
        # round 0: the equal panels with edges k x_th / 4, k = 0..4
        assert _INITIAL_PANELS == 4
        edges = np.arange(5) * (2.534 / 4)
        lo, hi = edges[:-1, None], edges[1:, None]
        want = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _KRONROD_NODES
        assert calls[0] == pytest.approx(want.ravel(), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("w", [0.1, 0.3])
    @pytest.mark.parametrize("x_th", [1.758, 2.534])
    def test_one_marcum_call_per_round(self, monkeypatch, n, w, x_th):
        # the reference-port factors F_k(x_th) ride on the first round's call
        marcum_calls, rounds = [], []
        marcum_q1 = lcr_analytic.marcum_q1
        integrate_adaptive = lcr_analytic._integrate_adaptive

        def marcum_spy(*args, **kwargs):
            marcum_calls.append(args)
            return marcum_q1(*args, **kwargs)

        def integrate_spy(f, lo, hi, quad):
            def recorded(x):
                rounds.append(x.size)
                return f(x)
            return integrate_adaptive(recorded, lo, hi, quad)

        monkeypatch.setattr(lcr_analytic, "marcum_q1", marcum_spy)
        monkeypatch.setattr(lcr_analytic, "_integrate_adaptive", integrate_spy)
        cfg = FasConfig(n, w)
        lcr_theorem1(cfg, correlation_profile(cfg), x_th)
        assert len(rounds) >= 1
        assert len(marcum_calls) == len(rounds)


class TestQuadratureSpec:
    def test_defaults(self):
        q = DEFAULT_QUADRATURE
        assert q.abs_eps == 1e-12 and q.rel_eps == 1e-9 and q.max_subdivisions == 200

    @pytest.mark.parametrize("kwargs", [
        {"abs_eps": 0.0}, {"rel_eps": 1.5}, {"max_subdivisions": 0},
        {"max_subdivisions": True}, {"rel_eps": "1e-9"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            QuadratureSpec(**kwargs)
