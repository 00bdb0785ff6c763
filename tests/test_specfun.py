"""Special-function kernel against independent series/quadrature oracles."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from faslcr import specfun
from faslcr.errors import DomainError, FasLcrError
from faslcr.mc_simulator import EnvelopeSeries
from faslcr.specfun import (
    bessel_i0_scaled,
    bessel_j0,
    marcum_q1,
)

from oracles import i0_scaled_quad, j0_series, marcum_q1_quad

# First positive zero of J0, located by bisection on the series oracle.
J0_FIRST_ZERO = 2.404825557695756


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-13
        # bracketing, so the frozen zero really is a sign change of the oracle
        assert j0_series(J0_FIRST_ZERO - 1e-6) > 0 > j0_series(J0_FIRST_ZERO + 1e-6)

    def test_aperture_edge(self):
        # 2*pi*0.38 sits just below the first zero: small and positive
        got = bessel_j0(2.0 * math.pi * 0.38)
        assert got == pytest.approx(0.008968896645303091, abs=1e-12)
        assert 0.0 < got < 0.01

    def test_series_region_against_oracle(self):
        xs = np.linspace(0.0, 3.0, 301)
        for x in xs:
            assert bessel_j0(float(x)) == pytest.approx(j0_series(float(x)), abs=1e-10)

    def test_asymptotic_region_bounded_and_even(self):
        xs = np.linspace(8.5, 40.0, 64)
        vals = bessel_j0(xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.allclose(vals, bessel_j0(-xs), rtol=0, atol=0)

    def test_even_and_bounded_random(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-8.0, 8.0, 200)
        vals = bessel_j0(xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.allclose(vals, bessel_j0(-xs), rtol=0, atol=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            bessel_j0(bad)

    def test_huge_arguments_without_overflow(self):
        # x^2 overflows from |x| ~ 1.3e154, and pi x at the top of the double
        # range; any overflow warning fails the suite
        xs = np.array([1e20, 1.3e154, 1e200, 1e300, 1.7e308])
        assert bessel_j0(xs) == pytest.approx(special.j0(xs), rel=1e-12, abs=0.0)
        assert np.array_equal(bessel_j0(-xs), bessel_j0(xs))

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 6.0),
                                        (6.0, 8.0), (0.0, 8.0)])
    def test_sized_series_matches_early_exit(self, lo, hi):
        # the series sized by max |x| against the sum stopped once every term
        # is below 1e-17 of its total, both zeros of J0 below 8 included
        def early_exit(ax):
            z = -0.25 * ax * ax
            term = np.ones_like(z)
            total = np.ones_like(z)
            for m in range(1, 40):
                term = term * z / (m * m)
                total = total + term
                if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
                    break
            return total

        xs = np.linspace(lo, hi, 20001)[1:]
        want = early_exit(xs)
        assert np.array_equal(bessel_j0(xs), want)
        assert np.array_equal(bessel_j0(-xs), want)
        assert specfun._series_length(specfun._J0_LENGTHS, hi) < 40


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_unit_value(self):
        assert bessel_i0_scaled(1.0) == pytest.approx(0.4657596075936404, rel=1e-12)

    def test_large_argument(self):
        # leading asymptotic term 1/sqrt(2 pi x) = 0.039894 at x = 100; the
        # 1/(8x) correction is positive, so the exact value sits just above
        got = bessel_i0_scaled(100.0)
        assert got == pytest.approx(0.03994437929909674, rel=1e-11)
        leading = 1.0 / math.sqrt(2.0 * math.pi * 100.0)
        assert leading < got < leading * 1.01

    def test_against_quadrature_oracle(self):
        for x in np.linspace(0.0, 30.0, 61):
            want = i0_scaled_quad(float(x))
            assert bessel_i0_scaled(float(x)) == pytest.approx(want, rel=1e-10)

    def test_branch_seam_continuous(self):
        # both branches match the oracle independently on their own side
        assert bessel_i0_scaled(39.9999999) == pytest.approx(i0_scaled_quad(39.9999999), rel=1e-12)
        assert bessel_i0_scaled(40.0000001) == pytest.approx(i0_scaled_quad(40.0000001), rel=1e-12)
        assert bessel_i0_scaled(41.0) == pytest.approx(i0_scaled_quad(41.0), rel=1e-12)

    def test_chebyshev_seam_continuous(self):
        # the two expansions meet at 8: each matches the oracle on its own side
        for x in (7.9999999, 8.0, 8.0000001, 8.5):
            assert bessel_i0_scaled(x) == pytest.approx(i0_scaled_quad(x), rel=1e-12)
            assert bessel_i0_scaled(x) == pytest.approx(special.i0e(x), rel=2e-15)

    def test_against_scipy_i0e(self):
        xs = np.concatenate([np.linspace(0.0, 200.0, 4001), np.geomspace(1e-8, 1e8, 2000)])
        got = bessel_i0_scaled(xs)
        assert got == pytest.approx(special.i0e(xs), rel=2e-15, abs=0.0)
        assert np.array_equal(bessel_i0_scaled(-xs), got)

    def test_range_parity_monotonicity(self):
        xs = np.linspace(0.0, 200.0, 400)
        vals = bessel_i0_scaled(xs)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.allclose(vals, bessel_i0_scaled(-xs), rtol=0, atol=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            bessel_i0_scaled(math.nan)
        for bad in (True, np.array([0.5, 1.0]) > 0.7, "1.0", 10**400, 1j):
            with pytest.raises(DomainError):
                bessel_i0_scaled(bad)


class TestMarcumQ1:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_zero_a_identity(self, b):
        # Q1(0, b) = exp(-b^2/2)
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-14)

    def test_zero_a_identity_on_a_grid_of_b(self):
        for b in np.linspace(0.0, 5.0, 51):
            want = math.exp(-0.5 * b * b)
            assert abs(marcum_q1(0.0, float(b)) - want) <= 1e-11 * want

    def test_b_zero_is_one(self):
        for a in (0.0, 0.5, 3.0, 40.0):
            assert marcum_q1(a, 0.0) == 1.0
            assert marcum_q1(a, 0.0, True) == 0.0

    def test_value_1_1(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.7328798037968204, rel=1e-11)

    @pytest.mark.parametrize("a,b", [(0.3, 2.1), (2.0, 0.7), (5.0, 5.5), (10.0, 8.0), (30.0, 31.0)])
    def test_against_quadrature_oracle(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quad(a, b), rel=1e-10)

    @pytest.mark.parametrize("a,b", [(40.0, 38.0), (40.0, 42.0), (60.0, 60.0)])
    def test_large_argument_path(self, a, b):
        # alpha = a^2/2 of 800 to 1800, far above the switch: Temme's expansion
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quad(a, b), rel=1e-9)

    def test_both_sides_against_ncx2(self):
        # Q1(a, b) = ncx2.sf(b^2, 2, a^2) and 1 - Q1 = ncx2.cdf, in one call
        # over arguments on both routes, including alpha <= 700 with
        # beta > 745, where exp(-beta) alone underflows to 0
        alpha = [al for al in (1e-6, 0.3, 12.0, 650.0, 700.0, 2e4) for _ in range(4)]
        beta = [al * r for al in (1e-6, 0.3, 12.0, 650.0, 700.0, 2e4)
                for r in (0.5, 0.9, 1.1, 2.0)]
        alpha += [650.0, 690.0, 300.0, 700.0]
        beta += [760.0, 800.0, 760.0, 746.0]
        alpha, beta = np.array(alpha), np.array(beta)
        a, b = np.sqrt(2.0 * alpha), np.sqrt(2.0 * beta)
        q = marcum_q1(a, b)
        c = marcum_q1(a, b, True)
        assert q == pytest.approx(stats.ncx2.sf(2.0 * beta, 2, 2.0 * alpha), rel=1e-10, abs=0.0)
        assert c == pytest.approx(stats.ncx2.cdf(2.0 * beta, 2, 2.0 * alpha), rel=1e-10, abs=0.0)
        assert q[-4] == pytest.approx(1.7596e-3, rel=1e-4)     # alpha = 650, beta = 760

    def test_very_large_argument_against_quadrature(self):
        # xi = ab = 39800: the expansion route
        assert marcum_q1(200.0, 199.0) == pytest.approx(marcum_q1_quad(200.0, 199.0), rel=1e-9)

    def test_bounds_and_monotonicity_random_grid(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 6.0, 300)
        b = rng.uniform(0.0, 6.0, 300)
        q = marcum_q1(a, b)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)
        delta = 0.25
        assert np.all(marcum_q1(a, b + delta) <= q + 1e-14)       # nonincreasing in b
        assert np.all(marcum_q1(a + delta, b) >= q - 1e-14)       # nondecreasing in a

    @pytest.mark.parametrize("a,b,q", [
        (1e200, 1e200, 0.5), (1.7e308, 1.7e308, 0.5),      # ab overflows on the diagonal
        (1e154, 1e155, 0.0), (1e155, 1e154, 1.0),           # ab and (b - a)^2 overflow
        (0.0, 1e200, 0.0), (1e200, 0.0, 1.0), (1.0, 1e160, 0.0),     # (b - a)^2 overflows
    ])
    def test_limits_where_the_arguments_overflow(self, a, b, q):
        assert marcum_q1(a, b) == q
        assert marcum_q1(a, b, True) == 1.0 - q
        got = marcum_q1(np.array([a, 1.0]), np.array([b, 1.0]))
        assert got[0] == q and got[1] == marcum_q1(1.0, 1.0)

    def test_vector_matches_scalar(self):
        # Temme's sum is a BLAS matrix product, whose rounding depends on the
        # array shape, so agreement is to rounding rather than bitwise
        a = np.array([0.0, 1.0, 3.5, 40.0])
        b = np.array([1.0, 2.0, 0.0, 41.0])
        v = marcum_q1(a, b)
        s = [marcum_q1(float(x), float(y)) for x, y in zip(a, b)]
        assert np.allclose(v, s, rtol=1e-15, atol=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, -1.0)
        with pytest.raises(DomainError):
            marcum_q1(math.nan, 1.0)
        for a, b in (("1.0", True), (1.0, True), (["1.0"], 1.0),
                     (np.array([1.0], dtype=object), 1.0), ([1.0, True], 1.0)):
            with pytest.raises(DomainError):
                marcum_q1(a, b)

    @pytest.mark.parametrize("complement", ["no", None, 0.5, 2, 1])
    def test_complement_must_be_a_bool(self, complement):
        # a non-bool used to mix the sides, giving Q1 on one element and 1 - Q1
        # on another
        with pytest.raises(DomainError, match="complement must be a bool"):
            marcum_q1([1.0, 2.0], [2.0, 1.0], complement)

    def test_complement_accepts_bools(self):
        a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        q = marcum_q1(a, b, False)
        assert np.array_equal(marcum_q1(a, b), q)
        assert np.array_equal(marcum_q1(a, b, np.bool_(False)), q)
        assert np.array_equal(marcum_q1(a, b, True), marcum_q1(a, b, np.bool_(True)))
        assert marcum_q1(a, b, True) == pytest.approx(1.0 - q, rel=1e-14)


class TestMarcumBesselSeries:
    """The Bessel series, the route of every element with xi = ab <= _TEMME_XI."""

    # (a, b, Q1, 1 - Q1), each side rounded once to double from 60-digit
    # mpmath sums at these exact a and b: the Bessel series of Q1 where
    # b >= a and of 1 - Q1 where b < a, the other side as 1 minus it.  With
    # 60 digits that subtraction loses nothing at double.  The first 63 rows are
    # a = sqrt(xi/rho), b = sqrt(xi rho) for xi in 1e-8, 1e-3, 0.5, 2, 7, 13,
    # 19.999 and rho = b/a in 1e-6, 1e-3, 0.1, 0.7, 1, 1.4, 10, 1e3, 1e6;
    # then xi = 0, the deep-fade corner a < b <= 1e-3, a deep tail of 1 - Q1
    # (xi = 10, b/a = 0.02), and alpha = a^2/2 up to 5e5 at xi = 15 and 10.
    # A 0 is a side below the double range, and has to come out exactly 0.
    MPMATH = (
        (0.1, 1e-07, 0.999999999999995, 4.975062395963399e-15),
        (0.0031622776601683794, 3.1622776601683796e-06, 0.999999999995, 4.999975000050001e-12),
        (0.00031622776601683794, 3.1622776601683795e-05, 0.9999999995000001, 4.999999748750007e-10),
        (0.00011952286093343938, 8.366600265340756e-05, 0.9999999965, 3.4999999688750004e-09),
        (0.0001, 0.0001, 0.999999995, 4.9999999625e-09),
        (8.451542547285167e-05, 0.00011832159566199231, 0.9999999930000001, 6.999999950499999e-09),
        (3.1622776601683795e-05, 0.00031622776601683794, 0.9999999500000013, 4.999999872500002e-08),
        (3.1622776601683796e-06, 0.0031622776601683794, 0.9999950000125, 4.999987499995834e-06),
        (1e-07, 0.1, 0.9950124791926823, 0.004987520807317662),
        (31.622776601683796, 3.1622776601683795e-05, 1.0, 3.5622886477658e-227),
        (1.0, 0.001, 0.999999696734708, 3.0326529194815206e-07),
        (0.1, 0.01, 0.9999502506135666, 4.974938643338526e-05),
        (0.03779644730092273, 0.026457513110645904, 0.9996503110661525, 0.00034968893384750775),
        (0.03162277660168379, 0.03162277660168379, 0.9995003747917578, 0.0004996252082422202),
        (0.02672612419124244, 0.03741657386773942, 0.9993004947233138, 0.0006995052766861256),
        (0.01, 0.1, 0.9950127279395989, 0.004987272060401067),
        (0.001, 1.0, 0.6065308113452699, 0.3934691886547301),
        (3.1622776601683795e-05, 31.622776601683793, 7.124578187885669e-218, 1.0),
        (707.1067811865476, 0.0007071067811865475, 1.0, 0.0),
        (22.360679774997898, 0.022360679774997897, 1.0, 6.882820352157153e-113),
        (2.23606797749979, 0.22360679774997896, 0.9979095850893857, 0.002090414910614367),
        (0.8451542547285166, 0.5916079783099616, 0.8842294247132457, 0.11577057528675427),
        (0.7071067811865476, 0.7071067811865476, 0.822517635224575, 0.17748236477542498),
        (0.5976143046671968, 0.8366600265340756, 0.7456383486079033, 0.2543616513920967),
        (0.22360679774997896, 2.23606797749979, 0.08723109924889912, 0.9127689007511008),
        (0.022360679774997897, 22.360679774997898, 2.8386181184569393e-109, 1.0),
        (0.0007071067811865475, 707.1067811865476, 0.0, 1.0),
        (1414.213562373095, 0.001414213562373095, 1.0, 0.0),
        (44.721359549995796, 0.044721359549995794, 1.0, 0.0),
        (4.47213595499958, 0.4472135954999579, 0.999993173765834, 6.82623416602103e-06),
        (1.6903085094570331, 1.1832159566199232, 0.8169621732961165, 0.18303782670388347),
        (1.4142135623730951, 1.4142135623730951, 0.6542541612768356, 0.3457458387231645),
        (1.1952286093343936, 1.6733200530681511, 0.4659839551539642, 0.5340160448460358),
        (0.4472135954999579, 4.47213595499958, 0.00010047058448411923, 0.9998995294155159),
        (0.044721359549995794, 44.721359549995796, 0.0, 1.0),
        (0.001414213562373095, 1414.213562373095, 0.0, 1.0),
        (2645.7513110645905, 0.0026457513110645908, 1.0, 0.0),
        (83.66600265340756, 0.08366600265340755, 1.0, 0.0),
        (8.366600265340756, 0.8366600265340756, 0.9999999999999925, 7.524272251803935e-15),
        (3.1622776601683795, 2.2135943621178655, 0.8732211150765874, 0.12677888492341263),
        (2.6457513110645907, 2.6457513110645907, 0.5768688723364406, 0.42313112766355937),
        (2.23606797749979, 3.1304951684997055, 0.24144010093578863, 0.7585598990642114),
        (0.8366600265340756, 8.366600265340756, 8.243291766904898e-14, 0.9999999999999176),
        (0.08366600265340755, 83.66600265340756, 0.0, 1.0),
        (0.0026457513110645908, 2645.7513110645905, 0.0, 1.0),
        (3605.5512754639894, 0.003605551275463989, 1.0, 0.0),
        (114.0175425099138, 0.1140175425099138, 1.0, 0.0),
        (11.40175425099138, 1.140175425099138, 1.0, 1.6044382484533496e-25),
        (4.3094580368566735, 3.0166206257996713, 0.92402865240682, 0.07597134759318004),
        (3.605551275463989, 3.605551275463989, 0.5558804169079273, 0.4441195830920726),
        (3.0472470011002204, 4.266145801540309, 0.14026881581479766, 0.8597311841852023),
        (1.140175425099138, 11.40175425099138, 1.6833921269617504e-24, 1.0),
        (0.11401754250991379, 114.0175425099138, 0.0, 1.0),
        (0.003605551275463989, 3605.5512754639894, 0.0, 1.0),
        (4472.024150203127, 0.004472024150203127, 1.0, 0.0),
        (141.4178206592083, 0.1414178206592083, 1.0, 0.0),
        (14.141782065920829, 1.414178206592083, 1.0, 6.425906606426822e-38),
        (5.345091205957107, 3.7415638441699746, 0.9568946991043614, 0.043105300895638604),
        (4.472024150203127, 4.472024150203127, 0.5448912930304827, 0.45510870696951733),
        (3.7795502377928516, 5.291370332909992, 0.08081209699246095, 0.919187903007539),
        (1.414178206592083, 14.141782065920829, 6.628056671770696e-37, 1.0),
        (0.1414178206592083, 141.4178206592083, 0.0, 1.0),
        (0.004472024150203127, 4472.024150203127, 0.0, 1.0),
        (0.0, 0.001, 0.999999500000125, 4.999998750000208e-07),
        (0.0, 0.5, 0.8824969025845955, 0.1175030974154046),
        (0.0, 1.0, 0.6065306597126334, 0.3934693402873666),
        (0.0, 3.0, 0.011108996538242306, 0.9888910034617577),
        (0.0, 30.0, 3.693883068487256e-196, 1.0),
        (1e-05, 0.001, 0.999999500000125, 4.999998749750208e-07),
        (0.0005, 0.001, 0.9999995000001874, 4.99999812500056e-07),
        (1e-08, 0.0001, 0.999999995, 4.9999999875e-09),
        (1e-09, 2e-09, 1.0, 2e-18),
        (0.0002, 0.0003, 0.9999999550000019, 4.499999808750006e-08),
        (22.3607, 0.447214, 1.0, 1.3119998430983409e-107),
        (150.0, 0.1, 1.0, 0.0),
        (1000.0, 0.01, 1.0, 0.0),
    )

    def test_both_sides_against_mpmath(self):
        a, b, q, p = (np.array(col) for col in zip(*self.MPMATH))
        assert np.all(a * b <= specfun._TEMME_XI)
        assert marcum_q1(a, b) == pytest.approx(q, rel=2e-15, abs=0.0)
        assert marcum_q1(a, b, True) == pytest.approx(p, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("lo, hi, terms", [
        (0.0, 1.0, 17), (1.0, 2.0, 21), (2.0, 4.0, 26), (4.0, 8.0, 33), (8.0, 12.0, 39),
        (12.0, 16.0, 43), (16.0, 20.0, 47), (20.0, 30.0, 48),
    ])
    def test_sized_series_matches_48_terms(self, monkeypatch, lo, hi, terms):
        # a call sums the terms its largest xi needs; beyond xi = 20, reached
        # here with Temme's expansion switched off, it keeps all 48
        monkeypatch.setattr(specfun, "_TEMME_XI", math.inf)
        assert specfun._series_length(specfun._BESSEL_LENGTHS, hi) == terms
        xi = np.linspace(lo, hi, 101)[1:, None]
        rho = np.concatenate([np.geomspace(1e-6, 1e6, 97), np.linspace(2 / 3, 1.5, 64)])
        a, b = np.sqrt(xi / rho).ravel(), np.sqrt(xi * rho).ravel()
        sized = [marcum_q1(a, b, side) for side in (False, True)]
        monkeypatch.setattr(specfun, "_BESSEL_LENGTHS", ((math.inf, 48),))
        for side, got in zip((False, True), sized):
            assert np.array_equal(got, marcum_q1(a, b, side))


def _dyadic(x):
    """x rounded to a multiple of 1/64, so that its square, the argument scipy
    sees, is exact for |x| < 2^20."""
    return np.round(np.asarray(x) * 64.0) / 64.0


class TestMarcumLargeXi:
    """Temme's expansion, the route of every element with xi = ab > _TEMME_XI."""

    # The small side (Q1 where b >= a, 1 - Q1 where b < a) where scipy's ncx2
    # cannot serve: near 1e-246, below its range, and at xi ~ 1e5 and 1e6, where
    # it strays by up to 7e-12 in the tails.  Sums of the Poisson mixture (the
    # survivor form for b < a) at 50 digits with mpmath.
    MPMATH = (
        (34.0, 67.5, 3.3964081807952713e-246), (67.5, 34.0, 1.7096562247368685e-246),
        (100.0, 133.5, 2.7847174242907944e-246), (133.5, 100.0, 2.0853871304234852e-246),
        (316.0, 316.0, 0.50063123857563485447), (316.0, 320.0, 3.1882332872693661101e-5),
        (316.0, 330.0, 7.9651703219521210227e-45), (316.0, 340.0, 1.4423153875950727718e-127),
        (316.0, 349.5, 2.534469249230305903e-246), (316.0, 305.0, 1.8768369606429126949e-28),
        (316.0, 290.0, 2.371860149044865683e-149), (1000.0, 1000.0, 0.50019947116513462289),
        (1000.0, 1001.0, 0.15877620907759596531), (1000.0, 1005.0, 2.8739400484502948093e-7),
        (1000.0, 1020.0, 2.7810922033045592162e-89), (1000.0, 1033.5, 2.4499065976888920195e-246),
        (1000.0, 990.0, 7.5812833597410685255e-24), (1000.0, 966.5, 2.3690938429462939436e-246),
    )

    def test_against_ncx2_across_switch(self):
        # xi from 10 (the Bessel series) to 1e4, b/a from 0.5 to 2, both tails, the
        # small side down to 1e-170: scipy's ncx2 returns 0 below about 1e-198
        # and loses digits just above (7.8e-12 at 1.2e-195 against mpmath)
        xi, rho = np.meshgrid(np.geomspace(10.0, 1e4, 25), np.geomspace(0.5, 2.0, 13))
        a, b = _dyadic(np.sqrt(xi / rho)).ravel(), _dyadic(np.sqrt(xi * rho)).ravel()
        want_q, want_p = stats.ncx2.sf(b * b, 2, a * a), stats.ncx2.cdf(b * b, 2, a * a)
        keep = np.minimum(want_q, want_p) >= 1e-170
        assert np.min(np.minimum(want_q, want_p)[keep]) < 1e-140
        assert np.any(a * b <= specfun._TEMME_XI) and np.any(a * b > specfun._TEMME_XI)
        a, b = a[keep], b[keep]
        assert marcum_q1(a, b) == pytest.approx(want_q[keep], rel=1e-12, abs=0.0)
        assert marcum_q1(a, b, True) == pytest.approx(
            want_p[keep], rel=1e-12, abs=0.0)

    def test_against_mpmath_at_large_xi(self):
        a, b, small = (np.array(col) for col in zip(*self.MPMATH))
        q, p = marcum_q1(a, b), marcum_q1(a, b, True)
        low = b < a
        assert np.where(low, p, q) == pytest.approx(small, rel=1e-14, abs=0.0)
        assert np.where(low, q, p) == pytest.approx(1.0 - small, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("complement", [False, True])
    def test_continuous_across_switch(self, monkeypatch, complement):
        # the same arguments either side of xi = _TEMME_XI, on each route
        xi = specfun._TEMME_XI * np.array([1.0 - 1e-6, 1.0 + 1e-6])
        rho = np.geomspace(0.2, 5.0, 21)[:, None]
        a, b = np.sqrt(xi / rho).ravel(), np.sqrt(xi * rho).ravel()
        got = marcum_q1(a, b, complement)
        monkeypatch.setattr(specfun, "_TEMME_XI", math.inf)
        series = marcum_q1(a, b, complement)
        monkeypatch.setattr(specfun, "_TEMME_XI", 0.0)
        expansion = marcum_q1(a, b, complement)
        above = a * b > xi.mean()
        assert np.array_equal(got[above], expansion[above])
        assert np.array_equal(got[~above], series[~above])
        # both routes compute the small side and form the large one as 1 - small
        assert expansion == pytest.approx(series, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("complement", [False, True])
    def test_subnormal_tail_seed_point(self, complement):
        # alpha = 165110.5, beta = 180968, where Pr[Poisson(beta) = floor(alpha)]
        # is subnormal (the seed a Poisson-mixture sum would start from).
        # scipy's ncx2 is itself 3e-10 off Q1 here (an mpmath sum at 50 digits
        # gives 2.0779942655767459e-160 for these rounded a and b).
        a, b = math.sqrt(2 * 165110.5), math.sqrt(2 * 180968.0)
        got = marcum_q1(a, b, complement)
        want = (stats.ncx2.cdf if complement else stats.ncx2.sf)(2 * 180968.0, 2, 2 * 165110.5)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        if not complement:
            assert got == pytest.approx(2.0779942655767459e-160, rel=1e-14, abs=0.0)


def test_import_loads_numpy_only():
    # the runtime depends on numpy alone; scipy and mpmath are test oracles
    src = str(Path(specfun.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, faslcr; "
            "print(faslcr.__file__, [m for m in ('scipy', 'mpmath') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    path, loaded = done.stdout.rsplit(" ", 1)
    assert Path(path).resolve().parent == Path(specfun.__file__).resolve().parent
    assert loaded.strip() == "[]"


def test_every_primitive_has_a_caller_in_the_package():
    # a name counts as used where a sibling module's code reads it, not where
    # it is imported, re-exported or named in a docstring
    package = Path(specfun.__file__).resolve().parent
    read = set()
    for path in package.glob("*.py"):
        if path.name in ("specfun.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert set(specfun.__all__) - read == set()


@pytest.mark.parametrize("call, name", [
    (lambda: marcum_q1(["1.0"] * 10**5, 1.0), "a"),
    (lambda: marcum_q1([math.nan] * 10**5, 1.0), "a"),
    (lambda: EnvelopeSeries([True] * 10**5, 1.0), "envelope samples"),
    (lambda: bessel_j0(np.full(900, math.nan)), "x"),
], ids=["marcum_q1-strings", "marcum_q1-nans", "EnvelopeSeries-bools", "bessel_j0-nans"])
def test_refusal_message_is_bounded(call, name):
    # a refused array is abridged in the message, which still names the argument
    with pytest.raises(FasLcrError) as exc:
        call()
    message = str(exc.value)
    assert len(message) <= 200
    assert message.startswith(f"{name} must be ")
