"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Numeric tolerances are asserted exactly as stated; the stated
runtime budgets are asserted with a 10x machine-variance allowance and the
measured time is printed alongside each verdict.

Criterion 3 is known not to hold pointwise: at mu = 1 - 1e-6 the two-port
series provably deviates from the fully-correlated closed form by up to
-0.79% at the bottom of the threshold grid and +0.23% at the top (verified
against three independent evaluation routes).  The test asserts the stated
0.1% anyway and is expected to fail; see notes/decisions.md in the review
notes for the analysis.
"""

import math
import time

import numpy as np
import pytest

from faslcr.channel_model import CorrelationProfile, FasConfig, correlation_profile
from faslcr.harness import compare_methods, linear_to_db, run_sweep, SweepSpec
from faslcr.lcr_analytic import (
    lcr_identical,
    lcr_iid,
    lcr_theorem1,
    lcr_two_port_series,
)
from faslcr.mc_simulator import (
    SimParams,
    assemble_port_envelopes,
    estimate_lcr,
    generate_base_processes,
)
from faslcr.specfun import (
    bessel_i0_scaled,
    bessel_j0,
    marcum_q1,
)

from oracles import (
    i0_scaled_quad,
    j0_series,
    marcum_q1_quad,
    slope_moment,
)

THRESHOLD_GRID = tuple(float(x) for x in np.linspace(0.05, 3.0, 20))


def _report(number, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{detail}; {elapsed:.2f}s]", flush=True)
    assert elapsed < 10.0 * budget, (
        f"criterion {number} took {elapsed:.2f}s, stated budget {budget:.0f}s"
    )
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_reduction_identity():
    """Uncorrelated reduction: the exact rate collapses to the i.i.d. closed form."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        cfg = FasConfig(n, 0.0, sigma2=1.0, f_doppler=1.0)
        prof = CorrelationProfile(mu=(0.0,) * n)
        for x in THRESHOLD_GRID:
            got = lcr_theorem1(cfg, prof, x)
            want = lcr_iid(cfg, x)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    _report(1, "reduction identity", worst <= 1e-10,
            f"worst rel err {worst:.3e} vs 1e-10", elapsed, budget=1.0)


def test_criterion_2_path_equivalence():
    """Two-port gamma series agrees with the exact quadrature route."""
    t0 = time.perf_counter()
    worst = 0.0
    cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
    for mu in (0.0, 0.3, 0.6, 0.9):
        prof = CorrelationProfile(mu=(0.0, mu))
        for x in THRESHOLD_GRID:
            got = lcr_two_port_series(cfg, mu, x)
            want = lcr_theorem1(cfg, prof, x)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    _report(2, "two-port path equivalence", worst <= 1e-8,
            f"worst rel err {worst:.3e} vs 1e-8", elapsed, budget=1.0)


def test_criterion_3_identical_channel_limit():
    """Two-port series at mu = 1 - 1e-6 against the fully-correlated closed form.

    Asserted pointwise at 0.1% relative, as stated.  Known to fail at the
    grid edges: the series' true deviation is -(2 pi y)^{-1/2}-shaped with
    y = x_th^2/(sigma^2 (1-mu^2)), i.e. -0.79% at 0.05 sigma and +0.23% at
    3 sigma for this mu.
    """
    t0 = time.perf_counter()
    cfg = FasConfig(2, 0.1, sigma2=1.0, f_doppler=1.0)
    mu = 1.0 - 1e-6
    devs = []
    for x in THRESHOLD_GRID:
        got = lcr_two_port_series(cfg, mu, x)
        want = lcr_identical(cfg, x)
        devs.append((abs(got - want) / want, x))
    worst, worst_x = max(devs)
    elapsed = time.perf_counter() - t0
    _report(3, "identical-channel limit", worst <= 1e-3,
            f"worst rel dev {worst:.3%} at x_th={worst_x:.2f} vs 0.1%", elapsed, budget=1.0)


def test_criterion_4_classical_anchor():
    """Monte-Carlo N = 1 reproduces the classical Rayleigh peak rate."""
    t0 = time.perf_counter()
    cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
    sim = SimParams.from_cycles(cfg, duration_cycles=1e4, seed=2024)
    peak_x = 1.0 / math.sqrt(2.0)
    est = estimate_lcr(cfg, sim, [peak_x])[0]
    want = math.sqrt(2.0 * math.pi) * peak_x * math.exp(-0.5)   # 1.0750476...
    dev = abs(est.nlcr - want) / want
    elapsed = time.perf_counter() - t0
    _report(4, "classical anchor", dev <= 0.05,
            f"MC peak NLCR {est.nlcr:.4f} vs {want:.4f}, dev {dev:.2%} vs 5%",
            elapsed, budget=30.0)


def test_criterion_5_mc_matches_exact_rate():
    """MC curves match the exact rate (median <= 5% where NLCR > 0.05) and
    every analytic curve is unimodal in the threshold."""
    t0 = time.perf_counter()
    base = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
    medians = []
    unimodal = True
    for n in (2, 3, 4):
        for w in (0.1, 0.3):
            spec = SweepSpec(
                thresholds=THRESHOLD_GRID, n_list=(n,), w_list=(w,),
                methods=("theorem1", "monte_carlo"),
                sim=SimParams.from_cycles(base, duration_cycles=1e4, seed=20260808),
            )
            rows = run_sweep(spec, base)
            summary = compare_methods(rows, reference_method="theorem1", min_nlcr=0.05)
            medians.append((summary.median_rel_error, n, w))
            analytic = [r.nlcr for r in rows if r.method == "theorem1"]
            diffs = np.diff(analytic)
            changes = int(np.sum(np.sign(diffs[:-1]) != np.sign(diffs[1:])))
            if changes != 1:
                unimodal = False
    worst_median, worst_n, worst_w = max(medians)
    elapsed = time.perf_counter() - t0
    _report(5, "MC reproduces exact curves",
            worst_median <= 0.05 and unimodal,
            f"worst median rel err {worst_median:.2%} (N={worst_n}, W={worst_w}) vs 5%, "
            f"unimodal={unimodal}", elapsed, budget=600.0)


def test_criterion_6_port_count_and_correlation_trends():
    """Below the rate peak: nonincreasing in N per aperture, and the
    uncorrelated closed form lower-bounds every correlated curve."""
    t0 = time.perf_counter()
    x_th = 0.5     # below every peak (peaks sit at 0.82..1.17 for these grids)
    monotone = True
    lower_bounded = True
    for w in (0.1, 0.2, 0.3):
        prev = None
        for n in range(2, 17):
            cfg = FasConfig(n, w, sigma2=1.0, f_doppler=1.0)
            val = lcr_theorem1(cfg, correlation_profile(cfg), x_th)
            iid = lcr_iid(cfg, x_th)
            if prev is not None and val > prev * (1.0 + 1e-10):
                monotone = False
            if iid > val * (1.0 + 1e-10):
                lower_bounded = False
            prev = val
    elapsed = time.perf_counter() - t0
    _report(6, "port-count and correlation trends", monotone and lower_bounded,
            f"nonincreasing in N: {monotone}, iid lower bound: {lower_bounded}",
            elapsed, budget=10.0)


def test_criterion_7_slope_moment_identity():
    """One-sided envelope slope moment equals sqrt(pi/2) sigma f_D to 10%."""
    t0 = time.perf_counter()
    cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=10.0)
    sim = SimParams.from_cycles(cfg, duration_cycles=1e3, seed=42)
    port = assemble_port_envelopes(
        cfg, correlation_profile(cfg), generate_base_processes(cfg, sim)
    )[0]
    got = slope_moment(port.samples, port.dt)
    want = math.sqrt(math.pi / 2.0) * 10.0
    dev = abs(got - want) / want
    elapsed = time.perf_counter() - t0
    _report(7, "slope moment identity", dev <= 0.10,
            f"estimate {got:.3f} vs {want:.3f}, dev {dev:.2%} vs 10%",
            elapsed, budget=30.0)


def test_criterion_8_special_function_oracles():
    """Every kernel primitive matches its independent brute-force oracle."""
    t0 = time.perf_counter()
    failures = []

    for x in np.linspace(0.0, 3.0, 31):
        if abs(bessel_j0(float(x)) - j0_series(float(x))) > 1e-10:
            failures.append(f"j0({x:.2f})")

    for x in np.linspace(0.0, 30.0, 16):
        want = i0_scaled_quad(float(x))
        if abs(bessel_i0_scaled(float(x)) - want) > 1e-10 * want:
            failures.append(f"i0_scaled({x:.1f})")

    for a, b in [(0.0, 1.0), (1.0, 1.0), (2.0, 0.7), (3.0, 3.5), (8.0, 8.5), (0.5, 4.0)]:
        want = marcum_q1_quad(a, b)
        if abs(marcum_q1(a, b) - want) > 1e-10 * max(want, 1e-12):
            failures.append(f"Q1({a},{b})")

    for b in np.linspace(0.0, 5.0, 26):
        want = math.exp(-0.5 * b * b)
        if abs(marcum_q1(0.0, float(b)) - want) > 1e-11 * want:
            failures.append(f"Q1(0,{b:.1f}) identity")

    elapsed = time.perf_counter() - t0
    _report(8, "special-function oracle suite", not failures,
            "all oracles matched" if not failures else f"failed: {failures}",
            elapsed, budget=5.0)
