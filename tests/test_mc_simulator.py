"""Statistical and structural contracts of the channel simulator."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import faslcr
from faslcr import mc_simulator
from faslcr.channel_model import CorrelationProfile, FasConfig, correlation_profile
from faslcr.errors import ConfigError, DomainError
from faslcr.lcr_analytic import lcr_identical
from faslcr.mc_simulator import (
    BaseProcesses,
    EnvelopeSeries,
    SimParams,
    _angle_rows,
    _block_layout,
    _component_processes,
    _down_crossings,
    _select,
    _synthesize,
    assemble_port_envelopes,
    count_crossings,
    estimate_lcr,
    fas_select,
    generate_base_processes,
)

from oracles import clarke_process_direct, slope_moment


def _stream_rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _crossings_by_rule(samples, x):
    """Downward crossings of ``x`` by the definition, one threshold at a time."""
    above = samples >= x
    return int(np.count_nonzero(above[:-1] & ~above[1:]))


@pytest.fixture(scope="module")
def base_run():
    """One moderately long run shared by the statistics tests."""
    cfg = FasConfig(3, 0.3, sigma2=1.0, f_doppler=1.0)
    sim = SimParams.from_cycles(cfg, duration_cycles=2000, seed=777)
    return cfg, sim, generate_base_processes(cfg, sim)


@pytest.fixture(scope="module")
def untraced_warm_up():
    """One short untraced walk before any traced one.  A process's first walk
    imports numpy.random (+0.73 MiB), so without it a traced peak depends on
    which test ran first: the duration test read 1.099 against its 1.1 bound
    in a fresh interpreter, and 1.019 warmed."""
    cfg = FasConfig(2, 0.3)
    estimate_lcr(cfg, SimParams.from_cycles(cfg, 100), [1.0])


class TestSimParams:
    def test_from_cycles(self):
        cfg = FasConfig(2, 0.1, f_doppler=5.0)
        sim = SimParams.from_cycles(cfg, duration_cycles=1000, rate_multiplier=64, seed=9)
        assert sim.sample_rate == 320.0
        assert sim.duration == 200.0
        assert sim.n_samples == 64000
        assert sim.dt == pytest.approx(1.0 / 320.0)

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 0.0, "duration": 10.0},
        {"sample_rate": 64.0, "duration": -1.0},
        {"sample_rate": 64.0, "duration": 10.0, "n_sinusoids": 4},
        {"sample_rate": 64.0, "duration": 10.0, "seed": -1},
        {"sample_rate": 64.0, "duration": 10.0, "seed": 2 ** 64},
        {"sample_rate": 64.0, "duration": 10.0, "seed": True},
        {"sample_rate": "64", "duration": 10.0},
        {"sample_rate": 64.0, "duration": "10"},
        {"sample_rate": True, "duration": 10.0},
        {"sample_rate": 64.0, "duration": 1e308},     # the sample count overflows
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimParams(**kwargs)

    def test_doppler_relative_invariants(self):
        cfg = FasConfig(2, 0.1, f_doppler=10.0)
        with pytest.raises(ConfigError):
            SimParams(sample_rate=100.0, duration=100.0).validate_for(cfg)  # < 16 f_D
        with pytest.raises(ConfigError):
            SimParams(sample_rate=640.0, duration=5.0).validate_for(cfg)    # < 100 cycles
        SimParams(sample_rate=640.0, duration=100.0).validate_for(cfg)
        with pytest.raises(ConfigError, match="expected FasConfig"):
            SimParams(sample_rate=640.0, duration=100.0).validate_for("not a config")
        with pytest.raises(ConfigError, match="expected FasConfig"):
            SimParams.from_cycles("not a config")

    def test_numpy_integers_accepted(self):
        # the same seed as a numpy integer draws the same channel
        cfg = FasConfig(4, 0.3)
        thresholds = [0.3, 0.7, 1.0, 1.5]
        want = [e.crossings for e in estimate_lcr(
            cfg, SimParams.from_cycles(cfg, 1e3, seed=20260808), thresholds)]
        for seed in (np.uint64(20260808), np.int64(20260808)):
            sim = SimParams.from_cycles(cfg, 1e3, n_sinusoids=np.int64(64), seed=seed)
            assert [e.crossings for e in estimate_lcr(cfg, sim, thresholds)] == want
        top = SimParams(sample_rate=64.0, duration=10.0, seed=np.uint64(2 ** 64 - 1))
        assert top.seed == 2 ** 64 - 1


class TestBaseProcesses:
    def test_component_variance(self, base_run):
        cfg, sim, base = base_run
        for arr in (base.x, base.y):
            for series in arr:
                assert float(series.var()) == pytest.approx(0.5, abs=0.015)
                assert abs(float(series.mean())) < 0.05

    def test_clarke_autocorrelation(self, base_run):
        cfg, sim, base = base_run
        x0 = base.x[0]
        for tau_fd in (0.1, 0.25, 0.5):
            lag = int(round(tau_fd / cfg.f_doppler / base.dt))
            emp = float(np.mean(x0[:-lag] * x0[lag:]))
            want = 0.5 * float(special.j0(2.0 * math.pi * cfg.f_doppler * lag * base.dt))
            assert emp == pytest.approx(want, abs=0.03)

    def test_mutual_independence(self, base_run):
        # rows 0, 1, 2 are the components x_0/y_0, x_2/y_2 and x_3/y_3
        cfg, sim, base = base_run
        assert float(np.mean(base.x[0] * base.y[0])) == pytest.approx(0.0, abs=0.02)
        assert float(np.mean(base.x[0] * base.x[1])) == pytest.approx(0.0, abs=0.02)
        assert float(np.mean(base.x[2] * base.y[1])) == pytest.approx(0.0, abs=0.02)

    def test_seed_streams_stable_under_port_growth(self):
        # adding ports must not perturb the streams of existing ports
        sim = SimParams(sample_rate=64.0, duration=100.0, seed=5)
        small = generate_base_processes(FasConfig(2, 0.1), sim)
        large = generate_base_processes(FasConfig(4, 0.1), sim)
        assert np.array_equal(small.x, large.x[:2])
        assert np.array_equal(small.y, large.y[:2])

    def test_determinism(self):
        cfg = FasConfig(2, 0.2)
        sim = SimParams(sample_rate=64.0, duration=100.0, seed=31)
        a = generate_base_processes(cfg, sim)
        b = generate_base_processes(cfg, sim)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("n_sinusoids", [8, 64])
    @pytest.mark.parametrize("duration", [100.0, 100.2, 10000.0])   # 6400, 6413, 640000 samples
    def test_matches_direct_sum(self, duration, n_sinusoids):
        # square, ragged last block and full length against the per-sinusoid sum
        cfg = FasConfig(1, 0.0)
        sim = SimParams(sample_rate=64.0, duration=duration, n_sinusoids=n_sinusoids, seed=13)
        base = generate_base_processes(cfg, sim)
        for stream, got in enumerate((base.x[0], base.y[0])):
            want = clarke_process_direct(_stream_rng(sim.seed, stream), sim.n_samples, sim.dt,
                                         cfg.f_doppler, n_sinusoids)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_every_row_matches_direct_sum(self):
        # each x and y row is its own stream: x_0, y_0 are 0, 1 and x_k, y_k are 2k, 2k+1
        cfg = FasConfig(3, 0.3)
        sim = SimParams(sample_rate=64.0, duration=100.2, seed=13)
        base = generate_base_processes(cfg, sim)
        rows = [base.x[0], base.y[0], base.x[1], base.y[1], base.x[2], base.y[2]]
        for stream, got in zip((0, 1, 4, 5, 6, 7), rows):
            want = clarke_process_direct(_stream_rng(sim.seed, stream), sim.n_samples, sim.dt,
                                         cfg.f_doppler, sim.n_sinusoids)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n_sinusoids", [8, 64])
    def test_two_samples_match_direct_sum(self, n_sinusoids):
        # below the simulator's 1600-sample floor: one-sample blocks
        sim = SimParams(sample_rate=64.0, duration=2.0 / 64.0, n_sinusoids=n_sinusoids, seed=3)
        pair = _component_processes(FasConfig(1, 0.0), sim)
        got = _synthesize(pair, sim, 0, 2)[0][0]
        want = clarke_process_direct(_stream_rng(3, 0), 2, 1.0 / 64.0, 1.0, n_sinusoids)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_block_ranges_match_whole_series(self, monkeypatch):
        # a block row's bits depend on its index alone, not on the range it is
        # synthesized in: ranges cut across the angle-addition groups of g rows
        cfg = FasConfig(3, 0.3)
        sim = SimParams(sample_rate=64.0, duration=4100.7, seed=61)   # ragged last block
        block, n_blocks = _block_layout(sim.n_samples)
        g = math.isqrt(n_blocks)
        assert n_blocks % g and sim.n_samples % block
        chunks = []
        synthesize = mc_simulator._synthesize

        def recorded(bank, sim, first, stop, out=None):
            chunks.append((first, stop))
            return synthesize(bank, sim, first, stop, out)

        monkeypatch.setattr(mc_simulator, "_synthesize", recorded)
        estimate_lcr(cfg, sim, [1.0])
        assert len(chunks) > 1
        whole = generate_base_processes(cfg, sim)
        bank = _component_processes(cfg, sim)
        for first, stop in [(0, 1), (g - 1, g + 1), (n_blocks - 3, n_blocks), *chunks]:
            x, y = synthesize(bank, sim, first, stop)
            cut = slice(first * block, min(stop * block, sim.n_samples))
            assert np.array_equal(x, whole.x[:, cut])
            assert np.array_equal(y, whole.y[:, cut])

    def test_angle_rows_within_argument_rounding(self):
        # 1e5 cycles: block starts reach |A| = 6.3e5 rad, where forming A itself
        # rounds by |A| eps / 2; allow 4 |A| eps per element (1.7 measured)
        sim = SimParams(sample_rate=64.0, duration=1e5, seed=17)
        _, n_blocks = _block_layout(sim.n_samples)
        bank = _component_processes(FasConfig(1, 0.0), sim)
        for stream in (0, 1):
            omegas = bank.omegas[stream]
            rng = _stream_rng(sim.seed, stream)
            rng.uniform(0.0, 2.0 * math.pi)
            phases = rng.uniform(0.0, 2.0 * math.pi, 64)
            got = _angle_rows(omegas, bank.block_dt, bank.fine[stream], 0, n_blocks)
            arg = (np.arange(n_blocks) * bank.block_dt)[:, None] * omegas + phases
            assert np.abs(arg).max() > 6e5
            bound = 4.0 * np.maximum(np.abs(arg), 1.0) * np.finfo(float).eps
            assert np.all(np.abs(got.real - np.cos(arg)) <= bound)
            assert np.all(np.abs(got.imag - np.sin(arg)) <= bound)

    @pytest.mark.usefixtures("untraced_warm_up")
    def test_bank_peak_memory_is_its_right_factors(self):
        # the peak is the held bank, its right factors and fine left tables,
        # plus one process's temporaries (1.06 measured); filling the right
        # factors from one complex copy of all of them at once reads 1.8 or more
        cfg = FasConfig(4, 0.3)
        sim = SimParams.from_cycles(cfg, duration_cycles=1e5, seed=1)
        tracemalloc.start()
        try:
            bank = _component_processes(cfg, sim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (bank.right.nbytes + bank.fine.nbytes)


class TestAssemble:
    def test_power_conservation(self, base_run):
        cfg, sim, base = base_run
        ports = assemble_port_envelopes(cfg, correlation_profile(cfg), base)
        for p in ports:
            assert float(np.mean(p.samples ** 2)) == pytest.approx(cfg.sigma2, rel=0.03)

    def test_fully_correlated_port_is_reference(self, base_run):
        cfg, sim, base = base_run
        prof = CorrelationProfile(mu=(0.0, 1.0, 0.5))
        ports = assemble_port_envelopes(cfg, prof, base)
        assert np.array_equal(ports[1].samples, ports[0].samples)

    def test_uncorrelated_port_envelope_correlation(self, base_run):
        cfg, sim, base = base_run
        prof = CorrelationProfile(mu=(0.0, 0.0, 0.0))
        ports = assemble_port_envelopes(cfg, prof, base)
        e1 = ports[0].samples - ports[0].samples.mean()
        e2 = ports[1].samples - ports[1].samples.mean()
        corr = float(np.mean(e1 * e2) / (e1.std() * e2.std()))
        assert corr == pytest.approx(0.0, abs=0.03)

    def test_complex_correlation_matches_profile(self, base_run):
        cfg, sim, base = base_run
        prof = correlation_profile(cfg)        # mu_2 = 0.78996 at (N=3, W=0.3)
        mu2 = prof.mu[1]
        # row 1 holds port 2's own components x_2, y_2
        h1 = base.x[0] + 1j * base.y[0]
        root = math.sqrt(1.0 - mu2 * mu2)
        h2 = root * base.x[1] + mu2 * base.x[0] + 1j * (root * base.y[1] + mu2 * base.y[0])
        corr = np.mean(h2 * np.conj(h1)) / math.sqrt(
            float(np.mean(np.abs(h1) ** 2)) * float(np.mean(np.abs(h2) ** 2))
        )
        assert abs(corr.real - mu2) < 0.03
        assert abs(corr.imag) < 0.03

    def test_magnitude_within_rounding_of_hypot(self):
        # sqrt(re^2 + im^2) stands in for hypot; they may differ by rounding only (2 ulp)
        cfg = FasConfig(4, 0.3, sigma2=2.0)
        sim = SimParams.from_cycles(cfg, duration_cycles=500, seed=777)
        base = generate_base_processes(cfg, sim)
        prof = correlation_profile(cfg)
        ports = assemble_port_envelopes(cfg, prof, base)
        for k, port in enumerate(ports):
            mu = prof.mu[k]
            root = math.sqrt(1.0 - mu * mu)
            re = root * base.x[k] + mu * base.x[0] if k else base.x[0]
            im = root * base.y[k] + mu * base.y[0] if k else base.y[0]
            np.testing.assert_allclose(port.samples, cfg.sigma * np.hypot(re, im),
                                       rtol=4.5e-16, atol=0.0)

    def test_shape_mismatch_rejected(self, base_run):
        cfg, sim, base = base_run
        with pytest.raises(ConfigError):
            assemble_port_envelopes(FasConfig(5, 0.3), correlation_profile(FasConfig(5, 0.3)), base)


class TestFasSelect:
    def test_single_port_identity(self):
        series = EnvelopeSeries(np.array([0.5, 1.0, 0.2]), 0.1)
        out = fas_select([series])
        assert np.array_equal(out.samples, series.samples)

    def test_identical_ports(self):
        s = EnvelopeSeries(np.array([0.5, 1.0, 0.2]), 0.1)
        out = fas_select([s, s, s])
        assert np.array_equal(out.samples, s.samples)

    def test_pointwise_maximum(self):
        a = EnvelopeSeries(np.array([1.0, 3.0, 2.0]), 1.0)
        b = EnvelopeSeries(np.array([2.0, 1.0, 5.0]), 1.0)
        assert np.array_equal(fas_select([a, b]).samples, [2.0, 3.0, 5.0])

    def test_selection_dominance(self, base_run):
        cfg, sim, base = base_run
        ports = assemble_port_envelopes(cfg, correlation_profile(cfg), base)
        sel = fas_select(ports)
        for p in ports:
            assert np.all(sel.samples >= p.samples)
            # empirical CDF of the selection lies at or below each port's
            for level in (0.3, 0.7, 1.0, 1.5):
                assert np.mean(sel.samples <= level) <= np.mean(p.samples <= level)

    def test_errors(self):
        with pytest.raises(ConfigError):
            fas_select([])
        with pytest.raises(ConfigError):
            fas_select([
                EnvelopeSeries(np.array([1.0, 2.0]), 1.0),
                EnvelopeSeries(np.array([1.0, 2.0, 3.0]), 1.0),
            ])


class TestFusedSelection:
    @pytest.mark.parametrize("w", [0.3, 0.1, 0.0])     # at W = 0 every |mu_k| is 1
    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_bit_equal_to_selecting_the_port_envelopes(self, n, w):
        # read from the leading rows of a 16-port synthesis, as the walk does
        sim = SimParams.from_cycles(FasConfig(1, 0.0), duration_cycles=300, seed=71)
        widest = generate_base_processes(FasConfig(16, w, sigma2=2.0), sim)
        cfg = FasConfig(n, w, sigma2=2.0)
        profile = correlation_profile(cfg)
        want = fas_select(assemble_port_envelopes(cfg, profile,
                                                  generate_base_processes(cfg, sim))).samples
        size = sim.n_samples
        got = _select(widest.x, widest.y, cfg.sigma, profile.mu, np.empty(size),
                      [np.empty(size) for _ in range(3)])
        assert np.array_equal(got, want)

    def test_a_port_just_below_the_cutoff_is_simulated(self):
        # at W = 2e-5 port 2 has 1 - mu_2 = 4.4e-10: within the identical-
        # channel cutoff of 1, but a channel of its own that selection takes
        cfg = FasConfig(4, 2e-5)
        profile = correlation_profile(cfg)
        mu = np.array(profile.mu)[1:, None]
        assert 0.0 < 1.0 - mu[0, 0] < 1e-9
        sim = SimParams.from_cycles(cfg, duration_cycles=300, seed=3)
        base = generate_base_processes(cfg, sim)
        root = np.sqrt(1.0 - mu * mu)
        re = root * base.x[1:] + mu * base.x[:1]
        im = root * base.y[1:] + mu * base.y[:1]
        powers = np.vstack([base.x[:1] ** 2 + base.y[:1] ** 2, re * re + im * im])
        want = cfg.sigma * np.sqrt(powers.max(axis=0))
        size = sim.n_samples
        got = _select(base.x, base.y, cfg.sigma, profile.mu, np.empty(size),
                      [np.empty(size) for _ in range(3)])
        assert np.array_equal(got, want)
        assert np.array_equal(fas_select(assemble_port_envelopes(cfg, profile, base)).samples,
                              want)
        assert not np.array_equal(want, cfg.sigma * np.sqrt(powers[0]))


class TestRankCounting:
    def test_sorted_thresholds_match_the_rule(self):
        # ties at 1.0 and 0.5 count as above; equal thresholds each get the count
        samples = np.array([2.0, 1.0, 1.0, 0.5, 3.0, 0.0, 0.5, 0.4, 2.5, 2.5, 0.9])
        ascending = (0.4, 0.5, 1.0, 1.0, 2.5, 9.0)
        got = _down_crossings(samples, ascending)
        assert list(got) == [_crossings_by_rule(samples, x) for x in ascending]
        assert list(got) == [1, 2, 3, 3, 2, 0]

    def test_walk_matches_the_rule_across_chunks(self, monkeypatch):
        # unsorted and repeated thresholds, thresholds equal to the samples on
        # each side of every chunk boundary, and one between the two samples
        # of each downward step across a boundary
        cfg = FasConfig(3, 0.3)
        sim = SimParams(sample_rate=64.0, duration=4100.7, seed=11)
        chunks = []
        synthesize = mc_simulator._synthesize

        def recorded(bank, sim, first, stop, out=None):
            chunks.append(first)
            return synthesize(bank, sim, first, stop, out)

        monkeypatch.setattr(mc_simulator, "_synthesize", recorded)
        s = fas_select(assemble_port_envelopes(cfg, correlation_profile(cfg),
                                               generate_base_processes(cfg, sim))).samples
        block, _ = _block_layout(sim.n_samples)
        estimate_lcr(cfg, sim, [1.0])
        edges = np.array(chunks[1:]) * block
        down = edges[s[edges - 1] > s[edges]]
        assert down.size and len(chunks) > 2
        thresholds = [1.5, 0.3, 1.5, 1.0, 0.3,
                      *(float(v) for v in s[edges - 1]), *(float(v) for v in s[edges]),
                      *(float(v) for v in 0.5 * (s[down - 1] + s[down]))]
        got = [e.crossings for e in estimate_lcr(cfg, sim, thresholds)]
        assert got == [_crossings_by_rule(s, x) for x in thresholds]

    @pytest.mark.parametrize("n", [1, 3])
    def test_walk_matches_the_rule_across_tiles(self, n, monkeypatch):
        # thresholds equal to the samples on each side of every tile boundary
        # inside a chunk, and one between the two samples of each downward
        # step across one; blocks of 366 samples, so no such boundary is a
        # block boundary, and the last tile is ragged
        cfg = FasConfig(n, 0.3)
        sim = SimParams(sample_rate=64.0, duration=2100.3, seed=29)
        tile = mc_simulator._TILE_SAMPLES
        chunks = []
        synthesize = mc_simulator._synthesize

        def recorded(bank, sim, first, stop, out=None):
            chunks.append(first)
            return synthesize(bank, sim, first, stop, out)

        monkeypatch.setattr(mc_simulator, "_synthesize", recorded)
        s = fas_select(assemble_port_envelopes(cfg, correlation_profile(cfg),
                                               generate_base_processes(cfg, sim))).samples
        block, _ = _block_layout(sim.n_samples)
        estimate_lcr(cfg, sim, [1.0])
        starts = [first * block for first in chunks] + [sim.n_samples]
        edges = np.array([e for lo, hi in zip(starts, starts[1:])
                          for e in range(lo + tile, hi, tile)])
        down = edges[s[edges - 1] > s[edges]]
        assert down.size and np.all(edges % block) and (sim.n_samples - starts[-2]) % tile
        thresholds = [1.5, 0.3, 1.0,
                      *(float(v) for v in s[edges - 1]), *(float(v) for v in s[edges]),
                      *(float(v) for v in 0.5 * (s[down - 1] + s[down]))]
        got = [e.crossings for e in estimate_lcr(cfg, sim, thresholds)]
        assert got == [_crossings_by_rule(s, x) for x in thresholds]

    def test_more_thresholds_than_a_byte_holds(self):
        # 300 thresholds take uint16 ranks: a falling grid and 20 of its
        # points again, counted by the kernel, by count_crossings and by a
        # walk of three chunks
        cfg = FasConfig(2, 0.3)
        sim = SimParams(sample_rate=64.0, duration=2100.3, seed=3)
        s = fas_select(assemble_port_envelopes(cfg, correlation_profile(cfg),
                                               generate_base_processes(cfg, sim))).samples
        assert sim.n_samples > 2 * mc_simulator._CHUNK_SAMPLES
        grid = np.linspace(3.0, 0.01, 280)
        thresholds = [float(x) for x in (*grid, *grid[::14])]
        want = [_crossings_by_rule(s, x) for x in thresholds]
        order = np.argsort(thresholds, kind="stable")
        got = _down_crossings(s, np.asarray(thresholds)[order])
        assert list(got) == [want[i] for i in order]
        series = EnvelopeSeries(s, sim.dt)
        assert [count_crossings(series, x).crossings for x in thresholds] == want
        assert [e.crossings for e in estimate_lcr(cfg, sim, thresholds)] == want


class TestCountCrossings:
    def test_constant_series(self):
        est = count_crossings(EnvelopeSeries(np.ones(10), 0.5), 0.7)
        assert est.crossings == 0 and est.rate == 0.0

    def test_square_wave(self):
        est = count_crossings(EnvelopeSeries(np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0]), 1.0), 1.0)
        assert est.crossings == 3
        assert est.rate == pytest.approx(0.5)
        assert est.duration == 6.0

    def test_sample_at_threshold_counts_as_above(self):
        est = count_crossings(EnvelopeSeries(np.array([1.0, 0.5, 1.5]), 1.0), 1.0)
        assert est.crossings == 1

    def test_offset_sinusoid_one_crossing_per_period(self):
        # r(t) = 1 + 0.5 sin(2 pi t) crosses 1 downward exactly once per period
        dt = 1.0 / 128.0
        periods = 50
        t = np.arange(int(periods / dt)) * dt
        series = EnvelopeSeries(1.0 + 0.5 * np.sin(2.0 * math.pi * t), dt)
        est = count_crossings(series, 1.0)
        assert est.crossings == periods
        assert est.rate == pytest.approx(1.0, rel=0.01)

    def test_up_down_symmetry(self, base_run):
        cfg, sim, base = base_run
        sel = fas_select(assemble_port_envelopes(cfg, correlation_profile(cfg), base))
        for x in (0.4, 0.9, 1.4):
            above = sel.samples >= x
            down = int(np.count_nonzero(above[:-1] & ~above[1:]))
            up = int(np.count_nonzero(~above[:-1] & above[1:]))
            assert abs(up - down) <= 1

    def test_nlcr_filled_when_doppler_given(self):
        est = count_crossings(EnvelopeSeries(np.array([2.0, 0.0, 2.0]), 0.5), 1.0, f_doppler=4.0)
        assert est.nlcr == pytest.approx(est.rate / 4.0)
        est2 = count_crossings(EnvelopeSeries(np.array([2.0, 0.0, 2.0]), 0.5), 1.0)
        assert est2.nlcr is None

    @pytest.mark.parametrize("bad", [0, 0.0, -1.0, math.nan, math.inf, True, "4.0"])
    def test_bad_doppler_rejected(self, bad):
        series = EnvelopeSeries(np.array([2.0, 0.0, 2.0]), 0.5)
        with pytest.raises(ConfigError):
            count_crossings(series, 1.0, bad)

    def test_errors(self):
        with pytest.raises(ConfigError):
            EnvelopeSeries(np.array([1.0]), 1.0)
        with pytest.raises(ConfigError):
            EnvelopeSeries(np.array([1.0, 2.0]), True)
        with pytest.raises(ConfigError):
            EnvelopeSeries(np.array([1.0, 2.0]), "0.5")
        # a bool or a string is never a number, nor is a non-finite sample
        for samples in (["1.0", "0.5", "2"], [True, False, True], np.array([True, False]),
                        [1.0, True], [1.0, math.nan], [1.0, -0.5]):
            with pytest.raises(ConfigError):
                EnvelopeSeries(samples, 1.0)
        with pytest.raises(ConfigError):
            BaseProcesses(np.zeros((1, 2)), np.zeros((1, 2)), math.nan)
        with pytest.raises(ConfigError):
            BaseProcesses(np.zeros((1, 2)), np.zeros((1, 2)), True)
        for x, y in ((np.zeros((1, 2)), np.zeros((1, 3))), (np.zeros(2), np.zeros(2))):
            with pytest.raises(ConfigError, match="matching 2-D arrays"):
                BaseProcesses(x, y, 1.0)
        with pytest.raises(DomainError):
            count_crossings(EnvelopeSeries(np.array([1.0, 2.0]), 1.0), 0.0)
        with pytest.raises(ConfigError, match="expected EnvelopeSeries, got ndarray"):
            count_crossings(np.array([1.0, 2.0]), 1.0)


class TestEstimateLcr:
    def test_classical_anchor(self):
        # N = 1 peak NLCR 1.0750 +/- 5% at x_th = sigma/sqrt(2), 1e4 cycles
        cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=1.0)
        sim = SimParams.from_cycles(cfg, duration_cycles=1e4, seed=2024)
        est = estimate_lcr(cfg, sim, [1.0 / math.sqrt(2.0)])[0]
        assert est.nlcr == pytest.approx(1.0750476034999201, rel=0.05)

    def test_determinism(self):
        cfg = FasConfig(2, 0.3)
        sim = SimParams.from_cycles(cfg, duration_cycles=500, seed=99)
        a = estimate_lcr(cfg, sim, [0.5, 1.0])
        b = estimate_lcr(cfg, sim, [0.5, 1.0])
        assert a == b

    @pytest.mark.parametrize("cfg, sim, thresholds, crossings", [
        (FasConfig(4, 0.3), SimParams.from_cycles(FasConfig(4, 0.3), 1e3, seed=20260808),
         [0.3, 0.7, 1.0, 1.5], [7, 508, 1062, 907]),
        (FasConfig(3, 0.1), SimParams(sample_rate=64.0, duration=100.2, seed=5),
         [0.5, 1.0], [80, 103]),
        # 640,000 samples: blocks of 512, where isqrt(n) would be 800
        (FasConfig(4, 0.3), SimParams.from_cycles(FasConfig(4, 0.3), 1e4, seed=20260808),
         [0.3, 0.7, 1.0, 1.5], [67, 4854, 10774, 9086]),
    ])
    def test_seeded_realization_locked(self, cfg, sim, thresholds, crossings):
        # a change to the synthesis must not silently re-draw the channel
        assert [e.crossings for e in estimate_lcr(cfg, sim, thresholds)] == crossings

    @pytest.mark.parametrize("duration", [
        200.0,      # 12800 samples, below one chunk
        4096.0,     # 262144 samples, exactly four chunks of 2^16
        4100.7,     # 262445 samples, ragged last block
        1024.02,    # 65537 samples, one block past a whole chunk
    ])
    def test_streamed_counts_match_whole_series(self, duration):
        cfg = FasConfig(3, 0.3)
        sim = SimParams(sample_rate=64.0, duration=duration, seed=61)
        n = sim.n_samples
        block = math.isqrt(n)
        whole = fas_select(assemble_port_envelopes(cfg, correlation_profile(cfg),
                                                   generate_base_processes(cfg, sim)))
        s = whole.samples
        # every chunk boundary is a block boundary: put a threshold between
        # the two samples of each downward step across one
        edges = np.arange(block, n, block)
        down = edges[s[edges - 1] > s[edges]]
        thresholds = [0.3, 1.0, 1.5] + [float(v) for v in 0.5 * (s[down - 1] + s[down])]
        want = [count_crossings(whole, x, cfg.f_doppler) for x in thresholds]
        assert estimate_lcr(cfg, sim, thresholds) == want
        assert (n < mc_simulator._CHUNK_SAMPLES) == (duration == 200.0)
        assert (n % mc_simulator._CHUNK_SAMPLES == 0) == (duration == 4096.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "1.0", None, True])
    def test_thresholds_validated_before_synthesis(self, bad, monkeypatch):
        def no_synthesis(*args):
            raise AssertionError("synthesis ran before the thresholds were checked")

        monkeypatch.setattr(mc_simulator, "_component_processes", no_synthesis)
        cfg = FasConfig(2, 0.3)
        with pytest.raises(DomainError):
            estimate_lcr(cfg, SimParams.from_cycles(cfg, 1e3), [0.5, bad])

    def test_no_thresholds_skip_synthesis(self, monkeypatch):
        def no_synthesis(*args):
            raise AssertionError("synthesis ran for an empty threshold list")

        monkeypatch.setattr(mc_simulator, "_component_processes", no_synthesis)
        cfg = FasConfig(2, 0.3)
        assert estimate_lcr(cfg, SimParams.from_cycles(cfg, 1e3), []) == []
        with pytest.raises(ConfigError):    # below the 100-cycle floor
            estimate_lcr(cfg, SimParams.from_cycles(cfg, 10.0), [])
        with pytest.raises(ConfigError):
            estimate_lcr("not a config", SimParams.from_cycles(cfg, 1e3), [])

    @pytest.mark.usefixtures("untraced_warm_up")
    def test_memory_bounded_by_the_chunk(self):
        # the whole-series pipeline peaked at 83.7 MiB here (4.9 MiB a row)
        cfg = FasConfig(4, 0.3)
        sim = SimParams.from_cycles(cfg, duration_cycles=1e4, seed=1)
        tracemalloc.start()
        try:
            estimate_lcr(cfg, sim, [0.5, 1.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    @pytest.mark.usefixtures("untraced_warm_up")
    def test_memory_does_not_grow_with_the_duration(self):
        # beyond the fine left tables, which grow as isqrt(n/B) rows: blocks
        # of isqrt(n) samples read 2.18 here; blocks capped at 512, 1.02
        cfg = FasConfig(4, 0.3)

        def peak(cycles):
            sim = SimParams.from_cycles(cfg, cycles, seed=1)
            tracemalloc.start()
            try:
                estimate_lcr(cfg, sim, [0.5, 1.0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - _component_processes(cfg, sim).fine.nbytes

        assert peak(1e5) <= 1.1 * peak(1e4)

    def test_walk_matches_runs_per_config(self):
        # port counts out of order, different channel powers, W = 0 among them
        sim = SimParams(sample_rate=64.0, duration=2100.3, seed=83)     # three chunks
        cfgs = [FasConfig(n, w, sigma2=s2) for n, w, s2 in
                [(2, 0.1, 2.0), (5, 0.3, 1.0), (1, 0.0, 1.0), (3, 0.0, 1.0),
                 (5, 0.1, 0.5), (2, 0.3, 1.0)]]
        thresholds = [1.5, 0.3, 1.0, 0.3, 2.2]
        walked = estimate_lcr(tuple(cfgs), sim, thresholds)
        assert walked == [estimate_lcr(c, sim, thresholds) for c in cfgs]

    def test_walk_validation(self, monkeypatch):
        def no_synthesis(*args):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(mc_simulator, "_component_processes", no_synthesis)
        sim = SimParams.from_cycles(FasConfig(1, 0.0), 1e3)
        assert estimate_lcr([FasConfig(2, 0.3), FasConfig(3, 0.1)], sim, []) == [[], []]
        with pytest.raises(ConfigError):
            estimate_lcr([], sim, [1.0])
        with pytest.raises(ConfigError):
            estimate_lcr([FasConfig(2, 0.3), FasConfig(2, 0.3, f_doppler=2.0)], sim, [1.0])
        with pytest.raises(ConfigError):
            estimate_lcr([FasConfig(2, 0.3), "not a config"], sim, [1.0])

    @pytest.mark.usefixtures("untraced_warm_up")
    def test_walk_memory_is_that_of_its_widest_config(self):
        # the walk over N = 2..16 adds per-config state only; 0.98 measured
        sim = SimParams.from_cycles(FasConfig(1, 0.0), duration_cycles=2000, seed=5)
        thresholds = [0.5, 1.0, 1.5]

        def peak(cfg):
            tracemalloc.start()
            try:
                estimate_lcr(cfg, sim, thresholds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        lone = peak(FasConfig(16, 0.3))
        assert peak([FasConfig(n, 0.3) for n in range(2, 17)]) <= 1.1 * lone

    @pytest.mark.usefixtures("untraced_warm_up")
    def test_memory_beyond_the_bank_and_chunk_does_not_grow_with_n(self, monkeypatch):
        # one process's left factor is held at a time: 1.36 and 1.37 MiB
        # measured at N = 2 and 16; the left factors of all 2N at once read
        # 1.93 and 5.51
        sim = SimParams.from_cycles(FasConfig(1, 0.0), duration_cycles=1e4, seed=1)
        chunks = []
        synthesize = mc_simulator._synthesize

        def recorded(bank, sim, first, stop, out=None):
            chunks.append(out.nbytes)
            return synthesize(bank, sim, first, stop, out)

        monkeypatch.setattr(mc_simulator, "_synthesize", recorded)

        def overhead(cfg):
            chunks.clear()
            tracemalloc.start()
            try:
                estimate_lcr(cfg, sim, [0.5, 1.0, 1.5])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bank = _component_processes(cfg, sim)
            return peak - (bank.right.nbytes + bank.fine.nbytes + chunks[0])

        assert overhead(FasConfig(16, 0.3)) <= 1.1 * overhead(FasConfig(2, 0.3))

    def test_counts_match_a_single_blas_thread_run(self):
        # at 1e3 cycles the synthesized rows of one OpenBLAS thread and of two
        # differ in the last bits; the crossing counts must not.  1e4 cycles
        # (640,000 samples) runs blocks capped at 512 samples.
        cfgs = [FasConfig(n, 0.3) for n in (1, 2, 4, 8)]
        thresholds = [float(x) for x in np.linspace(0.05, 3.0, 20)]
        code = (
            "import json, numpy as np\n"
            "from faslcr import FasConfig, SimParams, estimate_lcr\n"
            "cfgs = [FasConfig(n, 0.3) for n in (1, 2, 4, 8)]\n"
            "thresholds = [float(x) for x in np.linspace(0.05, 3.0, 20)]\n"
            "print(json.dumps([[[e.crossings for e in run] for run in estimate_lcr(\n"
            "    cfgs, SimParams.from_cycles(cfgs[0], cycles, seed=20260808), thresholds)]\n"
            "                  for cycles in (1e3, 1e4)]))\n"
        )
        src = str(Path(faslcr.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        want = [[[e.crossings for e in run] for run in estimate_lcr(
            cfgs, SimParams.from_cycles(cfgs[0], cycles, seed=20260808), thresholds)]
                for cycles in (1e3, 1e4)]
        assert json.loads(done.stdout) == want

    def test_walk_builds_no_staged_type(self, monkeypatch):
        # the walk holds plain rows: with BaseProcesses and EnvelopeSeries
        # made to raise, one config and a list of configs give the same estimates
        cfgs = [FasConfig(1, 0.0), FasConfig(3, 0.3)]
        sim = SimParams.from_cycles(cfgs[0], duration_cycles=1e3, seed=5)
        thresholds = [0.3, 1.0, 1.5]
        want = [estimate_lcr(cfgs, sim, thresholds), estimate_lcr(cfgs[1], sim, thresholds)]

        def refuse(*args, **kwargs):
            raise AssertionError("estimate_lcr built a staged type")

        monkeypatch.setattr(mc_simulator, "BaseProcesses", refuse)
        monkeypatch.setattr(mc_simulator, "EnvelopeSeries", refuse)
        got = [estimate_lcr(cfgs, sim, thresholds), estimate_lcr(cfgs[1], sim, thresholds)]
        assert got == want

    def test_fully_correlated_profile_matches_identical(self):
        # W = 0 collapses every port onto the reference port
        cfg = FasConfig(3, 0.0, sigma2=1.0, f_doppler=1.0)
        sim = SimParams.from_cycles(cfg, duration_cycles=5000, seed=404)
        for est in estimate_lcr(cfg, sim, [0.7, 1.0]):
            want = lcr_identical(cfg, est.threshold)
            assert est.nlcr == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("n", [2, 16])
    def test_fully_correlated_ports_give_the_reference_crossings(self, n):
        # at W = 0 every |mu_k| is 1, and the walk skips those ports: their
        # powers equal the reference port's bit for bit
        sim = SimParams.from_cycles(FasConfig(1, 0.0), duration_cycles=300, seed=5)
        thresholds = np.linspace(0.05, 3.0, 20).tolist()
        assert (estimate_lcr(FasConfig(n, 0.0), sim, thresholds)
                == estimate_lcr(FasConfig(1, 0.0), sim, thresholds))


class TestSlopeMoment:
    def test_half_gaussian_moment(self):
        # one-sided slope moment sqrt(pi/2) sigma f_D to 10% at 1e3 cycles
        cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=10.0)
        sim = SimParams.from_cycles(cfg, duration_cycles=1000, seed=42)
        port = assemble_port_envelopes(cfg, correlation_profile(cfg),
                                       generate_base_processes(cfg, sim))[0]
        got = slope_moment(port.samples, port.dt)
        assert got == pytest.approx(math.sqrt(math.pi / 2.0) * 10.0, rel=0.10)

    def test_doppler_scaling(self):
        vals = {}
        for fd in (5.0, 10.0):
            cfg = FasConfig(1, 0.0, sigma2=1.0, f_doppler=fd)
            sim = SimParams.from_cycles(cfg, duration_cycles=1000, seed=8)
            port = assemble_port_envelopes(cfg, correlation_profile(cfg),
                                           generate_base_processes(cfg, sim))[0]
            vals[fd] = slope_moment(port.samples, port.dt)
        assert vals[10.0] == pytest.approx(2.0 * vals[5.0], rel=0.02)

    def test_sigma_scaling(self):
        cfg = FasConfig(1, 0.0, sigma2=4.0, f_doppler=1.0)
        sim = SimParams.from_cycles(cfg, duration_cycles=1000, seed=12)
        port = assemble_port_envelopes(cfg, correlation_profile(cfg),
                                       generate_base_processes(cfg, sim))[0]
        assert slope_moment(port.samples, port.dt) == pytest.approx(
            math.sqrt(math.pi / 2.0) * 2.0, rel=0.10
        )

