"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from faslcr import harness, lcr_analytic
from faslcr.specfun import marcum_q1


@pytest.mark.parametrize("n_samples, want", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n_samples, want):
    got = workloads.tail_percentile(n_samples)
    assert got == want
    if got is not None:
        assert n_samples * (100.0 - got) / 100.0 >= 10.0 - 1e-9


def test_marcum_regime_splits_at_alpha_700():
    below = math.sqrt(2.0 * 699.9)
    above = math.sqrt(2.0 * 700.1)
    assert tracing.marcum_regime(below, 1.0) == (1, False)
    assert tracing.marcum_regime(above, 1.0) == (1, True)
    # one large element makes the whole call large; elements follow broadcasting
    assert tracing.marcum_regime(np.array([0.0, 1.0, above]), 2.0) == (3, True)
    assert tracing.marcum_regime(np.linspace(0.0, below, 5), 2.0) == (5, False)
    assert tracing.marcum_regime(1.0, np.ones(4)) == (4, False)


def test_traced_marcum_counts_and_result_unchanged():
    tracer = tracing.Tracer()
    traced = tracer.wrap("specfun.marcum_q1", marcum_q1, tracing._marcum_info)
    small = np.linspace(0.0, 30.0, 7)
    big = np.array([1.0, 40.0])
    assert np.array_equal(traced(small, 20.0), marcum_q1(small, 20.0))
    assert np.array_equal(traced(big, 39.0), marcum_q1(big, 39.0))
    m = tracing.layer_metrics(tracer.spans)
    assert m["specfun.marcum_q1.calls"][0] == 2
    assert m["specfun.marcum_q1.small_alpha.elems"][0] == 7
    assert m["specfun.marcum_q1.large_alpha.elems"][0] == 2
    assert m["specfun.marcum_q1.elems"][0] == 9


def test_self_time_subtracts_direct_children():
    parent = tracing.Span("p", None, None)
    parent.start, parent.end = 0.0, 10.0
    child = tracing.Span("c", parent, None)
    child.start, child.end = 1.0, 4.0
    grandchild = tracing.Span("g", child, None)
    grandchild.start, grandchild.end = 2.0, 3.0
    own = tracing.self_times([parent, child, grandchild])
    assert own[id(parent)] == 7.0
    assert own[id(child)] == 2.0
    assert own[id(grandchild)] == 1.0


def test_installed_patches_are_restored():
    originals = (lcr_analytic.marcum_q1, harness.run_sweep, harness.lcr_theorem1)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert lcr_analytic.marcum_q1 is not originals[0]
        assert harness.run_sweep is not originals[1]
    assert (lcr_analytic.marcum_q1, harness.run_sweep, harness.lcr_theorem1) == originals


def test_same_seed_same_inputs_and_different_seeds_differ():
    for name, wl in workloads.WORKLOADS.items():
        a = workloads.make_inputs(wl, 7)
        assert a == workloads.make_inputs(wl, 7), name
        b = workloads.make_inputs(wl, 8)
        if wl.seeded_thresholds:
            assert a.thresholds != b.thresholds, name
        else:
            assert a.thresholds == b.thresholds == workloads.PAPER_GRID, name
        if wl.mc_cycles:
            assert a.mc_seed != b.mc_seed, name
        else:
            assert a.mc_seed is None, name


def test_seeded_thresholds_are_stratified_uniform():
    lo, hi = workloads.THRESHOLD_RANGE
    width = (hi - lo) / workloads.N_THRESHOLDS
    for seed in range(20):
        xs = workloads.make_inputs(workloads.WORKLOADS["analytic_spread"], seed).thresholds
        assert len(xs) == workloads.N_THRESHOLDS
        for k, x in enumerate(xs):
            assert lo + k * width <= x < lo + (k + 1) * width


@pytest.mark.parametrize("values, want", [
    ([1, 2, 3, 2, 1], True),
    ([1, 3, 2], True),
    ([1, 2, 3], False),
    ([3, 2, 1], False),
    ([1, 2, 1, 2, 1], False),
    ([1, 2, 2, 1], False),
])
def test_is_unimodal(values, want):
    assert workloads.is_unimodal(values) == want


def test_benchmark_json_names_match_the_report():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = tracing.layer_metrics([])
    layers["trace.overhead_s"] = (0.0, "s")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]
