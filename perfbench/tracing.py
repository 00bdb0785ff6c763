"""Span tracing of one workload pass, from outside the library.

Each traced layer is a public faslcr function, wrapped where its caller looks
it up (``lcr_analytic.marcum_q1``, ``harness.lcr_theorem1``, ...), so the
library itself is unchanged and untraced runs execute no tracing code.  A
span records its name, start, end, parent span and a few computed counts;
spans stay in memory until the pass ends, and ``layer_metrics`` reduces them
to the per-layer figures.
"""

import contextlib
import time

import numpy as np

from faslcr import channel_model, harness, lcr_analytic, mc_simulator
from workloads import WORKLOADS

# Marcum Q1 calls are split by Poisson mean alpha = a^2/2 at this value, where
# specfun leaves the vectorised from-zero series for the scalar peak-centred
# loop.  Kept here as the benchmark's own definition so a later change of the
# library's route does not silently redefine the metric.
ALPHA_SPLIT = 700.0

# Every N of every workload gets an lcr_theorem1 ms-per-point figure, so the
# metric set is the same on each workload.
TRACED_PORT_COUNTS = tuple(sorted({n for w in WORKLOADS.values() for n in w.n_list}))


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent, info):
        self.name = name
        self.parent = parent
        self.info = info
        self.start = self.end = 0.0


def marcum_regime(a, b):
    """(element count, True if any element has alpha = a^2/2 > ALPHA_SPLIT).

    Mirrors the broadcasting of ``specfun.marcum_q1``; a call containing any
    large-alpha element counts as large as a whole.
    """
    a_arr = np.asarray(a, dtype=float)
    elems = np.broadcast(a_arr, np.asarray(b, dtype=float)).size
    a_max = float(np.max(a_arr)) if a_arr.size else 0.0
    return elems, 0.5 * a_max * a_max > ALPHA_SPLIT


def _marcum_info(a, b, *_):
    elems, large = marcum_regime(a, b)
    return {"elems": elems, "large": large}


def _elems_info(x, *_):
    return {"elems": int(np.size(x))}


def _ports_info(cfg, *_args, **_kwargs):
    return {"n": cfg.n_ports}


def _synthesis_info(cfg, sim):
    return {"n": cfg.n_ports, "samples": sim.n_samples}


# (module, attribute the caller looks up, span name, info function)
_PATCHES = (
    (lcr_analytic, "marcum_q1", "specfun.marcum_q1", _marcum_info),
    (lcr_analytic, "bessel_i0_scaled", "specfun.bessel_i0_scaled", _elems_info),
    (channel_model, "bessel_j0", "specfun.bessel_j0", None),
    (harness, "correlation_profile", "channel_model.correlation_profile", None),
    (mc_simulator, "correlation_profile", "channel_model.correlation_profile", None),
    (harness, "lcr_theorem1", "lcr_analytic.lcr_theorem1", _ports_info),
    (harness, "estimate_lcr", "mc_simulator.estimate_lcr", None),
    (mc_simulator, "generate_base_processes", "mc_simulator.generate_base_processes",
     _synthesis_info),
    (mc_simulator, "assemble_port_envelopes", "mc_simulator.assemble_port_envelopes", None),
    (mc_simulator, "fas_select", "mc_simulator.fas_select", None),
    (mc_simulator, "count_crossings", "mc_simulator.count_crossings", None),
    (harness, "run_sweep", "harness.run_sweep", None),
    (harness, "compare_methods", "harness.compare_methods", None),
    (harness, "emit_csv", "harness.emit_csv", None),
)


class Tracer:
    """Collects spans in memory; ``installed()`` patches the layer boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info_fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            info = info_fn(*args, **kwargs) if info_fn is not None else None
            span = Span(name, stack[-1] if stack else None, info)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _PATCHES]
        try:
            for (mod, attr, name, info_fn), (_, _, fn) in zip(_PATCHES, originals):
                setattr(mod, attr, self.wrap(name, fn, info_fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)


def self_times(spans):
    """Span duration minus the time its direct children cover, per span id."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.end - s.start)
    return {id(s): (s.end - s.start) - child_time.get(id(s), 0.0) for s in spans}


def layer_metrics(spans):
    """Per-layer figures of one traced pass, as {name: (value, unit)}.

    Layers a workload does not exercise report 0.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(s.end - s.start for s in group(name))

    def self_s(name):
        return sum(own[id(s)] for s in group(name))

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    m = {}
    marcum = group("specfun.marcum_q1")
    m["specfun.marcum_q1.calls"] = (len(marcum), "count")
    m["specfun.marcum_q1.elems"] = (sum(s.info["elems"] for s in marcum), "count.computed")
    m["specfun.marcum_q1.s"] = (total_s("specfun.marcum_q1"), "s")
    for regime, large in (("small_alpha", False), ("large_alpha", True)):
        calls = [s for s in marcum if s.info["large"] == large]
        elems = sum(s.info["elems"] for s in calls)
        seconds = sum(s.end - s.start for s in calls)
        m[f"specfun.marcum_q1.{regime}.elems"] = (elems, "count.computed")
        m[f"specfun.marcum_q1.{regime}.elems_per_s"] = (rate(elems, seconds), "1/s")
    i0 = group("specfun.bessel_i0_scaled")
    i0_elems = sum(s.info["elems"] for s in i0)
    m["specfun.bessel_i0_scaled.calls"] = (len(i0), "count")
    m["specfun.bessel_i0_scaled.elems"] = (i0_elems, "count.computed")
    m["specfun.bessel_i0_scaled.s"] = (total_s("specfun.bessel_i0_scaled"), "s")
    m["specfun.bessel_j0.calls"] = (len(group("specfun.bessel_j0")), "count")
    m["specfun.bessel_j0.s"] = (total_s("specfun.bessel_j0"), "s")

    points = group("lcr_analytic.lcr_theorem1")
    m["lcr_analytic.lcr_theorem1.calls"] = (len(points), "count")
    m["lcr_analytic.lcr_theorem1.self_s"] = (self_s("lcr_analytic.lcr_theorem1"), "s")
    for n in TRACED_PORT_COUNTS:
        durations = [s.end - s.start for s in points if s.info["n"] == n]
        mean_ms = 1e3 * sum(durations) / len(durations) if durations else 0.0
        m[f"lcr_analytic.lcr_theorem1.ms_per_point.N{n}"] = (mean_ms, "ms")
    per_point = 1.0 / len(points) if points else 0.0
    m["lcr_analytic.quad_nodes_per_point"] = (i0_elems * per_point, "count.computed")
    m["lcr_analytic.marcum_elems_per_point"] = (
        m["specfun.marcum_q1.elems"][0] * per_point, "count.computed")

    synth = group("mc_simulator.generate_base_processes")
    synth_s = total_s("mc_simulator.generate_base_processes")
    port_samples = sum(s.info["n"] * s.info["samples"] for s in synth)
    m["mc_simulator.generate_base_processes.s"] = (synth_s, "s")
    m["mc_simulator.generate_base_processes.port_samples_per_s"] = (
        rate(port_samples, synth_s), "1/s")
    # 2(N+1) float64 component processes of n samples each, as allocated.
    m["mc_simulator.generate_base_processes.bytes"] = (
        sum(2 * (s.info["n"] + 1) * s.info["samples"] * 8 for s in synth), "B.computed")
    for stage in ("assemble_port_envelopes", "fas_select"):
        m[f"mc_simulator.{stage}.s"] = (total_s(f"mc_simulator.{stage}"), "s")
    m["mc_simulator.count_crossings.calls"] = (len(group("mc_simulator.count_crossings")), "count")
    m["mc_simulator.count_crossings.s"] = (total_s("mc_simulator.count_crossings"), "s")

    m["channel_model.correlation_profile.calls"] = (
        len(group("channel_model.correlation_profile")), "count")
    m["channel_model.correlation_profile.s"] = (total_s("channel_model.correlation_profile"), "s")
    m["harness.run_sweep.self_s"] = (self_s("harness.run_sweep"), "s")
    m["harness.compare_methods.s"] = (total_s("harness.compare_methods"), "s")
    m["harness.emit_csv.s"] = (total_s("harness.emit_csv"), "s")
    return m
