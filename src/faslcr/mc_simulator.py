"""Monte-Carlo synthesis of the selected envelope and empirical crossing rates.

The channel at each port is built from 2(N+1) independent real Gaussian
processes with variance 1/2 and a Jakes/Clarke Doppler spectrum (isotropic
scattering), combined per port as

    h_1 = sigma (x_0 + j y_0)
    h_k = sigma (sqrt(1-mu_k^2) x_k + mu_k x_0) + j sigma (...y_k, y_0...)

so the complex correlation between port k and port 1 equals mu_k by
construction.  Each Gaussian process is a sum of ``n_sinusoids`` equal-power
sinusoids whose arrival angles are a randomly rotated uniform grid on the
first quadrant: all discrete Doppler frequencies are distinct, and the
time-averaged autocorrelation of a single realization reproduces
J0(2 pi f_D tau) to quadrature accuracy rather than merely in ensemble mean.

The sum is evaluated as one real matrix product per process.  The time axis
is cut into blocks of B = isqrt(n) samples starting at s_b = b B dt, and

    cos(w_m (s_b + k dt) + phi_m) = cos(A_bm) cos(w_m k dt) - sin(A_bm) sin(w_m k dt)

with A_bm = w_m s_b + phi_m, so block b is row b of
[cos A, -sin A] @ [cos(w k dt); sin(w k dt)], an (n/B x 2M) @ (2M x B)
product whose rows are laid end to end and cut to n samples.  That takes
about 2M(n/B + B) cosines and sines plus 2M n multiply-adds in one BLAS
call, where the direct sum takes M n cosines, and it agrees with the direct
sum to rounding (about 1e-11 at 640k samples).

Seeding expands a 64-bit root seed into one independent substream per
process via counter-keyed seed sequences: stream 2j drives x_j and stream
2j+1 drives y_j, so enlarging the port count appends streams without
perturbing existing ones.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel_model import (
    IDENTICAL_CHANNEL_CUTOFF, FasConfig, _check_port_count, _validate_threshold, correlation_profile,
)
from .errors import ConfigError

__all__ = [
    "SimParams",
    "BaseProcesses",
    "EnvelopeSeries",
    "LcrEstimate",
    "generate_base_processes",
    "assemble_port_envelopes",
    "fas_select",
    "count_crossings",
    "estimate_lcr",
    "slope_moment_check",
    "merge_estimates",
]


@dataclass(frozen=True)
class SimParams:
    """Sampling and seeding parameters for one simulation run."""

    sample_rate: float
    duration: float
    n_sinusoids: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0.0):
            raise ConfigError(f"sample_rate must be > 0, got {self.sample_rate!r}")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigError(f"duration must be > 0, got {self.duration!r}")
        if not (isinstance(self.n_sinusoids, int) and self.n_sinusoids >= 8):
            raise ConfigError(f"n_sinusoids must be an integer >= 8, got {self.n_sinusoids!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @classmethod
    def from_cycles(cls, cfg, duration_cycles=1e4, rate_multiplier=64.0,
                    n_sinusoids=64, seed=0):
        """Build parameters from Doppler-normalized quantities.

        duration_cycles  -- duration * f_D (number of fading cycles)
        rate_multiplier  -- sample_rate / f_D
        """
        return cls(
            sample_rate=rate_multiplier * cfg.f_doppler,
            duration=duration_cycles / cfg.f_doppler,
            n_sinusoids=n_sinusoids,
            seed=seed,
        )

    def validate_for(self, cfg):
        """Check the Doppler-relative invariants against a system config."""
        if self.sample_rate < 16.0 * cfg.f_doppler:
            raise ConfigError(
                f"sample_rate {self.sample_rate!r} is below the 16*f_D Nyquist "
                f"margin for f_D = {cfg.f_doppler!r}"
            )
        if self.duration * cfg.f_doppler < 100.0:
            raise ConfigError(
                f"duration*f_D = {self.duration * cfg.f_doppler!r} is below the "
                "100-cycle floor for stable crossing counts"
            )

    @property
    def dt(self):
        return 1.0 / self.sample_rate

    @property
    def n_samples(self):
        return max(int(round(self.duration * self.sample_rate)), 2)


@dataclass(frozen=True)
class BaseProcesses:
    """The 2(N+1) Gaussian component processes: x[j] and y[j], j = 0..N."""

    x: np.ndarray
    y: np.ndarray
    dt: float

    def __post_init__(self):
        if self.x.shape != self.y.shape or self.x.ndim != 2:
            raise ConfigError("x and y must be matching 2-D arrays of shape (N+1, n)")
        if self.dt <= 0.0:
            raise ConfigError(f"dt must be > 0, got {self.dt!r}")


@dataclass(frozen=True, eq=False)
class EnvelopeSeries:
    """Uniformly sampled, nonnegative envelope samples."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("an envelope series needs at least two samples")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be finite and > 0, got {self.dt!r}")
        if not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
            raise ConfigError("envelope samples must be finite and >= 0")

    @property
    def duration(self):
        return self.samples.size * self.dt


@dataclass(frozen=True)
class LcrEstimate:
    """Empirical crossing-rate estimate at one threshold."""

    threshold: float
    rate: float
    nlcr: Optional[float]
    crossings: int
    duration: float


def _clarke_process(rng, n_samples, dt, f_doppler, n_sinusoids):
    """One Gaussian process with variance 1/2 and Clarke Doppler spectrum.

    Arrival angles are a uniform quadrant grid rotated by a single random
    offset (distinct discrete frequencies); phases are i.i.d. uniform.  The
    sum of sinusoids is one blocked matrix product (see the module
    docstring): block starts carry the phases, the shared in-block offsets
    carry the time steps, and the last block is cut short when ``n_samples``
    is not a multiple of the block length.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_sinusoids)
    idx = np.arange(1, n_sinusoids + 1)
    angles = (2.0 * math.pi * idx - math.pi + theta) / (4.0 * n_sinusoids)
    omegas = 2.0 * math.pi * f_doppler * np.cos(angles)
    block = math.isqrt(n_samples)
    n_blocks = -(-n_samples // block)
    starts = np.outer(np.arange(n_blocks) * (block * dt), omegas) + phases
    steps = np.outer(omegas, np.arange(block) * dt)
    left = np.hstack([np.cos(starts), -np.sin(starts)])
    right = np.vstack([np.cos(steps), np.sin(steps)])
    return (left @ right).ravel()[:n_samples] * math.sqrt(1.0 / n_sinusoids)


def generate_base_processes(cfg, sim):
    """Synthesize the 2(N+1) independent component processes for ``cfg``."""
    if not isinstance(cfg, FasConfig):
        raise ConfigError(f"expected FasConfig, got {type(cfg).__name__}")
    sim.validate_for(cfg)
    n_streams = cfg.n_ports + 1
    n = sim.n_samples
    dt = sim.dt
    x = np.empty((n_streams, n))
    y = np.empty((n_streams, n))
    for j in range(n_streams):
        rng_x = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(2 * j,)))
        rng_y = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(2 * j + 1,)))
        x[j] = _clarke_process(rng_x, n, dt, cfg.f_doppler, sim.n_sinusoids)
        y[j] = _clarke_process(rng_y, n, dt, cfg.f_doppler, sim.n_sinusoids)
    return BaseProcesses(x=x, y=y, dt=dt)


def assemble_port_envelopes(cfg, profile, base):
    """Combine the base processes into the N per-port envelope series."""
    _check_port_count(cfg, profile)
    if base.x.shape[0] != cfg.n_ports + 1:
        raise ConfigError(
            f"base processes carry {base.x.shape[0]} streams, expected {cfg.n_ports + 1}"
        )
    sigma = cfg.sigma
    env1 = sigma * np.hypot(base.x[0], base.y[0])
    out = [EnvelopeSeries(samples=env1, dt=base.dt)]
    for k in range(2, cfg.n_ports + 1):
        mu = profile.mu[k - 1]
        if abs(mu) >= IDENTICAL_CHANNEL_CUTOFF:
            out.append(EnvelopeSeries(samples=env1.copy(), dt=base.dt))
            continue
        root = math.sqrt(1.0 - mu * mu)
        re = root * base.x[k] + mu * base.x[0]
        im = root * base.y[k] + mu * base.y[0]
        out.append(EnvelopeSeries(samples=sigma * np.hypot(re, im), dt=base.dt))
    return out


def fas_select(envelopes):
    """Pointwise maximum over the port envelopes (ideal port selection).

    Exact ties keep the lowest port's sample, which is indistinguishable in
    the selected values; ties have probability zero in the continuous model.
    """
    envelopes = list(envelopes)
    if not envelopes:
        raise ConfigError("fas_select needs at least one port envelope")
    dt = envelopes[0].dt
    selected = envelopes[0].samples.copy()
    for e in envelopes[1:]:
        if e.dt != dt or e.samples.size != selected.size:
            raise ConfigError("port envelopes must share dt and length")
        np.maximum(selected, e.samples, out=selected)
    return EnvelopeSeries(samples=selected, dt=dt)


def count_crossings(series, x_th, f_doppler=None):
    """Count downward crossings of ``x_th`` and convert to a rate.

    A crossing is an index i with samples[i] >= x_th and samples[i+1] < x_th
    (a sample exactly at the threshold counts as above).  The rate divides by
    the series duration n*dt.
    """
    if not isinstance(series, EnvelopeSeries):
        raise ConfigError(f"expected EnvelopeSeries, got {type(series).__name__}")
    x_th = _validate_threshold(x_th)
    above = series.samples >= x_th
    crossings = int(np.count_nonzero(above[:-1] & ~above[1:]))
    duration = series.duration
    rate = crossings / duration
    nlcr = rate / f_doppler if f_doppler is not None else None
    return LcrEstimate(
        threshold=x_th, rate=rate, nlcr=nlcr,
        crossings=crossings, duration=duration,
    )


def estimate_lcr(cfg, sim, thresholds):
    """Full pipeline: generate, assemble, select, count at each threshold.

    Deterministic for a fixed (cfg, sim, thresholds): the whole run derives
    from the root seed.  Each stage's input is released as soon as the next
    stage has consumed it, so the component processes are gone before the
    selection runs.
    """
    profile = correlation_profile(cfg)
    base = generate_base_processes(cfg, sim)
    ports = assemble_port_envelopes(cfg, profile, base)
    del base
    selected = fas_select(ports)
    del ports
    return [count_crossings(selected, x, cfg.f_doppler) for x in thresholds]


def slope_moment_check(series):
    """One-sided slope moment of a single-port envelope.

    Averages the positive finite-difference slopes over all samples, which
    estimates the half-Gaussian moment sigma_slope/sqrt(2 pi) =
    sqrt(pi/2) sigma f_D for an isotropic-scattering Rayleigh envelope.
    """
    if not isinstance(series, EnvelopeSeries):
        raise ConfigError(f"expected EnvelopeSeries, got {type(series).__name__}")
    diffs = np.diff(series.samples) / series.dt
    return float(diffs[diffs > 0.0].sum() / diffs.size)


def merge_estimates(estimates, f_doppler=None):
    """Merge estimates of the same threshold from independent runs.

    Crossing counts and durations add; the merged rate is their quotient, so
    the merge is exactly order-independent.
    """
    estimates = list(estimates)
    if not estimates:
        raise ConfigError("merge_estimates needs at least one estimate")
    threshold = estimates[0].threshold
    if any(e.threshold != threshold for e in estimates):
        raise ConfigError("cannot merge estimates of different thresholds")
    crossings = sum(e.crossings for e in estimates)
    duration = math.fsum(e.duration for e in estimates)
    rate = crossings / duration
    nlcr = rate / f_doppler if f_doppler is not None else None
    return LcrEstimate(
        threshold=threshold, rate=rate, nlcr=nlcr,
        crossings=crossings, duration=duration,
    )
