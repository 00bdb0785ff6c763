"""Monte-Carlo synthesis of the selected envelope and empirical crossing rates.

The channel at each port is built from 2N independent real Gaussian
processes with variance 1/2 and a Jakes/Clarke Doppler spectrum (isotropic
scattering): x_0, y_0 for the reference port and x_k, y_k for ports
k = 2..N, combined per port as

    h_1 = sigma (x_0 + j y_0)
    h_k = sigma (sqrt(1-mu_k^2) x_k + mu_k x_0) + j sigma (...y_k, y_0...)

so the complex correlation between port k and port 1 equals mu_k by
construction.  Each Gaussian process is a sum of ``n_sinusoids`` equal-power
sinusoids whose arrival angles are a randomly rotated uniform grid on the
first quadrant: all discrete Doppler frequencies are distinct, and the
time-averaged autocorrelation of a single realization reproduces
J0(2 pi f_D tau) to quadrature accuracy rather than merely in ensemble mean.

The sum is evaluated as a blocked real matrix product.  The time axis is cut
into blocks of B = isqrt(n) samples starting at s_b = b B dt, and

    cos(w_m (s_b + k dt) + phi_m) = cos(A_bm) cos(w_m k dt) - sin(A_bm) sin(w_m k dt)

with A_bm = w_m s_b + phi_m, so block b is row b of
[cos A, sin A] @ [cos(w k dt); -sin(w k dt)], an (n/B x 2M) @ (2M x B)
product whose rows are laid end to end and cut to n samples.  Neither factor
takes a cosine per element: both are tables exp(i w k step) built by
two-level angle addition.  With k = q g + r and g = isqrt(count),

    exp(i w k step) = exp(i w q g step) exp(i w r step),

so a fine table of g rows and the coarse rows q in use are joined by one
complex multiply per element.  That takes about 4M(sqrt(B) + sqrt(n/B))
cosines and sines, as complex exponentials, plus 2M n multiply-adds, where
the direct sum takes M n cosines, and it agrees with the direct sum to
rounding (about 1e-11 at 640k samples).  The 2N processes are held as one
stacked bank of their (2M x B) right factors (steps of dt, k < B) and the
fine tables of their left factors (steps of B dt, with phi_m folded in); any
range of block rows is evaluated from it on demand.  The left factors of all
2N processes are built per range in one batch, from the coarse rows that
range touches, and multiplied by the right factors in one stacked product.
A row depends only on its block index, so for a fixed BLAS build and thread
count a streamed run synthesizes the same bits as the whole series.  (The
rounding of a product can change with the BLAS thread count: rows made with
one OpenBLAS thread and with two have differed in the last bits, though no
crossing count has.)

``estimate_lcr`` streams, and it walks any number of configs that share
``sim`` and f_D in one pass.  Port k reads streams 2k and 2k+1 whatever N
is, so the processes of a smaller port count are the leading rows of those
of a larger one.  The walk takes the block rows in chunks of about
_CHUNK_SAMPLES samples.  Per chunk it synthesizes the largest N's 2N rows
once, into one buffer allocated for the whole run, and every config selects
and counts from its leading rows.  Selection is fused: a running maximum of
the port powers p_k = re_k^2 + im_k^2, then one sqrt and one scale by sigma
per sample.  fl(sqrt) and multiplication by sigma > 0 are monotone, so this
is bit-equal to selecting among the port envelopes.  Counting ranks each
sample against all the sorted thresholds at once; a step down from rank h
to rank h' crosses exactly the thresholds of rank h' .. h - 1.  The last
selected sample of each chunk is prepended to the next chunk, so the step
across a chunk boundary is an ordinary step.  Memory is set by the chunk
and the right factors, not by the duration or the number of configs, and
the counts equal those of the whole series.

Seeding expands a 64-bit root seed into one substream per process via
counter-keyed seed sequences: stream 2j drives x_j and stream 2j+1 drives
y_j, so enlarging the port count appends streams without perturbing
existing ones.  Streams 2 and 3 (x_1, y_1) are reserved and never drawn;
port 1 is the reference itself.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel_model import IDENTICAL_CHANNEL_CUTOFF, _check_config, _check_port_count
from .channel_model import _validate_threshold, correlation_profile
from .errors import ConfigError, _is_finite_number, _is_whole_number

# Samples per streamed chunk of estimate_lcr (whole blocks, so about this).
_CHUNK_SAMPLES = 1 << 16

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
        if not (_is_finite_number(self.sample_rate) and self.sample_rate > 0.0):
            raise ConfigError(f"sample_rate must be a finite number > 0, got {self.sample_rate!r}")
        if not (_is_finite_number(self.duration) and self.duration > 0.0):
            raise ConfigError(f"duration must be a finite number > 0, got {self.duration!r}")
        if not (_is_whole_number(self.n_sinusoids) and self.n_sinusoids >= 8):
            raise ConfigError(f"n_sinusoids must be an integer >= 8, got {self.n_sinusoids!r}")
        if not (_is_whole_number(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @classmethod
    def from_cycles(cls, cfg, duration_cycles=1e4, rate_multiplier=64.0,
                    n_sinusoids=64, seed=0):
        """Build parameters from Doppler-normalized quantities.

        duration_cycles  -- duration * f_D (number of fading cycles)
        rate_multiplier  -- sample_rate / f_D
        """
        _check_config(cfg)
        return cls(
            sample_rate=rate_multiplier * cfg.f_doppler,
            duration=duration_cycles / cfg.f_doppler,
            n_sinusoids=n_sinusoids,
            seed=seed,
        )

    def validate_for(self, cfg):
        """Check that ``cfg`` is a FasConfig, and the Doppler-relative invariants against it."""
        _check_config(cfg)
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
    """The 2N Gaussian component processes the ports read.

    Row 0 of ``x`` and ``y`` is the reference port's (x_0, y_0); row k-1 is
    port k's own (x_k, y_k), k = 2..N.
    """

    x: np.ndarray
    y: np.ndarray
    dt: float

    def __post_init__(self):
        if self.x.shape != self.y.shape or self.x.ndim != 2:
            raise ConfigError("x and y must be matching 2-D arrays of shape (N, n)")
        if not (_is_finite_number(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be finite and > 0, got {self.dt!r}")


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
        if not (_is_finite_number(self.dt) and self.dt > 0.0):
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


def _estimate(threshold, crossings, duration, f_doppler):
    """The LcrEstimate of ``crossings`` in ``duration``; nlcr is None without f_doppler."""
    if f_doppler is not None and not (_is_finite_number(f_doppler) and f_doppler > 0.0):
        raise ConfigError(f"f_doppler must be None or a finite number > 0, got {f_doppler!r}")
    rate = crossings / duration
    nlcr = rate / f_doppler if f_doppler is not None else None
    return LcrEstimate(threshold=threshold, rate=rate, nlcr=nlcr,
                       crossings=crossings, duration=duration)


def _block_layout(n_samples):
    """(B, number of blocks): blocks of B = isqrt(n) samples, the last one ragged."""
    block = math.isqrt(n_samples)
    return block, -(-n_samples // block)


def _angle_rows(omegas, step, fine, first, stop):
    """Rows k = first..stop-1 of exp(i (w k step + phi)), by two-level angle addition.

    ``fine`` is the (g x M) table exp(i (w r step + phi)), r < g, of each
    process; leading axes of ``omegas`` (..., M) and ``fine`` (..., g, M)
    batch processes.  With k = q g + r, row k is exp(i w q g step) * fine[r]:
    only the coarse rows q that the range touches are evaluated, and each
    row depends on k alone, not on ``first`` and ``stop``.
    """
    g = fine.shape[-2]
    q0 = first // g
    coarse_steps = np.arange(q0, (stop - 1) // g + 1) * (g * step)
    coarse = np.exp(1j * (coarse_steps[:, None] * omegas[..., None, :]))
    rows = coarse[..., :, None, :] * fine[..., None, :, :]
    rows = rows.reshape(*rows.shape[:-3], -1, rows.shape[-1])
    return rows[..., first - q0 * g:stop - q0 * g, :]


@dataclass(frozen=True, eq=False)
class _ProcessBank:
    """The 2N blocked Clarke sums of one run, stacked in stream order.

    Row p of each array belongs to process p (see the module docstring):
    ``omegas`` (2N x M) holds its Doppler frequencies, ``fine`` (2N x g x M)
    the table exp(i (w r B dt + phi)), r < g = isqrt(blocks), from which
    ``_angle_rows`` builds the left factors, and ``right`` (2N x 2M x B) the
    factor whose rows 2m and 2m+1 are cos(w_m k dt) and -sin(w_m k dt),
    scaled by 1/sqrt(M).  ``block_dt`` is the time B dt between block starts.
    """

    omegas: np.ndarray
    block_dt: float
    fine: np.ndarray
    right: np.ndarray


def _component_processes(cfg, sim):
    """The bank of 2N processes with variance 1/2 and Clarke Doppler spectrum.

    Streams come in the order x_0, y_0, x_2, y_2, ..., x_N, y_N; each draws
    a rotation theta and then its phases from its own seed sequence.  The
    arrival angles are a uniform quadrant grid rotated by theta (distinct
    discrete frequencies); the phases are i.i.d. uniform.  The blocks are
    B = isqrt(n_samples) samples long, so the last block row runs past
    ``n_samples`` unless B divides it; callers cut it.
    """
    m = sim.n_sinusoids
    rngs = [np.random.default_rng(np.random.SeedSequence(sim.seed, spawn_key=(2 * j + part,)))
            for j in (0, *range(2, cfg.n_ports + 1)) for part in (0, 1)]
    theta = np.array([[rng.uniform(0.0, 2.0 * math.pi)] for rng in rngs])
    phases = np.array([[rng.uniform(0.0, 2.0 * math.pi, m)] for rng in rngs])
    angles = (2.0 * math.pi * np.arange(1, m + 1) - math.pi + theta) / (4.0 * m)
    omegas = 2.0 * math.pi * cfg.f_doppler * np.cos(angles)

    def fine(step, count, phase=0.0):
        steps = np.arange(math.isqrt(count)) * step
        return np.exp(1j * (steps[:, None] * omegas[:, None, :] + phase))

    block, n_blocks = _block_layout(sim.n_samples)
    # Steps of -dt give exp(-i w k dt), whose float view interleaves cos and
    # -sin.  The factors are filled one at a time, as a complex copy of all
    # of them at once would double the bank's peak memory; they are stored
    # (2M x B) contiguous, as gemm on a transposed view rounds differently.
    right_fine = fine(-sim.dt, block)
    right = np.empty((len(rngs), 2 * m, block))
    for p in range(len(rngs)):
        right[p] = _angle_rows(omegas[p], -sim.dt, right_fine[p], 0, block).view(np.float64).T
    right *= math.sqrt(1.0 / m)
    return _ProcessBank(omegas, block * sim.dt, fine(block * sim.dt, n_blocks, phases), right)


def _synthesize(bank, sim, first, stop, out=None):
    """Block rows ``first`` to ``stop`` - 1 of every process, cut to ``sim.n_samples``.

    The bank's rows alternate x and y, as ``_component_processes`` stacks
    them.  The left factors are built in one batch, as the complex rows
    exp(i A) whose float view interleaves cos A and sin A, and multiplied by
    the right factors in one stacked product.  At least two rows are
    multiplied: numpy hands a single row to BLAS's gemv, whose rounding
    differs from gemm's, and every row must come out the same whichever
    range it is synthesized in.  The product is written into the leading
    elements of the flat float64 buffer ``out`` when one is given, so that
    each process's samples stay contiguous, and into a new array otherwise.
    """
    block, _ = _block_layout(sim.n_samples)
    n_rows = max(stop - first, 2)
    left = _angle_rows(bank.omegas, bank.block_dt, bank.fine, first, first + n_rows)
    shape = (len(bank.right), n_rows, block)
    if out is not None:
        out = out[:math.prod(shape)].reshape(shape)
    out = np.matmul(left.view(np.float64), bank.right, out=out).reshape(len(bank.right), -1)
    size = min(stop * block, sim.n_samples) - first * block
    return BaseProcesses(x=out[0::2, :size], y=out[1::2, :size], dt=sim.dt)


def generate_base_processes(cfg, sim):
    """Synthesize the 2N independent component processes for ``cfg``, whole."""
    sim.validate_for(cfg)
    _, n_blocks = _block_layout(sim.n_samples)
    return _synthesize(_component_processes(cfg, sim), sim, 0, n_blocks)


def _port_power(x, y, k, mu, out, scratch):
    """Power re^2 + im^2 of the port that reads row ``k``, written into ``out``.

    ``x`` and ``y`` hold component rows as ``BaseProcesses`` does: row 0 is
    the reference port's, and the port of row k > 0 has the components
    re = sqrt(1 - mu^2) x[k] + mu x[0] and im likewise from ``y``.
    ``scratch`` is a pair of buffers of the length of ``out``.  The
    components are of order 1 (at most sqrt(M) in size), so the squares
    cannot overflow, and they underflow only below a magnitude of about
    1e-154, which no sampled fade reaches in practice: ``np.hypot``'s
    rescaling has nothing to guard here and would only cost time.
    """
    im, tmp = scratch
    if k == 0:
        np.multiply(x[0], x[0], out=out)
        np.multiply(y[0], y[0], out=im)
    else:
        root = math.sqrt(1.0 - mu * mu)
        for rows, part in ((x, out), (y, im)):
            np.multiply(rows[k], root, out=part)
            np.multiply(rows[0], mu, out=tmp)
            part += tmp
        out *= out
        im *= im
    out += im
    return out


def _select(base, sigma, mu, out, scratch):
    """The selected envelope of a port profile ``mu``, written into ``out``.

    It is sigma sqrt(max_k p_k) over the port powers p_k of ``_port_power``,
    read from the leading len(mu) rows of ``base``.  fl(sqrt) and the product
    with sigma > 0 are monotone, so this equals
    ``fas_select(assemble_port_envelopes(...)).samples`` bit for bit, with
    one sqrt and one scale per sample in place of one per port.  Ports at the
    identical-channel cutoff repeat the reference port and are skipped.
    ``scratch`` holds three buffers of the length of ``out``.
    """
    power, pair = scratch[0], scratch[1:]
    _port_power(base.x, base.y, 0, 0.0, out, pair)
    for k in range(1, len(mu)):
        if abs(mu[k]) < IDENTICAL_CHANNEL_CUTOFF:
            np.maximum(out, _port_power(base.x, base.y, k, mu[k], power, pair), out=out)
    np.sqrt(out, out=out)
    out *= sigma
    return out


def assemble_port_envelopes(cfg, profile, base):
    """Combine the base processes into the N per-port envelope series.

    Port k's envelope is sigma sqrt(p_k) of its power p_k = re^2 + im^2
    (``_port_power``).  A port at the identical-channel cutoff is a copy of
    the reference port's envelope.
    """
    _check_port_count(cfg, profile)
    if base.x.shape[0] != cfg.n_ports:
        raise ConfigError(
            f"base processes carry {base.x.shape[0]} streams, expected {cfg.n_ports}"
        )
    n = base.x.shape[1]
    scratch = (np.empty(n), np.empty(n))
    out = []
    for k, mu in enumerate(profile.mu):
        if k and abs(mu) >= IDENTICAL_CHANNEL_CUTOFF:
            samples = out[0].samples.copy()
        else:
            samples = _port_power(base.x, base.y, k, mu, np.empty(n), scratch)
            np.sqrt(samples, out=samples)
            samples *= cfg.sigma
        out.append(EnvelopeSeries(samples=samples, dt=base.dt))
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


def _down_crossings(samples, ascending, rank, mask):
    """Downward crossings of each of the ``ascending`` thresholds in ``samples``.

    A crossing of t is an index i with samples[i] >= t > samples[i+1].  Each
    sample's rank h_i = #{j : samples[i] >= t_j} is accumulated in ``rank``,
    whose integer dtype must hold len(ascending), by one compare-and-add per
    threshold (``mask`` is a bool buffer).  A step down from h_i to h_(i+1)
    crosses exactly the thresholds of rank h_(i+1) .. h_i - 1, so two
    bincounts of the down steps and a cumsum give every count.  Equal
    thresholds each get the count.  The buffers are at least as long as
    ``samples``; the counts come back as an int64 array.
    """
    n = samples.size
    rank, mask = rank[:n], mask[:n]
    rank.fill(0)
    for t in ascending:
        np.greater_equal(samples, t, out=mask)
        np.add(rank, mask.view(np.uint8), out=rank)
    before, after = rank[:-1], rank[1:]
    down = np.flatnonzero(after < before)
    bins = len(ascending) + 1
    steps = np.bincount(after[down], minlength=bins) - np.bincount(before[down], minlength=bins)
    return np.cumsum(steps[:-1])


def count_crossings(series, x_th, f_doppler=None):
    """Count downward crossings of ``x_th`` and convert to a rate.

    A crossing is an index i with samples[i] >= x_th and samples[i+1] < x_th
    (a sample exactly at the threshold counts as above).  The rate divides by
    the series duration n*dt.
    """
    if not isinstance(series, EnvelopeSeries):
        raise ConfigError(f"expected EnvelopeSeries, got {type(series).__name__}")
    x_th = _validate_threshold(x_th)
    n = series.samples.size
    crossings = int(_down_crossings(series.samples, (x_th,), np.empty(n, np.uint8),
                                    np.empty(n, bool))[0])
    return _estimate(x_th, crossings, series.duration, f_doppler)


def estimate_lcr(cfg, sim, thresholds):
    """Full pipeline: synthesize, select and count at each threshold.

    ``cfg`` is a FasConfig, for which the estimates come back as a list in
    threshold order, or a list or tuple of FasConfigs that share
    ``f_doppler``, for which one such list comes back per config.  All the
    configs are walked over one channel realization, streamed in chunks as
    the module docstring describes, and each config's counts are those of a
    run on it alone and of the whole series.

    Deterministic for a fixed (cfg, sim, thresholds), BLAS build and BLAS
    thread count: the whole run derives from the root seed.  The thresholds,
    the configs and ``sim`` are validated before any synthesis, and an empty
    threshold list gives empty estimates unsynthesized.
    """
    several = isinstance(cfg, (list, tuple))
    cfgs = list(cfg) if several else [cfg]
    thresholds = [_validate_threshold(x) for x in thresholds]
    if not cfgs:
        raise ConfigError("estimate_lcr needs at least one config")
    for c in cfgs:
        sim.validate_for(c)
    if len({c.f_doppler for c in cfgs}) > 1:
        raise ConfigError("the configs of one walk must share f_doppler")
    crossings = np.zeros((len(cfgs), len(thresholds)), np.int64)
    if thresholds:
        profiles = [correlation_profile(c) for c in cfgs]
        bank = _component_processes(max(cfgs, key=lambda c: c.n_ports), sim)
        block, n_blocks = _block_layout(sim.n_samples)
        chunk_blocks = max(2, _CHUNK_SAMPLES // block)
        n_chunks = -(-n_blocks // chunk_blocks)
        # An even split leaves the last chunk, which ends on the ragged block, at
        # least two blocks long, so no chunk is a lone sample.
        bounds = [n_blocks * i // n_chunks for i in range(n_chunks + 1)]
        rows = max(2, *(stop - first for first, stop in zip(bounds, bounds[1:])))
        synthesis = np.empty(len(bank.right) * rows * block)
        # Slot 0 of ``selected`` holds the previous chunk's last selected sample.
        selected = np.empty(rows * block + 1)
        scratch = [np.empty(rows * block) for _ in range(3)]
        rank = np.empty(selected.size, np.min_scalar_type(len(thresholds)))
        mask = np.empty(selected.size, bool)
        order = np.argsort(thresholds, kind="stable")
        ascending = np.asarray(thresholds)[order]
        carried = np.empty(len(cfgs))
        for first, stop in zip(bounds, bounds[1:]):
            base = _synthesize(bank, sim, first, stop, synthesis)
            size = base.x.shape[1]
            head = 1 if first == 0 else 0
            for i, (c, profile) in enumerate(zip(cfgs, profiles)):
                _select(base, c.sigma, profile.mu, selected[1:size + 1],
                        [b[:size] for b in scratch])
                selected[0] = carried[i]
                crossings[i, order] += _down_crossings(selected[head:size + 1], ascending,
                                                       rank, mask)
                carried[i] = selected[size]
    duration = sim.n_samples * sim.dt
    estimates = [[_estimate(x, int(n), duration, c.f_doppler) for x, n in zip(thresholds, row)]
                 for c, row in zip(cfgs, crossings)]
    return estimates if several else estimates[0]


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
    return _estimate(threshold, crossings, duration, f_doppler)
