"""Sweep engine and command-line interface.

Runs the analytic and Monte-Carlo crossing-rate methods over grids of
(threshold, port count, aperture), emits CSV rows, and gates MC against the
analytic curves.  Subcommands:

    analytic   evaluate one analytic method on a threshold grid
    simulate   Monte-Carlo estimate on a threshold grid
    sweep      full Cartesian grid -> CSV
    compare    MC vs analytic relative-error gate (nonzero exit on breach)

Exit codes: 0 success, 1 tolerance breach, 2 configuration error,
3 numerical/accuracy error.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .channel_model import FasConfig, correlation_profile
from .errors import AccuracyError, ConfigError, DomainError, FasLcrError, SingularityError
from .lcr_analytic import lcr_identical, lcr_iid, lcr_theorem1, lcr_two_port_series
from .mc_simulator import SimParams, estimate_lcr

__all__ = [
    "METHODS",
    "SweepSpec",
    "ResultRow",
    "MethodComparison",
    "db_to_linear",
    "linear_to_db",
    "run_sweep",
    "compare_methods",
    "emit_csv",
    "read_csv",
    "main",
]

METHODS = ("theorem1", "iid", "identical", "two_port_series", "monte_carlo")

CSV_HEADER = "n,w,threshold_linear,threshold_db,method,nlcr,raw_rate,mc_crossings,mc_duration"


def db_to_linear(db, sigma):
    """Threshold amplitude from a level in dB relative to the RMS envelope."""
    return sigma * 10.0 ** (db / 20.0)


def linear_to_db(x_th, sigma):
    return 20.0 * math.log10(x_th / sigma)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of evaluation points plus the methods to run on each."""

    thresholds: tuple
    n_list: tuple
    w_list: tuple
    methods: tuple
    sim: Optional[SimParams] = None

    def __post_init__(self):
        if not self.thresholds:
            raise ConfigError("thresholds grid must be nonempty")
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")
        if not self.w_list:
            raise ConfigError("w_list must be nonempty")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
        if "two_port_series" in self.methods and any(n != 2 for n in self.n_list):
            raise ConfigError("two_port_series requires every entry of n_list to be 2")
        if "monte_carlo" in self.methods and self.sim is None:
            raise ConfigError("monte_carlo requires sim parameters")
        for x in self.thresholds:
            if not (math.isfinite(x) and x > 0.0):
                raise ConfigError(f"thresholds must be finite and > 0, got {x!r}")
        for n in self.n_list:
            if not (isinstance(n, int) and n >= 1):
                raise ConfigError(f"n_list entries must be integers >= 1, got {n!r}")
        for w in self.w_list:
            if not (math.isfinite(w) and w >= 0.0):
                raise ConfigError(f"w_list entries must be finite and >= 0, got {w!r}")


@dataclass(frozen=True)
class ResultRow:
    """One (n, w, threshold, method) evaluation."""

    n: int
    w: float
    threshold_linear: float
    threshold_db: float
    method: str
    nlcr: float
    raw_rate: float
    mc_crossings: Optional[int] = None
    mc_duration: Optional[float] = None


def _evaluate_group(n, w, method, thresholds, base_cfg, sim):
    """All rows of one (n, w, method) group, in threshold order."""
    cfg = FasConfig(n_ports=n, aperture=w, sigma2=base_cfg.sigma2,
                    f_doppler=base_cfg.f_doppler)
    sigma = cfg.sigma
    fd = cfg.f_doppler
    rows = []
    if method == "monte_carlo":
        for est in estimate_lcr(cfg, sim, thresholds):
            rows.append(ResultRow(
                n=n, w=w, threshold_linear=est.threshold,
                threshold_db=linear_to_db(est.threshold, sigma),
                method=method, nlcr=est.nlcr, raw_rate=est.rate,
                mc_crossings=est.crossings, mc_duration=est.duration,
            ))
        return rows
    profile = correlation_profile(cfg) if method == "theorem1" else None
    mu2 = correlation_profile(cfg).mu[1] if method == "two_port_series" else None
    for x in thresholds:
        if method == "theorem1":
            rate = lcr_theorem1(cfg, profile, x)
        elif method == "iid":
            rate = lcr_iid(cfg, x)
        elif method == "identical":
            rate = lcr_identical(cfg, x)
        else:
            rate = lcr_two_port_series(cfg, mu2, x)
        rows.append(ResultRow(
            n=n, w=w, threshold_linear=x, threshold_db=linear_to_db(x, sigma),
            method=method, nlcr=rate / fd, raw_rate=rate,
        ))
    return rows


def run_sweep(spec, base_cfg):
    """Evaluate the full Cartesian grid of ``spec``.

    Rows come back sorted by (n, w, threshold, method); all grid points of
    one (n, w, method) group are computed together so MC reuses one channel
    realization across thresholds.
    """
    rows = [
        row
        for n in spec.n_list
        for w in spec.w_list
        for method in spec.methods
        for row in _evaluate_group(n, w, method, spec.thresholds, base_cfg, spec.sim)
    ]
    rows.sort(key=lambda r: (r.n, r.w, r.threshold_linear, METHODS.index(r.method)))
    return rows


@dataclass(frozen=True)
class MethodComparison:
    """Per-point relative errors of one method against a reference method."""

    reference_method: str
    test_method: str
    points: tuple          # (n, w, threshold, reference_nlcr, test_nlcr, rel_error)
    max_rel_error: float
    median_rel_error: float

    def exceeds(self, tolerance):
        return self.median_rel_error > tolerance


def compare_methods(rows, reference_method=None, test_method="monte_carlo",
                    min_nlcr=0.0):
    """Relative NLCR error of ``test_method`` against ``reference_method``.

    Pairs rows on (n, w, threshold); points whose reference NLCR does not
    exceed ``min_nlcr`` are ignored (relative error is meaningless in the
    deep tails).  Raises ConfigError when either method is missing or the
    two methods share no grid points.
    """
    methods_present = {r.method for r in rows}
    if reference_method is None:
        candidates = [m for m in METHODS if m != test_method and m in methods_present]
        if not candidates:
            raise ConfigError("rows contain no reference method to compare against")
        reference_method = candidates[0]
    if reference_method not in methods_present:
        raise ConfigError(f"rows contain no {reference_method!r} entries")
    if test_method not in methods_present:
        raise ConfigError(f"rows contain no {test_method!r} entries")
    ref = {
        (r.n, r.w, r.threshold_linear): r
        for r in rows if r.method == reference_method
    }
    points = []
    shared = 0
    for r in rows:
        if r.method != test_method:
            continue
        other = ref.get((r.n, r.w, r.threshold_linear))
        if other is None:
            continue
        shared += 1
        if other.nlcr <= min_nlcr:
            continue
        rel = abs(r.nlcr - other.nlcr) / other.nlcr
        points.append((r.n, r.w, r.threshold_linear, other.nlcr, r.nlcr, rel))
    if shared == 0:
        raise ConfigError(
            f"{reference_method!r} and {test_method!r} rows share no grid points"
        )
    errs = [p[5] for p in points]
    return MethodComparison(
        reference_method=reference_method,
        test_method=test_method,
        points=tuple(points),
        max_rel_error=max(errs) if errs else 0.0,
        median_rel_error=float(np.median(errs)) if errs else 0.0,
    )


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)           # shortest round-trip decimal
    return str(value)


def _with_file(target, mode, use):
    """``use(fh)`` on ``target`` if it is a file object, else on the file at
    that path opened in ``mode`` ("w" or "r"); an OSError names the path."""
    if hasattr(target, "write" if mode == "w" else "read"):
        return use(target)
    try:
        with open(target, mode, newline="") as fh:
            return use(fh)
    except OSError as exc:
        action = "write CSV to" if mode == "w" else "read CSV from"
        raise OSError(f"cannot {action} {target!r}: {exc}") from exc


def emit_csv(rows, destination):
    """Write rows as CSV with LF line endings.

    ``destination`` is a path or a text file object.  Optional fields are
    left blank.
    """
    def write(fh):
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_fmt(v) for v in (
                r.n, r.w, r.threshold_linear, r.threshold_db, r.method,
                r.nlcr, r.raw_rate, r.mc_crossings, r.mc_duration,
            )) + "\n")

    _with_file(destination, "w", write)


def read_csv(source):
    """Parse a CSV produced by ``emit_csv`` back into ResultRow objects."""
    def parse(fh):
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 9:
                raise ConfigError(f"malformed CSV line {line!r}")
            rows.append(ResultRow(
                n=int(parts[0]), w=float(parts[1]),
                threshold_linear=float(parts[2]), threshold_db=float(parts[3]),
                method=parts[4], nlcr=float(parts[5]), raw_rate=float(parts[6]),
                mc_crossings=int(parts[7]) if parts[7] else None,
                mc_duration=float(parts[8]) if parts[8] else None,
            ))
        return rows

    return _with_file(source, "r", parse)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_grid(text, kind=float):
    """Comma list ('0.5,1,2') or linspace spec ('lo:hi:count')."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid spec must be lo:hi:count, got {text!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError(f"grid count must be >= 1, got {count}")
        return tuple(kind(v) for v in np.linspace(lo, hi, count))
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from exc


def _load_config_file(path):
    """key = value lines; '#' starts a comment; keys mirror the CLI flags."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                for sep in ("=", ":"):
                    if sep in line:
                        key, _, val = line.partition(sep)
                        values[key.strip().replace("-", "_")] = val.strip()
                        break
                else:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return values


_CONFIG_KEYS = (
    "n", "w", "sigma2", "fd", "thresholds", "thresholds_db", "methods",
    "method", "seed", "duration_cycles", "sample_rate_mult", "out",
    "tolerance", "min_nlcr",
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="faslcr",
        description="Level crossing rate of an N-port fluid antenna system: "
                    "analytic evaluation and Monte-Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, methods_flag):
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--n", help="port counts, e.g. '2' or '2,3,4'")
        p.add_argument("--w", help="apertures in wavelengths, e.g. '0.1,0.3'")
        p.add_argument("--sigma2", help="channel power (default 1.0)")
        p.add_argument("--fd", help="maximum Doppler frequency in Hz (default 1.0)")
        p.add_argument("--thresholds", help="linear thresholds: '0.5,1' or 'lo:hi:count'")
        p.add_argument("--thresholds-db", dest="thresholds_db",
                       help="thresholds in dB relative to the RMS envelope")
        if methods_flag == "many":
            p.add_argument("--methods", help="comma list from: " + ", ".join(METHODS))
        elif methods_flag == "one":
            p.add_argument("--method", help="one of: " + ", ".join(m for m in METHODS if m != "monte_carlo"))
        p.add_argument("--seed", help="root seed for Monte-Carlo substreams (default 0)")
        p.add_argument("--duration-cycles", dest="duration_cycles",
                       help="simulated duration times f_D (default 1e4)")
        p.add_argument("--sample-rate-mult", dest="sample_rate_mult",
                       help="sample rate divided by f_D (default 64)")
        p.add_argument("--out", help="output CSV path ('-' for stdout, the default)")

    p = sub.add_parser("analytic", help="evaluate one analytic method on a grid")
    add_common(p, "one")

    p = sub.add_parser("simulate", help="Monte-Carlo estimate on a grid")
    add_common(p, None)

    p = sub.add_parser("sweep", help="full (n, w, threshold, method) grid to CSV")
    add_common(p, "many")

    p = sub.add_parser("compare", help="gate Monte-Carlo against an analytic method")
    add_common(p, "one")
    p.add_argument("--tolerance", help="median relative NLCR error allowed (default 0.05)")
    p.add_argument("--min-nlcr", dest="min_nlcr",
                   help="ignore points with analytic NLCR at or below this (default 0.05)")

    return parser


def _merged(args):
    """Apply config-file defaults wherever the flag was not given."""
    values = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    if args.config:
        for key, val in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if values.get(key) is None:
                values[key] = val
    return values


def _get(values, key, default=None, convert=str):
    raw = values.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return default
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for --{key.replace('_', '-')}: {raw!r} ({exc})") from exc


def _thresholds_from(values, sigma):
    linear = values.get("thresholds")
    in_db = values.get("thresholds_db")
    if linear is None and in_db is None:
        raise ConfigError("one of --thresholds or --thresholds-db is required")
    if linear is not None and in_db is not None:
        raise ConfigError("--thresholds and --thresholds-db are mutually exclusive")
    if linear is not None:
        return _parse_grid(linear)
    return tuple(db_to_linear(db, sigma) for db in _parse_grid(in_db))


def _run_command(args):
    values = _merged(args)
    sigma2 = _get(values, "sigma2", 1.0, float)
    fd = _get(values, "fd", 1.0, float)
    base_cfg = FasConfig(n_ports=1, aperture=0.0, sigma2=sigma2, f_doppler=fd)
    thresholds = _thresholds_from(values, base_cfg.sigma)
    n_list = _parse_grid(_get(values, "n", "2"), kind=lambda v: int(float(v)))
    w_list = _parse_grid(_get(values, "w", "0.1"))
    out = _get(values, "out", "-")

    if args.command == "sweep":
        methods = tuple(_get(values, "methods", "theorem1").split(","))
    elif args.command == "simulate":
        methods = ("monte_carlo",)
    else:
        methods = (_get(values, "method", "theorem1"),)
        if args.command == "compare":
            methods += ("monte_carlo",)
    sim = None
    # analytic never simulates: SweepSpec refuses its monte_carlo for want of sim
    if args.command != "analytic" and "monte_carlo" in methods:
        sim = SimParams.from_cycles(
            base_cfg,
            duration_cycles=_get(values, "duration_cycles", 1e4, float),
            rate_multiplier=_get(values, "sample_rate_mult", 64.0, float),
            seed=_get(values, "seed", 0, int),
        )
    spec = SweepSpec(thresholds=thresholds, n_list=n_list, w_list=w_list,
                     methods=methods, sim=sim)
    rows = run_sweep(spec, base_cfg)

    summary = None
    if args.command == "compare":
        tolerance = _get(values, "tolerance", 0.05, float)
        min_nlcr = _get(values, "min_nlcr", 0.05, float)
        summary = compare_methods(rows, reference_method=spec.methods[0],
                                  min_nlcr=min_nlcr)
        print(f"compared {len(summary.points)} points "
              f"({summary.test_method} vs {summary.reference_method}, "
              f"reference nlcr > {min_nlcr:g})")
        print(f"median relative error: {summary.median_rel_error:.4%}")
        print(f"max relative error:    {summary.max_rel_error:.4%}")
    # compare prints its summary on stdout, so it writes rows only to a file
    if summary is None or out != "-":
        emit_csv(rows, sys.stdout if out == "-" else out)
    if summary is None:
        return 0
    if out != "-":
        print(f"rows written to {out}")
    if summary.exceeds(tolerance):
        print(f"FAIL: median error exceeds tolerance {tolerance:.4%}")
        return 1
    print(f"PASS: median error within tolerance {tolerance:.4%}")
    return 0


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, SingularityError, DomainError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FasLcrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
