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
import re
import sys
from dataclasses import dataclass, fields
from typing import Optional, get_args

import numpy as np

from .channel_model import FasConfig, _validate_threshold, correlation_profile
from .errors import AccuracyError, ConfigError, DomainError, FasLcrError, SingularityError
from .errors import _is_finite_number, _is_whole_number
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
        for name, value in (("thresholds grid", self.thresholds), ("n_list", self.n_list),
                            ("w_list", self.w_list), ("methods", self.methods)):
            if not value:
                raise ConfigError(f"{name} must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods must not repeat, got {', '.join(self.methods)}")
        if "two_port_series" in self.methods and any(n != 2 for n in self.n_list):
            raise ConfigError("two_port_series requires every entry of n_list to be 2")
        if "monte_carlo" in self.methods and self.sim is None:
            raise ConfigError("monte_carlo requires sim parameters")
        for x in self.thresholds:
            try:
                _validate_threshold(x)
            except DomainError as exc:
                raise ConfigError(f"thresholds grid: {exc}") from exc
        for n in self.n_list:
            if not (_is_whole_number(n) and n >= 1):
                raise ConfigError(f"n_list entries must be integers >= 1, got {n!r}")
        for w in self.w_list:
            if not (_is_finite_number(w) and w >= 0.0):
                raise ConfigError(f"w_list entries must be finite and >= 0, got {w!r}")


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One (n, w, threshold, method) evaluation.

    Slotted: a long sweep holds many rows, and a row without a per-instance
    ``__dict__`` is about a third smaller (104 against 152 bytes on CPython
    3.11).
    """

    n: int
    w: float
    threshold_linear: float
    threshold_db: float
    method: str
    nlcr: float
    raw_rate: float
    mc_crossings: Optional[int] = None
    mc_duration: Optional[float] = None


# The fields of ResultRow, in order, are the CSV columns.
CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def _analytic_points(cfg, method, thresholds):
    """(threshold, rate, None, None) of one analytic method at each threshold of ``cfg``."""
    # looked up at call time, so a patched module attribute is the one called
    profile = correlation_profile(cfg) if method in ("theorem1", "two_port_series") else None
    rate_at = {
        "theorem1": lambda x: lcr_theorem1(cfg, profile, x),
        "iid": lambda x: lcr_iid(cfg, x),
        "identical": lambda x: lcr_identical(cfg, x),
        "two_port_series": lambda x: lcr_two_port_series(cfg, profile.mu[1], x),
    }[method]
    return [(x, rate_at(x), None, None) for x in thresholds]


def run_sweep(spec, base_cfg):
    """Evaluate the full Cartesian grid of ``spec``.

    Rows come back sorted by (n, w, threshold, method).  The analytic
    methods are evaluated one (n, w, method) group at a time.  Monte-Carlo
    makes one ``estimate_lcr`` walk over every (n, w) of the grid, so all
    its rows, across thresholds, port counts and apertures, share one
    channel realization, and each chunk of it is synthesized once.
    """
    cfgs = [FasConfig(n_ports=n, aperture=w, sigma2=base_cfg.sigma2,
                      f_doppler=base_cfg.f_doppler)
            for n in spec.n_list for w in spec.w_list]
    rows = []
    for method in spec.methods:
        if method == "monte_carlo":
            # looked up at call time, so a patched module attribute is the one called
            groups = [[(e.threshold, e.rate, e.crossings, e.duration) for e in estimates]
                      for estimates in estimate_lcr(cfgs, spec.sim, spec.thresholds)]
        else:
            groups = [_analytic_points(cfg, method, spec.thresholds) for cfg in cfgs]
        rows += [
            ResultRow(n=cfg.n_ports, w=cfg.aperture, threshold_linear=x,
                      threshold_db=linear_to_db(x, cfg.sigma), method=method,
                      nlcr=rate / cfg.f_doppler, raw_rate=rate,
                      mc_crossings=crossings, mc_duration=duration)
            for cfg, points in zip(cfgs, groups) for x, rate, crossings, duration in points
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
    deep tails).  Raises ConfigError when the two methods are the same, when
    either is missing, or when they share no grid points.
    """
    if reference_method == test_method:
        raise ConfigError(f"cannot compare {test_method!r} with itself")
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
    ref = {(r.n, r.w, r.threshold_linear): r.nlcr for r in rows if r.method == reference_method}
    pairs = [(r, ref[key]) for r in rows
             if r.method == test_method and (key := (r.n, r.w, r.threshold_linear)) in ref]
    if not pairs:
        raise ConfigError(
            f"{reference_method!r} and {test_method!r} rows share no grid points"
        )
    points = tuple((r.n, r.w, r.threshold_linear, ref_nlcr, r.nlcr,
                    abs(r.nlcr - ref_nlcr) / ref_nlcr)
                   for r, ref_nlcr in pairs if ref_nlcr > min_nlcr)
    errs = [p[5] for p in points]
    return MethodComparison(
        reference_method=reference_method,
        test_method=test_method,
        points=points,
        max_rel_error=max(errs, default=0.0),
        median_rel_error=float(np.median(errs)) if errs else 0.0,
    )


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(value):
    return "" if value is None else str(value)   # a float's str is its shortest round trip


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
    columns = fields(ResultRow)

    def write(fh):
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c.name)) for c in columns) + "\n")

    _with_file(destination, "w", write)


def _parse_cell(column, text):
    """``text`` as the type of ``column``; a blank optional cell is None."""
    if column.default is None and not text:
        return None
    return (get_args(column.type) or (column.type,))[0](text)


def read_csv(source):
    """Parse a CSV produced by ``emit_csv`` back into ResultRow objects."""
    columns = fields(ResultRow)

    def parse(fh):
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ConfigError(f"malformed CSV line {line!r}")
            try:
                rows.append(ResultRow(*map(_parse_cell, columns, cells)))
            except ValueError as exc:
                raise ConfigError(f"malformed CSV line {line!r}: {exc}") from exc
        return rows

    return _with_file(source, "r", parse)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_grid(text, kind=float):
    """Comma list ('0.5,1,2') or linspace spec ('lo:hi:count')."""
    text = text.strip()
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"grid spec must be lo:hi:count, got {text!r}")
    try:
        if len(parts) == 1:
            return tuple(kind(v) for v in text.split(","))
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError(f"grid count must be >= 1, got {count}")
        return tuple(kind(v) for v in np.linspace(lo, hi, count))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from exc


def _whole_number(value):
    """``value`` (text or float) as an int; a fraction or an infinity is a ValueError."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(number)


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


_COMMANDS = {
    "analytic": "evaluate one analytic method on a grid",
    "simulate": "Monte-Carlo estimate on a grid",
    "sweep": "full (n, w, threshold, method) grid to CSV",
    "compare": "gate Monte-Carlo against an analytic method",
}


# name: (convert, default, subcommands, help), in --help order.  The flag is
# --<name> with '-' for '_' and the config-file key is <name>; a None default
# gives no value, and None subcommands means every one.
_OPTIONS = {
    "n": (lambda text: _parse_grid(text, _whole_number), (2,), None,
          "port counts, e.g. '2' or '2,3,4'"),
    "w": (_parse_grid, (0.1,), None, "apertures in wavelengths, e.g. '0.1,0.3'"),
    "sigma2": (float, 1.0, None, "channel power (default 1.0)"),
    "fd": (float, 1.0, None, "maximum Doppler frequency in Hz (default 1.0)"),
    "thresholds": (_parse_grid, None, None, "linear thresholds: '0.5,1' or 'lo:hi:count'"),
    "thresholds_db": (_parse_grid, None, None, "thresholds in dB relative to the RMS envelope"),
    "methods": (lambda text: tuple(text.split(",")), ("theorem1",), ("sweep",),
                "comma list from: " + ", ".join(METHODS)),
    "method": (str, "theorem1", ("analytic", "compare"),
               "one of: " + ", ".join(m for m in METHODS if m != "monte_carlo")),
    "seed": (int, 0, None, "root seed for Monte-Carlo substreams (default 0)"),
    "duration_cycles": (float, 1e4, None, "simulated duration times f_D (default 1e4)"),
    "sample_rate_mult": (float, 64.0, None, "sample rate divided by f_D (default 64)"),
    "out": (str, "-", None, "output CSV path ('-' for stdout, the default)"),
    "tolerance": (float, 0.05, ("compare",), "median relative NLCR error allowed (default 0.05)"),
    "min_nlcr": (float, 0.05, ("compare",),
                 "ignore points with analytic NLCR at or below this (default 0.05)"),
}


def _flag(name):
    return "--" + name.replace("_", "-")


class _SubcommandParser(argparse.ArgumentParser):
    """argparse takes '-10' as a flag's value but reads '-10,0,5' or
    '-10:0:3' as an unknown flag.  No faslcr flag starts with a digit, so in
    a subcommand every token that starts with '-' and a number is a value: a
    grid that starts with a negative level."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="faslcr",
        description="Level crossing rate of an N-port fluid antenna system: "
                    "analytic evaluation and Monte-Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for command, summary in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key = value config file; flags override it")
        for name, (_, _, commands, help_text) in _OPTIONS.items():
            if commands is None or command in commands:
                p.add_argument(_flag(name), help=help_text)
    return parser


def _options(args):
    """Every option's value: its flag, else its --config entry, else its default."""
    given = {name: getattr(args, name, None) for name in _OPTIONS}
    if args.config:
        for key, text in _load_config_file(args.config).items():
            if key not in _OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            if given[key] is None:
                given[key] = text
    values = {}
    for name, (convert, default, _, _) in _OPTIONS.items():
        text = given[name]
        try:
            values[name] = default if text is None else convert(text)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {_flag(name)}: {text!r} ({exc})") from exc
    return values


def _run_command(args):
    values = _options(args)
    base_cfg = FasConfig(n_ports=1, aperture=0.0, sigma2=values["sigma2"],
                         f_doppler=values["fd"])
    linear, in_db = values["thresholds"], values["thresholds_db"]
    if linear is None and in_db is None:
        raise ConfigError("one of --thresholds or --thresholds-db is required")
    if linear is not None and in_db is not None:
        raise ConfigError("--thresholds and --thresholds-db are mutually exclusive")
    thresholds = linear or tuple(db_to_linear(db, base_cfg.sigma) for db in in_db)
    methods = {
        "analytic": (values["method"],),
        "simulate": ("monte_carlo",),
        "sweep": values["methods"],
        "compare": (values["method"], "monte_carlo"),
    }[args.command]
    sim = None
    # analytic never simulates: SweepSpec refuses its monte_carlo for want of sim
    if args.command != "analytic" and "monte_carlo" in methods:
        sim = SimParams.from_cycles(base_cfg, duration_cycles=values["duration_cycles"],
                                    rate_multiplier=values["sample_rate_mult"],
                                    seed=values["seed"])
    spec = SweepSpec(thresholds=thresholds, n_list=values["n"], w_list=values["w"],
                     methods=methods, sim=sim)
    rows = run_sweep(spec, base_cfg)

    out = values["out"]
    if args.command != "compare":
        emit_csv(rows, sys.stdout if out == "-" else out)
        return 0
    tolerance, min_nlcr = values["tolerance"], values["min_nlcr"]
    summary = compare_methods(rows, reference_method=spec.methods[0], min_nlcr=min_nlcr)
    print(f"compared {len(summary.points)} points "
          f"({summary.test_method} vs {summary.reference_method}, "
          f"reference nlcr > {min_nlcr:g})")
    print(f"median relative error: {summary.median_rel_error:.4%}")
    print(f"max relative error:    {summary.max_rel_error:.4%}")
    # compare prints its summary on stdout, so it writes rows only to a file
    if out != "-":
        emit_csv(rows, out)
        print(f"rows written to {out}")
    if not summary.points:
        print(f"FAIL: no point has a reference nlcr above {min_nlcr:g}")
        return 1
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
    except (FasLcrError, OSError) as exc:   # OSError: --out cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry():
    raise SystemExit(main())
