"""Sweep engine, CSV round-trips, comparison gate, and CLI exit codes."""

import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faslcr
from faslcr import harness
from faslcr.channel_model import FasConfig
from faslcr.errors import ConfigError
from faslcr.harness import (
    METHODS,
    MethodComparison,
    ResultRow,
    SweepSpec,
    compare_methods,
    db_to_linear,
    emit_csv,
    linear_to_db,
    main,
    read_csv,
    run_sweep,
)
from faslcr.mc_simulator import SimParams

BASE = FasConfig(n_ports=1, aperture=0.0, sigma2=1.0, f_doppler=1.0)

# emit_csv output of TestCsv.test_fixed_sweep_bytes's sweep
FIXED_SWEEP_CSV = """\
n,w,threshold_linear,threshold_db,method,nlcr,raw_rate,mc_crossings,mc_duration
1,0.2,0.5,-7.781512503836435,iid,0.8662273568691773,1.7324547137383546,,
1,0.2,0.5,-7.781512503836435,identical,0.8662273568691773,1.7324547137383546,,
1,0.2,1.0,-1.7609125905568113,iid,1.0507869004459855,2.101573800891971,,
1,0.2,1.0,-1.7609125905568113,identical,1.0507869004459855,2.101573800891971,,
1,0.2,2.0,4.2596873227228125,iid,0.28441708558635964,0.5688341711727193,,
1,0.2,2.0,4.2596873227228125,identical,0.28441708558635964,0.5688341711727193,,
3,0.2,0.5,-7.781512503836435,iid,0.06124537728420277,0.12249075456840554,,
3,0.2,0.5,-7.781512503836435,identical,0.8662273568691773,1.7324547137383546,,
3,0.2,1.0,-1.7609125905568113,iid,0.7463620616541375,1.492724123308275,,
3,0.2,1.0,-1.7609125905568113,identical,1.0507869004459855,2.101573800891971,,
3,0.2,2.0,4.2596873227228125,iid,0.7387970269992585,1.477594053998517,,
3,0.2,2.0,4.2596873227228125,identical,0.28441708558635964,0.5688341711727193,,
"""


def small_sim(seed=0, cycles=200.0):
    return SimParams(sample_rate=64.0, duration=cycles, seed=seed)


class TestSweepSpec:
    def test_valid(self):
        SweepSpec(thresholds=(1.0,), n_list=(2,), w_list=(0.1,), methods=("iid",))

    @pytest.mark.parametrize("kwargs", [
        dict(thresholds=(), n_list=(2,), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(0.1,), methods=()),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(0.1,), methods=("nope",)),
        dict(thresholds=(1.0,), n_list=(3,), w_list=(0.1,), methods=("two_port_series",)),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(0.1,), methods=("monte_carlo",)),
        dict(thresholds=(-1.0,), n_list=(2,), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(0,), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(-0.1,), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(0.1,), methods=("iid", "iid")),
        dict(thresholds=(1.0,), n_list=(True,), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=("1.0",), n_list=(2,), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=(True,), n_list=(2,), w_list=(0.1,), methods=("iid",)),
        dict(thresholds=(1.0,), n_list=(2,), w_list=(None,), methods=("iid",)),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SweepSpec(**kwargs)

    def test_numpy_port_counts_write_the_same_csv(self):
        grid = dict(thresholds=(0.5, 1.0), w_list=(0.3,), methods=("theorem1", "monte_carlo"),
                    sim=small_sim(seed=7))
        csvs = []
        for n_list in ((2,), (np.int64(2),)):
            buf = io.StringIO()
            emit_csv(run_sweep(SweepSpec(n_list=n_list, **grid), BASE), buf)
            csvs.append(buf.getvalue())
        assert csvs[1] == csvs[0]


class TestDbConversion:
    def test_round_trip(self):
        for db in np.linspace(-30.0, 10.0, 41):
            for sigma in (0.5, 1.0, 2.0):
                x = db_to_linear(float(db), sigma)
                assert linear_to_db(x, sigma) == pytest.approx(float(db), abs=1e-12)

    def test_zero_db_is_rms(self):
        assert db_to_linear(0.0, 1.7) == pytest.approx(1.7, rel=1e-15)


class TestRunSweep:
    def test_single_port_closed_forms_coincide(self):
        spec = SweepSpec(
            thresholds=(1.0 / math.sqrt(2.0),), n_list=(1,), w_list=(0.0,),
            methods=("iid", "identical"),
        )
        rows = run_sweep(spec, BASE)
        assert len(rows) == 2
        for r in rows:
            assert r.nlcr == pytest.approx(1.0750476034999201, rel=1e-12)
        assert rows[0].method == "iid" and rows[1].method == "identical"

    def test_row_ordering(self):
        spec = SweepSpec(
            thresholds=(1.0, 0.5), n_list=(3, 2), w_list=(0.3, 0.1),
            methods=("identical", "iid"),
        )
        rows = run_sweep(spec, BASE)
        keys = [(r.n, r.w, r.threshold_linear, METHODS.index(r.method)) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 2 * 2 * 2

    def test_mc_rows_carry_counts(self):
        spec = SweepSpec(
            thresholds=(0.8,), n_list=(2,), w_list=(0.2,),
            methods=("monte_carlo",), sim=small_sim(seed=3),
        )
        row = run_sweep(spec, BASE)[0]
        assert row.mc_crossings is not None and row.mc_crossings >= 0
        assert row.mc_duration == pytest.approx(200.0)
        assert row.nlcr == pytest.approx(row.raw_rate / BASE.f_doppler)

    def test_two_port_series_method(self):
        spec = SweepSpec(
            thresholds=(1.0,), n_list=(2,), w_list=(0.3,),
            methods=("theorem1", "two_port_series"),
        )
        rows = run_sweep(spec, BASE)
        assert rows[0].nlcr == pytest.approx(rows[1].nlcr, rel=1e-8)


class TestCompareMethods:
    def test_identical_rows_zero_error(self):
        rows = []
        for x in (0.5, 1.0):
            for method in ("iid", "monte_carlo"):
                rows.append(ResultRow(
                    n=2, w=0.1, threshold_linear=x, threshold_db=linear_to_db(x, 1.0),
                    method=method, nlcr=0.8, raw_rate=0.8,
                ))
        summary = compare_methods(rows)
        assert summary.max_rel_error == 0.0
        assert summary.median_rel_error == 0.0
        assert not summary.exceeds(1e-9)

    def test_breach_detection(self):
        rows = [
            ResultRow(n=2, w=0.1, threshold_linear=1.0, threshold_db=0.0,
                      method="iid", nlcr=1.0, raw_rate=1.0),
            ResultRow(n=2, w=0.1, threshold_linear=1.0, threshold_db=0.0,
                      method="monte_carlo", nlcr=1.2, raw_rate=1.2),
        ]
        summary = compare_methods(rows)
        assert summary.median_rel_error == pytest.approx(0.2)
        assert summary.exceeds(0.05)
        assert not summary.exceeds(0.25)

    def test_min_nlcr_mask(self):
        rows = [
            ResultRow(n=2, w=0.1, threshold_linear=3.0, threshold_db=9.5,
                      method="iid", nlcr=0.01, raw_rate=0.01),
            ResultRow(n=2, w=0.1, threshold_linear=3.0, threshold_db=9.5,
                      method="monte_carlo", nlcr=0.02, raw_rate=0.02),
        ]
        summary = compare_methods(rows, min_nlcr=0.05)
        assert summary.points == ()
        assert summary.median_rel_error == 0.0

    def test_disjoint_grids_rejected(self):
        rows = [
            ResultRow(n=2, w=0.1, threshold_linear=1.0, threshold_db=0.0,
                      method="iid", nlcr=1.0, raw_rate=1.0),
            ResultRow(n=2, w=0.3, threshold_linear=2.0, threshold_db=6.0,
                      method="monte_carlo", nlcr=1.0, raw_rate=1.0),
        ]
        with pytest.raises(ConfigError):
            compare_methods(rows)

    def test_same_method_rejected(self):
        rows = [
            ResultRow(n=2, w=0.1, threshold_linear=1.0, threshold_db=0.0,
                      method="monte_carlo", nlcr=1.0, raw_rate=1.0),
        ]
        with pytest.raises(ConfigError, match="'monte_carlo' with itself"):
            compare_methods(rows, reference_method="monte_carlo")

    def test_missing_method_rejected(self):
        rows = [
            ResultRow(n=2, w=0.1, threshold_linear=1.0, threshold_db=0.0,
                      method="iid", nlcr=1.0, raw_rate=1.0),
        ]
        with pytest.raises(ConfigError):
            compare_methods(rows)


class TestCsv:
    def rows(self):
        return [
            ResultRow(n=2, w=0.1, threshold_linear=0.5, threshold_db=-6.020599913279624,
                      method="theorem1", nlcr=0.123456789012345, raw_rate=0.123456789012345),
            ResultRow(n=3, w=0.3, threshold_linear=1.0, threshold_db=0.0,
                      method="monte_carlo", nlcr=0.9, raw_rate=0.9,
                      mc_crossings=180, mc_duration=200.0),
        ]

    def test_round_trip(self):
        buf = io.StringIO()
        emit_csv(self.rows(), buf)
        parsed = read_csv(io.StringIO(buf.getvalue()))
        assert parsed == self.rows()

    def test_random_round_trip(self):
        rng = np.random.default_rng(23)
        rows = []
        for _ in range(40):
            x = float(rng.uniform(0.01, 4.0))
            mc = bool(rng.integers(0, 2))
            rows.append(ResultRow(
                n=int(rng.integers(1, 9)), w=float(rng.uniform(0.0, 0.38)),
                threshold_linear=x, threshold_db=linear_to_db(x, 1.0),
                method="monte_carlo" if mc else "theorem1",
                nlcr=float(rng.uniform(0.0, 2.0)), raw_rate=float(rng.uniform(0.0, 2.0)),
                mc_crossings=int(rng.integers(0, 10000)) if mc else None,
                mc_duration=float(rng.uniform(1.0, 1e4)) if mc else None,
            ))
        buf = io.StringIO()
        emit_csv(rows, buf)
        assert read_csv(io.StringIO(buf.getvalue())) == rows

    def test_rows_are_slotted(self):
        row = self.rows()[0]
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.nlcr = 1.0

    def test_fixed_sweep_bytes(self):
        # closed-form rows only, so the expectation does not hang on the
        # last bits of a quadrature or of a random stream
        spec = SweepSpec(thresholds=(0.5, 1.0, 2.0), n_list=(1, 3), w_list=(0.2,),
                         methods=("iid", "identical"))
        base = FasConfig(n_ports=1, aperture=0.0, sigma2=1.5, f_doppler=2.0)
        buf = io.StringIO()
        emit_csv(run_sweep(spec, base), buf)
        assert buf.getvalue() == FIXED_SWEEP_CSV

    def test_header_only_for_empty(self):
        buf = io.StringIO()
        emit_csv([], buf)
        assert buf.getvalue() == (
            "n,w,threshold_linear,threshold_db,method,nlcr,raw_rate,"
            "mc_crossings,mc_duration\n"
        )

    def test_lf_line_endings_and_blank_optionals(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_csv(self.rows(), str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[1].endswith(",,")      # analytic row leaves MC fields blank

    def test_shortest_round_trip_floats(self):
        buf = io.StringIO()
        emit_csv([ResultRow(n=1, w=0.1, threshold_linear=0.1, threshold_db=-20.0,
                            method="iid", nlcr=0.1, raw_rate=0.1)], buf)
        assert ",0.1,-20.0,iid,0.1,0.1,," in buf.getvalue()

    @pytest.mark.parametrize("line", [
        "x,0.1,1.0,0.0,iid,0.5,0.5,,",                       # non-integer n
        "2,0.1,1.0,0.0,iid,abc,0.5,,",                       # non-numeric nlcr
        ",0.1,1.0,0.0,iid,0.5,0.5,,",                        # blank required cell
        "2,0.1,1.0,0.0,monte_carlo,0.5,0.5,1.5,200.0",       # fractional crossings
    ])
    def test_malformed_cell_names_the_line(self, line):
        buf = io.StringIO()
        emit_csv([], buf)
        with pytest.raises(ConfigError, match=re.escape(f"malformed CSV line {line!r}")):
            read_csv(io.StringIO(buf.getvalue() + line + "\n"))

    def test_io_error_carries_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], "/no/such/dir/out.csv")
        with pytest.raises(OSError, match=r"cannot read CSV from '/no/such/dir/in\.csv'"):
            read_csv("/no/such/dir/in.csv")


class TestCli:
    def test_sweep_to_file_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["sweep", "--n", "2", "--w", "0.1,0.3", "--methods", "iid,monte_carlo",
                "--thresholds", "0.5:1.5:3", "--duration-cycles", "200",
                "--seed", "11", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(str(out1))
        assert len(rows) == 2 * 3 * 2

    def test_analytic_stdout(self, capsys):
        assert main(["analytic", "--n", "1", "--w", "0.0",
                     "--thresholds", "0.7071067811865476", "--method", "iid"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,w,threshold_linear")
        assert "1.07504760" in out

    def test_thresholds_db(self, capsys):
        assert main(["analytic", "--n", "1", "--w", "0.0", "--sigma2", "4.0",
                     "--thresholds-db", "0", "--method", "identical"]) == 0
        row = read_csv(io.StringIO(capsys.readouterr().out))[0]
        assert row.threshold_linear == pytest.approx(2.0)   # 0 dB relative to sigma
        assert row.threshold_db == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("grid,count", [("-10,0,5", 3), ("-10:0:3", 3), ("-.5,1e-1", 2)])
    def test_negative_db_grid_as_separate_argument(self, grid, count, capsys):
        # argparse alone refuses these with "expected one argument"
        argv = ["sweep", "--n", "2,3", "--w", "0.3", "--methods", "theorem1,iid"]
        assert main(argv + ["--thresholds-db=" + grid]) == 0
        joined = read_csv(io.StringIO(capsys.readouterr().out))
        assert main(argv + ["--thresholds-db", grid]) == 0
        assert read_csv(io.StringIO(capsys.readouterr().out)) == joined
        assert len(joined) == 2 * 2 * count

    def test_compare_pass_and_breach(self, capsys):
        argv = ["compare", "--n", "2", "--w", "0.3", "--thresholds", "0.5:1.5:4",
                "--duration-cycles", "1000", "--seed", "5", "--method", "theorem1"]
        assert main(argv + ["--tolerance", "0.25"]) == 0
        assert main(argv + ["--tolerance", "0.0001"]) == 1

    def test_compare_fails_when_no_point_is_compared(self, capsys):
        # every reference nlcr is below --min-nlcr, so nothing is gated
        assert main(["compare", "--n", "2", "--w", "0.3", "--thresholds", "0.5,1",
                     "--min-nlcr", "100", "--duration-cycles", "200"]) == 1
        out = capsys.readouterr().out
        assert "compared 0 points" in out
        assert "FAIL" in out and "PASS" not in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(faslcr.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "faslcr", "analytic", "--n", "2",
                               "--w", "0.3", "--thresholds", "1"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith(harness.CSV_HEADER + "\n")
        assert done.stderr == ""

    def test_config_error_exit_code(self, capsys):
        assert main(["sweep", "--n", "2", "--w", "0.1", "--methods", "bogus",
                     "--thresholds", "1.0"]) == 2
        assert main(["analytic", "--n", "2", "--w", "0.1", "--method", "iid"]) == 2  # no thresholds

    def test_analytic_refuses_monte_carlo(self, capsys):
        # analytic takes no sim parameters, so it must not run a simulation
        assert main(["analytic", "--n", "2", "--w", "0.3", "--thresholds", "1.0",
                     "--method", "monte_carlo"]) == 2
        assert "monte_carlo requires sim parameters" in capsys.readouterr().err

    def test_numerical_error_exit_code(self):
        # W = 0 makes mu_2 = 1: theorem1 refuses with a singularity error
        assert main(["analytic", "--n", "2", "--w", "0.0",
                     "--thresholds", "1.0", "--method", "theorem1"]) == 3

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# sweep defaults\n"
            "n = 1\n"
            "w = 0.0\n"
            "method = identical\n"
            "thresholds = 1.0\n"
            "fd = 2.0\n"
        )
        assert main(["analytic", "--config", str(cfgfile)]) == 0
        row = read_csv(io.StringIO(capsys.readouterr().out))[0]
        assert row.raw_rate == pytest.approx(2.0 * math.sqrt(2.0 * math.pi) * math.exp(-1.0))
        # flag overrides the file
        assert main(["analytic", "--config", str(cfgfile), "--fd", "4.0"]) == 0
        row = read_csv(io.StringIO(capsys.readouterr().out))[0]
        assert row.raw_rate == pytest.approx(4.0 * math.sqrt(2.0 * math.pi) * math.exp(-1.0))

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # sweeps run on one thread, so the former worker-pool key is unknown too
        for key in ("bogus_key", "workers"):
            cfgfile = tmp_path / "bad.cfg"
            cfgfile.write_text(f"{key} = 2\n")
            assert main(["analytic", "--config", str(cfgfile), "--thresholds", "1.0"]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--n", "2", "--w", "0.3", "--thresholds", "1.0",
                     "--methods", "iid", "--out", str(out)]) == 2
        assert f"cannot write CSV to {str(out)!r}" in capsys.readouterr().err

    def test_compare_refuses_monte_carlo_against_itself(self, capsys):
        assert main(["compare", "--n", "2", "--w", "0.3", "--thresholds", "0.5",
                     "--duration-cycles", "300", "--method", "monte_carlo"]) == 2
        assert "methods must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--n", "2.5"], "cannot parse grid '2.5'"),
        (["--n", "1e400"], "cannot parse grid '1e400'"),
        (["--thresholds", "0.5:1:x"], "cannot parse grid '0.5:1:x'"),
        (["--thresholds", "0.5:1:0.5"], "cannot parse grid '0.5:1:0.5'"),
        (["--seed", "abc"], "bad value for --seed: 'abc'"),   # checked though iid never simulates
    ])
    def test_malformed_value_exits_2(self, flags, message, capsys):
        argv = ["sweep", "--n", "2", "--w", "0.3", "--thresholds", "1.0", "--methods", "iid"]
        assert main(argv + flags) == 2          # a repeated flag's last value wins
        assert message in capsys.readouterr().err


# One sample value per option, none of them its default.
OPTION_SAMPLES = {
    "n": "3,4", "w": "0.2", "sigma2": "2.5", "fd": "3.0", "thresholds": "0.5:1:3",
    "thresholds_db": "-3,0", "methods": "iid,identical", "method": "identical",
    "seed": "7", "duration_cycles": "300", "sample_rate_mult": "32", "out": "rows.csv",
    "tolerance": "0.1", "min_nlcr": "0.2",
}


def test_option_samples_cover_every_option():
    assert set(OPTION_SAMPLES) == set(harness._OPTIONS)


@pytest.mark.parametrize("name", sorted(OPTION_SAMPLES))
def test_config_key_and_flag_give_the_same_value(name, tmp_path):
    commands = harness._OPTIONS[name][2] or ("sweep",)
    parser = harness._build_parser()
    text = OPTION_SAMPLES[name]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{name} = {text}\n")
    flag = "--" + name.replace("_", "-")
    from_flag = harness._options(parser.parse_args([commands[0], f"{flag}={text}"]))
    from_file = harness._options(parser.parse_args([commands[0], "--config", str(cfgfile)]))
    assert from_flag == from_file
    assert from_flag[name] != harness._options(parser.parse_args([commands[0]]))[name]
