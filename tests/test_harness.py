"""Sweep engine, CSV round-trips, comparison gate, and CLI exit codes."""

import io
import math

import numpy as np
import pytest

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
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SweepSpec(**kwargs)


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

    def test_io_error_carries_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], "/no/such/dir/out.csv")


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

    def test_compare_pass_and_breach(self, capsys):
        argv = ["compare", "--n", "2", "--w", "0.3", "--thresholds", "0.5:1.5:4",
                "--duration-cycles", "1000", "--seed", "5", "--method", "theorem1"]
        assert main(argv + ["--tolerance", "0.25"]) == 0
        assert main(argv + ["--tolerance", "0.0001"]) == 1

    def test_config_error_exit_code(self, capsys):
        assert main(["sweep", "--n", "2", "--w", "0.1", "--methods", "bogus",
                     "--thresholds", "1.0"]) == 2
        assert main(["analytic", "--n", "2", "--w", "0.1", "--method", "iid"]) == 2  # no thresholds

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
