import json
import math
import warnings

import numpy as np
import pytest

from qfourier import cli
from qfourier.cli import main
from qfourier.closedform import heaviside_qft
from qfourier.errors import LimitFailureError
from qfourier.transform import (HalfPlanePoint, PlaneTag, QGaussian,
                                qft_real_line)


def rows_from_csv(text):
    lines = [l for l in text.split("\n") if l]
    assert lines[0] == "k_re,k_im,plane,q,F_re,F_im,err"
    out = []
    for line in lines[1:]:
        f = line.split(",")
        out.append({"k_re": float(f[0]), "k_im": float(f[1]),
                    "plane": f[2], "q": float(f[3]), "F_re": float(f[4]),
                    "F_im": float(f[5]), "err": float(f[6])})
    return out


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_invalid_q_cites_band(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "2.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "[1, 2)" in err

    def test_missing_required_flags(self, capsys):
        assert main(["transform", "--f", "heaviside+"]) == 1
        assert "--q" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--nk", "0"],
        ["--kmin", "3", "--kmax", "1"],
        ["--plane", "sideways"],
        ["--nk", "2.5"],
    ])
    def test_bad_grid_config(self, extra, capsys):
        # a repeated flag overrides the earlier occurrence
        base = ["transform", "--f", "heaviside+", "--q", "1.5",
                "--kmin", "1", "--kmax", "2", "--nk", "2"]
        assert main(base + extra) == 1
        capsys.readouterr()

    def test_unknown_function(self, capsys):
        rc = main(["transform", "--f", "sinc", "--q", "1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2"])
        assert rc == 1
        assert "sinc" in capsys.readouterr().err

    def test_powerlaw_missing_parameters(self, capsys):
        rc = main(["transform", "--f", "powerlaw", "--q", "1.2",
                   "--kmin", "0", "--kmax", "0", "--nk", "1"])
        assert rc == 1
        assert "--lambda" in capsys.readouterr().err

    def test_nontransformable_at_q(self, capsys):
        # at q=1 the kernel stops supplying decay, so a constant is
        # no longer absolutely integrable against it
        rc = main(["transform", "--f", "constant", "--q", "1.0",
                   "--kmin", "1", "--kmax", "1", "--nk", "1"])
        assert rc == 1
        assert "not transformable" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        ["--lambda", "1", "--beta", "400", "--a", "0.1", "--b", "1"],
        ["--lambda", "1e300", "--beta", "2", "--a", "1", "--b", "2"],
        ["--lambda", "1", "--beta", "-400", "--a", "1", "--b", "1e3"],
    ])
    @pytest.mark.parametrize("command", [
        ["transform", "--q", "1.2", "--kmin", "0", "--kmax", "1", "--nk",
         "2", "--plane", "real-upper"],
        ["transform", "--q", "1.2", "--kmin", "0", "--kmax", "1", "--nk",
         "2", "--plane", "real-line"],
        ["invert"],
    ])
    def test_powerlaw_overflow_is_a_usage_error(self, command, params,
                                                capsys):
        # a peak past the float range is a bad parameter set, not a crash
        assert main(command + ["--f", "powerlaw"] + params) == 1
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err

    def test_gaussian_overflow_is_a_usage_error(self, capsys):
        # 2 sigma^2 past the float range is a bad parameter, not a crash
        assert main(["transform", "--f", "gaussian", "--sigma", "1e155",
                     "--q", "1.5", "--kmin", "1", "--kmax", "1", "--nk", "1",
                     "--plane", "real-line"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qfourier: error:") and "overflows" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_gaussian_underflow_is_a_usage_error(self, capsys):
        # 2 sigma^2 below the float range is a bad parameter, not a
        # transform of 0 with err 0
        assert main(["transform", "--f", "gaussian", "--sigma", "1e-170",
                     "--q", "1.5", "--kmin", "1", "--kmax", "1", "--nk", "1",
                     "--plane", "real-line"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("qfourier: error:") and "underflows" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_gaussian_subnormal_width_is_a_usage_error(self, capsys):
        # sigma^2 is subnormal: values() would have lost its digits
        assert main(["transform", "--f", "gaussian", "--sigma", "1e-160",
                     "--q", "1.5", "--kmin", "1", "--kmax", "1", "--nk", "1",
                     "--plane", "real-line"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("qfourier: error:") and "underflows" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # main() builds its parser once a process; a usage error in one
        # call leaves nothing behind for the next
        bad = ["transform", "--frobnicate", "1"]
        good = ["transform", "--f", "gaussian", "--q", "1.2", "--kmin", "0",
                "--kmax", "2", "--nk", "3", "--plane", "real-line"]

        def run(argv):
            rc = main(argv)
            out = capsys.readouterr()
            return rc, out.out, out.err

        alone = []
        for argv in (bad, good):
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        assert [rc for rc, _, _ in alone] == [1, 0]

        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "qfourier":
                built.append(self)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        assert [run(bad), run(good)] == alone
        assert len(built) == 1

    @pytest.mark.parametrize("argv, name", [
        (["transform", "--f", "gaussian", "--q", " , ", "--kmin", "0",
          "--kmax", "1", "--nk", "2"], "q"),
        (["invert", "--f", "gaussian", "--eps", ""], "eps"),
    ])
    def test_empty_list_rejected(self, argv, name, capsys):
        assert main(argv) == 1
        assert f"{name} list is empty" in capsys.readouterr().err


class TestTransformCommand:
    def test_heaviside_rows_match_closed_form(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "0.5", "--kmax", "4", "--nk", "8",
                   "--plane", "real-upper"])
        assert rc == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert len(rows) == 8
        for r in rows:
            want = 1j / ((2.0 - 1.5) * r["k_re"])
            got = complex(r["F_re"], r["F_im"])
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)

    def test_left_step_rows_match_closed_form(self, capsys):
        rc = main(["transform", "--f", "heaviside-", "--q", "1.5",
                   "--kmin", "0.5", "--kmax", "4", "--nk", "8",
                   "--plane", "real-lower"])
        assert rc == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert len(rows) == 8
        for r in rows:
            want = heaviside_qft(-1, 1.5, HalfPlanePoint(
                complex(r["k_re"]), PlaneTag.REAL_LIMIT_LOWER))
            got = complex(r["F_re"], r["F_im"])
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)

    def test_qgaussian_rows_are_the_library_values(self, capsys):
        rc = main(["transform", "--f", "qgaussian", "--q-g", "1.5",
                   "--beta-g", "2", "--q", "1.2", "--kmin", "-1",
                   "--kmax", "2", "--nk", "3", "--plane", "real-line"])
        assert rc == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert [r["k_re"] for r in rows] == [-1.0, 0.5, 2.0]
        for r in rows:
            value, err = qft_real_line(QGaussian(1.5, 2.0), 1.2, r["k_re"])
            assert (r["F_re"], r["F_im"], r["err"]) == \
                (value.real, value.imag, err)

    @pytest.mark.parametrize("params, missing", [
        (["--q-g", "1.5"], "--beta-g"), (["--beta-g", "2"], "--q-g")])
    def test_qgaussian_missing_parameters(self, params, missing, capsys):
        rc = main(["transform", "--f", "qgaussian", "--q", "1.2",
                   "--kmin", "0", "--kmax", "1", "--nk", "2"] + params)
        assert rc == 1
        assert missing in capsys.readouterr().err

    def test_unknown_format(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2",
                   "--format", "xml"])
        assert rc == 1
        assert "unknown format 'xml'" in capsys.readouterr().err

    def test_powerlaw_zero_k_moment(self, capsys):
        rc = main(["transform", "--f", "powerlaw", "--lambda", "1",
                   "--beta", "3", "--a", "1", "--b", "2", "--q", "1.2",
                   "--kmin", "0", "--kmax", "0", "--nk", "1"])
        assert rc == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert len(rows) == 1
        np.testing.assert_allclose(rows[0]["F_re"], 0.375, rtol=1e-8)
        np.testing.assert_allclose(rows[0]["F_im"], 0.0, atol=1e-10)

    def test_csv_round_trips_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["transform", "--f", "gaussian", "--q", "1.3",
                   "--kmin", "-2", "--kmax", "2", "--nk", "5",
                   "--plane", "real-line", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").split("\n")
        body = [l for l in lines[1:] if l]
        rebuilt = [lines[0]]
        for line in body:
            f = line.split(",")
            rebuilt.append(",".join(
                [repr(float(f[0])), repr(float(f[1])), f[2],
                 repr(float(f[3])), repr(float(f[4])), repr(float(f[5])),
                 repr(float(f[6]))]))
        assert ("\n".join(rebuilt) + "\n").encode("utf-8") == raw

    def test_out_file_keeps_stdout_clean(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert out.exists()

    def test_json_schema_and_key_order(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.keys()) == ["config", "results", "diagnostics"]
        assert list(payload["results"][0].keys()) == [
            "k_re", "k_im", "plane", "q", "F_re", "F_im", "err"]
        assert payload["config"]["command"] == "transform"

    def test_divergent_cell_flags_partial_run(self, capsys):
        # k=0 collapses the heaviside transform to a divergent moment;
        # the cell is flagged instead of aborting the sweep
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "0", "--kmax", "2", "--nk", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        rows = rows_from_csv(captured.out)
        assert math.isnan(rows[0]["F_re"])
        assert rows[0]["err"] == math.inf
        assert not math.isnan(rows[1]["F_re"])
        assert "diverges" in captured.err

    def test_overflowing_cell_keeps_the_finite_rows(self, capsys):
        # k = 0 makes the step's transform a divergent integral; that cell
        # is flagged and the k = 1 row is what a run of k = 1 alone writes
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "0", "--kmax", "1", "--nk", "2",
                   "--plane", "real-line"])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.out.splitlines()
        # a cell with no value is nan in both parts, not a computed 0.0
        assert lines[1] == "0.0,0.0,real_line,1.5,nan,nan,inf"
        assert captured.err.startswith(
            "qfourier: q=1.5 k=0: k=0 reduces the transform")
        assert main(["transform", "--f", "heaviside+", "--q", "1.5",
                     "--kmin", "1", "--kmax", "1", "--nk", "1",
                     "--plane", "real-line"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == lines[2]

    def test_huge_k_cell_has_its_limit_value(self, capsys):
        # the kernel's modulus underflows to its limit at k = 1e308, where
        # the exact transform is 2i/k, so the run has no failed cell
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "1e308", "--nk", "2",
                   "--plane", "real-line"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        row = rows_from_csv(captured.out)[1]
        assert row["k_re"] == 1e308
        value = complex(row["F_re"], row["F_im"])
        assert abs(value - 2j / 1e308) <= 1e-12     # the default abs_tol

    def test_cell_without_value_is_null_in_json(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "0", "--kmax", "1", "--nk", "2",
                   "--plane", "real-line", "--format", "json"])
        assert rc == 2
        cell = json.loads(capsys.readouterr().out)["results"][0]
        assert (cell["F_re"], cell["F_im"], cell["err"]) == (None, None, None)

    def test_overflowing_k_span_is_a_usage_error(self, capsys):
        # rejected before the grid is built, so numpy never warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                       "--kmin=-1e308", "--kmax", "1e308", "--nk", "3",
                       "--plane", "real-line"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "kmax - kmin overflows float" in captured.err

    _UNREACHABLE_TOL = ["--q", "1.5", "--kmin", "0.5", "--kmax", "1.5",
                        "--nk", "2", "--rel-tol", "1e-300",
                        "--abs-tol", "1e-300"]

    @staticmethod
    def budget_note(err):
        return ("q=1.5 k={}: did not converge (quadrature did not reach "
                "tolerance within 2000 subdivisions (err~{}))".format(*err))

    def test_non_converged_real_line_cells_keep_estimate(self, capsys):
        # tolerances below the rounding level exhaust every cell's budget;
        # the rows hold each cell's estimate and stderr says why
        rc = main(["transform", "--f", "gaussian", "--plane", "real-line",
                   *self._UNREACHABLE_TOL])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == (
            "k_re,k_im,plane,q,F_re,F_im,err\n"
            "0.5,0.0,real_line,1.5,2.3494052310523914,0.0,"
            "2.7241542038459903e-14\n"
            "1.5,0.0,real_line,1.5,1.5248538435981884,0.0,"
            "2.3562393559026247e-14\n")
        # each note carries its row's err, both sides summed
        assert captured.err == "".join(
            f"qfourier: {self.budget_note(e)}\n"
            for e in (("0.5", "2.724e-14"), ("1.5", "2.356e-14")))

    # one density per infinite-tail path that integrates: a q-Gaussian's
    # tail takes the map (finite part and mapped tail), a Gaussian's the
    # cut (its remainder bound is in the err)
    @pytest.mark.parametrize("f_args, rows", [
        (["qgaussian", "--q-g", "2.5", "--beta-g", "1.0"],
         [("1.36919206425397", "0.5290459430156454",
           "1.6779920163981707e-14", "1.678e-14"),
          ("0.7035685624379708", "0.7715274235529779",
           "1.3092344402926398e-14", "1.309e-14")]),
        (["gaussian"],
         [("0.9452163030780636", "0.204373443217295",
           "1.0804320399002435e-14", "1.080e-14"),
          ("0.6982031689416929", "0.46533336249596585",
           "9.757384466218505e-15", "9.757e-15")]),
    ], ids=["map", "cut"])
    def test_non_converged_upper_cells_in_json(self, capsys, f_args, rows):
        rc = main(["transform", "--f", *f_args, "--plane", "upper",
                   "--kim", "0.5", "--format", "json",
                   *self._UNREACHABLE_TOL])
        out = capsys.readouterr().out
        assert rc == 2
        results = out[out.index('  "results"'):out.index('  "diagnostics"')]
        cells = ",\n".join(f"""\
    {{
      "k_re": {k},
      "k_im": 0.5,
      "plane": "upper",
      "q": 1.5,
      "F_re": {re},
      "F_im": {im},
      "err": {err}
    }}""" for k, (re, im, err, _) in zip(("0.5", "1.5"), rows))
        assert results == f'  "results": [\n{cells}\n  ],\n'
        # each note carries its row's err, every part of the piece included
        assert json.loads(out)["diagnostics"] == [
            self.budget_note((k, note))
            for k, (_, _, _, note) in zip(("0.5", "1.5"), rows)]

    def test_closed_step_meets_any_tolerance(self, capsys):
        # the step's pieces are closed from x = 0, so no budget runs out
        rc = main(["transform", "--f", "heaviside+", "--plane", "upper",
                   "--kim", "0.5", "--format", "json",
                   *self._UNREACHABLE_TOL])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["diagnostics"] == []
        for cell in out["results"]:
            k = complex(cell["k_re"], cell["k_im"])
            value = complex(cell["F_re"], cell["F_im"])
            assert abs(value - 2j / k) <= cell["err"] <= 1e-14 * abs(value)

    def test_q_list_sweeps_q_major(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.2,1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2"])
        assert rc == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert [r["q"] for r in rows] == [1.2, 1.2, 1.5, 1.5]
        assert [r["k_re"] for r in rows] == [1.0, 2.0, 1.0, 2.0]

    def test_upper_plane_needs_offset(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2",
                   "--plane", "upper"])
        assert rc == 1
        assert "kim" in capsys.readouterr().err

    def test_real_plane_rejects_offset(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "2", "--nk", "2",
                   "--kim", "0.5"])
        assert rc == 1
        capsys.readouterr()

    def test_upper_plane_values(self, capsys):
        rc = main(["transform", "--f", "heaviside+", "--q", "1.5",
                   "--kmin", "1", "--kmax", "1", "--nk", "1",
                   "--plane", "upper", "--kim", "1"])
        assert rc == 0
        rows = rows_from_csv(capsys.readouterr().out)
        got = complex(rows[0]["F_re"], rows[0]["F_im"])
        np.testing.assert_allclose(got, 1j / (0.5 * (1 + 1j)), rtol=1e-8)
        assert rows[0]["plane"] == "upper"


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "f": "heaviside+", "q": 1.5, "kmin": 0.5, "kmax": 4,
            "nk": 8, "plane": "real-upper"}))
        rc = main(["transform", "--config", str(cfg)])
        assert rc == 0
        assert len(rows_from_csv(capsys.readouterr().out)) == 8

    def test_cli_flags_take_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "f": "heaviside+", "q": 1.5, "kmin": 0.5, "kmax": 4,
            "nk": 8}))
        rc = main(["transform", "--config", str(cfg), "--nk", "3"])
        assert rc == 0
        assert len(rows_from_csv(capsys.readouterr().out)) == 3

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"qq": 1.5}))
        rc = main(["transform", "--config", str(cfg)])
        assert rc == 1
        assert "qq" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert main(["transform", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["transform", "--config",
                     str(tmp_path / "nope.json")]) == 1
        capsys.readouterr()

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["transform", "--config", str(cfg)]) == 1
        capsys.readouterr()


class TestCollideCommand:
    def test_level_set_members_collide_and_separate(self, capsys):
        rc = main(["collide", "--pairs", "1,2;1.3333333333333333,4",
                   "--q", "1.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["results"][0]
        np.testing.assert_allclose(rep["lambdas"], math.sqrt(2.0),
                                   rtol=1e-12)
        assert rep["collide_at_q"] is True
        assert rep["max_pairwise_dev_at_q"] < 1e-6
        assert rep["separate_at_qprime"] is True
        assert set(rep["qprime_devs"]) == {"1.3", "1.7"}
        assert all(v > 1e-3 for v in rep["qprime_devs"].values())

    def test_mismatched_lambdas_report_no_collision(self, capsys):
        # these windows sit on different level sets, so the tool must
        # say so even though each matches its own closed form
        rc = main(["collide", "--pairs", "1,2;0.5,4", "--q", "1.5"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)["results"][0]
        assert rep["collide_at_q"] is False
        assert rep["max_pairwise_dev_at_q"] > 1e-2

    def test_single_pair_rejected(self, capsys):
        assert main(["collide", "--pairs", "1,2", "--q", "1.5"]) == 1
        assert ">= 2" in capsys.readouterr().err

    def test_identical_pairs_skip_separation(self, capsys):
        rc = main(["collide", "--pairs", "1,2;1,2", "--q", "1.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["results"][0]
        assert rep["collide_at_q"] is True
        assert rep["separate_at_qprime"] is None
        assert any("skipped" in d for d in payload["diagnostics"])

    @pytest.mark.parametrize("pairs", ["1;2", "2,1;1,2", "0,1;1,2", "a,b"])
    def test_malformed_pair_lists(self, pairs, capsys):
        assert main(["collide", "--pairs", pairs, "--q", "1.5"]) == 1
        capsys.readouterr()

    def test_qprime_side_outside_band_is_skipped(self, capsys):
        rc = main(["collide", "--pairs", "1,2;1.5,3", "--q", "1.1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["results"][0]
        assert list(rep["qprime_devs"]) == ["1.3"]
        assert any("0.9" in d for d in payload["diagnostics"])


class TestInvertCommand:
    def test_gaussian_roundtrip_report(self, capsys):
        rc = main(["invert", "--f", "gaussian", "--sigma", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["residual"] < 1e-3
        assert payload["config"]["extrapolation"] == "richardson"

    def test_powerlaw_single_slice_schedule(self, capsys):
        rc = main(["invert", "--f", "powerlaw", "--lambda", "1",
                   "--beta", "2", "--a", "1", "--b", "2",
                   "--eps", "1e-4", "--extrapolation", "none"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["residual"] < 1e-2
        assert payload["config"]["eps"] == [1e-4]

    def test_function_without_classical_limit(self, capsys):
        rc = main(["invert", "--f", "heaviside+"])
        assert rc == 1
        assert "classical" in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        import qfourier.cli as cli_mod

        def roundtrip(f, sched=None):
            raise LimitFailureError("slices do not contract")

        monkeypatch.setattr(cli_mod, "roundtrip", roundtrip)
        assert main(["invert", "--f", "gaussian"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: slices do not contract" in captured.err

    def test_bad_schedule_rejected(self, capsys):
        rc = main(["invert", "--f", "gaussian", "--eps", "0.9,0.5"])
        assert rc == 1
        capsys.readouterr()


class TestVerifyCommand:
    def test_special_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "special"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        names = [r["name"] for r in payload["results"]]
        assert "binomial_collapse_draws" in names
        assert all(r["ok"] for r in payload["results"])
        assert all(set(r) == {"name", "ok", "detail"}
                   for r in payload["results"])

    def test_ultra_suite_has_delta_weight_check(self, capsys):
        rc = main(["verify", "--suite", "ultra"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(r["name"] == "delta_weight_contour"
                   for r in payload["results"])

    def test_all_suites_green(self, capsys):
        rc = main(["verify", "--suite", "all"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) >= 15
        assert all(r["ok"] for r in payload["results"])

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "everything"]) == 1
        capsys.readouterr()

    def test_failed_check_exits_nonzero(self, capsys, monkeypatch):
        import qfourier.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda name: [("synthetic", False, "boom")])
        assert main(["verify", "--suite", "special"]) == 2
        capsys.readouterr()


class TestDeltaCommand:
    def test_three_halves_weight(self, capsys):
        rc = main(["delta", "--q", "1.5"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)["results"][0]
        np.testing.assert_allclose(rep["measured_re"], 4.0 * math.pi,
                                   rtol=1e-6)
        np.testing.assert_allclose(rep["expected"], 4.0 * math.pi,
                                   rtol=1e-12)
        assert rep["rel_err"] < 1e-6

    def test_classical_weight(self, capsys):
        rc = main(["delta", "--q", "1.0"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)["results"][0]
        np.testing.assert_allclose(rep["expected"], 2.0 * math.pi,
                                   rtol=1e-12)
        assert rep["rel_err"] < 1e-6

    @pytest.mark.parametrize("zeta", ["0.5", "2"])
    def test_offset_invariance(self, zeta, capsys):
        rc = main(["delta", "--q", "1.5", "--zeta", zeta])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)["results"][0]
        assert rep["rel_err"] < 1e-6

    def test_q_out_of_band(self, capsys):
        assert main(["delta", "--q", "2.0"]) == 1
        capsys.readouterr()

