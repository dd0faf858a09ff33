"""Unit tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import drivendelta
from drivendelta.cli import (ScanConfig, UsageError, cmd_scan, main,
                             parse_config)
from drivendelta.renorm import gamma_elastic_closed


@pytest.fixture
def config_file(tmp_path):
    def write(text):
        path = tmp_path / "config.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


class TestParseConfig:
    def test_empty_file_gives_defaults(self, config_file):
        config = parse_config(config_file(""))
        assert config == ScanConfig()
        assert config.n_max == 6
        assert config.tol == 1e-8
        assert config.order == "renormalized"

    def test_single_key(self, config_file):
        config = parse_config(config_file("g0 = 0.7\n"))
        assert config.g0 == 0.7
        assert config.steps == ScanConfig().steps

    def test_comments_and_blanks_ignored(self, config_file):
        config = parse_config(config_file(
            "# comment line\n\ng0 = 0.3  # inline\nsteps = 5\n"))
        assert config.g0 == 0.3
        assert config.steps == 5

    def test_unknown_key_lists_valid_keys(self, config_file):
        with pytest.raises(UsageError) as exc:
            parse_config(config_file("gee0 = 0.7\n"))
        assert "unknown key" in str(exc.value)
        assert "g0" in str(exc.value)
        assert "eps_min" in str(exc.value)

    def test_type_mismatch_names_line(self, config_file):
        with pytest.raises(UsageError) as exc:
            parse_config(config_file("steps = abc\n"))
        assert ":1:" in str(exc.value)

    def test_type_mismatch_later_line(self, config_file):
        with pytest.raises(UsageError) as exc:
            parse_config(config_file("g0 = 0.2\n\ntol = fast\n"))
        assert ":3:" in str(exc.value)


class TestValidation:
    def test_bad_grid_rejected(self):
        with pytest.raises(UsageError):
            ScanConfig(eps_min=2.0, eps_max=1.0).validate()
        with pytest.raises(UsageError):
            ScanConfig(steps=1).validate()
        with pytest.raises(UsageError):
            ScanConfig(eps_min=0.0).validate()

    def test_bad_choices_rejected(self):
        with pytest.raises(UsageError):
            ScanConfig(method="exact").validate()
        with pytest.raises(UsageError):
            ScanConfig(order="fourth").validate()
        with pytest.raises(UsageError):
            ScanConfig(output_format="xml").validate()

    def test_usage_error_exit_code(self, tmp_path):
        rc = main(["scan", "--g0", "0.1", "--steps", "1",
                   "--output", str(tmp_path / "out.csv")])
        assert rc == 2


class TestScan:
    def test_two_steps_two_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--g0", "0", "--e-min", "0.3", "--e-max", "0.9",
                   "--steps", "2", "--n-max", "1", "--output", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # header + 2 data rows
        header = lines[0].split(",")
        assert header[:8] == ["eps_i", "T_elastic", "R_elastic",
                              "T_total_pert", "T_total_floquet", "w0",
                              "im_gamma", "re_gamma"]
        assert header[8:] == ["T_-1", "T_0", "T_1"]

    def test_undriven_totals_are_one(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(["scan", "--g0", "0", "--e-min", "0.4", "--e-max", "1.6",
              "--steps", "4", "--n-max", "0", "--output", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        cols = {name: i for i, name in
                enumerate(out.read_text().splitlines()[0].split(","))}
        for line in lines:
            vals = line.split(",")
            assert float(vals[cols["T_total_pert"]]) == 1.0
            assert float(vals[cols["T_total_floquet"]]) == 1.0

    def test_json_shape(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = main(["scan", "--g0", "0", "--e-min", "0.3", "--e-max", "0.5",
                   "--steps", "2", "--n-max", "0", "--format", "json",
                   "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert set(doc) == {"metadata", "columns", "rows"}
        assert doc["metadata"]["command"] == "scan"
        assert doc["metadata"]["config"]["steps"] == 2
        assert "version" in doc["metadata"]
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["eps_i"] == 0.3

    def test_config_file_flag_override(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("g0 = 0\nsteps = 2\neps_min = 0.3\neps_max = 0.5\n"
                       "n_max = 0\n", encoding="utf-8")
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--config", str(cfg), "--steps", "3",
                   "--output", str(out)])
        assert rc == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 4

    def test_missing_config_file_is_usage_error(self, tmp_path):
        rc = main(["scan", "--config", str(tmp_path / "absent.txt")])
        assert rc == 2

    def test_singular_system_is_numeric_failure(self, capsys):
        # undriven, k_{-1} = 0 at eps = 1 makes the sideband system singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["scan", "--g0", "0", "--e-min", "0.5", "--e-max", "1.0",
                       "--steps", "2", "--method", "floquet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: numeric failure at eps_i = 1.0: "
            "singular sideband system at eps_i = 1.0\n")


    def test_tol_tightens_the_loop(self, tmp_path):
        # the default tol is absolute, and Re Gamma(0) ~ 2.5e-6 at g0 = 0.0125:
        # the default scan is 4.4e-5 off the closed form there
        exact = gamma_elastic_closed(math.sqrt(0.6), 0.0125, include_closed=True).re
        re_gamma = {}
        for tol in (None, "1e-11"):
            out = tmp_path / "scan.csv"
            argv = ["scan", "--g0", "0.0125", "--e-min", "0.3", "--e-max", "0.4",
                    "--steps", "2", "--n-max", "0", "--method", "perturbative",
                    "--output", str(out)]
            assert main(argv + (["--tol", tol] if tol else [])) == 0
            header, first = out.read_text(encoding="utf-8").splitlines()[:2]
            re_gamma[tol] = float(dict(zip(header.split(","), first.split(",")))["re_gamma"])
        assert re_gamma["1e-11"] == pytest.approx(exact, rel=1e-9, abs=0.0)
        assert re_gamma[None] != pytest.approx(exact, rel=1e-9, abs=0.0)


class TestCompare:
    def test_summary_and_rows(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--g0", "0", "--e-min", "0.3", "--e-max", "0.7",
                   "--steps", "3", "--format", "json", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["rows"]) == 3
        summary = doc["metadata"]["summary"]
        assert summary["rows"] == 3
        assert summary["max_abs_diff"] == 0.0
        assert "excluded_window" in summary
        printed = capsys.readouterr().out
        assert "excluded resonance window" in printed


class TestZero:
    def test_undriven_reports_no_zero(self, capsys):
        rc = main(["zero", "--g0", "0"])
        assert rc == 0
        assert "no zero: free transmission" in capsys.readouterr().out

    def test_floquet_report(self, capsys):
        rc = main(["zero", "--g0", "0.2", "--method", "floquet"])
        assert rc == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("floquet eps_star")][0]
        eps_star = float(line.split("=")[1])
        assert 0.99 < eps_star < 1.0

    def test_perturbative_report_parses(self, capsys):
        rc = main(["zero", "--g0", "0.55", "--method", "perturbative"])
        assert rc == 0
        # every "key = value" line must parse as a number
        report = {}
        for line in capsys.readouterr().out.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                report[key] = float(value)
        assert math.isfinite(report["perturbative analytic zero"])
        edge = report["perturbative distance to bracket edge"]
        assert 0.0 <= edge < 1.0 - report["perturbative eps_star"] + 1e-3


class TestW0Command:
    def test_rows_written(self, tmp_path):
        out = tmp_path / "w0.csv"
        rc = main(["w0", "--g0", "0.1", "--e-min", "0.2", "--e-max", "0.4",
                   "--steps", "3", "--output", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "eps_i,w0"
        assert len(lines) == 4
        assert all(float(l.split(",")[1]) >= 0.0 for l in lines[1:])


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["scan", "--g0", "0.2", "--e-min", "0.3", "--e-max", "0.6",
                "--steps", "4", "--n-max", "2", "--method", "perturbative"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        args = ["scan", "--g0", "0.2", "--e-min", "0.3", "--e-max", "0.6",
                "--steps", "4", "--n-max", "2", "--method", "perturbative"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(args + ["--output", str(serial)]) == 0
        assert main(args + ["--workers", "3", "--output", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        # nor a thread pool: grid points run serially whatever --workers says
        src = str(Path(drivendelta.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, drivendelta.cli; "
                "assert drivendelta.cli.__file__.startswith(sys.argv[1]), drivendelta.cli.__file__; "
                "assert 'scipy' not in sys.modules; "
                "assert 'concurrent.futures' not in sys.modules")
        result = subprocess.run([sys.executable, "-c", code, src], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
