"""Unit tests for the command-line interface."""

import functools
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

import drivendelta
from drivendelta import cli, renorm, smatrix
from drivendelta.cli import (ScanConfig, UsageError, cmd_compare, cmd_scan,
                             cmd_w0, main, parse_config)
from drivendelta.errors import ToleranceError
from drivendelta.renorm import gamma_elastic_closed
from drivendelta.smatrix import assemble
from drivendelta.smatrix import w0 as w0_weight


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

    def test_crlf_lines_counted_once(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"g0 = 0.2\r\n\r\ntol = fast\r\n")
        with pytest.raises(UsageError, match=":3:"):
            parse_config(str(path))


# one row per rule of cli._SETTINGS: the setting, a value that breaks that
# rule alone against the defaults, and the error it gives
_RULES = [
    ("g0", "inf", "g0 must be finite, got inf"),
    ("eps_min", "nan", "eps_min must be finite, got nan"),
    ("eps_max", "-inf", "eps_max must be finite, got -inf"),
    ("tol", "nan", "tol must be finite, got nan"),
    ("method", "exact",
     "method must be one of ('perturbative', 'floquet', 'both'), got 'exact'"),
    ("order", "second", "order must be one of ('first', 'renormalized'), got 'second'"),
    ("output_format", "xml", "output_format must be one of ('csv', 'json'), got 'xml'"),
    ("g0", "-0.5", "g0 must be >= 0, got -0.5"),
    ("eps_min", "0", "eps_min must be positive, got 0.0"),
    ("eps_max", "0.2", "need eps_min < eps_max, got [0.2, 0.2]"),
    ("tol", "0", "tol must be positive, got 0.0"),
    ("steps", "1", "steps must be >= 2, got 1"),
    ("n_max", "-1", "n_max must be >= 0, got -1"),
    ("workers", "0", "workers must be >= 1, got 0"),
]


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

    def test_bare_order_removed(self, config_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--order", "second_bare"])
        assert exc.value.code == 2
        rc = main(["scan", "--config", config_file("order = second_bare\n")])
        assert rc == 2
        assert "order must be one of ('first', 'renormalized')" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        rc = main(["scan", "--g0", "0.1", "--steps", "1",
                   "--output", str(tmp_path / "out.csv")])
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["scan", "zero", "compare", "w0"])
    @pytest.mark.parametrize("flag", ["--g0", "--e-min", "--e-max", "--tol"])
    def test_non_finite_flag_is_usage_error(self, flag, command, value, capsys):
        # nan slipped past every `<= 0` check: a traceback from `zero --g0 nan`,
        # a misleading numeric failure from `scan --e-min nan`, numbers from
        # `w0 --tol nan`
        reads = cli._READS[command]
        argv = ([command, f"{flag}={value}"] + ["--steps", "2"] * ("steps" in reads)
                + ["--n-max", "0"] * ("n_max" in reads))
        key = flag[2:].replace("e-", "eps_")
        if key not in reads:    # zero builds no grid: its flag is unknown
            with pytest.raises(SystemExit, match="^2$"):
                main(argv)
            return
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {key} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("key", ["g0", "eps_min", "eps_max", "tol"])
    def test_non_finite_config_value_rejected(self, key):
        with pytest.raises(UsageError, match=f"{key} must be finite"):
            replace(ScanConfig(), **{key: math.nan}).validate()

    @pytest.mark.parametrize("key,value,message", _RULES)
    def test_every_rule(self, config_file, capsys, key, value, message):
        # the range rules were once seven hand-written branches, four of
        # them run by no test
        flag, kind, choices, _, _ = cli._SETTINGS[key]
        with pytest.raises(UsageError) as exc:
            replace(ScanConfig(), **{key: kind(value)}).validate()
        assert str(exc.value) == message
        path = config_file(f"{key} = {value}\n")
        for command in [c for c, reads in cli._READS.items() if key in reads]:
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            argv = [command, f"{flag}={value}"]
            if choices is None:
                assert main(argv) == 2
                assert capsys.readouterr().err == f"error: {message}\n"
                continue
            with pytest.raises(SystemExit, match="^2$"):    # argparse checks choices
                main(argv)
            assert (f"drivendelta {command}: error: argument {flag}: invalid choice: "
                    f"{value!r}") in capsys.readouterr().err

    def test_every_rule_has_a_row(self):
        bounded = {key for key, row in cli._SETTINGS.items()
                   if row[2] is not None or row[3] is not None}
        finite = {key for key, row in cli._SETTINGS.items() if row[1] is float}
        assert bounded == {key for key, _, m in _RULES if "finite" not in m}
        assert finite == {key for key, _, m in _RULES if "finite" in m}

    def test_config_line_without_equals(self, config_file, capsys):
        path = config_file("g0 = 0.3\nsteps 5\n")
        message = f"{path}:2: expected 'key = value', got 'steps 5'"
        with pytest.raises(UsageError) as exc:
            parse_config(path)
        assert str(exc.value) == message
        assert main(["w0", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# two valid values of each setting; every command that reads it writes
# something different for the two
_TWO_VALUES = {
    "g0": ("0.55", "0.7"), "eps_min": ("0.5", "0.55"), "eps_max": ("0.7", "0.8"),
    "tol": ("1e-4", "1e-10"), "steps": ("2", "3"), "n_max": ("0", "1"),
    "method": ("perturbative", "floquet"), "order": ("first", "renormalized"),
    "output_format": ("csv", "json"), "output_path": ("a.out", "b.out")}


class TestFlags:
    """A command accepts a flag only for a setting it reads (``cli._READS``)."""

    BASE = {"g0": "0.55", "eps_min": "0.5", "eps_max": "0.7", "steps": "2", "n_max": "1"}

    def argv(self, command, key, value):
        """``command`` with the base value of each setting it reads, then
        ``key``'s flag, which overrides its base value."""
        reads = cli._READS[command]
        base = [arg for k, v in self.BASE.items() if k in reads
                for arg in (cli._SETTINGS[k][0], v)]
        return [command] + base + [cli._SETTINGS[key][0], value]

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, keys in cli._READS.items()
        for key in keys if key != "workers"])    # scan accepts --workers, which changes nothing
    def test_every_flag_changes_something(self, tmp_path, monkeypatch, capsys,
                                          command, key):
        seen = []
        for i, value in enumerate(_TWO_VALUES[key]):
            cwd = tmp_path / str(i)
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            rc = main(self.argv(command, key, value))
            written = {p.name: p.read_bytes() for p in cwd.iterdir()}
            seen.append((rc, capsys.readouterr().out, written))
        assert seen[0] != seen[1]

    @pytest.mark.parametrize("command", sorted(cli._READS))
    def test_unread_flags_are_usage_errors(self, command, capsys):
        unread = [key for key in cli._SETTINGS if key not in cli._READS[command]]
        assert len(unread) == {"scan": 0, "zero": 8, "compare": 2, "w0": 4}[command]
        for key in unread:
            flag, _, choices, _, _ = cli._SETTINGS[key]
            with pytest.raises(SystemExit, match="^2$"):
                main([command, flag, choices[0] if choices else "1"])
            assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    def test_unread_flag_shows_the_command_usage(self, capsys):
        # the error once came with the program's usage line,
        # "usage: drivendelta [-h] {scan,zero,compare,w0} ..."
        with pytest.raises(SystemExit, match="^2$"):
            main(["zero", "--g0", "0.3", "--output", "z.json"])
        err = capsys.readouterr().err
        assert err.startswith("usage: drivendelta zero [-h] ")
        assert err.endswith("drivendelta zero: error: unrecognized arguments: "
                            "--output z.json\n")

    @pytest.mark.parametrize("argv", [
        # zero once exited 0, printed its report and wrote no file; the
        # others computed what they would without the flag
        ["zero", "--g0", "0.3", "--method", "floquet", "--output", "z.json",
         "--format", "json"],
        ["w0", "--order", "first"], ["compare", "--method", "floquet"]])
    def test_ignored_flags_are_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="^2$"):
            main(argv)
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_config_keys_are_shared(self, config_file, capsys):
        # a file may set what another command reads; a command ignores those
        # keys, but the file is still validated as a whole
        argv = ["w0", "--g0", "0.3", "--e-min", "0.5", "--e-max", "0.7", "--steps", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        path = config_file("method = floquet\norder = first\nn_max = 9\nworkers = 2\n")
        assert main(argv + ["--config", path]) == 0
        assert capsys.readouterr().out == plain
        assert main(["zero", "--config", config_file("eps_min = 4\n")]) == 2
        assert capsys.readouterr().err == "error: need eps_min < eps_max, got [4.0, 3.0]\n"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("g0", ["0.1", "0.7"])
    @pytest.mark.parametrize("method", ["floquet", "perturbative", "both"])
    def test_elastic_column_is_the_channel_0_flux(self, tmp_path, method, g0, fmt):
        # T_elastic and T_0 are one value, bit for bit, in every row; the
        # grid crosses the thresholds eps = 1-4, where the open channels change
        out = tmp_path / f"scan.{fmt}"
        assert main(["scan", "--g0", g0, "--e-min", "1", "--e-max", "4", "--steps", "13",
                     "--n-max", "2", "--method", method, "--format", fmt,
                     "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            rows = [(r["T_elastic"], r["T_0"]) for r in json.loads(text)["rows"]]
        else:
            header, *lines = text.splitlines()
            i, j = (header.split(",").index(name) for name in ("T_elastic", "T_0"))
            rows = [(v[i], v[j]) for v in (line.split(",") for line in lines)]
        assert len(rows) == 13
        assert all(elastic == t_0 and elastic is not None for elastic, t_0 in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_last_point_is_e_max(self, tmp_path, fmt):
        # 0.2 + 28 * (1.8 / 28) is 2.0000000000000004, which opens sideband
        # -2 at k_f ~ 3e-8: its row once wrote T_-2 = 2909014.85
        out = tmp_path / f"scan.{fmt}"
        assert main(["scan", "--g0", "0.7", "--e-min", "0.2", "--e-max", "2.0",
                     "--steps", "29", "--n-max", "2", "--method", "both",
                     "--format", fmt, "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            last = json.loads(text)["rows"][-1]
        else:
            header, *lines = text.splitlines()
            last = dict(zip(header.split(","), lines[-1].split(",")))
            assert (last["eps_i"], last["T_-2"]) == ("2", "0")
        assert (float(last["eps_i"]), float(last["T_-2"])) == (2.0, 0.0)

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

    def test_config_directory_is_usage_error(self, tmp_path, capsys):
        # once an IsADirectoryError traceback
        assert main(["scan", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(tmp_path)) in err

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        # once a UnicodeDecodeError traceback
        cfg = tmp_path / "latin1.txt"
        cfg.write_bytes(b"g0 = 0.1\n# caf\xe9\n")
        assert main(["scan", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text: ")

    @pytest.mark.parametrize("command", ["scan", "compare", "w0"])
    def test_output_directory_fails_before_computing(self, tmp_path, monkeypatch,
                                                     capsys, command):
        # once the whole table was computed, then os.replace raised
        # IsADirectoryError and left FILE.<pid>.tmp behind
        def forbidden(*args):
            raise AssertionError("no computing before the output check")

        for name in ("_perturbative_point", "transmission_grid"):
            monkeypatch.setattr(cli, name, forbidden)
        target = tmp_path / "out"
        target.mkdir()
        rc = main([command, "--g0", "0.1", "--steps", "2", "--output", str(target)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: output path {str(target)!r} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("command", ["scan", "w0"])
    @pytest.mark.parametrize("g0", ["1e9", "1e20", "1e200"])
    def test_huge_coupling_is_named(self, capsys, command, g0):
        # once an OverflowError traceback from renorm._nearest_odd or alpha_shift
        scan = ["--n-max", "0", "--method", "perturbative"] if command == "scan" else []
        rc = main([command, "--g0", g0, "--e-min", "0.5", "--e-max", "0.6",
                   "--steps", "2"] + scan)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: numeric failure at eps_i = 0.5: g0 must be small enough that "
            f"eps_i + g0**2/8 < 2**53, got {float(g0)} at eps_i = 0.5\n")

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

    @pytest.mark.parametrize("argv", [["scan", "--method", "floquet"],
                                      ["scan", "--method", "both", "--n-max", "0"],
                                      ["compare"]])
    def test_coupling_above_the_verified_truncation_fails(self, capsys, argv):
        # at g0 = 8 the default truncation once wrote T_elastic 0.00697 at
        # eps_i = 0.5, with exit 0, where N = 60, 120 and 240 all give 0.0537
        rc = main(argv + ["--g0", "8", "--e-min", "0.5", "--e-max", "0.6", "--steps", "2"])
        assert rc == 1
        assert capsys.readouterr() == ("", (
            "error: g0 = 8.0 is above 3.5, the largest coupling at which the "
            "sideband truncation is verified\n"))


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


class TestOneEvaluationPerRow:
    """A perturbative row reads every column off one ``assemble``."""

    def test_row_reads_the_decomposition(self):
        config = ScanConfig(g0=0.1, n_max=2)
        row = cli._perturbative_point(0.95, config)
        dec = assemble(0.95, 0.1, n_max=2)
        assert row[2:5] == (dec.w0, dec.loop.im, dec.loop.re)
        assert row[:2] == (abs(dec.R[0]) ** 2, dec.T_total)
        assert row[5:] == tuple(dec.flux.get(n, 0.0) for n in range(-2, 3))
        assert row[7] == abs(dec.T[0]) ** 2     # T_0, which T_elastic repeats

    def test_bound_route_once(self, monkeypatch):
        # a near point: the row once made two n = 0 b_renorm calls (one in
        # assemble, one in w0) and six renorm_factors calls
        calls = {"b_renorm": [], "renorm_factors": []}
        for name in calls:
            original = getattr(renorm, name)

            def counting(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(renorm, name, counting)
        cli._perturbative_point(0.95, ScanConfig(g0=0.1, n_max=2))
        assert [args[0] for args in calls["b_renorm"]].count(0) == 1
        assert len(calls["renorm_factors"]) <= 2
        del calls["b_renorm"][:]
        w0_weight(0.95, 0.1)
        assert [args[0] for args in calls["b_renorm"]] == [0]

    def test_first_order_row_has_no_bound_route_or_loop(self, tmp_path):
        # the row once carried the renormalized w0 and Gamma(0)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--g0", "0.7", "--e-min", "0.5", "--e-max", "0.6",
                     "--steps", "2", "--n-max", "1", "--method", "perturbative",
                     "--order", "first", "--output", str(out)]) == 0
        header, first = out.read_text(encoding="utf-8").splitlines()[:2]
        row = dict(zip(header.split(","), map(float, first.split(","))))
        assert (row["w0"], row["im_gamma"], row["re_gamma"]) == (0.0, 0.0, 0.0)
        assert row["T_elastic"] == 1.0
        assert row["T_total_pert"] == assemble(0.5, 0.7, order="first", n_max=1).T_total


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

    def test_empty_summary_is_null_in_json(self, tmp_path, capsys):
        # every point lies in the excluded window |eps_i - 1| < 0.45, so the
        # summary's max and mean are NaN, which JSON has no literal for
        out = tmp_path / "cmp.json"
        assert main(["compare", "--g0", "0.3", "--e-min", "0.9", "--e-max", "1.1",
                     "--steps", "3", "--n-max", "0", "--format", "json",
                     "--output", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
        summary = doc["metadata"]["summary"]
        assert summary["excluded_points"] == 3
        assert (summary["max_abs_diff"], summary["mean_abs_diff"]) == (None, None)
        assert "mean |diff| = nan\n" in capsys.readouterr().out


class TestZero:
    def test_undriven_reports_no_zero(self, capsys):
        rc = main(["zero", "--g0", "0"])
        assert rc == 0
        assert "no zero: free transmission" in capsys.readouterr().out

    @pytest.mark.parametrize("g0", ["0", "1.5", "2.8284271247461903", "3"])
    def test_coupling_range_checked_first(self, g0, monkeypatch, capsys):
        # above g0 = 1 both locators refuse; the pole prediction once ran
        # first and, from g0**2/8 >= 1 on, ended in a math domain error
        def forbidden(*args):
            raise AssertionError("no computing before the range check")

        monkeypatch.setattr(cli, "_pole_estimate", forbidden)
        rc = main(["zero", "--g0", g0])
        captured = capsys.readouterr()
        if g0 == "0":
            assert (rc, captured.out) == (0, "no zero: free transmission\n")
        else:
            assert rc == 2
            assert captured.err == f"error: the zero locators need g0 <= 1, got {float(g0)}\n"

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


def _reference_csv(columns, rows):
    """The per-cell CSV renderer the block one replaced."""
    lines = [",".join(columns)]
    lines.extend(",".join(format(row[c], ".17g") for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_json(command, config, columns, rows, extra_metadata=None):
    """The per-cell JSON renderer the block one replaced."""
    def clean(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    metadata = {"command": command, "version": drivendelta.__version__,
                "config": {f.name: getattr(config, f.name) for f in fields(ScanConfig)}}
    if extra_metadata:
        metadata.update(extra_metadata)
    doc = {"metadata": metadata, "columns": list(columns),
           "rows": [{c: clean(row[c]) for c in columns} for row in rows]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reference(command, config, columns, rows, extra_metadata=None):
    if config.output_format == "csv":
        return _reference_csv(columns, rows)
    return _reference_json(command, config, columns, rows, extra_metadata)


def _rows(columns, blocks):
    """Per-row dicts over all blocks; a column a block leaves empty is NaN."""
    return [{c: block[c][i] if c in block else math.nan for c in columns}
            for block in blocks for i in range(len(block["eps_i"]))]


class TestRendererReference:
    """Block output against the per-cell renderers, byte for byte."""

    GRID = dict(g0=0.3, eps_min=0.5, eps_max=3.5, steps=5, n_max=1)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", ["floquet", "perturbative", "both"])
    def test_scan(self, tmp_path, method, fmt):
        out = tmp_path / "scan.out"
        config = ScanConfig(method=method, output_format=fmt,
                            output_path=str(out), **self.GRID)
        assert cmd_scan(config) == 0
        columns = cli._scan_columns(config.n_max)
        blocks = list(cli._scan_blocks(config))
        empty = {"floquet": {"T_total_pert", "w0", "im_gamma", "re_gamma"},
                 "perturbative": {"T_total_floquet"}, "both": set()}[method]
        assert all(set(columns) - set(b) == empty for b in blocks)
        rows = _rows(columns, blocks)
        assert out.read_bytes() == _reference("scan", config, columns, rows).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare(self, tmp_path, fmt, capsys):
        out = tmp_path / "compare.out"
        config = ScanConfig(output_format=fmt, output_path=str(out), **self.GRID)
        assert cmd_compare(config) == 0
        printed = capsys.readouterr().out
        both = replace(config, method="both")
        scan = _rows(cli._scan_columns(both.n_max), cli._scan_blocks(both))
        columns = ["eps_i", "T_total_pert", "T_total_floquet", "abs_diff"]
        rows = [{"eps_i": r["eps_i"], "T_total_pert": r["T_total_pert"],
                 "T_total_floquet": r["T_total_floquet"],
                 "abs_diff": abs(r["T_total_pert"] - r["T_total_floquet"])}
                for r in scan]
        window = 5.0 * config.g0 * config.g0
        included = [r["abs_diff"] for r in rows if abs(r["eps_i"] - 1.0) >= window]
        assert 0 < len(included) < len(rows)
        summary = {"rows": len(rows),
                   "excluded_window": f"|eps_i - 1| < {format(window, '.17g')}",
                   "excluded_points": len(rows) - len(included),
                   "max_abs_diff": max(included),
                   "mean_abs_diff": sum(included) / len(included)}
        expected = _reference("compare", both, columns, rows, {"summary": summary})
        assert out.read_bytes() == expected.encode()
        assert f"mean |diff| = {format(summary['mean_abs_diff'], '.17g')}\n" in printed

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_w0(self, tmp_path, fmt):
        out = tmp_path / "w0.out"
        config = ScanConfig(output_format=fmt, output_path=str(out), **self.GRID)
        assert cmd_w0(config) == 0
        rows = [{"eps_i": e, "w0": w0_weight(e, config.g0, config.tol)}
                for grid in cli._blocks(config) for e in grid]
        expected = _reference("w0", config, ["eps_i", "w0"], rows)
        assert out.read_bytes() == expected.encode()

    def test_special_values(self, tmp_path):
        # two blocks; column "c" is empty, as a column the method leaves unfilled
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 1.0]
        columns = ["eps_i", "b", "c"]
        blocks = [{"eps_i": values[:3], "b": values[::-1][:3]},
                  {"eps_i": values[3:], "b": values[::-1][3:]}]
        rows = _rows(columns, blocks)
        out = tmp_path / "special.out"
        text = {}
        for fmt in ("csv", "json"):
            config = ScanConfig(output_format=fmt, output_path=str(out))
            cli._write_grid("scan", config, columns, iter(blocks))
            text[fmt] = out.read_text(encoding="utf-8")
            assert text[fmt] == _reference("scan", config, columns, rows)
        assert "\n-0,4.9406564584124654e-324,nan\n" in text["csv"]


def _blocked_run(monkeypatch, capsys, tmp_path, block, argv):
    """Output file and printed text of ``main(argv)`` with blocks of ``block`` energies."""
    monkeypatch.setattr(cli, "_BLOCK", block)
    out = tmp_path / "blocks.out"
    assert main(argv + ["--output", str(out)]) == 0
    printed = capsys.readouterr().out
    monkeypatch.undo()
    return out.read_bytes(), printed


class TestBlocks:
    """The grid commands work through the grid in blocks of ``cli._BLOCK`` energies."""

    # crosses three thresholds, so a block of 3 splits a group of equal
    # truncation into a lone energy (1.45) and the rest
    GRID = ["--g0", "0.3", "--e-min", "0.45", "--e-max", "3.45"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", [
        ["scan", "--method", "floquet", "--n-max", "1"],
        ["scan", "--method", "perturbative", "--n-max", "1"],
        ["scan", "--method", "both", "--n-max", "1"], ["compare", "--n-max", "1"], ["w0"]])
    @pytest.mark.parametrize("block,steps", [(2, 6), (2, 7), (3, 7), (3, 8)])
    def test_blocks_match_one_block(self, monkeypatch, capsys, tmp_path,
                                    command, fmt, block, steps):
        argv = command + self.GRID + ["--steps", str(steps), "--format", fmt]
        single = _blocked_run(monkeypatch, capsys, tmp_path, steps, argv)
        assert _blocked_run(monkeypatch, capsys, tmp_path, block, argv) == single
        assert cli._BLOCK == 256 and single[0].count(b"\n") > steps

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        peaks = {}
        for steps in (4000, 40000):
            argv = ["scan", "--g0", "0.7", "--n-max", "4", "--method", "floquet",
                    "--steps", str(steps), "--output", str(tmp_path / "scan.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40000] < 4 * 2 ** 20
        assert peaks[40000] < 1.5 * peaks[4000]

    def test_perturbative_memory_does_not_grow_with_the_grid(self, monkeypatch, tmp_path):
        # every energy leaves a loop value in the gamma_loop cache, which
        # must keep only the entries one energy reuses; blocks of 50 make
        # both grids whole blocks, so their block memory is the same
        monkeypatch.setattr(cli, "_BLOCK", 50)
        peaks = {}
        for steps in (200, 1000):
            argv = ["scan", "--g0", "0.1", "--e-min", "0.2", "--e-max", "0.5",
                    "--n-max", "0", "--method", "perturbative",
                    "--steps", str(steps), "--output", str(tmp_path / "scan.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] < 1.2 * peaks[200]

    def test_compare_summary_memory_does_not_grow_with_the_grid(self, monkeypatch,
                                                                tmp_path):
        # the summary keeps running totals, not one abs_diff per row; small
        # blocks keep the block memory below the growth a per-row list shows.
        # The interpreter's free lists keep freed tuples and floats, and
        # tracemalloc counts those it saw allocated, so how full they are
        # would depend on the tests run before this one: a full collection
        # empties them and an untraced run as long as the longest traced one
        # refills them; the collector is paused so no traced run empties them
        monkeypatch.setattr(cli, "_BLOCK", 16)

        def run(steps):
            argv = ["compare", "--g0", "0", "--e-min", "0.2", "--e-max", "0.9",
                    "--n-max", "0", "--steps", str(steps),
                    "--output", str(tmp_path / "compare.csv")]
            assert main(argv) == 0

        peaks = {}
        gc.collect()
        gc.disable()
        try:
            run(10000)
            for steps in (1000, 10000):
                tracemalloc.start()
                try:
                    run(steps)
                    peaks[steps] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        # a list of one value per row costs at least a pointer per row
        assert peaks[10000] - peaks[1000] < 8 * 9000

    ARGV = ["--g0", "0", "--e-min", "0.5", "--e-max", "1.0", "--steps", "6",
            "--n-max", "0"]   # eps = 1.0, singular when undriven, is in the second block
    ERROR = ("error: numeric failure at eps_i = 1.0: "
             "singular sideband system at eps_i = 1.0\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", [
        ["scan", "--method", "floquet"], ["scan", "--method", "both"], ["compare"]])
    def test_failure_in_second_block(self, monkeypatch, capsys, tmp_path, command, fmt):
        monkeypatch.setattr(cli, "_BLOCK", 3)
        argv = command + self.ARGV + ["--format", fmt]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == self.ERROR
        # standard output keeps the first block's complete lines, the header
        # with them; JSON is one document, written only on success
        if fmt == "csv":
            assert captured.out.endswith("\n") and captured.out.count("\n") == 4
            assert all(line.count(",") == captured.out.count(",") // 4
                       for line in captured.out.splitlines())
        else:
            assert captured.out == ""
        new = tmp_path / "new.out"
        assert main(argv + ["--output", str(new)]) == 1
        old = tmp_path / "old.out"
        old.write_text("kept\n", encoding="utf-8")
        assert main(argv + ["--output", str(old)]) == 1
        assert old.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.out"]
        assert capsys.readouterr().err == 2 * self.ERROR

    def test_blocks_fail_in_grid_order(self, monkeypatch, capsys):
        # a perturbative failure in the first block is reported before the
        # exact one of the second block
        point = cli._perturbative_point

        def failing(eps, config):
            if eps == 0.6:
                raise ToleranceError("injected")
            return point(eps, config)

        monkeypatch.setattr(cli, "_BLOCK", 3)
        monkeypatch.setattr(cli, "_perturbative_point", failing)
        assert main(["scan", "--method", "both"] + self.ARGV) == 1
        assert capsys.readouterr().err == "error: numeric failure at eps_i = 0.6: injected\n"


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


class TestCaches:
    def test_per_energy_caches_lose_no_hit(self, monkeypatch):
        # up to 41 open sidebands per energy, near and far from the pole:
        # the caches sized for one energy hit and miss as one of 4096 does
        argv = ["scan", "--g0", "0.3", "--e-min", "0.95", "--e-max", "20.99",
                "--steps", "5", "--n-max", "20", "--method", "perturbative"]
        counts = {}
        for size in (renorm._PER_ENERGY, 4096):
            with monkeypatch.context() as patch:
                caches = []
                for name in ("gamma_loop", "alpha_shift", "beta_width"):
                    original = getattr(renorm, name)
                    fresh = functools.lru_cache(maxsize=size)(original.__wrapped__)
                    for module in (renorm, smatrix):
                        if getattr(module, name, None) is original:
                            patch.setattr(module, name, fresh)
                    caches.append(fresh)
                assert main(argv) == 0
                counts[size] = [cache.cache_info()[:2] for cache in caches]
        assert counts[renorm._PER_ENERGY] == counts[4096]
        assert all(hits > 0 for hits, _ in counts[4096])
        assert renorm.gamma_loop.cache_info().maxsize == renorm._PER_ENERGY < 4096


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        # nor a thread pool: grid points run serially whatever --workers says
        src = str(Path(drivendelta.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, drivendelta.cli; "
                "assert drivendelta.cli.__file__.startswith(sys.argv[1]), drivendelta.cli.__file__; "
                "assert 'scipy' not in sys.modules; "
                "assert 'numpy.polynomial' not in sys.modules; "
                "assert 'json' not in sys.modules; "
                "assert 'concurrent.futures' not in sys.modules")
        result = subprocess.run([sys.executable, "-c", code, src], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
