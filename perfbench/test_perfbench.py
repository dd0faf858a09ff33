"""The benchmark's own test, on tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

from the root of the repository (about a minute).
"""

import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import ZERO_G0, _scan, _zero  # noqa: E402
from drivendelta.cli import main as cli_main  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _cli(cmd):
    out = StringIO()
    with redirect_stdout(out):
        assert cli_main(list(cmd.argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def traced_twice():
    return [run.run("spectrum", 3, 0, True, root=ROOT, size="tiny") for _ in range(2)]


def test_untraced_metrics_match_benchmark_json():
    result = run.run("zero", 3, 0, False, root=ROOT, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_metrics_match_benchmark_json(traced_twice):
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for result in traced_twice:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_counts_repeat(traced_twice):
    first, second = ({k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
                     for r in traced_twice)
    assert first == second
    assert first["renorm.gamma_loop.calls"] > 0 and first["floquet.solves_per_zero"] > 0


def _with(text, row, column, value):
    """CSV ``text`` with one cell replaced."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(value)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _cell(text, row, column):
    return checks.parse_scan(text)[row][column]


def test_scan_checks_reject_wrong_values():
    checker = checks.Checker()
    floquet = _scan(0.7, 0.3, 0.45, 4, 2, "floquet")
    text = _cli(floquet)
    assert checker.scan(floquet, text) == []
    for column in ("T_total_floquet", "T_elastic", "T_1"):
        wrong = _with(text, 1, column, _cell(text, 1, column) + 1e-7)
        assert checker.scan(floquet, wrong), column
    assert checker.scan(floquet, _with(text, 0, "T_-1", -1e-3))
    assert checker.scan(floquet, _with(text, 0, "R_elastic", float("nan")))
    assert checker.scan(floquet, text.rsplit("\n", 2)[0] + "\n")     # a row short

    weak = _scan(0.1, 0.3, 0.6, 2, 0, "both", loop_rows=(1,))
    text = _cli(weak)
    assert checker.scan(weak, text) == []
    assert checker.scan(weak, _with(text, 0, "T_total_pert",
                                    _cell(text, 0, "T_total_pert") + 2e-3))
    assert checker.scan(weak, _with(text, 1, "re_gamma", _cell(text, 1, "re_gamma") + 1e-7))


def _zero_text(report):
    return "\n".join(f"{k} = {v!r}" for k, v in report.items()) + "\n"


def test_zero_checks_reject_wrong_values():
    checker = checks.Checker()
    weak = _zero(0.1, "floquet")
    report = checks.parse_zero(_cli(weak))
    assert checker.zero(weak, _zero_text(report)) == []
    eps = report["floquet eps_star"]
    assert checker.zero(weak, _zero_text({**report, "floquet eps_star": eps + 1e-8}))
    assert checker.zero(weak, _zero_text({**report, "floquet |t_0|^2 at zero": 1e-3}))
    shifted = {**report, "floquet eps_star": eps - 0.1 * (1.0 - eps)}
    assert any("threshold law" in p for p in checker.zero(weak, _zero_text(shifted)))

    both = replace(_zero(ZERO_G0, "floquet"), method="both")
    exact = checks.parse_zero(_cli(_zero(ZERO_G0, "floquet")))
    eps_f = exact["floquet eps_star"]

    def report_with(eps_p):
        return _zero_text({**exact, "perturbative eps_star": eps_p,
                           "perturbative |T(0)|^2 at zero": 0.01,
                           "discrepancy": abs(eps_p - eps_f)})

    assert checker.zero(both, report_with(eps_f + 1e-3)) == []
    assert checker.zero(both, report_with(eps_f + 3e-2))
    assert checker.zero(both, report_with(1.0 + 1e-4))
    assert checker.zero(both, report_with(eps_f - 3e-2))
    bad = checks.parse_zero(report_with(eps_f + 1e-3))
    assert checker.zero(both, _zero_text({**bad, "discrepancy": 0.5}))


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zero",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
