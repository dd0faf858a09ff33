"""Smoke tests of the experiments in ``scripts/``, loaded by path."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_zero_threshold_law(capsys):
    assert _load("zero_threshold_law").main(["--g0", "0.05", "0.1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert "64 delta/g0^4" in header
    assert len(rows) == 2
    for row in rows:
        # columns: g0, eps_star, delta, delta/g0^2, 64 delta/g0^4, |t0|^2
        assert float(row.split()[4]) == pytest.approx(1.0, rel=0.05)


def test_w0_curves(tmp_path):
    out = tmp_path / "w0.csv"
    assert _load("w0_curves").main(["--steps", "3", "--output", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "eps_i,w0_g0.1,w0_g0.7"
    assert len(rows) == 3
    for row in rows:
        values = [float(v) for v in row.split(",")]
        assert len(values) == 3 and all(math.isfinite(v) for v in values)
