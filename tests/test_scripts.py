"""Smoke tests of the experiments in ``scripts/``, loaded by path."""

import importlib.util
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


def test_output_diff_same_checkout(capsys):
    # the repository against itself: one command on standard output, one
    # with a JSON --output file
    module = _load("output_diff")
    root = SCRIPTS.parent
    cmds = module.commands()
    # a 3-point w0 grid at g0 0.1 across the near/far switch
    grid = next(a for a in cmds if a[:3] == ("w0", "--g0", "0.1") and a[-1] == "3")
    picked = [grid, grid + ("--format", "json", "--output", module.OUTPUT)]
    assert picked[1] in cmds
    assert module.compare(root, root, picked) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["SAME  " + " ".join(argv) for argv in picked]
    assert module.run(root, picked[1])[3].startswith(b"{\n")


@pytest.mark.parametrize("new, label", [
    (b"eps_i,T\n0.5,0.12345678901234566\n", "CLOSE"),   # a last-digit change
    (b"eps_i,T,R\n0.5,0.12345678901234568\n", "DIFF"),  # a layout change
    (b"eps_i,T\n0.5,0.1234567890124\n", "DIFF"),        # a change above rtol
], ids=["last-digit", "layout", "above-rtol"])
def test_output_diff_rtol(new, label, monkeypatch, capsys):
    module = _load("output_diff")
    old = b"eps_i,T\n0.5,0.12345678901234568\n"
    outputs = {"old": (0, old, b"", None), "new": (0, new, b"", None)}
    monkeypatch.setattr(module, "run", lambda root, argv: outputs[root])
    close = module.numbers_close(old, new, 1e-13)
    assert (close is not None) == (label == "CLOSE")
    assert module.compare("old", "new", [("scan",)], rtol=1e-13) == (label == "DIFF")
    assert capsys.readouterr().out.split()[0] == label
    # without rtol every difference is a DIFF
    assert module.compare("old", "new", [("scan",)]) == 1
    assert capsys.readouterr().out.split()[0] == "DIFF"
    if close is not None:
        assert 0 < close < 1e-15
