"""Smoke tests of the experiments in ``scripts/``, loaded by path."""

import importlib.util
import json
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
    assert lines == ["SAME  " + " ".join(argv) for argv in picked] \
        + ["SAME 2, CLOSE 0, DIFF 0 of 2 commands"]
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
    out = capsys.readouterr().out
    assert out.split()[0] == label
    assert out.splitlines()[-1] == (f"SAME 0, CLOSE {int(label == 'CLOSE')}, "
                                    f"DIFF {int(label == 'DIFF')} of 1 commands")
    # without rtol every difference is a DIFF
    assert module.compare("old", "new", [("scan",)]) == 1
    assert capsys.readouterr().out.split()[0] == "DIFF"
    if close is not None:
        assert 0 < close < 1e-15


def _result(setup_s, points_per_s, zero_s, rss, failed=0, correct=True):
    values = {"setup_s": setup_s, "points_per_s": points_per_s, "zero_s": zero_s,
              "peak_rss_mib": rss}
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def test_bench_pairs_order_and_summary(capsys):
    module = _load("bench_pairs")
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append((root, seed))
        # the change: setup 30 % slower with a tight parent spread, points
        # unchanged, zero_s 10 % faster, memory with a spread above its bound
        slow = 1.3 if root == "new" else 1.0
        return _result(0.1 * slow + 0.001 * seed, 100.0 + seed,
                       0.2 / (1.1 if root == "new" else 1.0),
                       30.0 + (10.0 * (seed % 2) if root == "old" else 0.0))

    runs = module.collect(("old", "new"), ["zero"], [1, 2, 3, 4], 30.0, runner)
    assert calls == [("old", 1), ("new", 1), ("new", 2), ("old", 2),
                     ("old", 3), ("new", 3), ("new", 4), ("old", 4)]
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    lines, ok = module.summarize(runs, spec)
    assert not ok
    assert lines[0] == ("zero: 4 pairs; parent: attempted 48, failed 0, correct 4/4; "
                        "change: attempted 48, failed 0, correct 4/4")
    verdicts = {line.split()[0]: line.split("  ")[-1] for line in lines[2:]}
    assert verdicts["setup_s"].startswith("worse (d +29.")
    assert verdicts["points_per_s"] == "no worse (d +0.0%, bound 25%)"
    assert verdicts["zero_s"] == "no worse (d -9.1%, bound 25%)"
    assert verdicts["peak_rss_mib"].startswith("unresolved (d -14.3%")
    wins = {line.split()[0]: line.split()[4] for line in lines[2:]}
    assert wins == {"setup_s": "0/4", "points_per_s": "0/4", "zero_s": "4/4",
                    "peak_rss_mib": "2/4"}


def test_bench_pairs_counts_failed_commands():
    module = _load("bench_pairs")
    runs = {"spectrum": {"parent": [_result(0.1, 20.0, 0.2, 31.0)],
                         "change": [_result(0.1, 20.0, 0.2, 31.0, failed=1, correct=False)]}}
    lines, ok = module.summarize(runs, [{"name": "setup_s", "better": "lower", "bound": 0.25}])
    assert not ok
    assert lines[0].endswith("change: attempted 12, failed 1, correct 0/1")
    assert lines[2].split("  ")[-1] == "no worse (d +0.0%, bound 25%)"
