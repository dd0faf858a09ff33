"""Run the benchmark in alternating parent/change pairs and judge each metric.

For every workload and seed, runs ``python3 perfbench/run.py --workload W
--seed S --seconds T`` once in each of two checkouts, one run at a time,
the parent first on odd seeds and the change first on even ones.  Each run
uses the ``perfbench/`` of its own checkout and inherits this process's
environment (set ``PYTHONDONTWRITEBYTECODE=1`` to time fresh checkouts).
The last line of a run's standard output is its result object; each one is
echoed to standard error as it arrives.

Then, per workload, it prints ``attempted``, ``failed`` and the correct runs
of each side, and per end-to-end metric of ``BENCHMARK.json`` (read next to
this script): both medians, the parent's interquartile range, the pairs the
change wins, and a verdict.  With the change's median worse than the
parent's by the fraction d (signed so that d > 0 is worse by the metric's
``better``), the verdict is ``unresolved`` where the parent's interquartile
range exceeds ``bound`` times its median, else ``worse`` where d > bound,
else ``no worse``; d is printed beside it.  Exits 1 if any verdict is
``worse``, if the change's side failed more commands than the parent's or
had an incorrect run, or if a run gave no result line.

Usage:
    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --seeds 1 2 3 \\
        [--workloads spectrum zero] [--seconds 30]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

Result = Dict     # one run's result object: correct, attempted, failed, metrics
Runs = Dict[str, Dict[str, List[Result]]]     # workload -> side -> results in seed order


def run_once(root: str, workload: str, seed: int, seconds: float) -> Result:
    """One benchmark run in checkout ``root``; its last standard-output line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"no result from {root} ({workload}, seed {seed}, "
                           f"exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def collect(roots: Tuple[str, str], workloads: Sequence[str], seeds: Sequence[int],
            seconds: float, runner: Callable[..., Result] = run_once) -> Runs:
    """Every (workload, seed) pair, the parent first on odd seeds."""
    runs: Runs = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for seed in seeds:
            order = (0, 1) if seed % 2 else (1, 0)
            for i in order:
                result = runner(roots[i], workload, seed, seconds)
                runs[workload][SIDES[i]].append(result)
                print(f"{workload} seed {seed} {SIDES[i]}: {json.dumps(result)}",
                      file=sys.stderr, flush=True)
    return runs


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, d): d is the change's median against the parent's, as a
    fraction of the parent's, > 0 where the change is worse."""
    p, c = statistics.median(parent), statistics.median(change)
    d = (c - p) / p if better == "lower" else (p - c) / p
    if _iqr(parent) > bound * abs(p):
        return "unresolved", d
    return ("worse" if d > bound else "no worse"), d


def summarize(runs: Runs, end_to_end: Sequence[Dict]) -> Tuple[List[str], bool]:
    """The report's lines, and whether every verdict and run is acceptable."""
    lines, ok = [], True
    for workload, sides in runs.items():
        counts = []
        for side in SIDES:
            results = sides[side]
            counts.append(f"{side}: attempted {sum(r['attempted'] for r in results)}, "
                          f"failed {sum(r['failed'] for r in results)}, "
                          f"correct {sum(bool(r['correct']) for r in results)}/{len(results)}")
        parent_failed, change_failed = (sum(r["failed"] for r in sides[s]) for s in SIDES)
        ok &= change_failed <= parent_failed and all(r["correct"] for r in sides["change"])
        lines.append(f"{workload}: {len(sides['parent'])} pairs; " + "; ".join(counts))
        lines.append(f"  {'metric':<14}{'parent median':>15}{'change median':>15}"
                     f"{'parent IQR':>13}{'wins':>7}  verdict")
        for spec in end_to_end:
            name, better, bound = spec["name"], spec["better"], spec["bound"]
            parent, change = ([r["metrics"][name]["value"] for r in sides[s]] for s in SIDES)
            wins = sum((c < p) if better == "lower" else (c > p)
                       for p, c in zip(parent, change))
            word, d = verdict(parent, change, better, bound)
            ok &= word != "worse"
            lines.append(f"  {name:<14}{statistics.median(parent):>15.6g}"
                         f"{statistics.median(change):>15.6g}{_iqr(parent):>13.4g}"
                         f"{f'{wins}/{len(parent)}':>7}  {word} "
                         f"(d {d:+.1%}, bound {bound:.0%})")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    try:
        runs = collect((args.parent, args.change), args.workloads, args.seeds, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines, ok = summarize(runs, spec["end_to_end"])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
