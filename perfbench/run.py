"""The repository's benchmark: CLI workloads, timed end to end, checked and traced.

    python3 perfbench/run.py --workload {spectrum,zero} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``drivendelta`` from
``src/`` there.  Every CLI command runs in a fresh interpreter through
``drivendelta.cli.main`` (``child.py``), one at a time, with the CLI's
default worker count.  Untraced, a run first times the set-up of the
package in fresh interpreters (after one untimed warm-up interpreter), then
repeats whole rounds of its workload's commands until ``S`` seconds have
passed (at least one round), then checks every output against the
computations in ``reference``.  Traced, a run makes exactly one round
with spans recorded, so its counts repeat exactly for one seed, and
reports the per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to standard
error.  Outputs and traces are kept under ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from checks import Checker
from spans import PER_LAYER, parse_importtime, summarize
from workloads import WORKLOADS, plan

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5       # fresh-interpreter set-ups per untraced run (median)
IMPORT_SAMPLES = 3      # -X importtime samples per traced run (median)
COMMAND_TIMEOUT = 170.0
END_TO_END = {"setup_s": "s", "points_per_s": "1/s", "zero_s": "s",
              "peak_rss_mib": "MiB"}


def run_child(root: str, args, stdout_path: str, python_flags=()):
    """Run ``child.py`` in a fresh interpreter and wait for it to end.

    Returns (wall seconds, exit code, stderr text).
    """
    cmd = [sys.executable, *python_flags, os.path.join(HERE, "child.py"), *args]
    err_path = stdout_path + ".err"
    with open(stdout_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=root)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read()
    return wall, proc.returncode, stderr


def _peak_rss_mib(stderr: str):
    """The ``peak_rss_kib`` line ``child.py run`` ends its standard error with."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("peak_rss_kib "):
            return int(line.split()[1]) / 1024.0
    return None     # the command was killed


def run(workload: str, seed: int, seconds: float, trace: bool, root: str = ".",
        size: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "drivendelta", "cli.py")):
        raise FileNotFoundError(f"no src/drivendelta/cli.py under {root}; "
                                "run from the root of a drivendelta checkout")
    if os.path.join(root, "src") not in sys.path:
        sys.path.insert(0, os.path.join(root, "src"))   # for the loop reference
    commands = plan(workload, seed, size)
    out_dir = os.path.join(root, ".bench_out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    if trace:
        samples = []
        for i in range(IMPORT_SAMPLES):
            path = os.path.join(out_dir, f"importtime-{i}.txt")
            _, code, stderr = run_child(root, ["setup"], path, ("-X", "importtime"))
            if code != 0:
                raise RuntimeError(f"set-up failed: {stderr[-2000:]}")
            samples.append(parse_importtime(stderr))
    else:
        setups = []
        for i in range(-1, SETUP_SAMPLES):     # sample -1 warms up, untimed
            path = os.path.join(out_dir, f"setup-{i}.txt")
            _, code, stderr = run_child(root, ["setup"], path)
            if code != 0:
                raise RuntimeError(f"set-up failed: {stderr[-2000:]}")
            if i >= 0:
                with open(path) as fh:
                    setups.append(float(fh.read()))

    done = []       # (command, wall, rss, exit code, stdout path, trace path)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (not trace and time.perf_counter() - start < seconds):
        for i, cmd in enumerate(commands):
            path = os.path.join(out_dir, f"r{rounds}-c{i}-{cmd.kind}.txt")
            trace_path = path + ".trace.json" if trace else None
            opts = ["--trace", trace_path] if trace else []
            wall, code, stderr = run_child(root, ["run", *opts, "--", *cmd.argv], path)
            rss = _peak_rss_mib(stderr)
            if code != 0:
                print(f"command failed ({code}): {' '.join(cmd.argv)}\n{stderr[-2000:]}",
                      file=sys.stderr)
            done.append((cmd, wall, rss, code, path, trace_path))
        rounds += 1

    checker = Checker()
    failed, correct, rows = 0, True, {}
    for cmd, wall, rss, code, path, _ in done:
        if code != 0:
            failed += 1
            continue
        with open(path) as fh:
            text = fh.read()
        problems = (checker.scan if cmd.kind == "scan" else checker.zero)(cmd, text)
        if problems:
            failed += 1
            correct = False
            print(f"check failed: {' '.join(cmd.argv)}", file=sys.stderr)
            for p in problems[:10]:
                print(f"  {p}", file=sys.stderr)
        if cmd.kind == "scan":
            rows[path] = text.count("\n") - 1

    for cmd, wall, rss, code, path, _ in done:
        print(f"{wall:9.3f} s {rss or 0:7.1f} MiB rc={code} rows={rows.get(path, '-'):>5} "
              f"{' '.join(cmd.argv)}", file=sys.stderr)
    print(f"{rounds} round(s), {time.perf_counter() - start:.1f} s", file=sys.stderr)

    if trace:
        dumps = []
        for *_, code, _, trace_path in done:
            if code == 0:
                with open(trace_path) as fh:
                    dumps.append(json.load(fh))
        values = summarize(dumps, samples)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        scan_wall = sum(d[1] for d in done if d[0].kind == "scan")
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": sum(rows.values()) / scan_wall,
            "zero_s": statistics.median(d[1] for d in done if d[0].kind == "zero"),
            "peak_rss_mib": max((d[2] for d in done if d[2] is not None), default=0.0),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": correct, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
