"""Compare the CLI output of two drivendelta checkouts over a fixed command list.

Runs every command of the list once in each checkout, in a fresh
interpreter with ``PYTHONPATH=<root>/src`` and a fresh working directory,
and compares standard output, standard error, the exit code and the
``--output`` file.  Prints ``SAME`` or ``DIFF`` per command and exits 1 if
any command differs.  With ``--rtol R``, a command whose outputs differ
only in numbers, each within relative ``R`` (:func:`numbers_close`), prints
``CLOSE`` with its worst relative difference instead, and does not count
as differing.

The list: both benchmark workloads' commands at seeds 1 and 2 (read from
``perfbench/workloads.py`` next to this script); ``w0`` grids over
0.1-3.0 and 1e-9 either side of both near/far switch edges at g0 0, 0.1
and 0.7; perturbative ``scan --n-max 2`` grids over the same switch
windows at g0 0.1 and 0.7, where the sidebands' bound route switches
with the elastic one; a perturbative ``scan`` at g0 0.7 over 0.1-3.0;
``compare`` at g0 0.3; ``scan`` (both methods, g0 0.7) and ``compare``
(g0 0.3) at ``--order first``; ``zero`` at g0 0.55 and 0.7, and at g0
0.55 with ``--method floquet`` and ``--method perturbative``; at energies where
each quadrature round splits into many node blocks, ``w0`` at g0 0.7
over 75-76 and a perturbative ``scan`` at g0 0.7 over 20-40; and, where
quadrature refines over many rounds or fails, the perturbative ``zero``
at g0 0.475 and at g0 0.45 (which finds no zero and exits 1) and ``w0``
at g0 0.7 within 1e-3 of the eps = 2 threshold; and the perturbative
``zero`` at g0 0.96, where the analytic zero lies below the threshold,
so the locator searches its 9-point window about it; the perturbative
``zero`` at g0 0.8 and 0.95, whose sub-threshold window is cut at the edge
of the near window; and, where the
sideband channel rule decides which channels are open, ``scan --method
both --n-max 4`` at g0 0.1 and 0.7 over the exact thresholds eps = 1-5,
and at g0 0.7 over 1e-9 either side of eps = 4; ``scan --method both
--n-max 2`` at g0 0.7 over 0.2-2.0 in 29 steps, whose last point
``eps_min + i * step`` would miss by an ulp, and at g0 0.1 and 0.7 over
the exact thresholds 10, 15 and 20; ``scan --method both``
at strong driving, where the bound route takes the near form within
g0**2/8 of eps = 1, the far elastic form's own bare pole: at g0 2 over
1e-9 either side of eps = 1, at g0 1.89 and 1.85 just beyond the edge of
the n0 = 1 window (1.0036-1.01 and 1.05-1.1), and at g0 1.5 over 1.2-1.36
and 1e-9 either side of that rule's edge 1.28125; and a perturbative
``scan`` at g0 0.01 over
1.5-4.5 with ``--tol 1e-13``, where the q-factors are small; and four
commands that exit 1 with a message naming their cause: a perturbative
``scan`` at g0 2.2 from eps = 2, where ``alpha_shift`` meets a channel at
its threshold, the exact ``zero`` at g0 5e-4, whose dip is narrower
than the floats below 1 resolve, and the exact ``scan`` at g0 0.7 from
eps = 1e16 and from 1e300, above the 2**53 where the sideband truncation
stops.  The switch
edges lie at ``drivendelta.renorm._NEAR_DISTANCE``, read from ``src/`` in
this script's checkout.  Each grid command runs as CSV on standard output
and again as a JSON ``--output`` file.

Usage:
    python scripts/output_diff.py OLD_ROOT NEW_ROOT [--rtol R]
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]
from perfbench import workloads  # noqa: E402
from drivendelta.renorm import _NEAR_DISTANCE  # noqa: E402

OUTPUT = "out.json"     # relative, so the JSON config echo is the same in both checkouts
_RUN = "import sys; from drivendelta.cli import main; sys.exit(main(sys.argv[1:]))"
# a decimal number, with optional sign, fraction and exponent; the text
# around the numbers is compared as it stands
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def commands() -> List[Tuple[str, ...]]:
    """The fixed command list, each as the arguments after the program name."""
    grid: List[Tuple[str, ...]] = []
    other: List[Tuple[str, ...]] = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for cmd in workloads.plan(workload, seed):
                (grid if cmd.kind == "scan" else other).append(cmd.argv)
    for g0 in (0.0, 0.1, 0.7):
        grid.append(("w0", "--g0", repr(g0), "--e-min", "0.1", "--e-max", "3.0",
                     "--steps", "30"))
        for edge in (1.0 - _NEAR_DISTANCE, 1.0 + _NEAR_DISTANCE):
            eps = edge - g0 * g0 / 8.0
            window = ("--g0", repr(g0), "--e-min", repr(eps - 1e-9),
                      "--e-max", repr(eps + 1e-9), "--steps", "3")
            grid.append(("w0",) + window)
            if g0 > 0:      # the sidebands' bound route takes the same switch
                grid.append(("scan",) + window + ("--n-max", "2", "--method",
                                                  "perturbative"))
    grid.append(("scan", "--g0", "0.7", "--e-min", "0.1", "--e-max", "3.0",
                 "--steps", "30", "--n-max", "2", "--method", "perturbative"))
    grid.append(("compare", "--g0", "0.3", "--e-min", "0.2", "--e-max", "3.0",
                 "--steps", "15", "--n-max", "2"))
    grid.append(("scan", "--g0", "0.7", "--e-min", "0.1", "--e-max", "3.0",
                 "--steps", "30", "--n-max", "2", "--order", "first"))
    grid.append(("compare", "--g0", "0.3", "--e-min", "0.2", "--e-max", "3.0",
                 "--steps", "15", "--n-max", "2", "--order", "first"))
    grid.append(("w0", "--g0", "0.7", "--e-min", "75", "--e-max", "76", "--steps", "2"))
    grid.append(("scan", "--g0", "0.7", "--e-min", "20", "--e-max", "40",
                 "--steps", "5", "--n-max", "2", "--method", "perturbative"))
    grid.append(("w0", "--g0", "0.7", "--e-min", "1.999", "--e-max", "2.001",
                 "--steps", "6"))
    thresholds = ("--n-max", "4", "--method", "both")
    for g0 in ("0.1", "0.7"):
        grid.append(("scan", "--g0", g0, "--e-min", "1", "--e-max", "5", "--steps", "5")
                    + thresholds)
    grid.append(("scan", "--g0", "0.7", "--e-min", repr(4.0 - 1e-9),
                 "--e-max", repr(4.0 + 1e-9), "--steps", "3") + thresholds)
    # a grid whose eps_min + i * step overshoots its last point, eps = 2, by an
    # ulp; and the exact thresholds 10 and 20, where 0.5 * sqrt(2 eps)**2 rounds
    # above eps, which the loop's channel test must not take for an open channel
    grid.append(("scan", "--g0", "0.7", "--e-min", "0.2", "--e-max", "2.0", "--steps", "29",
                 "--n-max", "2", "--method", "both"))
    for g0 in ("0.1", "0.7"):
        grid.append(("scan", "--g0", g0, "--e-min", "10", "--e-max", "20", "--steps", "3",
                     "--n-max", "2", "--method", "both"))
    # strong driving: within g0**2/8 of eps = 1, the far elastic form's own
    # bare pole, the bound route takes the near form; at g0 2 that pole lies
    # outside the n0 = 1 window, at g0 1.85-1.89 just beside its edge, and at
    # g0 1.5 the rule's edge 1 + g0**2/8 = 1.28125 lies beyond the window's
    grid.append(("scan", "--g0", "2", "--e-min", "0.999999999", "--e-max", "1.000000001",
                 "--steps", "2", "--n-max", "2", "--method", "both"))
    for g0, e_min, e_max in (("1.89", "1.0036", "1.01"), ("1.85", "1.05", "1.1")):
        grid.append(("scan", "--g0", g0, "--e-min", e_min, "--e-max", e_max,
                     "--steps", "2", "--n-max", "2", "--method", "both"))
    edge = 1.0 + 1.5 * 1.5 / 8.0
    for e_min, e_max, steps in (("1.2", "1.36", "5"), (repr(edge - 1e-9), repr(edge + 1e-9), "3")):
        grid.append(("scan", "--g0", "1.5", "--e-min", e_min, "--e-max", e_max,
                     "--steps", steps, "--n-max", "2", "--method", "both"))
    # weak driving, where q(k) ~ g0 / 2k is small and the loop runs at a tight tol
    grid.append(("scan", "--g0", "0.01", "--e-min", "1.5", "--e-max", "4.5", "--steps", "3",
                 "--n-max", "3", "--method", "perturbative", "--tol", "1e-13"))
    other += [("zero", "--g0", "0.55"), ("zero", "--g0", "0.7"),
              ("zero", "--g0", "0.55", "--method", "floquet"),
              ("zero", "--g0", "0.55", "--method", "perturbative"),
              ("zero", "--g0", "0.475", "--method", "perturbative"),
              ("zero", "--g0", "0.45", "--method", "perturbative"),
              ("zero", "--g0", "0.96", "--method", "perturbative"),
              ("zero", "--g0", "0.8", "--method", "perturbative"),
              ("zero", "--g0", "0.95", "--method", "perturbative"),
              ("scan", "--g0", "2.2", "--e-min", "2.0", "--e-max", "2.05", "--steps", "2",
               "--n-max", "0", "--method", "perturbative"),
              ("zero", "--g0", "0.0005", "--method", "floquet")]
    for e_min, e_max in (("1e16", "1.1e16"), ("1e300", "1.1e300")):
        other.append(("scan", "--g0", "0.7", "--e-min", e_min, "--e-max", e_max,
                      "--steps", "2", "--method", "floquet", "--n-max", "1"))
    as_json = [argv + ("--format", "json", "--output", OUTPUT) for argv in grid]
    return list(dict.fromkeys(grid + as_json + other))    # the workloads repeat commands


def run(root: Path, argv: Sequence[str]) -> Tuple[int, bytes, bytes, Optional[bytes]]:
    """Exit code, standard output, standard error and ``--output`` file
    (None if none was written) of one command in checkout ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = Path(cwd, OUTPUT)
        written = out.read_bytes() if out.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, written


def numbers_close(old: bytes, new: bytes, rtol: float) -> Optional[float]:
    """Worst relative difference between the numbers of two outputs, or
    None unless the outputs have the same text between their numbers and
    every pair of numbers agrees within relative ``rtol``.

    A pair of equal strings differs by 0; any other pair by
    |a - b| / max(|a|, |b|).
    """
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    worst = 0.0
    for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if a == b:
            continue
        x, y = float(a), float(b)
        scale = max(abs(x), abs(y))
        diff = abs(x - y) / scale if scale else 0.0
        if not diff <= rtol:
            return None
        worst = max(worst, diff)
    return worst


def compare(old: Path, new: Path, cmds: Sequence[Sequence[str]],
            rtol: Optional[float] = None) -> int:
    """Print SAME, CLOSE (only with ``rtol``) or DIFF per command; 1 if
    any command prints DIFF, else 0."""
    parts = ("exit code", "stdout", "stderr", "output file")
    status = 0
    for argv in cmds:
        pairs = [(part, a, b) for part, a, b in zip(parts, run(old, argv), run(new, argv))
                 if a != b]
        # an exit code or a missing output file differs in more than numbers
        close = [numbers_close(a, b, rtol)
                 if rtol is not None and isinstance(a, bytes) and isinstance(b, bytes)
                 else None for _, a, b in pairs]
        line = " ".join(argv)
        differs = ", ".join(part for part, _, _ in pairs)
        if not pairs:
            print(f"SAME  {line}", flush=True)
        elif None not in close:
            print(f"CLOSE {line}  ({differs}; worst relative difference "
                  f"{max(close):.2g})", flush=True)
        else:
            status = 1
            print(f"DIFF  {line}  ({differs})", flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--rtol", type=float, default=None,
                        help="print CLOSE, not DIFF, where only numbers differ, "
                             "each within this relative difference")
    args = parser.parse_args(argv)
    for root in (args.old_root, args.new_root):
        if not (root / "src" / "drivendelta" / "cli.py").is_file():
            parser.error(f"no src/drivendelta/cli.py under {root}")
    return compare(args.old_root.resolve(), args.new_root.resolve(), commands(),
                   args.rtol)


if __name__ == "__main__":
    sys.exit(main())
