"""The CLI commands of one benchmark round, made from the workload seed.

A run repeats whole rounds of the same commands.  The seed moves each
energy grid by a sub-step offset and draws the driving strengths of the
exact zeros.  The offsets of the ``spectrum`` scans stay within 0.045, so
every seed puts the same points in the near-pole windows (|eps + g0**2/8 -
n0| < 0.45 around odd n0) and none within 0.05 of a sideband threshold;
their cost per point then depends on the seed only weakly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

WORKLOADS = ("spectrum", "zero")
SIZES = ("full", "tiny")

ZERO_G0 = 0.55      # perturbative zero of the ``zero`` workload
ZERO_SCAN_ROWS = 8000   # rows of each floquet-only scan of the ``zero`` workload


@dataclass(frozen=True)
class Command:
    """One CLI command with what its checks need to know."""

    kind: str                       # "scan" or "zero"
    g0: float
    method: str
    argv: Tuple[str, ...]           # arguments after the program name
    n_max: int = 0
    loop_rows: Tuple[int, ...] = ()  # scan rows whose re_gamma gets the Cauchy check


def _scan(g0: float, e_min: float, step: float, steps: int, n_max: int,
          method: str, loop_rows: Tuple[int, ...] = ()) -> Command:
    argv = ("scan", "--g0", repr(g0), "--e-min", repr(e_min),
            "--e-max", repr(e_min + step * (steps - 1)), "--steps", str(steps),
            "--n-max", str(n_max), "--method", method, "--order", "renormalized")
    return Command("scan", g0, method, argv, n_max, loop_rows)


def _zero(g0: float, method: str) -> Command:
    return Command("zero", g0, method, ("zero", "--g0", repr(g0), "--method", method))


def _exact_zeros(rng: random.Random, count: int) -> List[Command]:
    """Exact zeros at driving strengths drawn one from each of ``count``
    equal parts of [0.05, 1], so every seed covers the range alike."""
    return [_zero(0.05 + (j + rng.random()) * 0.95 / count, "floquet")
            for j in range(count)]


def plan(workload: str, seed: int, size: str = "full") -> List[Command]:
    """Commands of one round of ``workload``; ``tiny`` is for the benchmark's own test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{workload}:{seed}")
    tiny = size == "tiny"

    if workload == "spectrum":
        # below the one-quantum threshold, through the eps ~ 1 and eps ~ 3
        # near-pole windows, to above the second and third thresholds
        steps = 2 if tiny else 6
        weak = _scan(0.1, 0.30 + 0.045 * rng.random(), 0.6, steps,
                     1 if tiny else 2, "both",
                     loop_rows=tuple(sorted(rng.sample(range(steps), 1 if tiny else 2))))
        if tiny:
            return [weak] + _exact_zeros(rng, 1)
        strong = _scan(0.7, 0.90 + 0.045 * rng.random(), 2.4, 2, 2, "both")
        # exact zeros between the scans, so both kinds are timed across the round
        z = _exact_zeros(rng, 3)
        return [z[0], weak, z[1], strong, z[2]]

    # zero: the perturbative locator between dense floquet-only scans that
    # cross four sideband thresholds; three scans before it and three after
    # spread the scan timing over the whole round
    rows = 50 if tiny else ZERO_SCAN_ROWS
    step = 4.2 / (rows - 1)
    weak, strong = (_scan(g0, 0.2 + step * rng.random(), step, rows, 4, "floquet")
                    for g0 in (0.1, 0.7))
    if tiny:
        return [weak, _zero(ZERO_G0, "floquet")]
    return [weak, strong, weak, _zero(ZERO_G0, "both"), strong, weak, strong]
