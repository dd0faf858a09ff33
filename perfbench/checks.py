"""Checks of the CLI's outputs against the computations in ``reference``.

Each check returns a list of problems; an empty list accepts the output.
References depend only on a command's inputs, so ``Checker`` computes each
one once per run, however many rounds repeat the command.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List

import numpy as np

import reference

FLOQUET_ATOL = 1e-9      # exact columns against the dense solve
FLUX_DEFECT_MAX = 1e-10  # flux conservation of the dense solve itself
WEAK_G0 = 0.1            # T_total_pert is held to the exact flux of its sidebands ...
WEAK_ATOL = 1e-3         # ... within this bound (test_weak_driving's) ...
WEAK_WINDOW = 0.05       # ... outside |eps - 1| < WEAK_WINDOW
LOOP_ATOL = 1e-8         # re_gamma against the Cauchy-weight rule (the loop's tol)
ZERO_T0SQ_MAX = 1e-6     # |t_0|**2 of the dense solve at the reported exact zero
ZERO_EPS_ATOL = 1e-9     # reported exact zero against the dense solve's zero
LAW_G0_MAX = 0.2         # 64 (1 - eps*) / g0**4 = 1 is held for g0 up to here ...
LAW_RTOL = 0.05          # ... within this share
PERT_ZERO_ATOL = 2e-2    # perturbative zero against the exact one (test_locator_strong_driving)


def parse_scan(text: str) -> List[Dict[str, float]]:
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def parse_zero(text: str) -> Dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = float(value)
    return out


class Checker:
    """Checks one run's outputs, computing each reference once."""

    def __init__(self):
        self._scan_refs: Dict = {}
        self._loop_refs: Dict = {}
        self._zeros: Dict = {}

    def exact_zero(self, g0: float) -> float:
        if g0 not in self._zeros:
            self._zeros[g0] = reference.exact_zero(g0)
        return self._zeros[g0]

    def loop_re(self, eps: float, g0: float) -> float:
        if (eps, g0) not in self._loop_refs:
            self._loop_refs[(eps, g0)] = reference.loop_re_reference(eps, g0)
        return self._loop_refs[(eps, g0)]

    def scan(self, cmd, text: str) -> List[str]:
        try:
            rows = parse_scan(text)
        except ValueError as exc:
            return [f"unparsable scan output: {exc}"]
        steps = int(cmd.argv[cmd.argv.index("--steps") + 1])
        columns = ["eps_i", "T_elastic", "R_elastic", "T_total_floquet"] \
            + [f"T_{n}" for n in range(-cmd.n_max, cmd.n_max + 1)]
        if cmd.method == "both":
            columns += ["T_total_pert", "w0", "im_gamma", "re_gamma"]
        if len(rows) != steps:
            return [f"{len(rows)} rows, expected {steps}"]
        if any(c not in rows[0] for c in columns):
            return [f"missing columns: {sorted(set(columns) - set(rows[0]))}"]
        problems = []
        for row in rows:
            bad = [c for c in columns if not math.isfinite(row[c])]
            neg = [c for c in columns if c.startswith(("T_", "R_")) and row[c] < 0]
            if bad or neg:
                problems.append(f"eps {row['eps_i']!r}: non-finite {bad}, negative {neg}")
        if problems:
            return problems

        eps = np.array([row["eps_i"] for row in rows])
        key = (cmd.argv, tuple(eps))
        if key not in self._scan_refs:
            self._scan_refs[key] = reference.observables(eps, cmd.g0, cmd.n_max)
        ref = self._scan_refs[key]
        if ref["flux_defect"].max() > FLUX_DEFECT_MAX:
            problems.append(f"reference flux defect {ref['flux_defect'].max():.2e}")
        exact_cols = {"T_total_floquet": "T_total"}
        if cmd.method == "floquet":
            exact_cols.update({c: c for c in columns
                               if c.startswith("T_") and c != "T_total_floquet"})
            exact_cols.update(T_elastic="T_elastic", R_elastic="R_elastic")
        for col, ref_col in exact_cols.items():
            got = np.array([row[col] for row in rows])
            err = np.abs(got - ref[ref_col])
            if err.max() > FLOQUET_ATOL:
                i = int(np.argmax(err))
                problems.append(f"{col} at eps {eps[i]!r}: {got[i]!r}, "
                                f"dense solve {ref[ref_col][i]!r}")
        if cmd.method == "both" and cmd.g0 <= WEAK_G0:
            for i, row in enumerate(rows):
                diff = abs(row["T_total_pert"] - ref["T_window"][i])
                if abs(row["eps_i"] - 1.0) >= WEAK_WINDOW and diff > WEAK_ATOL:
                    problems.append(f"T_total_pert at eps {row['eps_i']!r} is {diff:.2e} "
                                    f"from the dense solve")
        for i in cmd.loop_rows:
            row = rows[i]
            ref_re = self.loop_re(row["eps_i"], cmd.g0)
            if abs(row["re_gamma"] - ref_re) > LOOP_ATOL:
                problems.append(f"re_gamma at eps {row['eps_i']!r}: {row['re_gamma']!r}, "
                                f"Cauchy-weight rule {ref_re!r}")
        return problems

    def zero(self, cmd, text: str) -> List[str]:
        try:
            rep = parse_zero(text)
        except ValueError as exc:
            return [f"unparsable zero output: {exc}"]
        keys = ["g0", "pole-position prediction", "floquet eps_star",
                "floquet |t_0|^2 at zero"]
        if cmd.method == "both":
            keys += ["perturbative eps_star", "perturbative |T(0)|^2 at zero",
                     "discrepancy"]
        missing = [k for k in keys if k not in rep]
        if missing:
            return [f"missing lines: {missing}"]
        bad = [k for k in keys if not math.isfinite(rep[k])]
        if bad:
            return [f"non-finite: {bad}"]
        problems = []
        g0 = cmd.g0
        if rep["g0"] != g0:
            problems.append(f"g0 echoed as {rep['g0']!r}, asked {g0!r}")
        eps_ref = self.exact_zero(g0)
        eps_f = rep["floquet eps_star"]
        if abs(eps_f - eps_ref) > ZERO_EPS_ATOL:
            problems.append(f"floquet eps_star {eps_f!r}, dense solve's zero {eps_ref!r}")
        t0sq = abs(reference.t0(eps_f, g0)) ** 2
        if t0sq > ZERO_T0SQ_MAX or not 0.0 <= rep["floquet |t_0|^2 at zero"] <= ZERO_T0SQ_MAX:
            problems.append(f"|t_0|^2 at floquet eps_star: dense solve {t0sq:.2e}, "
                            f"reported {rep['floquet |t_0|^2 at zero']:.2e}")
        if g0 <= LAW_G0_MAX:
            law = 64.0 * (1.0 - eps_f) / g0 ** 4
            if abs(law - 1.0) > LAW_RTOL:
                problems.append(f"threshold law 64 (1 - eps*) / g0**4 = {law:.4f}")
        if cmd.method == "both":
            eps_p = rep["perturbative eps_star"]
            if not eps_p < 1.0 or abs(eps_p - eps_ref) > PERT_ZERO_ATOL:
                problems.append(f"perturbative eps_star {eps_p!r}, "
                                f"dense solve's zero {eps_ref!r}")
            if rep["perturbative |T(0)|^2 at zero"] < 0.0:
                problems.append("negative perturbative |T(0)|^2")
            if rep["discrepancy"] != abs(eps_p - eps_f):
                problems.append(f"discrepancy {rep['discrepancy']!r} is not "
                                f"|{eps_p!r} - {eps_f!r}|")
        return problems
