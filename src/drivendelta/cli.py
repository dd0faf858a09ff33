"""Command-line front end for energy scans, zero location, and method comparison.

Commands:
    scan     sideband-resolved transmission over an energy grid
    zero     locate the elastic transmission zero (both methods)
    compare  perturbative total transmission against the exact solver
    w0       bound-route weight curve over an energy grid

Configuration comes from defaults, then an optional ``key = value`` file
(``--config``), then command-line flags, in increasing precedence.  Output
is CSV (header + rows, LF endings) or JSON (rows array plus a metadata
object with the config echo and library version); floats are serialized
with 17 significant digits so files round-trip exactly and byte-identical
reruns can be diffed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence

from . import __version__
from .errors import DrivenDeltaError, ToleranceError
from .floquet import solve as floquet_solve
from .floquet import transmission_grid, zero_locate_exact
from .renorm import alpha_shift, gamma_loop
from .smatrix import _ORDERS, assemble, find_transmission_zero
from .smatrix import w0 as w0_weight

__all__ = ["ScanConfig", "parse_config", "cmd_scan", "cmd_zero",
           "cmd_compare", "cmd_w0", "main"]

_METHODS = ("perturbative", "floquet", "both")
_FORMATS = ("csv", "json")


class UsageError(DrivenDeltaError, ValueError):
    """Invalid configuration or flags; maps to exit code 2."""


@dataclass(frozen=True)
class ScanConfig:
    """Grid and output settings shared by all scanning commands."""

    g0: float = 0.1
    eps_min: float = 0.2
    eps_max: float = 3.0
    steps: int = 29
    n_max: int = 6
    method: str = "both"
    order: str = "renormalized"
    tol: float = 1e-8
    output_format: str = "csv"
    output_path: Optional[str] = None
    workers: int = 1

    def validate(self) -> "ScanConfig":
        if self.g0 < 0:
            raise UsageError(f"g0 must be >= 0, got {self.g0}")
        if self.eps_min <= 0:
            raise UsageError(f"eps_min must be positive, got {self.eps_min}")
        if self.eps_min >= self.eps_max:
            raise UsageError(
                f"need eps_min < eps_max, got [{self.eps_min}, {self.eps_max}]")
        if self.steps < 2:
            raise UsageError(f"steps must be >= 2, got {self.steps}")
        if self.n_max < 0:
            raise UsageError(f"n_max must be >= 0, got {self.n_max}")
        if self.method not in _METHODS:
            raise UsageError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.order not in _ORDERS:
            raise UsageError(f"order must be one of {_ORDERS}, got {self.order!r}")
        if self.tol <= 0:
            raise UsageError(f"tol must be positive, got {self.tol}")
        if self.output_format not in _FORMATS:
            raise UsageError(
                f"output_format must be one of {_FORMATS}, got {self.output_format!r}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        return self


_FLOAT_KEYS = ("g0", "eps_min", "eps_max", "tol")
_INT_KEYS = ("steps", "n_max", "workers")
_STR_KEYS = ("method", "order", "output_format", "output_path")
_VALID_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


def parse_config(path: str) -> ScanConfig:
    """Read a ``key = value`` config file into a :class:`ScanConfig`.

    Lines are ``key = value`` with ``#`` comments; omitted keys keep their
    defaults.  Unknown keys and type mismatches raise :class:`UsageError`
    (the latter with the offending line number).
    """
    overrides: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _VALID_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(_VALID_KEYS))
            try:
                if key in _FLOAT_KEYS:
                    overrides[key] = float(value)
                elif key in _INT_KEYS:
                    overrides[key] = int(value)
                else:
                    overrides[key] = value
            except ValueError as exc:
                raise UsageError(
                    f"{path}:{lineno}: cannot parse {value!r} for key {key!r}: {exc}"
                ) from exc
    return replace(ScanConfig(), **overrides)


# ---------------------------------------------------------------------------
# row computation

def _scan_columns(n_max: int) -> List[str]:
    cols = ["eps_i", "T_elastic", "R_elastic", "T_total_pert",
            "T_total_floquet", "w0", "im_gamma", "re_gamma"]
    cols.extend(f"T_{n}" for n in range(-n_max, n_max + 1))
    return cols


class PointFailure(DrivenDeltaError, RuntimeError):
    """Numeric failure at one grid point; maps to exit code 1."""

    def __init__(self, eps_i: float, cause: Exception):
        super().__init__(f"numeric failure at eps_i = {eps_i!r}: {cause}")
        self.eps_i = eps_i
        self.cause = cause


def _scan_row(eps_i: float, config: ScanConfig) -> Dict[str, float]:
    """One scan row with its perturbative columns; the floquet ones stay NaN."""
    row = {c: float("nan") for c in _scan_columns(config.n_max)}
    row["eps_i"] = eps_i
    k_i = math.sqrt(2.0 * eps_i)
    try:
        if config.method in ("perturbative", "both"):
            dec = assemble(eps_i, config.g0, order=config.order,
                           n_max=config.n_max, tol=config.tol)
            row["T_elastic"] = abs(dec.T[0]) ** 2
            row["R_elastic"] = abs(dec.R[0]) ** 2
            row["T_total_pert"] = dec.T_total
            row["w0"] = w0_weight(eps_i, config.g0, config.tol)
            if config.g0 > 0:
                loop = gamma_loop(k_i, k_i, 0, config.g0, config.tol)
                row["im_gamma"], row["re_gamma"] = loop.im, loop.re
            else:
                row["im_gamma"] = row["re_gamma"] = 0.0
            for n in range(-config.n_max, config.n_max + 1):
                ksq = k_i * k_i + 2 * n
                row[f"T_{n}"] = (math.sqrt(ksq) / k_i * abs(dec.T[n]) ** 2
                                 if n in dec.T else 0.0)
    except DrivenDeltaError as exc:
        raise PointFailure(eps_i, exc) from exc
    return row


def _scan_rows(config: ScanConfig) -> List[Dict[str, float]]:
    """Scan rows over the grid.

    The floquet columns come from one batched exact solve of the whole
    grid; the perturbative columns are computed point by point.
    """
    exact = None
    if config.method in ("floquet", "both"):
        try:
            exact = transmission_grid(_grid(config), config.g0, config.n_max)
        except ToleranceError as exc:
            raise PointFailure(exc.eps_i, exc) from exc
    rows = _map_grid(lambda eps: _scan_row(eps, config), config)
    if exact is None:
        return rows
    sidebands = [f"T_{n}" for n in range(-config.n_max, config.n_max + 1)]
    columns = {"T_total_floquet": exact.T_total}
    if config.method == "floquet":
        columns.update(T_elastic=exact.t0_sq, R_elastic=exact.r0_sq,
                       **dict(zip(sidebands, exact.T_n)))
    for name, values in columns.items():
        for row, value in zip(rows, values.tolist()):
            row[name] = value
    return rows


def _grid(config: ScanConfig) -> List[float]:
    step = (config.eps_max - config.eps_min) / (config.steps - 1)
    return [config.eps_min + i * step for i in range(config.steps)]


def _map_grid(fn, config: ScanConfig) -> List[Dict[str, float]]:
    """Evaluate ``fn`` on the grid points in order, one after another.

    ``workers`` is accepted and validated but runs nothing in parallel:
    the hot path holds the GIL, so threads would not be faster.
    """
    return [fn(eps) for eps in _grid(config)]


# ---------------------------------------------------------------------------
# serialization

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _render_csv(columns: Sequence[str], rows: Sequence[Dict]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(command: str, config: ScanConfig, columns: Sequence[str],
                 rows: Sequence[Dict], extra_metadata: Optional[Dict] = None) -> str:
    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        return v

    metadata = {
        "command": command,
        "version": __version__,
        "config": {f.name: getattr(config, f.name) for f in fields(ScanConfig)},
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    doc = {
        "metadata": metadata,
        "columns": list(columns),
        "rows": [{c: clean(row[c]) for c in columns} for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_table(command: str, config: ScanConfig, columns: Sequence[str],
                 rows: Sequence[Dict], extra_metadata: Optional[Dict] = None) -> None:
    if config.output_format == "csv":
        text = _render_csv(columns, rows)
    else:
        text = _render_json(command, config, columns, rows, extra_metadata)
    _emit(text, config.output_path)


# ---------------------------------------------------------------------------
# commands

def cmd_scan(config: ScanConfig) -> int:
    """Sideband-resolved scan over the energy grid; writes one row per point."""
    config.validate()
    rows = _scan_rows(config)
    _write_table("scan", config, _scan_columns(config.n_max), rows)
    return 0


def cmd_zero(config: ScanConfig) -> int:
    """Report the elastic transmission zero for the requested method(s)."""
    config.validate()
    g0 = config.g0
    if g0 == 0:
        print("no zero: free transmission")
        return 0
    lines = [f"g0 = {_fmt(g0)}"]
    prediction = 1.0 - g0 * g0 / 8.0 - alpha_shift(1, 1.0 - g0 * g0 / 8.0, g0,
                                                   config.tol)
    lines.append(f"pole-position prediction = {_fmt(prediction)}")
    eps_p = eps_f = None
    if config.method in ("perturbative", "both"):
        eps_p, diag = find_transmission_zero(g0, config.tol)
        lines.append(f"perturbative eps_star = {_fmt(eps_p)}")
        lines.append(f"perturbative |T(0)|^2 at zero = {_fmt(diag['min_value'])}")
        lines.append(f"perturbative analytic zero = {_fmt(diag['analytic_zero'])}")
        lo, hi = diag["bracket"]
        lines.append("perturbative distance to bracket edge = "
                     f"{_fmt(min(eps_p - lo, hi - eps_p))}")
    if config.method in ("floquet", "both"):
        eps_f = zero_locate_exact(g0)
        t0sq = abs(floquet_solve(eps_f, g0).t[0]) ** 2
        lines.append(f"floquet eps_star = {_fmt(eps_f)}")
        lines.append(f"floquet |t_0|^2 at zero = {_fmt(t0sq)}")
    if eps_p is not None and eps_f is not None:
        lines.append(f"discrepancy = {_fmt(abs(eps_p - eps_f))}")
    print("\n".join(lines))
    return 0


def cmd_compare(config: ScanConfig) -> int:
    """Per-energy difference between the two methods, with a summary block.

    The summary excludes the resonance window |eps - 1| < 5 g0**2 from the
    max/mean statistics and always reports the window; the per-row output
    is never filtered.
    """
    config = replace(config, method="both").validate()
    columns = ["eps_i", "T_total_pert", "T_total_floquet", "abs_diff"]

    rows = [{
        "eps_i": full["eps_i"],
        "T_total_pert": full["T_total_pert"],
        "T_total_floquet": full["T_total_floquet"],
        "abs_diff": abs(full["T_total_pert"] - full["T_total_floquet"]),
    } for full in _scan_rows(config)]
    window = 5.0 * config.g0 * config.g0
    included = [r["abs_diff"] for r in rows if abs(r["eps_i"] - 1.0) >= window]
    excluded = len(rows) - len(included)
    summary = {
        "rows": len(rows),
        "excluded_window": f"|eps_i - 1| < {_fmt(window)}",
        "excluded_points": excluded,
        "max_abs_diff": max(included) if included else float("nan"),
        "mean_abs_diff": (sum(included) / len(included)) if included
        else float("nan"),
    }
    _write_table("compare", config, columns, rows, {"summary": summary})
    print(f"rows = {summary['rows']}")
    print(f"excluded resonance window: {summary['excluded_window']} "
          f"({excluded} points)")
    print(f"max |diff| = {_fmt(summary['max_abs_diff'])}")
    print(f"mean |diff| = {_fmt(summary['mean_abs_diff'])}")
    return 0


def cmd_w0(config: ScanConfig) -> int:
    """Bound-route weight w0 over the energy grid."""
    config.validate()
    columns = ["eps_i", "w0"]

    def row(eps):
        try:
            return {"eps_i": eps, "w0": w0_weight(eps, config.g0, config.tol)}
        except DrivenDeltaError as exc:
            raise PointFailure(eps, exc) from exc

    rows = _map_grid(row, config)
    _write_table("w0", config, columns, rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivendelta",
        description="Scattering observables of the sinusoidally driven delta barrier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scan", "sideband-resolved transmission over an energy grid"),
        ("zero", "locate the elastic transmission zero"),
        ("compare", "perturbative vs exact total transmission"),
        ("w0", "bound-route weight curve"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--g0", type=float, default=None)
        sp.add_argument("--e-min", dest="eps_min", type=float, default=None)
        sp.add_argument("--e-max", dest="eps_max", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--n-max", dest="n_max", type=int, default=None)
        sp.add_argument("--method", choices=_METHODS, default=None)
        sp.add_argument("--order", choices=_ORDERS, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--output", dest="output_path", default=None)
        sp.add_argument("--format", dest="output_format", choices=_FORMATS,
                        default=None)
        sp.add_argument("--config", dest="config_path", default=None)
        sp.add_argument("--workers", type=int, default=None)
    return parser


def _merge(args: argparse.Namespace) -> ScanConfig:
    config = (parse_config(args.config_path) if args.config_path is not None
              else ScanConfig())
    overrides = {f.name: getattr(args, f.name)
                 for f in fields(ScanConfig)
                 if getattr(args, f.name, None) is not None}
    return replace(config, **overrides)


_COMMANDS = {"scan": cmd_scan, "zero": cmd_zero, "compare": cmd_compare,
             "w0": cmd_w0}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge(args)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DrivenDeltaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
