"""Command-line front end for energy scans, zero location, and method comparison.

Commands:
    scan     sideband-resolved transmission over an energy grid
    zero     locate the elastic transmission zero (both methods)
    compare  perturbative total transmission against the exact solver
    w0       bound-route weight curve over an energy grid

Configuration comes from defaults, then an optional ``key = value`` file
(``--config``), then command-line flags, in increasing precedence.  One
table, :data:`_SETTINGS`, gives each setting its flag, type, allowed
values and range; a command accepts a flag only for the settings it reads
(:data:`_READS`), while a config file may set every key, so that one file
serves several commands, and each command ignores the keys it does not
read.  The grid commands work through the energy grid in blocks of 256
energies: each block's exact columns are the arrays of one batched
sideband solve, its perturbative ones are filled point by point, and its
CSV lines are written before the next block is computed; ``w0`` is the
``w0`` column of a perturbative scan.  Output is CSV (header, then
one line per grid point, LF endings) or JSON (rows array plus a metadata
object with the config echo and library version); floats are serialized
with 17 significant digits so files round-trip exactly and byte-identical
reruns can be diffed.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .errors import DrivenDeltaError, ToleranceError
from .floquet import solve as floquet_solve
from .floquet import transmission_grid, zero_locate_exact
from .smatrix import _ORDERS, _pole_estimate, assemble, find_transmission_zero

__all__ = ["ScanConfig", "parse_config", "cmd_scan", "cmd_zero",
           "cmd_compare", "cmd_w0", "main"]

_METHODS = ("perturbative", "floquet", "both")
_FORMATS = ("csv", "json")
# setting -> (flag, type, allowed values, least value, whether the least is
# allowed); a least value that names a setting is a relation, above it.  The
# "unknown key" error lists them, and validate checks their bounds, in this order
_SETTINGS = {
    "g0": ("--g0", float, None, 0, True),
    "eps_min": ("--e-min", float, None, 0, False),
    "eps_max": ("--e-max", float, None, "eps_min", False),
    "tol": ("--tol", float, None, 0, False),
    "steps": ("--steps", int, None, 2, True),
    "n_max": ("--n-max", int, None, 0, True),
    "workers": ("--workers", int, None, 1, True),
    "method": ("--method", str, _METHODS, None, True),
    "order": ("--order", str, _ORDERS, None, True),
    "output_format": ("--format", str, _FORMATS, None, True),
    "output_path": ("--output", str, None, None, True),
}
_GRID = ("g0", "eps_min", "eps_max", "steps", "tol", "output_format", "output_path")
# the settings each command reads: its flags besides --config.  scan's
# --workers changes nothing (points run serially) but stays accepted.
_READS = {"scan": _GRID + ("n_max", "method", "order", "workers"),
          "zero": ("g0", "method", "tol"),
          "compare": _GRID + ("n_max", "order"),
          "w0": _GRID}
_BLOCK = 256    # energies per block of a grid command: its memory grows with this, not the grid
_Block = Dict[str, Sequence[float]]     # column name -> values over one block


class UsageError(DrivenDeltaError, ValueError):
    """Invalid configuration or flags; maps to exit code 2."""


@dataclass(frozen=True)
class ScanConfig:
    """The settings of every command; :data:`_READS` names those each one reads."""

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
        for key, (_, kind, choices, _, _) in _SETTINGS.items():
            value = getattr(self, key)
            if kind is float and not math.isfinite(value):
                raise UsageError(f"{key} must be finite, got {value}")
            if choices is not None and value not in choices:
                raise UsageError(f"{key} must be one of {choices}, got {value!r}")
        for key, (*_, least, least_ok) in _SETTINGS.items():
            value = getattr(self, key)
            if least in _SETTINGS:
                if value <= getattr(self, least):
                    raise UsageError(
                        f"need {least} < {key}, got [{getattr(self, least)}, {value}]")
            elif least is not None and (value < least or value == least and not least_ok):
                # every excluded least is 0
                raise UsageError(f"{key} must be >= {least}, got {value}" if least_ok
                                 else f"{key} must be positive, got {value}")
        return self


def parse_config(path: str) -> ScanConfig:
    """Read a ``key = value`` config file into a :class:`ScanConfig`.

    Lines are ``key = value`` with ``#`` comments; omitted keys keep their
    defaults.  A file that is not UTF-8, unknown keys and type mismatches
    raise :class:`UsageError` (the latter with the offending line number).
    """
    overrides: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(_SETTINGS))
        try:
            overrides[key] = _SETTINGS[key][1](value)
        except ValueError as exc:
            raise UsageError(
                f"{path}:{lineno}: cannot parse {value!r} for key {key!r}: {exc}"
            ) from exc
    return replace(ScanConfig(), **overrides)


# ---------------------------------------------------------------------------
# column computation

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


def _perturbative_point(eps_i: float, config: ScanConfig) -> tuple:
    """R_elastic, T_total_pert, w0, im_gamma, re_gamma and the sideband
    fluxes T_n at one energy, all from one :func:`assemble`."""
    dec = assemble(eps_i, config.g0, order=config.order,
                   n_max=config.n_max, tol=config.tol)
    fluxes = tuple(dec.flux.get(n, 0.0) for n in range(-config.n_max, config.n_max + 1))
    return (abs(dec.R[0]) ** 2, dec.T_total, dec.w0,
            dec.loop.im, dec.loop.re) + fluxes


def _blocks(config: ScanConfig) -> Iterator[List[float]]:
    """The energy grid in blocks of up to :data:`_BLOCK` energies, ending at ``eps_max`` itself."""
    step = (config.eps_max - config.eps_min) / (config.steps - 1)
    for start in range(0, config.steps, _BLOCK):
        stop = min(start + _BLOCK, config.steps)
        yield [config.eps_min + i * step if i < config.steps - 1 else config.eps_max
               for i in range(start, stop)]


def _scan_blocks(config: ScanConfig) -> Iterator[_Block]:
    """Scan columns block by block; a column the method leaves empty is absent.

    A block's exact columns come from one batched solve of its energies;
    its perturbative points, in grid order, then fill theirs, shared ones
    included; the first failing point raises :class:`PointFailure` naming its ``eps_i``.
    """
    sidebands = _scan_columns(config.n_max)[8:]
    exact = config.method in ("floquet", "both")
    perturbative = config.method in ("perturbative", "both")
    for grid in _blocks(config):
        block: _Block = {"eps_i": grid}
        if exact:
            try:
                sol = transmission_grid(grid, config.g0, config.n_max)
            except ToleranceError as exc:
                raise PointFailure(exc.eps_i, exc) from exc
            values = np.vstack((sol.r0_sq, sol.T_total, sol.T_n)).tolist()
            block.update(zip(["R_elastic", "T_total_floquet"] + sidebands, values))
        if perturbative:
            rows = []
            for eps in grid:
                try:
                    rows.append(_perturbative_point(eps, config))
                except DrivenDeltaError as exc:
                    raise PointFailure(eps, exc) from exc
            filled = ["R_elastic", "T_total_pert", "w0", "im_gamma", "re_gamma"] + sidebands
            block.update(zip(filled, zip(*rows)))
        block["T_elastic"] = block["T_0"]       # the channel-0 flux, of either method
        yield block


# ---------------------------------------------------------------------------
# serialization

def _fmt(value: float) -> str:
    return format(value, ".17g")


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """Standard output, or a file that takes ``path``'s place only once the
    command has succeeded: a failed command leaves no file, or the old one
    untouched."""
    if path is None:
        yield sys.stdout
        return
    if os.path.isdir(path):     # os.replace would fail only after the command ran
        raise UsageError(f"output path {path!r} is a directory")
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _csv_lines(columns: Sequence[str], block: _Block) -> str:
    """One line per row of ``block``: a single ``%.17g`` template over the
    filled columns, with the literal ``nan`` (what ``%.17g`` prints for
    NaN) in the empty ones."""
    template = ",".join("%.17g" if c in block else "nan" for c in columns) + "\n"
    return "".join([template % row
                    for row in zip(*(block[c] for c in columns if c in block))])


def _json_value(value):
    """``value`` as JSON writes it: a non-finite float is null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json_rows(columns: Sequence[str], block: _Block) -> List[Dict]:
    """Rows of ``block`` as JSON objects; non-finite and empty cells are null."""
    empty = [None] * len(block["eps_i"])
    cells = ([_json_value(v) for v in block.get(c, empty)] for c in columns)
    return [dict(zip(columns, row)) for row in zip(*cells)]


def _write_grid(command: str, config: ScanConfig, columns: Sequence[str],
                blocks: Iterable[_Block],
                extra_metadata: Optional[Callable[[], Dict]] = None) -> None:
    """Write a grid command's table as its blocks are computed.

    CSV is written block by block, the header with the first block, so
    memory depends on the block size and not on the number of rows.  JSON
    is one document whose ``metadata`` sorts before ``rows``: its rows are
    kept until the last block, then ``extra_metadata()`` is added to the
    metadata and the document is written.
    """
    with _output(config.output_path) as out:
        if config.output_format == "csv":
            header = ",".join(columns) + "\n"
            for block in blocks:
                out.write(header + _csv_lines(columns, block))
                header = ""
            return
        import json     # kept out of every command's start-up
        rows = []
        for block in blocks:
            rows.extend(_json_rows(columns, block))
        metadata = {
            "command": command,
            "version": __version__,
            "config": asdict(config),
        }
        if extra_metadata is not None:
            metadata.update(extra_metadata())
        doc = {"metadata": metadata, "columns": list(columns), "rows": rows}
        out.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_scan(config: ScanConfig) -> int:
    """Sideband-resolved scan over the energy grid; writes one row per point."""
    config.validate()
    _write_grid("scan", config, _scan_columns(config.n_max), _scan_blocks(config))
    return 0


def cmd_zero(config: ScanConfig) -> int:
    """Report the elastic transmission zero for the requested method(s)."""
    config.validate()
    g0 = config.g0
    if g0 > 1:
        raise UsageError(f"the zero locators need g0 <= 1, got {g0}")
    if g0 == 0:
        print("no zero: free transmission")
        return 0
    lines = [f"g0 = {_fmt(g0)}"]
    lines.append(f"pole-position prediction = {_fmt(_pole_estimate(g0, config.tol))}")
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
    window = 5.0 * config.g0 * config.g0
    # count, sum and max of abs_diff outside the window, in grid order
    count, total, largest = 0, 0.0, float("nan")

    def blocks() -> Iterator[_Block]:
        nonlocal count, total, largest
        for scan in _scan_blocks(config):
            diff = [abs(p - f) for p, f in
                    zip(scan["T_total_pert"], scan["T_total_floquet"])]
            for eps, d in zip(scan["eps_i"], diff):
                if abs(eps - 1.0) >= window:
                    largest = d if count == 0 else max(largest, d)
                    count += 1
                    total += d
            yield {"eps_i": scan["eps_i"], "T_total_pert": scan["T_total_pert"],
                   "T_total_floquet": scan["T_total_floquet"], "abs_diff": diff}

    def summary() -> Dict:
        return {
            "rows": config.steps,
            "excluded_window": f"|eps_i - 1| < {_fmt(window)}",
            "excluded_points": config.steps - count,
            "max_abs_diff": largest,
            "mean_abs_diff": total / count if count else float("nan"),
        }

    _write_grid("compare", config,
                ["eps_i", "T_total_pert", "T_total_floquet", "abs_diff"], blocks(),
                lambda: {"summary": {k: _json_value(v) for k, v in summary().items()}})
    result = summary()
    print(f"rows = {result['rows']}")
    print(f"excluded resonance window: {result['excluded_window']} "
          f"({result['excluded_points']} points)")
    print(f"max |diff| = {_fmt(result['max_abs_diff'])}")
    print(f"mean |diff| = {_fmt(result['mean_abs_diff'])}")
    return 0


def cmd_w0(config: ScanConfig) -> int:
    """Bound-route weight w0 over the energy grid: the ``w0`` column of a
    renormalized perturbative scan without sidebands."""
    scan = replace(config.validate(), method="perturbative", n_max=0,
                   order="renormalized")
    _write_grid("w0", config, ["eps_i", "w0"],
                ({"eps_i": b["eps_i"], "w0": b["w0"]} for b in _scan_blocks(scan)))
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
        for key, (flag, kind, choices, _, _) in _SETTINGS.items():
            if key in _READS[name]:
                sp.add_argument(flag, dest=key, type=kind, choices=choices)
        sp.add_argument("--config", dest="config_path")
        sp.set_defaults(command_parser=sp)
    return parser


def _merge(args: argparse.Namespace) -> ScanConfig:
    config = (parse_config(args.config_path) if args.config_path is not None
              else ScanConfig())
    overrides = {key: value for key, value in vars(args).items()
                 if key in _SETTINGS and value is not None}
    return replace(config, **overrides)


_COMMANDS = {"scan": cmd_scan, "zero": cmd_zero, "compare": cmd_compare,
             "w0": cmd_w0}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    if unread:      # with the command's usage line, not the program's
        args.command_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        config = _merge(args)
        return _COMMANDS[args.command](config)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DrivenDeltaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
