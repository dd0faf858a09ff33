"""Tracing for the traced benchmark run, and the per-layer metrics made from it.

Inside the command's interpreter, ``Tracer.install`` wraps each public
function named in ``SPANNED`` in every ``drivendelta`` module namespace
that holds it, so calls between modules and within a module both pass
through the wrapper.  Each call records a span (name, start, end, parent,
extra) in memory; ``extra`` is the ``evaluations`` of an ``adaptive_quad``
result and the truncation ``N`` of a ``floquet.solve`` result.  Functions in
``COUNTED`` are called too often for a span each and are only counted.
``Tracer.dump`` writes spans, counts and the ``lru_cache`` statistics out
when the command ends.  ``summarize`` turns the dumps of one round into the
per-layer metrics: a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List

SPANNED = {
    "smatrix": ("assemble", "w0", "find_transmission_zero"),
    "renorm": ("gamma_loop", "alpha_shift", "beta_width", "renorm_factors",
               "b_renorm"),
    "quadrature": ("adaptive_quad", "pv_integral", "bracket_min"),
    "floquet": ("solve", "zero_locate_exact"),
}
COUNTED = {
    "model": ("q_factor",),
    "amplitudes": ("a_coefficient", "b_coefficient"),
}
CACHED = ("renorm.gamma_loop", "renorm.alpha_shift", "renorm.beta_width")
_EXTRA = {"quadrature.adaptive_quad": "evaluations", "floquet.solve": "N"}
ROOT = "cli"

# per-layer metrics: name -> (unit, better); every traced run reports all
IMPORTED = ("drivendelta", "errors", "model", "quadrature", "amplitudes",
            "renorm", "smatrix", "floquet", "cli")
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "smatrix.assemble.calls": ("count", "lower"),
    "smatrix.assemble.self_s": ("s", "lower"),
    "smatrix.assemble_per_zero": ("count", "lower"),
    "smatrix.w0.calls": ("count", "lower"),
    "renorm.gamma_loop.calls": ("count", "lower"),
    "renorm.gamma_loop.misses": ("count", "lower"),
    "renorm.gamma_loop.hit_ratio": ("ratio", "higher"),
    "renorm.gamma_loop.self_s": ("s", "lower"),
    "renorm.alpha_shift.calls": ("count", "lower"),
    "renorm.alpha_shift.misses": ("count", "lower"),
    "renorm.alpha_shift.self_s": ("s", "lower"),
    "renorm.beta_width.misses": ("count", "lower"),
    "renorm.renorm_factors.calls": ("count", "lower"),
    "renorm.renorm_factors.self_s": ("s", "lower"),
    "renorm.b_renorm.calls": ("count", "lower"),
    "quadrature.pv_integral.calls": ("count", "lower"),
    "quadrature.pv_integral.self_s": ("s", "lower"),
    "quadrature.adaptive_quad.calls": ("count", "lower"),
    "quadrature.adaptive_quad.evals": ("count", "lower"),
    "quadrature.adaptive_quad.self_s": ("s", "lower"),
    "quadrature.bracket_min.calls": ("count", "lower"),
    "quadrature.bracket_min.self_s": ("s", "lower"),
    "model.q_factor.calls": ("count", "lower"),
    "amplitudes.a_coefficient.calls": ("count", "lower"),
    "amplitudes.b_coefficient.calls": ("count", "lower"),
    "floquet.solve.calls": ("count", "lower"),
    "floquet.solve.self_s": ("s", "lower"),
    "floquet.solve.mean_N": ("count", "lower"),
    "floquet.solves_per_zero": ("count", "lower"),
    **{f"setup.import_s.{m}": ("s", "lower") for m in IMPORTED},
}


class Tracer:
    """Span and call-count recorder for one command's interpreter."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List = []
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = defaultdict(int)
        self._cached = {}

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra_attr = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            extra = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if extra_attr is not None:
                    extra = getattr(result, extra_attr)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, extra)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions; call after ``drivendelta.cli`` is imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "drivendelta" or n.startswith("drivendelta.")]
        targets = [(mod, fn, self._span_wrapper) for mod, fns in SPANNED.items()
                   for fn in fns]
        targets += [(mod, fn, self._count_wrapper) for mod, fns in COUNTED.items()
                    for fn in fns]
        for mod, fn_name, make in targets:
            name = f"{mod}.{fn_name}"
            original = getattr(sys.modules[f"drivendelta.{mod}"], fn_name)
            if name in CACHED:
                self._cached[name] = original
            wrapper = make(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def root(self, fn, *args):
        """Run the command itself as the root span."""
        return self._span_wrapper(ROOT, fn)(*args)

    def dump(self, path: str) -> None:
        caches = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts), "caches": caches}, fh)


def summarize(dumps: List[Dict], import_samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced round (sums over its commands)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    extra = defaultdict(int)
    counts = defaultdict(int)
    hits = defaultdict(int)
    misses = defaultdict(int)
    in_zero = defaultdict(int)     # assemble / solve calls inside a zero locator
    for doc in dumps:
        names, spans = doc["names"], doc["spans"]
        child_time = [0.0] * len(spans)
        zero_anc = [None] * len(spans)
        for i, (nid, t0, t1, parent, ext) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                pname = names[spans[parent][0]]
                zero_anc[i] = (pname if pname in ("smatrix.find_transmission_zero",
                                                  "floquet.zero_locate_exact")
                               else zero_anc[parent])
        for i, (nid, t0, t1, parent, ext) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
            extra[name] += ext
            if zero_anc[i] is not None:
                in_zero[(name, zero_anc[i])] += 1
        for name, n in doc["counts"].items():
            counts[name] += n
        for name, (h, m) in doc["caches"].items():
            hits[name] += h
            misses[name] += m

    def per(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if base == "setup.import_s":
            out[metric] = statistics.median(sample[field] for sample in import_samples)
        elif field == "calls":
            out[metric] = calls[base] + counts[base]
        elif field == "self_s":
            out[metric] = self_s[base]
        elif field == "misses":
            out[metric] = misses[base]
    g = "renorm.gamma_loop"
    out[f"{g}.hit_ratio"] = per(hits[g], hits[g] + misses[g])
    out["quadrature.adaptive_quad.evals"] = extra["quadrature.adaptive_quad"]
    out["floquet.solve.mean_N"] = per(extra["floquet.solve"], calls["floquet.solve"])
    out["smatrix.assemble_per_zero"] = per(
        in_zero[("smatrix.assemble", "smatrix.find_transmission_zero")],
        calls["smatrix.find_transmission_zero"])
    out["floquet.solves_per_zero"] = per(
        in_zero[("floquet.solve", "floquet.zero_locate_exact")],
        calls["floquet.zero_locate_exact"])
    return out


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative import seconds per ``drivendelta`` module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        module = module.strip()
        if module == "drivendelta" or module.startswith("drivendelta."):
            out[module.rpartition(".")[2]] = int(cumulative) * 1e-6
    return out
