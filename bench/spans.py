"""Traced runs: spans at the program's module boundaries, recorded from outside.

`Tracer.install` wraps the public functions listed in `LAYERS` and rebinds
every copy of them in the loaded `io_recover` modules, including the names
that solver modules import from `lp`, `geometry` and `model`, so calls made
inside the program are seen too.  Each call records a span (name, start,
end, parent) in memory; `write` stores them once when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

import json
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = {
    "model": ("validate", "canonicalize_omega"),
    "lp": ("solve_lp", "solve_lp_batch"),
    "geometry": ("gamma_bar", "project_hyperplane", "project_halfspace",
                 "realized_row_interval", "realized_row_cardinality", "aux_optimum"),
    "nominal": ("solve_nlo_dg", "solve_nlo_sd"),
    "interval": ("solve_rlo_iu_dg", "solve_rlo_iu_sd"),
    "cardinality": ("solve_rlo_ccu_dg", "solve_rlo_ccu_sd", "compute_gamma_bounds"),
    "verify": ("check_certificate", "diagnose_trivial"),
    "problem_io": ("load_json", "parse_problem", "parse_solution", "serialize_solution", "dump_json"),
    "cli": ("main",),
}
_PROJECT = ("geometry.project_hyperplane", "geometry.project_halfspace")
_REALIZED = ("geometry.realized_row_interval", "geometry.realized_row_cardinality")
_LP_STATUSES = ("optimal", "infeasible", "unbounded", "failed")

# per-layer metrics: name -> unit; values are per round unless the name says otherwise
METRICS = {
    "lp.solve_lp.calls": "count", "lp.solve_lp.ms": "ms", "lp.solve_lp.ms_p50": "ms",
    "lp.solve_lp_batch.ms": "ms", "lp.vars": "count", "lp.rows": "count", "lp.coeffs": "count",
    **{f"lp.{s}": "count" for s in _LP_STATUSES},
    "geometry.gamma_bar.calls": "count", "geometry.gamma_bar.ms": "ms",
    "geometry.project.calls": "count", "geometry.project.ms": "ms",
    "geometry.realized_row.calls": "count", "geometry.realized_row.ms": "ms",
    "geometry.aux_optimum.ms": "ms",
    "nominal.self_ms": "ms", "interval.self_ms": "ms", "cardinality.self_ms": "ms",
    "model.validate.calls": "count", "model.validate.ms": "ms", "model.canonicalize_omega.ms": "ms",
    "verify.check_certificate.calls": "count", "verify.check_certificate.ms": "ms",
    "verify.check_certificate.self_ms": "ms",
    "problem_io.load_json.ms": "ms", "problem_io.parse_problem.ms": "ms",
    "problem_io.parse_solution.ms": "ms", "problem_io.serialize_solution.ms": "ms",
    "problem_io.dump_json.ms": "ms", "problem_io.bytes_read": "B", "problem_io.bytes_written": "B",
    "cli.main.self_ms": "ms",
    "trace.overhead_s": "s",
}


def _lp_size(args, result):
    lp = args[0]
    return {"vars": lp.num_vars, "rows": len(lp.rows),
            "status": "failed" if result is None else result.status.value}


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[0])}


_NOTES = {"lp.solve_lp": _lp_size, "problem_io.load_json": _file_size,
          "problem_io.dump_json": _file_size}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, notes]
        self._stack = [-1]
        self._patched = []

    def wrap(self, name, fn, note=None):
        """`fn` recording one span per call; `note(args, result)` adds details to it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = note or _NOTES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if note is not None:
                    span[4] = note(args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "io_recover" or key.startswith("io_recover.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"io_recover.{layer}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[code[s[0]], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), s[3], s[4]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"names": names, "unit": "us", "fields": ["name", "start", "end", "parent", "notes"],
                       "spans": rows}, fp)

    def metrics(self, rounds, overhead_s):
        """Per-layer metrics per round, from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, inclusive, own = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self, lp, io_bytes, lp_ms = defaultdict(float), defaultdict(int), defaultdict(int), []
        for k, (name, start, end, parent, notes) in enumerate(spans):
            duration = end - start
            own[name] += duration - child[k]
            layer_self[name.split(".")[0]] += duration - child[k]
            if name in _PROJECT and parent >= 0 and spans[parent][0] in _PROJECT:
                continue  # a halfspace projection delegating to the hyperplane is one call
            calls[name] += 1
            inclusive[name] += duration
            if name == "lp.solve_lp":
                lp_ms.append(duration)
                lp["vars"] += notes["vars"]
                lp["rows"] += notes["rows"]
                lp["coeffs"] += notes["vars"] * notes["rows"]
                lp[notes["status"]] += 1
            elif name in _NOTES:
                io_bytes[name] += notes["bytes"]

        def count(*names):
            return sum(calls[n] for n in names) / rounds

        def ms(*names, table=inclusive):
            return sum(table[n] for n in names) * 1e3 / rounds

        values = {
            "lp.solve_lp.calls": count("lp.solve_lp"), "lp.solve_lp.ms": ms("lp.solve_lp"),
            "lp.solve_lp.ms_p50": statistics.median(lp_ms) * 1e3 if lp_ms else 0.0,
            "lp.solve_lp_batch.ms": ms("lp.solve_lp_batch"),
            "lp.vars": lp["vars"] / rounds, "lp.rows": lp["rows"] / rounds, "lp.coeffs": lp["coeffs"] / rounds,
            **{f"lp.{s}": lp[s] / rounds for s in _LP_STATUSES},
            "geometry.gamma_bar.calls": count("geometry.gamma_bar"),
            "geometry.gamma_bar.ms": ms("geometry.gamma_bar"),
            "geometry.project.calls": count(*_PROJECT), "geometry.project.ms": ms(*_PROJECT),
            "geometry.realized_row.calls": count(*_REALIZED), "geometry.realized_row.ms": ms(*_REALIZED),
            "geometry.aux_optimum.ms": ms("geometry.aux_optimum"),
            "nominal.self_ms": layer_self["nominal"] * 1e3 / rounds,
            "interval.self_ms": layer_self["interval"] * 1e3 / rounds,
            "cardinality.self_ms": layer_self["cardinality"] * 1e3 / rounds,
            "model.validate.calls": count("model.validate"), "model.validate.ms": ms("model.validate"),
            "model.canonicalize_omega.ms": ms("model.canonicalize_omega"),
            "verify.check_certificate.calls": count("verify.check_certificate"),
            "verify.check_certificate.ms": ms("verify.check_certificate"),
            "verify.check_certificate.self_ms": ms("verify.check_certificate", table=own),
            **{f"problem_io.{n}.ms": ms(f"problem_io.{n}") for n in LAYERS["problem_io"]},
            "problem_io.bytes_read": io_bytes["problem_io.load_json"] / rounds,
            "problem_io.bytes_written": io_bytes["problem_io.dump_json"] / rounds,
            "cli.main.self_ms": ms("cli.main", table=own),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
