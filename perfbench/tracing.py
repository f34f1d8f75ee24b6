"""Timing wrappers installed from outside the library.

Every wrapped name is replaced wherever callers look it up: in each
``qcvx`` module namespace that holds the original object (``from .x import
y`` copies the reference), or on the class for methods.  Three kinds of
wrapper exist:

* ``span``: an entry-point call.  Besides the aggregated counters, each
  call is kept in memory as a span ``(id, parent_id, name, start, end)``.
* ``hot``: an inner call made hundreds of thousands of times per job; only
  calls, total time and self time are aggregated.
* ``gen``: a generator method (``cells_in``).  Each resumption is timed
  on its own, so the consumer's work between two cells stays with the
  consumer, and the number of cells yielded is counted.

A call whose direct parent has the same name is folded into the parent
(``infimum_on`` -> ``_extremum`` count as one ``functions.extremum`` call).
Self time is a call's duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

LAYERS = ("cli", "violations", "functions", "certificates", "oracle", "intervals")

# (module, attribute or Class.method, traced name, kind)
TARGETS = (
    ("qcvx.cli", "main", "cli.main", "span"),
    ("qcvx.cli", "_load_function", "cli.load_function", "span"),
    ("qcvx.cli", "_run_pairs", "cli.run_pairs", "span"),
    ("qcvx.cli", "analyze_pair", "cli.analyze_pair", "span"),
    ("qcvx.cli", "_write_report", "cli.write_report", "span"),
    ("qcvx.violations", "violation_set", "violations.violation_set", "span"),
    ("qcvx.violations", "verify_component_property", "violations.verify_component_property", "span"),
    ("qcvx.violations", "convexity_violation_set", "violations.convexity_violation_set", "span"),
    ("qcvx.violations", "interior_witness_exists", "violations.interior_witness_exists", "span"),
    ("qcvx.violations", "is_quasiconvex", "violations.is_quasiconvex", "span"),
    ("qcvx.certificates", "paired_maxima_certificate", "certificates.paired_maxima_certificate", "span"),
    ("qcvx.certificates", "revalidate_certificate", "certificates.revalidate_certificate", "span"),
    ("qcvx.certificates", "local_quasiconvexity_at", "certificates.local_quasiconvexity_at", "span"),
    ("qcvx.certificates", "enumerate_local_maxima", "certificates.enumerate_local_maxima", "span"),
    ("qcvx.oracle", "oracle_quasiconvex", "oracle.oracle_quasiconvex", "span"),
    ("qcvx.oracle", "build_grid", "oracle.build_grid", "span"),
    ("qcvx.oracle", "oracle_violation_set", "oracle.oracle_violation_set", "span"),
    ("qcvx.oracle", "diff_report", "oracle.diff_report", "span"),
    ("qcvx.functions", "function_from_dict", "functions.function_from_dict", "span"),
    ("qcvx.functions", "check_semicontinuity", "functions.check_semicontinuity", "hot"),
    ("qcvx.functions", "infimum_on", "functions.extremum", "hot"),
    ("qcvx.functions", "supremum_on", "functions.extremum", "hot"),
    ("qcvx.functions", "argmax_set", "functions.extremum", "hot"),
    ("qcvx.functions", "_extremum", "functions.extremum", "hot"),
    ("qcvx.functions", "PiecewiseLinear.evaluate", "functions.evaluate", "hot"),
    ("qcvx.functions", "PiecewiseConstant.evaluate", "functions.evaluate", "hot"),
    ("qcvx.functions", "PiecewiseLinear.cells_in", "functions.cells_in", "gen"),
    ("qcvx.functions", "PiecewiseConstant.cells_in", "functions.cells_in", "gen"),
    ("qcvx.intervals", "normalize", "intervals.normalize", "hot"),
)


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # (parent name, child name) -> calls
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {
            "functions.cells_in.cells": 0,
            "oracle.grid_points": 0,
            "oracle.tensor_cells_computed": 0,
            "oracle.violations_counted": 0,
            "cli.write_report.bytes": 0,
        }
        # frame: [name, child_s, span id handed to children, parent span id]
        self._stack: list[list] = [["<root>", 0.0, 0, 0]]
        self._next_span = 1
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    # -- accounting -------------------------------------------------------

    def _enter(self, name: str, span: bool, new_call: bool = True) -> list:
        parent = self._stack[-1]
        if new_call:
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        if span:
            sid = self._next_span
            self._next_span += 1
        else:
            sid = parent[2]
        frame = [name, 0.0, sid, parent[2]]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, start: float, end: float, span: bool, new_call: bool = True) -> None:
        self._stack.pop()
        duration = end - start
        self._stack[-1][1] += duration
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += new_call
        st[1] += duration
        st[2] += duration - frame[1]
        if span:
            self.spans.append((frame[2], frame[3], frame[0], start, end))

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, name: str, span: bool, post=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._enter(name, span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, start, perf_counter(), span)
            if post is not None:
                post(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, fn, name: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                frame = self._enter(name, False, first)
                start = perf_counter()
                try:
                    cell = next(inner)
                except StopIteration:
                    self._leave(frame, start, perf_counter(), False, first)
                    return
                except BaseException:
                    self._leave(frame, start, perf_counter(), False, first)
                    raise
                self._leave(frame, start, perf_counter(), False, first)
                first = False
                counters["functions.cells_in.cells"] += 1
                yield cell

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _post_oracle(self, verdict, args, kwargs) -> None:
        g = verdict.grid.total_points
        self.counters["oracle.grid_points"] += g
        self.counters["oracle.tensor_cells_computed"] += g * g * g
        self.counters["oracle.violations_counted"] += verdict.total_violations

    def _post_write_report(self, result, args, kwargs) -> None:
        out = args[1] if len(args) > 1 else kwargs.get("out")
        if out:
            self.counters["cli.write_report.bytes"] += os.path.getsize(out)

    def install(self) -> None:
        posts = {
            "oracle.oracle_quasiconvex": self._post_oracle,
            "cli.write_report": self._post_write_report,
        }
        for module_name, attr, name, kind in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                # Renamed or removed since the benchmark was written: the
                # metrics built on it read 0.
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                wrapped = (
                    self._wrap_gen(original, name)
                    if kind == "gen"
                    else self._wrap_call(original, name, False)
                )
                # An inherited method is wrapped on this class and removed
                # again on uninstall.
                self._undo.append((owner, method, vars(owner).get(method)))
                setattr(owner, method, wrapped)
                continue
            wrapped = self._wrap_call(original, name, kind == "span", posts.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qcvx" or mod_name.startswith("qcvx.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def span_durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_time) in self.stats.items():
            out[name.split(".")[0]] += self_time
        return out

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "counters": dict(self.counters),
            "missing_targets": list(self.missing),
            "spans": {
                "fields": ["id", "parent", "name", "start_s", "end_s"],
                "rows": [list(s) for s in self.spans],
            },
        }
