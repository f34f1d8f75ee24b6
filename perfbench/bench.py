"""One run of one workload, in this process.

Started by ``run.py``, which gives each workload a fresh process with
capped BLAS/OpenMP threads, ``PYTHONPATH`` pointing at the checkout's
``src`` and no ``QCVX_JOBS``.  Phases:

1. set-up (``setup_s``): import qcvx with numpy and click (timed in a
   fresh interpreter), generate the seeded models, write their documents
   and parse them back with ``function_from_dict``; repeated and the
   median reported;
2. untimed preparation: point-query reference answers;
3. the timed phase: whole cycles of the workload's operations until
   ``--seconds`` of operation time have accumulated.  A cycle is short
   (a few seconds), so a run holds several, and each operation's time is
   its median over the cycles.  With ``--trace 1`` half that time runs
   untraced and one cycle traced; the two per-unit times give
   ``trace.overhead_frac``;
4. one JSON result line.  Answers are checked after each cycle.

Time metrics are in reference-speed seconds: a short fixed loop
(``Calibration``) is timed between the operations and around each model
generation, and each wall time is divided by the slowdown that loop shows
against its time on the baseline machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("analyze_allpairs", "oracle_differential", "point_queries")
SETUP_REPEATS = 9

# Host-speed calibration (see Calibration).  The shared host slows every
# process on it by up to 2.5x, in windows of seconds to minutes, and CPU time
# grows with wall time; a fixed loop timed between the operations sees the
# same slowdown.
CALIBRATE_EVERY_S = 0.05  # of operation time
CALIBRATION_WINDOW_S = 0.5

# Model sizes.  "tiny" is the smoke-test scale.
SIZES = {
    "full": {
        "cantor_all_depth": 4, "cantor_pair_depth": 6, "rpl_knots": 24, "rpl_per_cycle": 6, "rpl_pool": 128,
        "oracle_rpl": 60, "oracle_pwc": 12, "oracle_cantor_depth": 7,
        "query_cantor_depth": 7, "query_knots": 256, "query_linear_models": 4, "query_stream": 1500,
    },
    "tiny": {
        "cantor_all_depth": 3, "cantor_pair_depth": 4, "rpl_knots": 8, "rpl_per_cycle": 2, "rpl_pool": 8,
        "oracle_rpl": 12, "oracle_pwc": 12, "oracle_cantor_depth": 4,
        "query_cantor_depth": 4, "query_knots": 32, "query_linear_models": 2, "query_stream": 200,
    },
}

LIMITATIONS = (
    "no hardware counters (no perf access on the measuring machine); "
    "oracle.tensor_cells_computed is computed as sum(g^3), not measured; "
    "time metrics are wall times divided by the host slowdown a calibration loop shows; "
    "the process pool (QCVX_JOBS) is not measured"
)


def import_qcvx():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qcvx
    import qcvx.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(qcvx.__file__))) != SRC:
        raise SystemExit(f"qcvx imported from {qcvx.__file__}, not from {SRC}")
    return qcvx


qcvx = import_qcvx()
import numpy as np  # noqa: E402
import models  # noqa: E402  (after qcvx is importable)
import queries  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# Host-speed calibration.


@dataclass(frozen=True)
class Calibration:
    """A fixed loop of the benchmark's own, which calls no qcvx code, and
    its wall time on an uncontended core of the baseline machine."""

    loop: Callable[[], object]
    ref_s: float

    def time(self) -> float:
        start = time.perf_counter()
        self.loop()
        return time.perf_counter() - start

    def slowdown(self, samples: list) -> float:
        return statistics.median(samples) / self.ref_s


def _fraction_loop() -> Fraction:
    """Fraction arithmetic, the kind of work qcvx's exact core does."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    return total


_GRID = np.arange(201)
_ABOVE = (_GRID[:, None] * 7 % 13) < (_GRID[None, :] * 5 % 11)
_LOWER = _GRID[:, None] < _GRID[None, :]
_LEFT, _RIGHT = _ABOVE & _LOWER, _ABOVE.T & _LOWER


def _tensor_loop() -> int:
    """One block of a boolean triple tensor on a 201-point grid, the kind
    of work the oracle does."""
    return int((_LEFT[:50, :, None] & _RIGHT[None, :, :]).sum())


FRACTIONS = Calibration(_fraction_loop, 0.0004)
TENSOR = Calibration(_tensor_loop, 0.001)


# ---------------------------------------------------------------------------
# Plans: what a workload runs and how its answers are checked.


@dataclass
class Op:
    label: str
    units: int
    run: Callable[[str], object]  # argument: a fresh output path
    info: dict = field(default_factory=dict)


@dataclass
class Execution:
    op: Op
    out: str
    start: float
    seconds: float = 0.0
    result: object = None
    error: Optional[str] = None


@dataclass
class Cycle:
    executions: list  # emptied once checked, except in a run's first cycle
    ref_seconds: list  # reference-speed time of each operation, in plan order
    seconds: float
    units: int
    slowdown: float  # of all the cycle's calibrations
    failures: list = field(default_factory=list)
    known_defect: list = field(default_factory=list)


@dataclass
class Plan:
    ops: list  # one cycle
    unit: str
    check: Callable[[list], dict]
    report_bytes: Callable[[list], int]  # argument: the executions of one cycle
    prepare: Callable[[], None] = lambda: None
    calibration: Calibration = FRACTIONS


def write_doc(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def parse_doc(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return qcvx.function_from_dict(json.load(handle))


def cli_op(label: str, units: int, argv: list, **info) -> Op:
    def run(out: str) -> int:
        return qcvx.cli.main([*argv, "--no-timestamp", "--out", out])

    return Op(label, units, run, info)


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def input_key(doc: dict, flags: list) -> str:
    text = json.dumps([doc, flags], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def answer_digest(report: dict) -> str:
    """Digest of the answers in an analyze report: verdict, and per pair
    the components, isolated violations, component checks, witness flag
    and chord set.  Decimal companions and configuration stay out."""
    answers = {
        "verdict": report["quasiconvexity"],
        "pairs": [
            [
                p["x"], p["y"], p["components"], p["isolated_violations"],
                p["component_checks"], p["interior_witness_exists"], p["chord_violations"],
            ]
            for p in report["pairs"]
        ],
    }
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def analyze_inputs(size: dict, ids) -> list:
    """(label, model, flags) of one analyze cycle whose random models are
    ``ids`` from the pool of ``size["rpl_pool"]``."""
    items = [("cantor_all", models.cantor(size["cantor_all_depth"], "complement"), ["--all-breakpoint-pairs"])]
    for i in ids:
        items.append((f"rpl{size['rpl_knots']}_{i}", models.random_linear(size["rpl_knots"], i), ["--all-breakpoint-pairs"]))
    items.append(("cantor_pair01", models.cantor(size["cantor_pair_depth"], "complement"), ["--pair", "0", "1"]))
    return items


def analyze_plan(seed: int, size: dict, work: str, tamper: str) -> Plan:
    ops = []
    ids = random.Random(f"analyze-{seed}").sample(range(size["rpl_pool"]), size["rpl_per_cycle"])
    for label, model, flags in analyze_inputs(size, ids):
        path = os.path.join(work, f"{label}.json")
        doc = model.doc()
        write_doc(path, doc)
        parse_doc(path)
        n = len(model.breaks)
        units = n * (n - 1) // 2 if flags == ["--all-breakpoint-pairs"] else 1
        depth = doc.get("depth")
        ops.append(cli_op(label, units, ["analyze", path, *flags], key=input_key(doc, flags), depth=depth))

    def check(executions: list) -> dict:
        digests = load_digests()
        failures = []
        for ex in executions:
            problem = _analyze_problem(ex, digests, tamper)
            if problem:
                failures.append({"op": ex.op.label, "problem": problem})
        return {"failures": failures, "known_defect": []}

    return Plan(ops, "pairs", check, _file_bytes)


def _analyze_problem(ex: Execution, digests: dict, tamper: str) -> Optional[str]:
    if ex.error:
        return ex.error
    if ex.result != 0:
        return f"exit code {ex.result}"
    expected = digests.get(ex.op.info["key"], {}).get("digest")
    if expected is None:
        return "no recorded digest for this input"
    if tamper == "digest":
        expected = "0" * len(expected)
    try:
        with open(ex.out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        if answer_digest(report) != expected:
            return "answer digest differs from the recorded one"
        depth = ex.op.info["depth"]
        if depth is None:
            return None
        pair = next(p for p in report["pairs"] if p["x"] == "0" and p["y"] == "1")
        count = len(pair["components"])
        length = sum(Fraction(c["v"]) - Fraction(c["u"]) for c in pair["components"])
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"report unreadable: {exc!r}"
    expected_count = 2**depth - 1 + (1 if tamper == "cantor01" else 0)
    expected_length = 1 - Fraction(2, 3) ** depth
    if count != expected_count or length != expected_length:
        return f"pair (0, 1) has {count} components of length {length}, expected {expected_count} and {expected_length}"
    return None


def _file_bytes(executions: list) -> int:
    return sum(os.path.getsize(ex.out) for ex in executions if os.path.exists(ex.out))


def oracle_plan(seed: int, size: dict, work: str, tamper: str) -> Plan:
    rng = random.Random(f"oracle-{seed}")
    items = []
    for i in range(size["oracle_rpl"]):
        items.append((f"rpl_{i}", models.random_linear(3 + i % 6, rng.randrange(2**31))))
    for i in range(size["oracle_pwc"]):
        items.append((f"pwc_{i}", models.random_constant(3 + i % 6, rng.randrange(2**31))))
    depth = size["oracle_cantor_depth"]
    items += [(f"cantor{depth}{m[0]}", models.cantor(depth, m)) for m in ("set", "complement")]
    ops = []
    for label, model in items:
        path = os.path.join(work, f"{label}.json")
        write_doc(path, model.doc())
        parse_doc(path)
        ops.append(cli_op(label, 1, ["oracle", path, "--grid", "201", "--compare"], model=model))

    def check(executions: list) -> dict:
        failures, known = [], []
        for n, ex in enumerate(executions):
            code = 4 if (tamper == "exit" and n == 0) else ex.result
            if ex.error:
                failures.append({"op": ex.op.label, "problem": ex.error})
            elif ex.result == 4 and _known_compare_defect(ex):
                known.append(ex.op.label)
            elif code != 0:
                failures.append({"op": ex.op.label, "problem": f"exit code {code}"})
        return {"failures": failures, "known_defect": known}

    return Plan(ops, "functions", check, _file_bytes, calibration=TENSOR)


def _known_compare_defect(ex: Execution) -> bool:
    """Whether an exit 4 of ``oracle --compare`` is the known defect: on a
    piecewise-constant model that is not lsc, the grid reports a run of
    points around an isolated violating breakpoint (point value above the
    threshold, a neighbouring piece not), and the diff ignores isolated
    violations.  Anything else is an unexplained failure."""
    model = ex.op.info["model"]
    if not isinstance(model, models.Constant):
        return False
    try:
        with open(ex.out, "r", encoding="utf-8") as handle:
            comparison = json.load(handle)["comparison"]
        if not comparison["verdict_agrees"] or not comparison["discrepancies"]:
            return False
        x, y = (Fraction(v) for v in comparison["pair"])
        spans = [(d["kind"], Fraction(d["u"]), Fraction(d["v"])) for d in comparison["discrepancies"]]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    threshold = max(model.value(x), model.value(y))
    return all(
        kind == "unmatched_approx"
        and any(
            u < b < v and model.points[i] > threshold and not model.is_lsc_at(i)
            for i, b in enumerate(model.breaks)
        )
        for kind, u, v in spans
    )


def point_plan(seed: int, size: dict, work: str, tamper: str) -> Plan:
    rng = random.Random(f"points-{seed}")
    plain = {f"cantor{size['query_cantor_depth']}s": models.cantor(size["query_cantor_depth"], "set")}
    for i in range(size["query_linear_models"]):
        plain[f"rpl{size['query_knots']}_{i}"] = models.random_linear(size["query_knots"], rng.randrange(2**31))
    fs = {}
    for key, model in plain.items():
        path = os.path.join(work, f"{key}.json")
        write_doc(path, model.doc())
        fs[key] = parse_doc(path)
    stream = queries.make_stream(plain, size["query_stream"], seed)
    ops = [
        Op(f"{kind}", 1, (lambda out, f=fs[key], kind=kind, args=args: queries.run(f, kind, args)),
           {"index": n, "model": key, "kind": kind, "args": args})
        for n, (key, kind, args) in enumerate(stream)
    ]
    refs: list = []

    def prepare() -> None:
        refs.extend(queries.reference(plain[key], kind, args) for key, kind, args in stream)
        if tamper == "reference":
            refs[0] = ("tampered",)

    def check(executions: list) -> dict:
        failures = []
        for ex in executions:
            if ex.error:
                failures.append({"op": ex.op.label, "problem": ex.error})
                continue
            ref = refs[ex.op.info["index"]]
            got = queries.normalize(ex.op.info["kind"], ex.result)
            if got != ref:
                failures.append({"op": ex.op.label, "query": _describe(ex.op.info), "problem": f"got {got!r}, expected {ref!r}"})
        return {"failures": failures, "known_defect": []}

    def report_bytes(executions: list) -> int:
        return sum(
            len(json.dumps(queries.to_json(ex.op.info["kind"], ex.result), indent=2).encode())
            for ex in executions
            if not ex.error
        )

    return Plan(ops, "queries", check, report_bytes, prepare)


def _describe(info: dict) -> str:
    args = ", ".join(str(a) for a in info["args"])
    return f"{info['kind']}({info['model']}, {args})"


PLANS = {
    "analyze_allpairs": analyze_plan,
    "oracle_differential": oracle_plan,
    "point_queries": point_plan,
}


# ---------------------------------------------------------------------------
# Set-up, timed phase and metrics.


def time_import() -> float:
    """Import time of qcvx with numpy and click, in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import numpy, click, qcvx.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.strip())


def setup(workload: str, seed: int, size: dict, work: str, tamper: str, repeats: int) -> tuple[Plan, float, float]:
    """The plan, the median set-up time, and the host slowdown.  A set-up
    is the import, in wall seconds, plus the model generation in
    reference-speed seconds.  The import runs in a fresh interpreter,
    mostly in the kernel and the loader, and its time does not follow the
    calibration loop; the model generation is Fraction and JSON work in
    this process, calibrated with ``FRACTIONS`` before and after it."""
    samples, calibrations = [], []
    plan = None
    for _ in range(repeats):
        import_s = time_import()
        before = [FRACTIONS.time() for _ in range(3)]
        start = time.perf_counter()
        plan = PLANS[workload](seed, size, work, tamper)
        plan_s = time.perf_counter() - start
        after = [FRACTIONS.time() for _ in range(3)]
        samples.append(import_s + plan_s / FRACTIONS.slowdown(before + after))
        calibrations += before + after
    return plan, statistics.median(samples), FRACTIONS.slowdown(calibrations)


def run_cycle(plan: Plan, out_dir: str, start_index: int) -> Cycle:
    """One pass over the plan's operations.  The plan's calibration is
    timed at the start, after every ``CALIBRATE_EVERY_S`` of operation
    time, and at the end.  An operation's slowdown is taken from the
    calibrations started within ``CALIBRATION_WINDOW_S`` of it, since the
    host's speed changes within seconds."""
    calibration = plan.calibration
    samples = []  # (start time, calibration seconds)

    def calibrate() -> None:
        samples.append((time.perf_counter(), calibration.time()))

    executions = []
    calibrate()
    since = 0.0
    for index, op in enumerate(plan.ops, start_index):
        ex = Execution(op, os.path.join(out_dir, f"out{index}.json"), time.perf_counter())
        try:
            ex.result = op.run(ex.out)
        except Exception:  # any raised error is a failed operation
            ex.error = traceback.format_exc(limit=3)
        ex.seconds = time.perf_counter() - ex.start
        executions.append(ex)
        since += ex.seconds
        if since >= CALIBRATE_EVERY_S:
            calibrate()
            since = 0.0
    calibrate()
    ref_seconds = []
    for ex in executions:
        lo, hi = ex.start - CALIBRATION_WINDOW_S, ex.start + ex.seconds + CALIBRATION_WINDOW_S
        ref_seconds.append(ex.seconds / calibration.slowdown([c for t, c in samples if lo <= t <= hi]))
    return Cycle(
        executions, ref_seconds, sum(ex.seconds for ex in executions), sum(op.units for op in plan.ops),
        calibration.slowdown([c for _, c in samples]),
    )


def check_cycle(plan: Plan, cycle: Cycle, keep_executions: bool) -> None:
    """Check a cycle's answers as soon as it ends.  Only the first cycle
    keeps its executions (``report_bytes`` reads their answers), so that
    peak memory does not grow with the number of cycles a run fits in."""
    verdict = plan.check(cycle.executions)
    cycle.failures, cycle.known_defect = verdict["failures"], verdict["known_defect"]
    if not keep_executions:
        cycle.executions = []


def run_cycles(plan: Plan, seconds: float, out_dir: str) -> list:
    """Whole cycles, at least one, until ``seconds`` of operation time have
    accumulated."""
    cycles = []
    while not cycles or sum(c.seconds for c in cycles) < seconds:
        cycle = run_cycle(plan, out_dir, len(cycles) * len(plan.ops))
        check_cycle(plan, cycle, keep_executions=not cycles)
        cycles.append(cycle)
    return cycles


def quantile_ms(samples: list, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] * 1e3


def end_to_end(plan: Plan, cycles: list, setup_s: float, peak_rss_mb: float) -> dict:
    """An operation's time is the median over the cycles of its
    reference-speed time.  The latency percentiles are taken over the
    operations of one cycle, and the throughput is one cycle's units over
    the sum of those times."""
    per_op = [statistics.median(c.ref_seconds[i] for c in cycles) for i in range(len(plan.ops))]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (cycles[0].units / sum(per_op), "units/s"),
        "latency_p50_ms": (quantile_ms(per_op, 50), "ms"),
        "latency_p95_ms": (quantile_ms(per_op, 95), "ms"),
        "latency_p99_ms": (quantile_ms(per_op, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "report_bytes": (plan.report_bytes(cycles[0].executions), "bytes"),
    }


def per_layer(tr: Tracer, traced_busy: float, overhead: float) -> dict:
    m = {}

    def count(name, value):
        m[name] = (value, "count")

    def secs(name, value):
        m[name] = (value, "s")

    def ms(name, spans, q):
        m[name] = (quantile_ms(spans, q) if spans else 0.0, "ms")

    cells = tr.counters["functions.cells_in.cells"]
    count("functions.cells_in.calls", tr.calls("functions.cells_in"))
    count("functions.cells_in.cells", cells)
    secs("functions.cells_in.self_s", tr.self_s("functions.cells_in"))
    m["functions.cells_in.self_us_per_cell"] = (tr.self_s("functions.cells_in") / cells * 1e6 if cells else 0.0, "us")
    count("functions.evaluate.calls", tr.calls("functions.evaluate"))
    for name in ("functions.extremum", "functions.check_semicontinuity"):
        count(f"{name}.calls", tr.calls(name))
        secs(f"{name}.self_s", tr.self_s(name))
    secs("functions.function_from_dict.self_s", tr.self_s("functions.function_from_dict"))
    secs("cli.load_function.s", tr.total_s("cli.load_function"))
    for fn in ("violation_set", "verify_component_property", "convexity_violation_set", "interior_witness_exists", "is_quasiconvex"):
        count(f"violations.{fn}.calls", tr.calls(f"violations.{fn}"))
        secs(f"violations.{fn}.self_s", tr.self_s(f"violations.{fn}"))
    witness_calls = tr.calls("violations.interior_witness_exists")
    scans = tr.edges.get(("violations.interior_witness_exists", "functions.extremum"), 0)
    m["violations.interior_witness_exists.scan_ratio"] = (scans / witness_calls if witness_calls else 0.0, "ratio")
    for fn in ("paired_maxima_certificate", "revalidate_certificate", "local_quasiconvexity_at", "enumerate_local_maxima"):
        count(f"certificates.{fn}.calls", tr.calls(f"certificates.{fn}"))
        secs(f"certificates.{fn}.self_s", tr.self_s(f"certificates.{fn}"))
    count("oracle.oracle_quasiconvex.calls", tr.calls("oracle.oracle_quasiconvex"))
    secs("oracle.oracle_quasiconvex.self_s", tr.self_s("oracle.oracle_quasiconvex"))
    ms("oracle.oracle_quasiconvex.p50_ms", tr.span_durations("oracle.oracle_quasiconvex"), 50)
    secs("oracle.build_grid.self_s", tr.self_s("oracle.build_grid"))
    count("oracle.grid_points", tr.counters["oracle.grid_points"])
    count("oracle.tensor_cells_computed", tr.counters["oracle.tensor_cells_computed"])
    count("oracle.violations_counted", tr.counters["oracle.violations_counted"])
    secs("oracle.oracle_violation_set.self_s", tr.self_s("oracle.oracle_violation_set"))
    secs("oracle.diff_report.self_s", tr.self_s("oracle.diff_report"))
    count("intervals.normalize.calls", tr.calls("intervals.normalize"))
    secs("intervals.normalize.self_s", tr.self_s("intervals.normalize"))
    pairs = tr.span_durations("cli.analyze_pair")
    count("cli.analyze_pair.calls", len(pairs))
    ms("cli.analyze_pair.p50_ms", pairs, 50)
    ms("cli.analyze_pair.p95_ms", pairs, 95)
    secs("cli.write_report.s", tr.total_s("cli.write_report"))
    m["cli.write_report.bytes"] = (tr.counters["cli.write_report.bytes"], "bytes")
    secs("cli.run_pairs.s", tr.total_s("cli.run_pairs"))
    layers = tr.layer_self_s()
    for layer in LAYERS:
        secs(f"layer.{layer}.self_s", layers[layer])
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.layer_sum_frac"] = (sum(layers.values()) / traced_busy if traced_busy else 0.0, "ratio")
    return m


def provenance() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "qcvx": qcvx.__version__,
        "platform": platform.platform(),
        "limitations": LIMITATIONS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test model sizes")
    parser.add_argument("--tamper", choices=("digest", "cantor01", "exit", "reference"), default=None,
                        help="corrupt one expected answer, to show the check catches it")
    args = parser.parse_args(argv)

    size = SIZES["tiny" if args.tiny else "full"]
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan, setup_s, setup_slowdown = setup(args.workload, args.seed, size, work, args.tamper, 2 if args.tiny else SETUP_REPEATS)
        plan.prepare()
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        if args.trace:
            # Untraced for half the time, then exactly one traced cycle, so
            # that per-layer counts repeat exactly for a seed.
            cycles = run_cycles(plan, args.seconds / 2, out_dir)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_cycle(plan, out_dir, len(cycles) * len(plan.ops))
            finally:
                tracer.uninstall()
            check_cycle(plan, traced, keep_executions=False)
            plain_per_unit = statistics.median(sum(c.ref_seconds) / c.units for c in cycles)
            overhead = (sum(traced.ref_seconds) / traced.units) / plain_per_unit - 1
            cycles.append(traced)
        else:
            cycles = run_cycles(plan, args.seconds, out_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The known defect is reported in the detail line only; "failed"
        # and "correct" count the unexplained failures.
        failures = [f for c in cycles for f in c.failures]
        known = [k for c in cycles for k in c.known_defect]
        attempted = sum(len(c.ref_seconds) for c in cycles)
        if args.trace:
            metrics = per_layer(tracer, traced.seconds, overhead)
            trace_path = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed, "provenance": provenance(), **tracer.dump()}, handle)
        else:
            metrics = end_to_end(plan, cycles, setup_s, peak_rss_mb)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "work_unit": plan.unit,
            "operations_per_cycle": len(plan.ops),
            "cycles": len(cycles),
            "host_slowdown": statistics.median(c.slowdown for c in cycles),
            "setup_host_slowdown": setup_slowdown,
            "known_defect_failures": len(known),
            "known_defect_share": len(known) / attempted,
            "unexplained_failures": failures[:5],
            "unexplained_failure_count": len(failures),
        }
        print("# provenance " + json.dumps(provenance()))
        print("# detail " + json.dumps(detail, default=str))
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
