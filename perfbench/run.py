"""qcvx benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, one table
    python3 perfbench/run.py --smoke                          # the benchmark's own tests

Run from the root of a checkout.  Each workload runs in a fresh process
(``bench.py``), so ``peak_rss_mb`` is per workload, with BLAS/OpenMP
threads capped at the CPU count, the checkout's ``src`` on
``PYTHONPATH`` and ``QCVX_JOBS`` unset, so pair analyses run in
sequence, the default.  The last
line of standard output is the result JSON; a run that fails prints no
result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analyze_allpairs", "oracle_differential", "point_queries")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def launch(workload: str, seed: int, seconds: float, trace: int, extra=()) -> tuple[int, str]:
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    env["PYTHONPATH"] = SRC
    env.pop("QCVX_JOBS", None)
    argv = [
        sys.executable, os.path.join(HERE, "bench.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The whole session: the workload and any process it started.
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return 124, out
    return proc.returncode, out


def parse_result(out: str) -> dict | None:
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "qcvx", "__init__.py")):
        print(f"error: no qcvx sources under {SRC}; run from the root of a qcvx checkout", file=sys.stderr)
        return 2
    extra = (["--tiny"] if args.tiny else []) + (["--tamper", args.tamper] if args.tamper else [])
    code, out = launch(args.workload, args.seed, args.seconds, args.trace, extra)
    if code != 0 or parse_result(out) is None:
        sys.stderr.write(out)
        print(f"error: workload {args.workload} failed (exit code {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        code, out = launch(workload, args.seed, args.seconds, 0)
        result = parse_result(out)
        if code != 0 or result is None:
            sys.stderr.write(out)
            print(f"{workload}: failed (exit code {code})")
            ok = False
            continue
        detail = json.loads(out.strip().splitlines()[-2].removeprefix("# detail "))
        print(
            f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
            f" (known --compare defect: {detail['known_defect_failures']}, {detail['known_defect_share']:.1%})"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:<18} {metric['value']:>16.6g} {metric['unit']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def smoke() -> int:
    """Tiny-input runs of every workload: each end-to-end and per-layer
    metric is emitted with its unit, every answer check catches a
    deliberately wrong answer, and a directory holding only the benchmark
    refuses to run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = launch(workload, 7, 1, trace, ["--tiny"])
            result = parse_result(out)
            expect(code == 0 and result is not None, f"{workload} trace={trace}: runs and prints a result")
            if result is None:
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected[trace], f"{workload} trace={trace}: metric names and units match BENCHMARK.json")
            expect(result["correct"] and result["attempted"] >= 1, f"{workload} trace={trace}: answers correct")
            if trace and workload == "analyze_allpairs":
                m = result["metrics"]
                gap = abs(1 - m["trace.layer_sum_frac"]["value"])
                expect(gap <= max(m["trace.overhead_frac"]["value"], 0.01),
                       f"{workload}: layer self times add up to the traced time ({gap:.4f} off)")
    for workload, tamper in (
        ("analyze_allpairs", "digest"),
        ("analyze_allpairs", "cantor01"),
        ("oracle_differential", "exit"),
        ("point_queries", "reference"),
    ):
        code, out = launch(workload, 7, 1, 0, ["--tiny", "--tamper", tamper])
        result = parse_result(out)
        expect(
            code == 0 and result is not None and not result["correct"] and result["failed"] >= 1,
            f"{workload}: a tampered {tamper} is caught",
        )
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and parse_result(proc.stdout) is None, "a directory with only the benchmark refuses to run")
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcvx benchmark launcher")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload (untraced) and print one table")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own tests on tiny inputs")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tamper", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload, --all or --smoke is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
