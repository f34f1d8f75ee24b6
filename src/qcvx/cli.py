"""Command-line front end.

Subcommands: ``analyze`` (semicontinuity, quasiconvexity verdict,
per-pair violation decompositions with checks, chord violations),
``certify`` (paired-maxima certificate with a revalidation block),
``oracle`` (brute-force grid verdict, optionally compared against the
exact analyzer), and ``corpus`` (write fixture function files).

Every report is streamed into a spool, then published whole
(``_write_report``): a run refused at any point writes nothing.

Exit codes: 0 analysis completed (regardless of verdict), 1 usage or
parse error or a report that cannot be written, 2 violation found
under ``--fail-on-violation``, 3 precondition/audit failure, 4
differential-test inconsistency.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import secrets
import shutil
import stat
import sys
import tempfile
from datetime import datetime, timezone
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Optional, Sequence

import click

from . import __version__
from .core import _decimal, format_rational, parse_rational
from .corpus import corpus_function
from .certificates import MAX_REVALIDATION_POINTS, paired_maxima_certificate, revalidate_certificate
from .certificates import check_no_strict_sided_maxima
from .errors import (
    ParameterRangeError,
    PreconditionError,
    QcvxError,
    SemicontinuityError,
    ValidationError,
)
from .functions import (
    Function1D,
    _check_cantor_depth,
    _parse_rational_field,
    check_semicontinuity,
    function_from_dict,
    function_to_dict,
)
from .intervals import OpenIntervalSet, normalize
from .oracle import FLOAT_EPSILON, _violation_set_from, diff_report, oracle_quasiconvex, uniform_points
from .violations import _RECORD_NEWLINE, _pair_walks, _record_text, is_quasiconvex, violation_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4

# The most breakpoints ``--all-breakpoint-pairs`` may place strictly
# inside its pairs, summed over the pairs: C(n, 3) for n breakpoints, so
# 256 run (Cantor depth 7) and 257 do not.  Time, walks and report grow
# with the count; README "Work limits" has the runs at the limit.
MAX_PAIR_INTERIOR_POINTS = math.comb(256, 3)

# The most samples ``--plot-points`` may ask for; the time, the memory and
# the report grow linearly with the count.
MAX_PLOT_POINTS = 100_000


def _load_function(path: str) -> Function1D:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError("file", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("file", f"{path} is not valid JSON: {exc}") from exc
    return function_from_dict(doc)


def _parse_pair(x: str, y: str) -> tuple[Fraction, Fraction]:
    return parse_rational(x), parse_rational(y)


class _Records:
    """The JSON texts of ``analyze``'s pair records (``pair_records``),
    which ``_emit`` lays out as a list as they arrive."""

    def __init__(self, texts: Iterable[str] = ()):
        self.texts = texts

    def __iter__(self) -> Iterator[str]:
        return iter(self.texts)


def _emit(obj, append, newline: str) -> None:
    """Hand ``append`` the text of ``obj`` a piece at a time, its lines
    after the first starting with ``newline``'s indent: at "\\n",
    ``json.dumps(obj, indent=2, allow_nan=False)`` byte for byte.

    Strings are quoted by ``json``'s C ``encode_basestring_ascii``.  Types
    follow ``json``'s rules: ``bool`` before ``int``, subclasses of
    ``str``, ``int`` and ``float`` by their base type, ``ValueError`` for
    NaN and ±inf, ``TypeError`` for any other value and a key that is not
    a ``str``.  The texts of a ``_Records`` are handed on verbatim as they
    arrive; it must be reached where their lines start with
    ``violations._RECORD_NEWLINE``, or ``ValueError`` is raised before
    any is made: they are never re-indented.
    """
    if isinstance(obj, str):
        append(_quote(obj))
    elif obj is None:
        append("null")
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif isinstance(obj, int):
        append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple, _Records)):
        inner = newline + "  "
        rendered = type(obj) is _Records
        if rendered and inner != _RECORD_NEWLINE:
            raise ValueError(f"text rendered at indent {len(_RECORD_NEWLINE) - 3} reached at indent {len(newline) - 1}")
        separator = "[" + inner
        for item in obj:
            append(separator)
            separator = "," + inner
            if rendered:
                append(item)
            else:
                _emit(item, append, inner)
        append("[]" if separator[0] == "[" else newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(separator + _quote(key) + ": ")
            separator = "," + inner
            _emit(value, append, inner)
        append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# A directory of open file descriptors, ``/proc/<pid>/fd``: what
# ``/dev/fd``, ``/proc/self/fd`` and ``/proc/thread-self/fd`` resolve to.
_FD_DIRECTORY = re.compile(r"/proc/[^/]+(/task/[^/]+)?/fd")


def _rename_target(out: str) -> Optional[str]:
    """The real path of ``out``, resolved one symbolic link at a time, or
    None when the path goes through a descriptor link such as
    ``/dev/stdout`` or ``/dev/fd/N``: the file behind that descriptor is
    already open, so it is written in place."""
    path = out
    for _ in range(40):
        head, name = os.path.split(path)
        head = os.path.realpath(head or ".")
        if _FD_DIRECTORY.fullmatch(head):
            return None
        path = os.path.join(head, name)
        if not os.path.islink(path):
            return path
        path = os.path.join(head, os.readlink(path))
    return path


def _write_report(report: dict, out: Optional[str]) -> None:
    """Stream the report and its final newline into a spool, then
    publish the spool to stdout or to ``out``.

    A regular or new ``out`` spools into a temporary file beside its real
    path, renamed over it with the permissions a plain ``open`` would
    give: those of the file it replaces, or 0o666 less the umask.  stdout,
    and an ``out`` that is not a regular file or that is reached through
    a descriptor link such as ``/dev/stdout``, spool into an anonymous
    temporary file, copied to them once complete.  So a result refused
    while it is rendered, or a failed write, writes nothing and leaves no
    temporary file.  A failed write raises ``QcvxError`` naming ``out``.
    """
    try:
        target = _rename_target(out) if out else None
        if target is not None:
            try:
                mode: Optional[int] = os.stat(out).st_mode
            except FileNotFoundError:
                mode = None
            if mode is None or stat.S_ISREG(mode):
                _replace_file(report, target, mode)
                return
        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            _render(report, spool)
            spool.seek(0)
            if out:
                with open(out, "w", encoding="utf-8") as handle:
                    shutil.copyfileobj(spool, handle)
            else:
                shutil.copyfileobj(spool, sys.stdout)
                sys.stdout.flush()
    except OSError as exc:
        if exc.errno == errno.EPIPE and not out:
            raise  # a reader closed stdout: click exits 1 quietly
        raise QcvxError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from exc


def _render(report: dict, handle) -> None:
    """Write the report's text and its final newline to ``handle``."""
    _emit(report, handle.write, "\n")
    handle.write("\n")


def _replace_file(report: dict, target: str, mode: Optional[int]) -> None:
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            _render(report, handle)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _base_report(f: Function1D, path: str, no_timestamp: bool, grid_points: int) -> dict:
    a, b = f.domain
    report: dict = {
        "tool": "qcvx",
        "tool_version": __version__,
    }
    if not no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    report["config"] = {
        "grid_points": grid_points,
        "float_epsilon": format_rational(FLOAT_EPSILON),
    }
    summary = (
        function_to_dict(f) if f.is_exact else {"type": type(f).__name__.lower()}
    )
    report["function"] = {
        "source": path,
        "summary": summary,
        "domain": [format_rational(a), format_rational(b)],
        "breakpoint_count": len(f.breakpoints()),
    }
    # Large models: keep the summary light.
    for key in ("knots", "breaks", "piece_values", "point_values"):
        if key in summary and len(summary[key]) > 64:
            summary[key] = f"({len(summary[key])} entries)"
    return report


def pair_records(f: Function1D, pairs: Sequence[tuple[Fraction, Fraction]]) -> _Records:
    """The text of each pair's report record, in order, as ``_emit``
    writes ``PairAnalysis.to_json()`` in the report's "pairs" list.

    Every pair is located and walked at once (``violations._pair_walks``,
    the generator's outermost iterable), before the report's first byte;
    each record is then rendered from its walks by
    ``violations._record_text`` as the writer reaches it, with no record
    dict.  An exception names its pair in a note, which ``main`` puts
    before its message."""
    return _Records(_record_text(f, *use) for use in _pair_walks(f, pairs))


def _collect_pairs(
    f: Function1D,
    pair_options: Sequence[tuple[str, str]],
    all_breakpoint_pairs: bool,
) -> list[tuple[Fraction, Fraction]]:
    """The pairs to analyze: the ``--pair``s in order, then every
    breakpoint pair under ``--all-breakpoint-pairs``, or the domain when
    there is neither."""
    bps = f.breakpoints()
    if all_breakpoint_pairs:
        inside = math.comb(len(bps), 3)
        if inside > MAX_PAIR_INTERIOR_POINTS:
            raise ParameterRangeError(
                f"--all-breakpoint-pairs on {len(bps)} breakpoints puts {inside} "
                f"breakpoints inside its pairs, over the limit of {MAX_PAIR_INTERIOR_POINTS}"
            )
    pairs = [_parse_pair(x_text, y_text) for x_text, y_text in pair_options]
    if all_breakpoint_pairs:
        pairs.extend(combinations(bps, 2))
    if not pairs:
        pairs.append(f.domain)
    return pairs


def _plot_resolution(ctx, param, value: int) -> int:
    if value != 0 and value < 2:
        raise click.BadParameter(f"must be 0 (off) or at least 2, got {value}")
    if value > MAX_PLOT_POINTS:
        raise click.BadParameter(f"must be at most {MAX_PLOT_POINTS}, got {value}")
    return value


def _plot_samples(f: Function1D, n: int) -> list[list]:
    """n evenly spaced samples of f over its domain, made by the oracle's
    uniform-point builder and evaluated in one sorted walk."""
    _, build = uniform_points(*f.domain, n)
    ts = build()
    return [
        [format_rational(t), v.to_string(), _decimal(t), _decimal(v)]
        for t, v in zip(ts, f.evaluate_sorted(ts))
    ]


@click.group(name="qcvx")
@click.version_option(version=__version__, prog_name="qcvx")
def cli():
    """Exact quasiconvexity analysis of piecewise function models."""


@cli.command()
@click.argument("function_file", type=click.Path())
@click.option("--pair", "pairs", nargs=2, multiple=True, metavar="X Y", help="Analyze the pair (X, Y); repeatable.")
@click.option("--all-breakpoint-pairs", is_flag=True, help="Analyze every ordered breakpoint pair.")
@click.option("--grid", "grid_points", type=click.IntRange(min=3), default=201, show_default=True, help="Oracle grid resolution for --with-oracle.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write the report here instead of stdout.")
@click.option("--fail-on-violation", is_flag=True, help="Exit 2 when the function is not quasiconvex.")
@click.option("--no-timestamp", is_flag=True, help="Omit the timestamp for byte-identical reruns.")
@click.option("--with-oracle", is_flag=True, help="Embed a brute-force oracle verdict.")
@click.option("--plot-points", type=int, default=0, callback=_plot_resolution, help=f"Include (t, f(t)) columns at this resolution: 0 (off), or 2 to {MAX_PLOT_POINTS}.")
def analyze(
    function_file,
    pairs,
    all_breakpoint_pairs,
    grid_points,
    out_path,
    fail_on_violation,
    no_timestamp,
    with_oracle,
    plot_points,
):
    """Run the full exact analysis of FUNCTION_FILE."""
    f = _load_function(function_file)
    report = _base_report(f, function_file, no_timestamp, grid_points)
    report["semicontinuity"] = check_semicontinuity(f).to_json()
    verdict = is_quasiconvex(f)
    report["quasiconvexity"] = verdict.to_json(f)
    pair_list = _collect_pairs(f, pairs, all_breakpoint_pairs)
    # The oracle runs before the pairs, so that it refuses an oversized
    # grid before any pair work; its block still follows the pairs.
    oracle_block = oracle_quasiconvex(f, grid_points).to_json() if with_oracle else None
    report["pairs"] = pair_records(f, pair_list)
    report["local_maxima_hypothesis"] = check_no_strict_sided_maxima(f).to_json()
    if oracle_block is not None:
        report["oracle"] = oracle_block
    if plot_points:
        samples = _plot_samples(f, plot_points)
        report["plot"] = {"resolution": plot_points, "columns": ["t", "f", "t_decimal", "f_decimal"], "samples": samples}
    _write_report(report, out_path)
    if fail_on_violation and not verdict.is_quasiconvex:
        return EXIT_VIOLATION
    return EXIT_OK


@cli.command()
@click.argument("function_file", type=click.Path())
@click.option("--interval", nargs=2, metavar="X0 Y0", required=True, help="Closed interval to certify.")
@click.option("--grid", "grid_points", type=click.IntRange(3, MAX_REVALIDATION_POINTS), default=201, show_default=True, help=f"Revalidation grid resolution, 3 to {MAX_REVALIDATION_POINTS}.")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--no-timestamp", is_flag=True)
def certify(function_file, interval, grid_points, out_path, no_timestamp):
    """Extract the paired-maxima certificate on an interval."""
    f = _load_function(function_file)
    x0, y0 = _parse_pair(*interval)
    report = _base_report(f, function_file, no_timestamp, grid_points)
    report["semicontinuity"] = check_semicontinuity(f).to_json()
    cert = paired_maxima_certificate(f, x0, y0)
    if cert is None:
        report["certificate"] = None
        report["quasiconvex_on_interval"] = True
    else:
        payload = cert.to_json()
        payload["revalidation"] = revalidate_certificate(f, cert, grid_points).to_json()
        report["certificate"] = payload
        report["quasiconvex_on_interval"] = False
    _write_report(report, out_path)
    return EXIT_OK


@cli.command()
@click.argument("function_file", type=click.Path())
@click.option("--grid", "grid_points", type=click.IntRange(min=3), default=201, show_default=True)
@click.option("--compare", is_flag=True, help="Diff the oracle against the exact analyzer; exit 4 on inconsistency.")
@click.option("--pair", nargs=2, metavar="X Y", default=None, help="Pair for the violation-set comparison (default: domain ends).")
@click.option("--expect", "expect_path", type=click.Path(), default=None, help="Compare against a stored exact result instead of the live analyzer.")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--no-timestamp", is_flag=True)
def oracle(function_file, grid_points, compare, pair, expect_path, out_path, no_timestamp):
    """Brute-force grid verdict, optionally checked for consistency."""
    f = _load_function(function_file)
    if compare and not expect_path and not f.is_exact:
        raise click.UsageError(
            f"--compare needs an exact model, got {type(f).__name__}; "
            "pass --expect with a stored exact result instead"
        )
    report = _base_report(f, function_file, no_timestamp, grid_points)
    verdict = oracle_quasiconvex(f, grid_points)
    report["oracle"] = verdict.to_json()
    exit_code = EXIT_OK
    if compare or expect_path:
        x, y = _parse_pair(*pair) if pair else f.domain
        approx = _violation_set_from(verdict, f, x, y)
        slack = (y - x) / (grid_points - 1)
        if expect_path:
            try:
                exact = exact_set = _load_expected_components(expect_path)
            except ValidationError as exc:
                raise click.UsageError(f"invalid expectation file: {exc}") from exc
        else:
            exact = violation_set(f, x, y)
            exact_set = exact.components
        diff = diff_report(exact, approx, slack)
        verdict_agrees = True
        if f.is_exact and not expect_path:
            verdict_agrees = (
                is_quasiconvex(f).is_quasiconvex == verdict.is_quasiconvex_on_grid
            )
        report["comparison"] = {
            "pair": [format_rational(x), format_rational(y)],
            "slack": format_rational(slack),
            "grid_set": approx.to_json(),
            "exact_set": exact_set.to_json(),
            "verdict_agrees": verdict_agrees,
            **diff.to_json(),
        }
        if not diff.consistent or not verdict_agrees:
            exit_code = EXIT_INCONSISTENT
    _write_report(report, out_path)
    return exit_code


def _load_expected_components(path: str) -> OpenIntervalSet:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError("expect", f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "components" not in doc:
        raise ValidationError("expect.components", "missing components list")
    spans = []
    try:
        for i, entry in enumerate(doc["components"]):
            field = f"expect.components[{i}]"
            u = _parse_rational_field(f"{field}.u", entry["u"])
            v = _parse_rational_field(f"{field}.v", entry["v"])
            if not u < v:
                raise ValidationError(field, f"needs u < v, got u = {u}, v = {v}")
            spans.append((u, v))
    except (KeyError, TypeError) as exc:
        raise ValidationError("expect.components", f"malformed entry: {exc}") from exc
    return normalize(spans)


@cli.command()
@click.argument("name")
@click.option("--depth", type=int, default=None, help="Cantor approximant depth.")
@click.option("--mode", type=click.Choice(["set", "complement"]), default=None, help="Cantor mode.")
@click.option("--knots", type=int, default=None, help="Knot count for random-pl.")
@click.option("--seed", type=int, default=None, help="Seed for random-pl.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Output file (default: derived from the name).")
def corpus(name, depth, mode, knots, seed, out_path):
    """Write a corpus function file (see ``corpus_names`` for NAMEs)."""
    if name == "cantor":
        if depth is None or mode is None:
            raise click.UsageError("cantor needs --depth and --mode")
        _check_cantor_depth(depth)  # click has already checked the mode
        doc = {"type": "cantor", "depth": depth, "mode": mode}
        default_name = f"cantor{depth}{mode[0]}.json"
    elif name == "random-pl":
        if knots is None or seed is None:
            raise click.UsageError("random-pl needs --knots and --seed")
        f = corpus_function("random-pl", knots=knots, seed=seed)
        doc = function_to_dict(f)
        default_name = f"random_pl_k{knots}_s{seed}.json"
    else:
        try:
            f = corpus_function(name)
        except ParameterRangeError as exc:
            raise click.UsageError(str(exc)) from exc
        doc = function_to_dict(f)
        default_name = f"{name.replace('-', '_')}.json"
    path = out_path or default_name
    _write_report(doc, path)
    click.echo(path)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI, mapping error classes to documented exit codes."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if isinstance(result, int) else EXIT_OK
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except ValidationError as exc:
        click.echo(f"error: invalid function document: {_message(exc)}", err=True)
        return EXIT_USAGE
    except SemicontinuityError as exc:
        click.echo(f"error: {_message(exc)}", err=True)
        return EXIT_PRECONDITION
    except PreconditionError as exc:
        click.echo(f"error: precondition failed: {_message(exc)}", err=True)
        return EXIT_PRECONDITION
    except QcvxError as exc:
        click.echo(f"error: {_message(exc)}", err=True)
        return EXIT_USAGE


def _message(exc: Exception) -> str:
    """The text of ``exc`` after its notes, such as the pair that
    ``pair_records`` names."""
    return "".join(f"{note}: " for note in getattr(exc, "__notes__", ())) + str(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
