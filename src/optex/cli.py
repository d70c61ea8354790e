"""Command-line interface: `optex search|eval|report`.

A batch tool: `search` runs the configured multi-start exchange search and
writes the design, a human-readable report, and a machine-readable record;
`eval` scores an externally supplied design under the configured criterion;
`report` turns a set of result records into an efficiency table.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, apply_overrides, parse_config
from .criteria import compound_objective
from .reporting import (
    INF_WARNING,
    design_csv_text,
    efficiency_table,
    efficiency_table_csv,
    efficiency_table_text,
    eval_record,
    eval_report_text,
    read_design_csv,
    read_record,
    record_text,
    search_record,
    search_report_text,
)
from .search import fresh_master_seed, multi_start, prior_for_spec


class OutputError(Exception):
    """An output that could not be written; `main` reports it and returns 1."""


def _apply_overrides(run: RunConfig, args) -> RunConfig:
    # `eval` has no --starts, --algorithm or --workers
    return apply_overrides(run, seed=args.seed, starts=getattr(args, "starts", None),
                           algorithm=getattr(args, "algorithm", None),
                           workers=getattr(args, "workers", None), out_dir=args.out)


def _out_dir(path, flag: str) -> Path:
    """The output directory, made before any work; ConfigError naming `flag` if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{flag}: cannot create the output directory {out} "
                          f"({err.strerror})") from None
    return out


def _run_out_dir(run: RunConfig, args) -> Path:
    return _out_dir(run.out_dir, "output.dir" if args.out is None else "--out")


def _write(path: Path, text: str) -> None:
    """Write an artifact; OutputError naming it if it cannot be written."""
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as err:
        raise OutputError(f"cannot write {path} ({err.strerror})") from None


def _print(text: str, name: str = "stdout") -> None:
    """Write `text` to sys.stdout (or sys.stderr: `name`) and flush it; OutputError
    naming the stream if it refuses it.

    After a failure the stream's fd points at os.devnull, so the interpreter's
    closing flush of what is still buffered cannot fail a second time at exit.
    """
    stream = getattr(sys, name)
    if stream is None:  # the process started with that fd closed
        raise OutputError(f"cannot write {name} ({os.strerror(errno.EBADF)})")
    try:
        stream.write(text)
        stream.flush()
    except OSError as err:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise OutputError(f"cannot write {name} ({err.strerror})") from None


def _stderr_line(line: str) -> None:
    """Write one line to stderr; a closed or unwritable stderr is ignored, so that
    it never changes the exit code."""
    with contextlib.suppress(OutputError):
        _print(line + "\n", "stderr")


def cmd_search(args) -> int:
    run = _apply_overrides(parse_config(args.config), args)
    spec = run.experiment
    out = _run_out_dir(run, args)
    result = multi_start(spec, workers=run.workers)
    if run.design_csv:
        _write(out / "design.csv", design_csv_text(result.design, spec.grid))
    if run.result_json:
        _write(out / "result.json", record_text(search_record(result, run)))
    report = search_report_text(result, run)
    if run.report_txt:
        _write(out / "report.txt", report)
    _print(report)
    if result.non_converged:
        _stderr_line(f"warning: {len(result.non_converged)} restart(s) did not "
                     "converge within the pass cap")
    if math.isinf(result.compound_value):
        _stderr_line(INF_WARNING)
    return 0


def cmd_eval(args) -> int:
    run = _apply_overrides(parse_config(args.config), args)
    spec = run.experiment
    design = read_design_csv(args.design, spec.grid)
    out = _run_out_dir(run, args)
    master_seed = spec.seed if spec.seed is not None else fresh_master_seed()
    prior = prior_for_spec(spec, master_seed)
    breakdown = compound_objective(design, spec, prior)
    record = eval_record(design, breakdown, run, master_seed,
                         prior.seed if prior is not None else None)
    if run.result_json:
        _write(out / "eval_result.json", record_text(record))
    report = eval_report_text(breakdown, run, record["alias_matrix"])
    if run.report_txt:
        _write(out / "eval_report.txt", report)
    _print(report)
    return 0


def cmd_report(args) -> int:
    records = [read_record(path) for path in args.records]
    table = efficiency_table(records)
    out = None if args.out is None else _out_dir(args.out, "--out")
    text = efficiency_table_text(table)
    if out is not None:
        _write(out / "efficiency.csv", efficiency_table_csv(table))
        _write(out / "efficiency.txt", text)
    _print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optex",
        description="Multi-objective optimal experimental designs for polynomial "
                    "response-surface models.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="run the multi-start exchange search")
    sp.add_argument("--config", required=True, help="YAML run configuration")
    sp.add_argument("--seed", type=int, help="master seed (overrides config)")
    sp.add_argument("--starts", type=int, help="number of restarts")
    sp.add_argument("--algorithm", choices=("ptex", "coordex"))
    sp.add_argument("--workers", type=int, help="parallel restart workers")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=cmd_search)

    ev = sub.add_parser("eval", help="evaluate an existing design file")
    ev.add_argument("--config", required=True, help="YAML run configuration")
    ev.add_argument("--design", required=True, help="design CSV to score")
    ev.add_argument("--seed", type=int, help="master seed (regenerates the MC prior)")
    ev.add_argument("--out", help="output directory")
    ev.set_defaults(func=cmd_eval)

    rp = sub.add_parser("report", help="efficiency table from result records")
    rp.add_argument("records", nargs="+", help="result.json files (must include the "
                    "three pure-criterion runs)")
    rp.add_argument("--out", help="output directory for efficiency.csv and efficiency.txt")
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        _stderr_line(f"error: {err}")
        return 2
    except OutputError as err:
        _stderr_line(f"error: {err}")
        return 1


def run() -> int:
    """The process entry of the `optex` script and `python -m optex.cli`.

    Runs `main`, then freezes the garbage collector, so the interpreter's
    closing collections skip every object alive at exit instead of walking
    and freeing the module graphs of numpy, PyYAML and optex, memory the OS
    reclaims anyway. Module teardown, atexit handlers and the flush of
    stdout and stderr still run. `main` leaves the collector alone, for
    callers that run it in process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
