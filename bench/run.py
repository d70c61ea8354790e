"""optex benchmark: time to a design, restart throughput and per-layer counts.

    python3 bench/run.py --workload rsm-ptex --seed 16092024 --seconds 55 --trace 0

Run from the repository root (any checkout of it). One benchmark process runs
one `optex search` at a time, with one worker, as a closed loop, and
checks every search's artifacts. With --trace 0 the last stdout line is a
JSON object carrying the end-to-end metrics; with --trace 1 a separate
traced run drives the same workload through the public functions of each
layer and reports the per-layer metrics instead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import reference
from spans import Tracer, layer_of
from workloads import PARALLEL_WORKERS, SEARCH_WORKERS, WORKLOADS, Workload, search_seed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "optex"

SETUP_PROBES = 7        # cold set-up probes per untraced run; setup_s is their median
TRACE_PROBES = 3        # cold set-up probes per traced run
WRITE_REPS = 5          # artifact writes timed per traced run
MATRIX_DESIGNS = 4      # designs timed for model.matrix_build_us ...
MATRIX_REPS = 250       # ... each this many times
CHILD_TIMEOUT_S = 120   # a search or probe still running after this is killed
ARTIFACTS = ("design.csv", "result.json", "report.txt")

END_TO_END = {
    "search_s": "s",
    "restarts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_objective": "1",
}

PER_LAYER = {
    "criteria.eval_us": "us",
    "criteria.obj_share": "share",
    "numeric.factorisations_per_eval": "count",
    "numeric.spd_share": "share",
    "numeric.spd_us": "us",
    "model.matrix_build_us": "us",
    "criteria.evals_per_restart": "count",
    "search.passes_per_restart": "count",
    "search.accepted_per_restart": "count",
    "search.accept_ratio": "share",
    "criteria.inf_frac": "share",
    "search.restart_s": "s",
    "search.parallel_eff": "share",
    "search.parallel_overhead_s": "s",
    "cli.import_s": "s",
    "config.parse_ms": "ms",
    "model.candidates_ms": "ms",
    "numeric.prior_draw_ms": "ms",
    "reporting.write_ms": "ms",
    "bench.trace_overhead": "ratio",
    "search.self_s": "s",
    "criteria.self_s": "s",
    "numeric.self_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure, or a child hung)."""


class CheckFailed(RuntimeError):
    """A search's artifacts are missing or disagree with each other."""


def load_optex():
    """Import optex from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "optex"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no optex sources at {pkg}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import optex
    if Path(optex.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported optex from {optex.__file__}, not from {pkg}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def workload_spec(wl: Workload, seed: int, starts: int):
    from optex.config import parse_config
    return parse_config(ROOT / wl.config).experiment.with_overrides(
        seed=seed, n_starts=starts, algorithm=wl.algorithm)


# -- statistics ---------------------------------------------------------------

def tail(samples) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten samples beyond it.

    None while that percentile would not lie above the median (n <= 20).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, xs[n - 11]


def describe(name: str, unit: str, samples) -> str:
    line = f"  {name}: median {statistics.median(samples):.6g} {unit}"
    t = tail(samples)
    if t is not None:
        line += f", p{t[0]:.3g} {t[1]:.6g} {unit}"
    return line + f" (n={len(samples)})"


# -- provenance ---------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def provenance() -> dict:
    import numpy
    import scipy
    src_lines = 0
    for path in sorted((ROOT / "src" / "optex").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_optex_lines": src_lines,
    }


# -- child processes ----------------------------------------------------------

def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], stdout, stderr) -> tuple[float, int, float]:
    """Run cmd in its own process group; (wall s, exit code, peak RSS MB).

    The peak RSS is the largest of the process and every descendant it
    waited for (its pool workers), as the kernel reports it to wait4.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr,
                            start_new_session=True)
    timed_out = threading.Event()

    def on_timeout():
        timed_out.set()
        _kill_group(proc.pid)

    timer = threading.Timer(CHILD_TIMEOUT_S, on_timeout)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise BenchError(f"killed after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(wl: Workload, seed: int) -> dict:
    """One cold set-up in a fresh interpreter (see probe.py)."""
    cmd = [sys.executable, str(ROOT / "bench" / "probe.py"), wl.config, wl.algorithm,
           str(seed)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe hung: {' '.join(cmd)}") from None
    if r.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {r.returncode}")
    return json.loads(r.stdout)


def run_search(wl: Workload, seed: int, out: Path) -> dict:
    """One `optex search` process writing into a fresh `out`."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, "-m", "optex.cli", "search", "--config", wl.config,
           "--seed", str(seed), "--starts", str(wl.starts), "--algorithm", wl.algorithm,
           "--workers", str(SEARCH_WORKERS), "--out", str(out)]
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        wall, code, rss_mb = run_child(cmd, so, se)
    return {"seed": seed, "wall_s": wall, "exit_code": code, "rss_mb": rss_mb}


# -- output checks ------------------------------------------------------------

def check_search(spec, out: Path) -> dict:
    """Re-score the written design.csv and match it against result.json."""
    from optex.criteria import compound_objective
    from optex.reporting import read_design_csv
    from optex.search import prior_for_spec

    for name in ARTIFACTS:
        if not (out / name).is_file():
            raise CheckFailed(f"{name} was not written")
    try:
        record = json.loads((out / "result.json").read_text(encoding="utf-8"))
        claimed = float(record["breakdown"]["log_compound"])
        design = read_design_csv(out / "design.csv", spec.grid)
    except (ValueError, KeyError, TypeError) as err:  # ConfigError is a ValueError
        raise CheckFailed(f"unreadable artifact: {err!r}") from None
    if record.get("seed") != spec.seed or record.get("starts") != spec.n_starts:
        raise CheckFailed("result.json does not echo the requested seed and starts")
    if design.n != spec.n_runs:
        raise CheckFailed(f"design.csv has {design.n} runs, expected {spec.n_runs}")
    rescored = compound_objective(design, spec, prior_for_spec(spec, spec.seed)).log_compound
    if not math.isfinite(claimed) or not math.isclose(rescored, claimed, rel_tol=1e-12):
        raise CheckFailed(f"design.csv scores {rescored!r}, result.json says {claimed!r}")
    if not math.isclose(record["breakdown"]["compound_value"], min(record["path"]),
                        rel_tol=1e-9):
        raise CheckFailed("the written design is not the best restart on the path")
    return record


# -- untraced run: end-to-end metrics -----------------------------------------

def run_untraced(wl: Workload, seed: int, seconds: float, work: Path):
    """Closed loop of searches until `seconds` have passed (at least min_searches).

    A search starts while half the median search time still fits, so that
    the last one ends, on average, at the deadline. The set-up probes and
    the reference batches are spread between the searches, so that they
    sample the whole run rather than its first seconds. The timings are
    scaled by the run's machine speed (see reference.py).
    """
    cpus = os.sched_getaffinity(0)
    # One CPU for the whole loop, inherited by every search and probe, so
    # that the reference batches time the CPU the searches ran on: the
    # vCPUs of a shared host change speed independently.
    os.sched_setaffinity(0, {max(cpus)})
    try:
        return _untraced_loop(wl, seed, seconds, work)
    finally:
        os.sched_setaffinity(0, cpus)


def _untraced_loop(wl: Workload, seed: int, seconds: float, work: Path):
    deadline = time.perf_counter() + seconds
    setups = [probe(wl, seed)["setup_s"]]
    refs = [reference.batch_s()]
    done, failures = [], []
    index = 0
    while index < wl.min_searches or (
            done and time.perf_counter() + statistics.median(d["wall_s"] for d in done) / 2
            <= deadline):
        spec = workload_spec(wl, search_seed(seed, index), wl.starts)
        res = run_search(wl, spec.seed, work / "search")
        index += 1
        try:
            if res["exit_code"] != 0:
                raise CheckFailed(f"exit code {res['exit_code']}")
            record = check_search(spec, work / "search")
        except CheckFailed as err:
            failures.append(f"search seed {spec.seed}: {err}")
        else:
            res["restarts"] = record["starts"]
            res["multi_start_s"] = record["wall_time_s"]
            res["best_objective"] = record["breakdown"]["compound_value"]
            res["first"] = index <= wl.min_searches
            done.append(res)
        refs.append(reference.batch_s())
        if len(setups) < SETUP_PROBES:
            setups.append(probe(wl, seed)["setup_s"])
    while len(setups) < SETUP_PROBES:
        setups.append(probe(wl, seed)["setup_s"])
        refs.append(reference.batch_s())

    # seconds on a machine whose reference batch takes REFERENCE_S
    speed = reference.REFERENCE_S / statistics.fmean(refs)
    samples = {
        "search_s": [d["wall_s"] for d in done],
        "setup_s": setups,
        "peak_rss_mb": [d["rss_mb"] for d in done],
        "best_objective": [d["best_objective"] for d in done if d["first"]],
    }
    metrics = {name: statistics.median(xs) for name, xs in samples.items() if xs}
    lines = [describe(name, END_TO_END[name], xs) for name, xs in samples.items() if xs]
    lines.append(describe("reference batch", "s", refs))
    metrics["setup_s"] *= speed
    if done:
        # A case-study run holds only a few searches, whose times differ
        # mostly by how many exchange passes their seeds need; the mean of
        # so few spreads less between runs than their median.
        metrics["search_s"] = statistics.fmean(samples["search_s"]) * speed
        metrics["restarts_per_s"] = (sum(d["restarts"] for d in done)
                                     / sum(d["multi_start_s"] for d in done)) / speed
    lines.insert(0, f"  scaled to the reference speed (x{speed:.4g}): "
                    + ", ".join(f"{name} {metrics[name]:.6g}"
                                for name in ("search_s", "restarts_per_s", "setup_s")
                                if name in metrics))
    lines.append(f"  restarts: {sum(d['restarts'] for d in done)} in {len(done)} searches")
    lines.append(f"  failed_frac: {len(failures)}/{index}")
    return metrics, index, failures, lines, {"searches": done, "setup_s": setups,
                                             "reference_s": refs}


# -- traced run: per-layer metrics --------------------------------------------

@contextmanager
def instrumented(tracer: Tracer, span, objective):
    """Count and time every objective call and every SPD factorisation in it.

    Wraps the objective callable and the `spd_logdet_inverse` name that
    optex.criteria calls; the original is restored on exit.
    """
    import optex.criteria as criteria

    obj_agg = tracer.aggregate("criteria.objective", span)
    spd_agg = tracer.aggregate("numeric.spd_logdet_inverse", span, parent="criteria.objective")
    obj_agg.attrs["inf"] = 0
    clock = time.perf_counter
    factor = criteria.spd_logdet_inverse
    spd_times, obj_times = spd_agg.durations, obj_agg.durations

    def traced_factor(*args, **kwargs):
        t = clock()
        out = factor(*args, **kwargs)
        spd_times.append(clock() - t)
        return out

    def traced_objective(x):
        t = clock()
        val = objective(x)
        obj_times.append(clock() - t)
        if val == math.inf:
            obj_agg.attrs["inf"] += 1
        return val

    criteria.spd_logdet_inverse = traced_factor
    try:
        yield traced_objective
    finally:
        criteria.spd_logdet_inverse = factor


def trace_restarts(tracer: Tracer, wl: Workload, spec):
    """Drive spec.n_starts restarts one by one through the public search functions.

    Returns the span enclosing them, the evaluator and each restart's start
    design as (n, k) settings.
    """
    from optex import search
    from optex.criteria import CriterionEvaluator

    evaluator = CriterionEvaluator.from_spec(spec)
    prior = search.prior_for_spec(spec, spec.seed)
    candidates = search.build_candidates(spec.grid)
    if wl.algorithm == "ptex":
        objective = search.PointObjective(evaluator, candidates, prior)
    else:
        objective = search.CoordObjective(evaluator, spec.grid, prior)
    starts = []
    with tracer.span("search.restarts") as restarts_span:
        for r in range(spec.n_starts):
            with tracer.span("search.restart", restart=r) as sp:
                with tracer.span("search.restart_rng"):
                    rng = search.restart_rng(spec.seed, r)
                with tracer.span("search.random_start"):
                    if wl.algorithm == "ptex":
                        start = search.random_start(candidates, spec.n_runs, rng)
                    else:
                        start = search.random_design(spec.grid, spec.n_runs, rng)
                with tracer.span("search.exchange") as ex, \
                        instrumented(tracer, ex, objective) as traced:
                    if wl.algorithm == "ptex":
                        out = search.point_exchange(start, candidates, traced)
                    else:
                        out = search.coordinate_exchange(start, spec.grid, traced)
                sp.attrs.update(passes=out.passes, accepted=len(out.accepted))
            starts.append(candidates.rows[start] if wl.algorithm == "ptex" else start)
    return restarts_span, evaluator, starts


def restart_counts(tracer: Tracer) -> dict:
    """The exact counts of the traced restarts; they repeat for a fixed seed."""
    restarts = [s for s in tracer.spans if s.name == "search.restart"]
    evals = sum(a.count for a in tracer.aggregates if a.name == "criteria.objective")
    factorisations = sum(a.count for a in tracer.aggregates
                         if a.name == "numeric.spd_logdet_inverse")
    inf = sum(a.attrs["inf"] for a in tracer.aggregates if a.name == "criteria.objective")
    accepted = sum(s.attrs["accepted"] for s in restarts)
    return {
        "criteria.evals_per_restart": evals / len(restarts),
        "search.passes_per_restart": sum(s.attrs["passes"] for s in restarts) / len(restarts),
        "search.accepted_per_restart": accepted / len(restarts),
        "search.accept_ratio": accepted / evals,
        "criteria.inf_frac": inf / evals,
        "numeric.factorisations_per_eval": factorisations / evals,
    }


def matrix_build_us(spec, evaluator, designs) -> float:
    """Median µs to build X1, X2 and the treatment labels of one n-run design."""
    from optex.model import monomial_matrix, treatment_labels

    samples = []
    for settings in designs[:MATRIX_DESIGNS]:
        for _ in range(MATRIX_REPS):
            t = time.perf_counter()
            values = spec.grid.value_columns(settings)
            monomial_matrix(values, evaluator.exps1)
            monomial_matrix(values, evaluator.exps2)
            treatment_labels(settings, spec.grid)
            samples.append(time.perf_counter() - t)
    return statistics.median(samples) * 1e6


def write_artifacts(result, run, out: Path) -> None:
    """What `optex search` writes after the restarts end."""
    from optex.reporting import search_record, search_report_text, write_design_csv, write_record

    write_design_csv(out / "design.csv", result.design, run.experiment.grid)
    write_record(out / "result.json", search_record(result, run))
    (out / "report.txt").write_text(search_report_text(result, run), encoding="utf-8",
                                    newline="\n")


def run_traced(wl: Workload, seed: int, work: Path):
    """Per-layer metrics: cold set-up probes, traced restarts, then multi_start
    untraced at 1 and 2 workers on the same restarts, and the writers."""
    from optex.config import parse_config
    from optex.search import multi_start

    spec = workload_spec(wl, search_seed(seed, 0), wl.trace_restarts)
    run = parse_config(ROOT / wl.config)
    tracer = Tracer(f"{wl.name}/{seed}")
    failures = []
    with tracer.span("bench.workload", workload=wl.name, seed=seed):
        probes = []
        for _ in range(TRACE_PROBES):
            with tracer.span("bench.setup_probe") as ps:
                probes.append(probe(wl, spec.seed))
            for ph in probes[-1]["phases"]:
                tracer.add(ph["name"], ph["start"], ph["end"], parent=ps)
        restarts_span, evaluator, starts = trace_restarts(tracer, wl, spec)
        with tracer.span("model.matrix_build"):
            matrix_us = matrix_build_us(spec, evaluator, starts)

        results = {}
        for workers in (1, PARALLEL_WORKERS):
            with tracer.span("search.multi_start", workers=workers):
                results[workers] = multi_start(spec, workers=workers)
        for _ in range(WRITE_REPS):
            for workers, result in results.items():
                out = work / f"w{workers}"
                out.mkdir(exist_ok=True)
                with tracer.span("reporting.write", workers=workers):
                    write_artifacts(result, replace(run, experiment=spec, workers=workers,
                                                    out_dir=str(out)), out)
        for workers in results:
            try:
                check_search(spec, work / f"w{workers}")
                if (work / f"w{workers}" / "design.csv").read_bytes() != \
                        (work / "w1" / "design.csv").read_bytes():
                    raise CheckFailed("design.csv differs from the 1-worker one")
            except CheckFailed as err:
                failures.append(f"multi_start at {workers} worker(s): {err}")

    metrics = layer_metrics(tracer, restarts_span, probes, matrix_us,
                            results[1].wall_time, results[PARALLEL_WORKERS].wall_time)
    return metrics, len(results), failures, tracer


def layer_metrics(tracer: Tracer, restarts_span, probes, matrix_us: float,
                  wall_1: float, wall_2: float) -> dict:
    def pooled(name):
        out = array("d")
        for a in tracer.aggregates:
            if a.name == name:
                out.extend(a.durations)
        return out

    def phase_median(name):
        return statistics.median(ph["end"] - ph["start"] for p in probes
                                 for ph in p["phases"] if ph["name"] == name)

    restarts = [s for s in tracer.spans if s.name == "search.restart"]
    restart_time = sum(s.duration for s in restarts)
    obj_times, spd_times = pooled("criteria.objective"), pooled("numeric.spd_logdet_inverse")
    self_by_layer: dict[str, float] = {}
    for name, secs in tracer.self_times(tracer.subtree(restarts_span)).items():
        self_by_layer[layer_of(name)] = self_by_layer.get(layer_of(name), 0.0) + secs
    writes = [s.duration for s in tracer.spans if s.name == "reporting.write"]
    return {
        **restart_counts(tracer),
        "criteria.eval_us": statistics.median(obj_times) * 1e6,
        "criteria.obj_share": sum(obj_times) / restart_time,
        "numeric.spd_share": sum(spd_times) / sum(obj_times),
        "numeric.spd_us": statistics.median(spd_times) * 1e6,
        "model.matrix_build_us": matrix_us,
        "search.restart_s": wall_1 / len(restarts),
        "search.parallel_eff": wall_1 / (PARALLEL_WORKERS * wall_2),
        "search.parallel_overhead_s": wall_2 - wall_1 / PARALLEL_WORKERS,
        "cli.import_s": phase_median("cli.import"),
        "config.parse_ms": phase_median("config.parse") * 1e3,
        "model.candidates_ms": phase_median("model.candidates") * 1e3,
        "numeric.prior_draw_ms": phase_median("numeric.prior_draw") * 1e3,
        "reporting.write_ms": statistics.median(writes) * 1e3,
        "bench.trace_overhead": restart_time / wall_1,
        "search.self_s": self_by_layer.get("search", 0.0),
        "criteria.self_s": self_by_layer.get("criteria", 0.0),
        "numeric.self_s": self_by_layer.get("numeric", 0.0),
    }


def trace_lines(tracer: Tracer, metrics: dict) -> list[str]:
    lines = [f"  {name}: {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    for label, name in (("objective call", "criteria.objective"),
                        ("spd factorisation", "numeric.spd_logdet_inverse")):
        pooled = [d * 1e6 for a in tracer.aggregates if a.name == name for d in a.durations]
        lines.append(describe(label, "us", pooled))
    by_layer: dict[str, float] = {}
    for name, secs in tracer.self_times().items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + secs
    lines.append("  self time by layer (s): " + ", ".join(
        f"{layer} {secs:.4g}" for layer, secs in sorted(by_layer.items())))
    return lines


# -- entry point --------------------------------------------------------------

def result_line(metrics: dict, units: dict, attempted: int, failures: list) -> dict:
    """The JSON object printed as the last line of stdout."""
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int,
                        help="run seed (default: each workload's own; see README.md)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="length of the timed loop (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_workload(wl: Workload, seed: int, seconds: float, trace: int) -> bool:
    """Run one workload, print its report and result line; True when nothing failed."""
    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, attempted, failures, tracer = run_traced(wl, seed, work)
            units, lines = PER_LAYER, trace_lines(tracer, metrics)
            detail = {"trace": tracer.to_json()}
        else:
            metrics, attempted, failures, lines, detail = run_untraced(wl, seed, seconds, work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance()
    print(f"workload {wl.name}  seed {seed}  trace {trace}")
    print("\n".join(lines))
    for failure in failures:
        print(f"  FAILED {failure}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    detail.update(workload=wl.name, seed=seed, provenance=prov, failures=failures,
                  metrics=metrics)
    with open(WORK / f"{wl.name}-{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result_line(metrics, units, attempted, failures)), flush=True)
    return not failures


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # a terminated run still reaches the clean-up that kills its search
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        load_optex()
        ok = [run_workload(WORKLOADS[name],
                           WORKLOADS[name].seed if args.seed is None else args.seed,
                           args.seconds, args.trace)
              for name in names]
    except BenchError as err:
        sys.stderr.write(f"bench: {err}\n")
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
