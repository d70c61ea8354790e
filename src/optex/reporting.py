"""Design export, result records, and efficiency tables.

Design CSV: header ``trt_label,x1,...,xk``, LF line endings, ``.`` decimal
separator, rows sorted by treatment label then original index. Reports print
to 6 significant digits; the JSON record keeps full float precision.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, read_input, resolved_config_dict
from .criteria import CriterionBreakdown, alias_matrix, efficiency
from .model import Design, FactorGrid, model_matrices, treatment_labels
from .search import RestartStats, SearchResult

RECORD_FORMAT = "optex-result-1"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "inf"
    return f"{value:.6g}"


def design_csv_text(design: Design, grid: FactorGrid) -> str:
    labels = treatment_labels(design.settings, grid)
    order = np.lexsort((np.arange(design.n), labels))
    values = grid.value_columns(design.settings)
    lines = ["trt_label," + ",".join(f"x{j + 1}" for j in range(grid.k))]
    for i in order:
        row = ",".join(repr(float(v)) for v in values[i])
        lines.append(f"{int(labels[i])},{row}")
    return "\n".join(lines) + "\n"


def write_design_csv(path, design: Design, grid: FactorGrid) -> None:
    Path(path).write_text(design_csv_text(design, grid), encoding="utf-8", newline="\n")


def read_design_csv(path, grid: FactorGrid) -> Design:
    """Parse a design file, mapping each setting onto the configured grid.

    A ``trt_label`` column, when present, must give each row the treatment
    label of its settings.
    """
    lines = [ln for ln in read_input(path, "design file").splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty design file")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no design rows after the header")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"x{j + 1}" for j in range(grid.k)]
    if header[:1] == ["trt_label"]:
        cols = header[1:]
        offset = 1
    else:
        cols = header
        offset = 0
    if cols != expected:
        raise ConfigError(
            f"{path}: header columns {cols} do not match the configured factors {expected}")
    grids = [grid.factor_values(j) for j in range(grid.k)]
    rows = []
    for r, line in enumerate(lines[1:], start=1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != grid.k + offset:
            raise ConfigError(f"{path}: row {r} has {len(parts)} fields, expected "
                              f"{grid.k + offset}")
        idx_row = []
        for j in range(grid.k):
            try:
                v = float(parts[j + offset])
            except ValueError:
                raise ConfigError(f"{path}: row {r}, column x{j + 1}: "
                                  f"{parts[j + offset]!r} is not a number") from None
            if not math.isfinite(v):
                raise ConfigError(f"{path}: row {r}, column x{j + 1}: setting {v} "
                                  "is not a finite number")
            diffs = np.abs(grids[j] - v)
            jstar = int(np.argmin(diffs))
            if diffs[jstar] > 1e-9:
                raise ConfigError(f"{path}: row {r}, column x{j + 1}: setting {v} "
                                  "is not on the configured grid")
            idx_row.append(jstar)
        if offset:
            label = int(treatment_labels(np.array([idx_row]), grid)[0])
            try:
                matches = int(parts[0]) == label
            except ValueError:
                matches = False
            if not matches:
                raise ConfigError(f"{path}: row {r}, column trt_label: {parts[0]!r} is not "
                                  f"{label}, the treatment label of the row's settings")
        rows.append(idx_row)
    return Design.from_indices(np.array(rows, dtype=np.int64), grid)


def breakdown_dict(b: CriterionBreakdown, names: tuple[str, str, str]) -> dict:
    return {"components": list(names), **asdict(b), "compound_value": b.compound_value}


def _record(command: str, run: RunConfig, seed: int, prior_seed: int | None,
            design: Design, breakdown: CriterionBreakdown, **search_fields) -> dict:
    """The fields every result record shares; `search_fields` follow the seeds."""
    spec = run.experiment
    alias = alias_matrix(*model_matrices(design, spec.primary, spec.potential, spec.grid))
    return {
        "format": RECORD_FORMAT,
        "command": command,
        "config": resolved_config_dict(run, seed),
        "seed": seed,
        "prior_seed": prior_seed,
        **search_fields,
        "design": {
            "trt_labels": [int(v) for v in treatment_labels(design.settings, spec.grid)],
            "settings": [[float(v) for v in row]
                         for row in spec.grid.value_columns(design.settings)],
        },
        "breakdown": breakdown_dict(breakdown, spec.criterion.component_names()),
        "alias_matrix": None if alias is None else [list(map(float, r)) for r in alias],
    }


def search_record(result: SearchResult, run: RunConfig) -> dict:
    record = _record("search", run, result.seed, result.prior_seed, result.design,
                     result.breakdown, algorithm=result.algorithm, starts=result.n_starts,
                     path=list(result.path), non_converged=list(result.non_converged))
    record["wall_time_s"] = result.wall_time
    record["provenance"] = provenance(result.workers)
    record["stats"] = {
        "restarts": [asdict(st) for st in result.stats],
        "total": stats_total(result.stats),
        "best_restart": result.best_restart,
    }
    return record


def provenance(workers: int | None = None) -> dict:
    """The versions, platform and worker count that produced a record's numbers.

    scipy's version is recorded only when scipy is loaded (an MSE.D prior
    draw loads it); nothing is imported to record it.
    """
    uname = platform.uname()
    out = {"optex": __version__, "python": platform.python_version(),
           "numpy": np.__version__}
    if "scipy" in sys.modules:
        out["scipy"] = sys.modules["scipy"].__version__
    out["platform"] = f"{uname.system}-{uname.release}-{uname.machine}"
    if workers is not None:
        out["workers"] = workers
    return out


def stats_total(stats) -> dict:
    """Per-restart search counters summed over restarts."""
    return {f.name: sum(getattr(st, f.name) for st in stats) for f in fields(RestartStats)}


def eval_record(design: Design, breakdown: CriterionBreakdown, run: RunConfig,
                master_seed: int, prior_seed: int | None) -> dict:
    record = _record("eval", run, master_seed, prior_seed, design, breakdown)
    record["provenance"] = provenance()
    return record


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The dotted fields `optex report` reads from each record, with their checks.
_REPORT_FIELDS = (
    ("config.criterion.family", lambda v: isinstance(v, str)),
    ("config.criterion.kappa",
     lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v))),
    ("breakdown.components",
     lambda v: isinstance(v, list) and len(v) == 3 and all(isinstance(x, str) for x in v)),
    ("breakdown.phi_primary", _is_number),
    ("breakdown.phi_lof", _is_number),
    ("breakdown.phi_mse", _is_number),
    ("breakdown.pe_df", _is_count),
    ("breakdown.lof_df", _is_count),
)


def read_record(path) -> dict:
    """Load a result record, checking its format and the fields reports use."""
    text = read_input(path, "result record")
    try:
        record = json.loads(text)
    except ValueError as err:
        raise ConfigError(f"{path}: not a readable JSON file ({err})") from None
    if not isinstance(record, dict) or record.get("format") != RECORD_FORMAT:
        raise ConfigError(f"{path}: field format: expected {RECORD_FORMAT!r}")
    for name, valid in _REPORT_FIELDS:
        node = record
        for key in name.split("."):
            node = node.get(key) if isinstance(node, dict) else None
        if not valid(node):
            raise ConfigError(f"{path}: field {name}: missing or malformed")
    return record


def write_record(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def breakdown_text(b: CriterionBreakdown, names: tuple[str, str, str],
                   kappa: tuple[float, float, float]) -> list[str]:
    lines = ["component values:"]
    for name, kap, phi in zip(names, kappa, (b.phi_primary, b.phi_lof, b.phi_mse)):
        lines.append(f"  {name:<8} (kappa={_fmt(kap)}): {_fmt(phi)}")
    lines.append(f"  base (no F inflation): {_fmt(b.phi_base)}")
    lines.append(f"pure-error df: {b.pe_df}   lack-of-fit df: {b.lof_df}")
    lines.append(f"compound value: {_fmt(b.compound_value)}   "
                 f"log: {_fmt(b.log_compound)}")
    return lines


INF_WARNING = ("warning: the best design scores +inf: every restart ended on a design that a "
               "weighted component scores +inf (a singular information matrix or no pure "
               "error)")


def search_report_text(result: SearchResult, run: RunConfig) -> str:
    spec = run.experiment
    crit = spec.criterion
    lines = [
        "search report",
        f"family: {crit.family}   kappa: "
        + " ".join(_fmt(k) for k in crit.kappa),
        f"factors: {spec.k}   levels: {list(spec.grid.levels)}   runs: {spec.n_runs}",
        f"algorithm: {result.algorithm}   starts: {result.n_starts}   "
        f"seed: {result.seed}",
    ]
    if result.prior_seed is not None:
        lines.append(f"prior seed: {result.prior_seed}   "
                     f"mc samples: {crit.mc_samples}")
    lines += breakdown_text(result.breakdown, crit.component_names(), crit.kappa)
    lines.append("path (per-restart objective): "
                 + " ".join(_fmt(v) for v in result.path))
    if result.non_converged:
        lines.append(f"warning: restarts {list(result.non_converged)} hit the pass cap "
                     "without converging")
    if math.isinf(result.compound_value):
        lines.append(INF_WARNING)
    total = stats_total(result.stats)
    lines.append(f"search work: {total['passes']} passes, {total['screened_moves']} "
                 f"screened moves in {total['screen_calls']} screen calls, "
                 f"{total['exact_evaluations']} exact evaluations, "
                 f"{total['accepted_exchanges']} accepted exchanges, "
                 f"{total['factorisations']} factorisations, "
                 f"{total['seconds']:.2f} s in restarts; best restart {result.best_restart}")
    lines.append(f"wall time: {result.wall_time:.2f} s")
    return "\n".join(lines) + "\n"


def eval_report_text(breakdown: CriterionBreakdown, run: RunConfig,
                     alias: list[list[float]] | None) -> str:
    crit = run.experiment.criterion
    lines = ["evaluation report",
             f"family: {crit.family}   kappa: " + " ".join(_fmt(k) for k in crit.kappa)]
    lines += breakdown_text(breakdown, crit.component_names(), crit.kappa)
    if alias is not None and run.experiment.q:
        lines.append("alias matrix (primary rows x potential columns):")
        for row in alias:
            lines.append("  " + " ".join(f"{v: .6g}" for v in row))
    return "\n".join(lines) + "\n"


# -- efficiency tables -------------------------------------------------------

UNIT_KAPPAS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _is_unit(kappa, unit) -> bool:
    return all(abs(a - b) <= 1e-9 for a, b in zip(kappa, unit))


def efficiency_table(records: list[dict]) -> dict:
    """Table-shaped efficiencies: one row per record, referenced to pure runs.

    Every record must share the criterion family, and the three pure-criterion
    runs (kappa a unit vector) must all be present to act as references.
    """
    if not records:
        raise ConfigError("no result records given")
    families = {rec["config"]["criterion"]["family"] for rec in records}
    if len(families) > 1:
        raise ConfigError(f"records mix criterion families {sorted(families)}")
    kappas = [tuple(rec["config"]["criterion"]["kappa"]) for rec in records]
    refs = []
    for pos, unit in enumerate(UNIT_KAPPAS):
        match = next((i for i, kap in enumerate(kappas) if _is_unit(kap, unit)), None)
        if match is None:
            raise ConfigError(
                f"missing pure-criterion reference run with kappa={unit}")
        key = ("phi_primary", "phi_lof", "phi_mse")[pos]
        refs.append(records[match]["breakdown"][key])
    rows = []
    for rec, kap in zip(records, kappas):
        b = rec["breakdown"]
        rows.append({
            "kappa": list(kap),
            "eff_primary": efficiency(refs[0], b["phi_primary"]),
            "eff_lof": efficiency(refs[1], b["phi_lof"]),
            "eff_mse": efficiency(refs[2], b["phi_mse"]),
            "pe_df": b["pe_df"],
            "lof_df": b["lof_df"],
        })
    names = records[0]["breakdown"]["components"]
    return {"components": names, "rows": rows}


def efficiency_table_text(table: dict) -> str:
    names = table["components"]
    header = (f"{'k1':>6} {'k2':>6} {'k3':>6} "
              f"{names[0]:>10} {names[1]:>10} {names[2]:>10} {'PE':>4} {'LoF':>4}")
    lines = [header]
    for row in table["rows"]:
        effs = [row["eff_primary"], row["eff_lof"], row["eff_mse"]]
        eff_txt = [f"{e:>10.2f}" if e is not None else f"{'':>10}" for e in effs]
        k1, k2, k3 = row["kappa"]
        lines.append(f"{k1:>6.2f} {k2:>6.2f} {k3:>6.2f} "
                     + " ".join(eff_txt)
                     + f" {row['pe_df']:>4d} {row['lof_df']:>4d}")
    return "\n".join(lines) + "\n"


def efficiency_table_csv(table: dict) -> str:
    names = table["components"]
    lines = ["kappa1,kappa2,kappa3,"
             f"eff_{names[0]},eff_{names[1]},eff_{names[2]},pe_df,lof_df"]
    for row in table["rows"]:
        effs = [row["eff_primary"], row["eff_lof"], row["eff_mse"]]
        eff_txt = [("" if e is None else repr(float(e))) for e in effs]
        k1, k2, k3 = row["kappa"]
        lines.append(f"{k1!r},{k2!r},{k3!r}," + ",".join(eff_txt)
                     + f",{row['pe_df']},{row['lof_df']}")
    return "\n".join(lines) + "\n"
