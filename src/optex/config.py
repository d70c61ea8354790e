"""YAML run configuration: parsing, strict validation, and the resolved echo.

Unknown keys are hard errors so a typo cannot silently fall back to a
default. The echo embedded in every result record is itself a valid config
(with the seed resolved), so any run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .criteria import CriterionConfig, FieldError
from .experiment import ALGORITHMS, CANDIDATE_CAP, ExperimentSpec
from .model import PRESET_NAMES, FactorGrid, TermSet, expand_presets, termset_from_exponents


class ConfigError(ValueError):
    """A named-field schema or validation failure in a run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """An ExperimentSpec plus the run plumbing that never affects results."""

    experiment: ExperimentSpec
    out_dir: str = "out"
    workers: int | None = None
    design_csv: bool = True
    result_json: bool = True
    report_txt: bool = True


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping of keys to values")
    return node


def _check_keys(node: dict, allowed: set[str], where: str):
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _int_field(value, where: str, minimum: int = 1) -> int:
    """An integer >= minimum; YAML booleans and floats are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        if minimum == 0:
            raise ConfigError(f"{where}: must be a non-negative integer")
        raise ConfigError(f"{where}: must be an integer >= {minimum}")
    return value


def _float_field(value, where: str) -> float:
    """A finite number; strings, booleans, nan and inf are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return float(value)


def _algorithm_field(value, where: str, grid: FactorGrid) -> str:
    if value not in ALGORITHMS:
        raise ConfigError(f"{where}: must be one of {ALGORITHMS}")
    if value == "ptex" and grid.n_candidates > CANDIDATE_CAP:
        raise ConfigError(f"{where}: ptex lists all {grid.n_candidates} level combinations, "
                          f"above the cap of {CANDIDATE_CAP}; use coordex")
    return value


def _dir_field(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: must be a non-empty string, got {value!r}")
    return value


def _bool_field(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: must be true or false, got {value!r}")
    return value


def _presets_list(value, where: str) -> list[str]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where}: expected a preset name or list of preset names")
    for v in value:
        if v not in PRESET_NAMES:
            raise ConfigError(f"{where}: unknown model preset {v!r}")
    return value


def _exponent_vectors(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ConfigError(f"{where}: expected a list of exponent vectors")
    out = []
    for v in value:
        if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in v):
            raise ConfigError(f"{where}: exponents must be non-negative integers")
        out.append([int(e) for e in v])
    return out


def _terms_from_model(node: dict, key: str, k: int, role: str,
                      default: list[str]) -> tuple[TermSet, str]:
    """The term set of one role and the field it came from ("model.primary" by default)."""
    where = f"model.{key}"
    try:
        if node.get(f"{key}_terms") is not None:
            where += "_terms"
            return termset_from_exponents(_exponent_vectors(node[f"{key}_terms"], where), k,
                                          role=role), where
        if node.get(key) is not None:
            return expand_presets(_presets_list(node[key], where), k, role=role), where
        return expand_presets(default, k, role=role), where
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def config_from_dict(doc: dict, source: str = "config") -> RunConfig:
    doc = _require_mapping(doc, source)
    _check_keys(doc, {"factors", "runs", "model", "criterion", "search", "output"}, source)

    factors = _require_mapping(doc.get("factors"), "factors")
    _check_keys(factors, {"count", "levels"}, "factors")
    if "count" not in factors:
        raise ConfigError("factors.count: required")
    k = _int_field(factors["count"], "factors.count")
    levels = factors.get("levels", 2)
    for v in levels if isinstance(levels, list) else [levels]:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"factors.levels: level counts must be integers, got {v!r}")
    try:
        grid = FactorGrid.regular(k, levels)
    except ValueError as err:
        raise ConfigError(f"factors.levels: {err}") from err

    if "runs" not in doc:
        raise ConfigError("runs: required")
    n_runs = _int_field(doc["runs"], "runs")

    model = _require_mapping(doc.get("model"), "model")
    _check_keys(model, {"primary", "potential", "primary_terms", "potential_terms"}, "model")
    primary, primary_field = _terms_from_model(model, "primary", k, "primary", ["main_effects"])
    potential, potential_field = _terms_from_model(model, "potential", k, "potential", [])

    crit = _require_mapping(doc.get("criterion"), "criterion")
    _check_keys(crit, {"family", "kappa", "tau2", "alpha", "alpha_lof", "mc_samples"},
                "criterion")
    kwargs = {}
    if "family" in crit:
        kwargs["family"] = crit["family"]
    if "kappa" in crit:
        kap = crit["kappa"]
        if not isinstance(kap, list) or len(kap) != 3:
            raise ConfigError("criterion.kappa: expected three weights")
        kwargs["kappa"] = tuple(_float_field(v, f"criterion.kappa[{i}]")
                                for i, v in enumerate(kap))
    for key in ("tau2", "alpha", "alpha_lof"):
        if key in crit:
            kwargs[key] = _float_field(crit[key], f"criterion.{key}")
    if "mc_samples" in crit:
        kwargs["mc_samples"] = _int_field(crit["mc_samples"], "criterion.mc_samples")
    try:
        criterion = CriterionConfig(**kwargs)
    except FieldError as err:
        raise ConfigError(f"criterion.{err.field}: {err}") from err

    search = _require_mapping(doc.get("search"), "search")
    _check_keys(search, {"starts", "algorithm", "seed", "workers"}, "search")
    n_starts = _int_field(search.get("starts", 10), "search.starts")
    algorithm = search.get("algorithm")
    if algorithm is not None:
        algorithm = _algorithm_field(algorithm, "search.algorithm", grid)
    seed = search.get("seed")
    if seed is not None:
        seed = _int_field(seed, "search.seed", minimum=0)
    workers = search.get("workers")
    if workers is not None:
        workers = _int_field(workers, "search.workers")

    output = _require_mapping(doc.get("output"), "output")
    _check_keys(output, {"dir", "design_csv", "result_json", "report_txt"}, "output")
    out_dir = _dir_field(output.get("dir", "out"), "output.dir")
    flags = {name: _bool_field(output.get(name, True), f"output.{name}")
             for name in ("design_csv", "result_json", "report_txt")}

    try:
        experiment = ExperimentSpec(
            grid=grid, n_runs=n_runs, primary=primary, potential=potential,
            criterion=criterion, n_starts=n_starts, algorithm=algorithm, seed=seed,
        )
    except FieldError as err:
        where = {"n_runs": "runs", "n_starts": "search.starts", "primary": primary_field,
                 "potential": potential_field}[err.field]
        raise ConfigError(f"{where}: {err}") from err

    return RunConfig(experiment=experiment, out_dir=out_dir, workers=workers, **flags)


def apply_overrides(run: RunConfig, seed=None, starts=None, algorithm=None, workers=None,
                    out_dir=None) -> RunConfig:
    """Command-line flags laid over a parsed config, checked like their YAML fields."""
    spec = run.experiment
    if seed is not None:
        spec = replace(spec, seed=_int_field(seed, "--seed", minimum=0))
    if starts is not None:
        spec = replace(spec, n_starts=_int_field(starts, "--starts"))
    if algorithm is not None:
        spec = replace(spec, algorithm=_algorithm_field(algorithm, "--algorithm", spec.grid))
    run = replace(run, experiment=spec)
    if workers is not None:
        run = replace(run, workers=_int_field(workers, "--workers"))
    if out_dir is not None:
        run = replace(run, out_dir=_dir_field(out_dir, "--out"))
    return run


def parse_config(path) -> RunConfig:
    """Load and validate a YAML run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ConfigError(f"{path}: not valid YAML ({err})") from err
    return config_from_dict(doc, source=str(path))


def resolved_config_dict(run: RunConfig, master_seed: int, workers: int | None) -> dict:
    """Echo of the fully resolved configuration; feeding it back reproduces the run.

    Models are echoed as explicit exponent vectors so the echo does not
    depend on preset expansion staying stable across versions.
    """
    spec = run.experiment
    return {
        "factors": {"count": spec.k, "levels": list(spec.grid.levels)},
        "runs": spec.n_runs,
        "model": {
            "primary_terms": [list(t.exponents) for t in spec.primary.terms],
            "potential_terms": [list(t.exponents) for t in spec.potential.terms],
        },
        "criterion": {
            "family": spec.criterion.family,
            "kappa": list(spec.criterion.kappa),
            "tau2": spec.criterion.tau2,
            "alpha": spec.criterion.alpha,
            "alpha_lof": spec.criterion.alpha_lof,
            "mc_samples": spec.criterion.mc_samples,
        },
        "search": {
            "starts": spec.n_starts,
            "algorithm": spec.algorithm,
            "seed": master_seed,
            "workers": workers,
        },
        "output": {
            "dir": run.out_dir,
            "design_csv": run.design_csv,
            "result_json": run.result_json,
            "report_txt": run.report_txt,
        },
    }
