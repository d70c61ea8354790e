"""YAML run configuration: parsing, strict validation, and the resolved echo.

Unknown keys are hard errors so a typo cannot silently fall back to a
default. Values are checked by the dataclasses that hold them (FieldError);
this module walks the YAML and names a failed field by its config key. The
echo embedded in every result record is itself a valid config (with the seed
resolved), so any run can be reproduced byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import yaml

from .criteria import CriterionConfig
from .experiment import ExperimentSpec
from .model import (
    FactorGrid,
    FieldError,
    TermSet,
    check_count,
    expand_preset,
    set_checked,
    termset_from_exponents,
)


_OUTPUT_SWITCHES = ("design_csv", "result_json", "report_txt")


class ConfigError(ValueError):
    """A named-field schema or validation failure in a run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """An ExperimentSpec plus the run plumbing that never affects results.

    A failed check raises FieldError naming the attribute it concerns.
    """

    experiment: ExperimentSpec
    out_dir: str = "out"
    workers: int | None = None
    design_csv: bool = True
    result_json: bool = True
    report_txt: bool = True

    def __post_init__(self):
        if self.workers is not None:
            set_checked(self, workers=check_count("workers", self.workers))
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise FieldError("out_dir", f"must be a non-empty string, got {self.out_dir!r}")
        for name in _OUTPUT_SWITCHES:
            if not isinstance(getattr(self, name), bool):
                raise FieldError(name, f"must be true or false, got {getattr(self, name)!r}")


# Each section's YAML keys, in the echo's order, and the dataclass field each one
# sets; "runs" (n_runs) and the model section (see _model_key) are read apart.
_KEYS = {
    "factors": {"count": "k", "levels": "levels"},
    "criterion": {"family": "family", "kappa": "kappa", "tau2": "tau2", "alpha": "alpha",
                  "alpha_lof": "alpha_lof", "mc_samples": "mc_samples"},
    "search": {"starts": "n_starts", "algorithm": "algorithm", "seed": "seed",
               "workers": "workers"},
    "output": {"dir": "out_dir", **{name: name for name in _OUTPUT_SWITCHES}},
}
# The config key of every field a FieldError can name; term sets use _model_key.
_FIELD_KEYS = {"n_runs": "runs", **{field: f"{section}.{key}" for section, keys in _KEYS.items()
                                    for key, field in keys.items()}}
# The command-line flag of every field a flag sets.
_FLAGS = {"seed": "--seed", "n_starts": "--starts", "algorithm": "--algorithm",
          "workers": "--workers", "out_dir": "--out"}


def _mapping(node, where: str, allowed) -> dict:
    """`node` as a mapping of known keys; an absent (None) node reads as empty."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping of keys to values")
    unknown = set(node).difference(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown, key=str)}")
    return node


def _presets_list(value, where: str) -> list[str]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where}: expected a preset name or list of preset names")
    return value  # each name is checked by expand_preset


def _exponent_vectors(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ConfigError(f"{where}: expected a list of exponent vectors")
    return value  # each exponent is checked by Term


def _model_key(node: dict, key: str) -> str:
    """The field a term set is read from: exponent vectors take precedence over presets."""
    return f"model.{key}_terms" if node.get(f"{key}_terms") is not None else f"model.{key}"


def _terms_from_model(node: dict, key: str, k: int, default: list[str]) -> TermSet:
    where = _model_key(node, key)
    try:
        if where.endswith("_terms"):
            return termset_from_exponents(_exponent_vectors(node[f"{key}_terms"], where), k)
        presets = node.get(key)
        return expand_preset(default if presets is None else _presets_list(presets, where), k)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _fields_of(cls, given: dict) -> dict:
    """The entries of `given` that set a field of dataclass `cls`."""
    return {f.name: given[f.name] for f in fields(cls) if f.name in given}


def config_from_dict(doc: dict, source: str = "config") -> RunConfig:
    """The RunConfig a YAML mapping describes; the dataclasses check every value
    and hold the default of every key the config omits."""
    doc = _mapping(doc, source, {*_KEYS, "runs", "model"})
    factors = _mapping(doc.get("factors"), "factors", _KEYS["factors"])
    if "count" not in factors:
        raise ConfigError("factors.count: required")
    if "runs" not in doc:
        raise ConfigError("runs: required")
    model = _mapping(doc.get("model"), "model",
                     {"primary", "potential", "primary_terms", "potential_terms"})
    given = {_KEYS[section][key]: value for section in ("criterion", "search", "output")
             for key, value in _mapping(doc.get(section), section, _KEYS[section]).items()}
    try:
        grid = FactorGrid.regular(factors["count"], factors.get("levels", 2))
        experiment = ExperimentSpec(
            grid=grid, n_runs=doc["runs"],
            primary=_terms_from_model(model, "primary", grid.k, ["main_effects"]),
            potential=_terms_from_model(model, "potential", grid.k, []),
            criterion=CriterionConfig(**_fields_of(CriterionConfig, given)),
            **_fields_of(ExperimentSpec, given))
        return RunConfig(experiment=experiment, **_fields_of(RunConfig, given))
    except FieldError as err:
        name, bracket, index = err.field.partition("[")
        key = _FIELD_KEYS[name] if name in _FIELD_KEYS else _model_key(model, name)
        raise ConfigError(f"{key}{bracket}{index}: {err}") from err


def apply_overrides(run: RunConfig, seed=None, starts=None, algorithm=None, workers=None,
                    out_dir=None) -> RunConfig:
    """Command-line flags laid over a parsed config, checked like their YAML fields."""
    def given(**values):
        return {name: value for name, value in values.items() if value is not None}

    try:
        spec = replace(run.experiment, **given(seed=seed, n_starts=starts, algorithm=algorithm))
        return replace(run, experiment=spec, **given(workers=workers, out_dir=out_dir))
    except FieldError as err:
        raise ConfigError(f"{_FLAGS[err.field]}: {err}") from err


def read_input(path, what: str) -> str:
    """The UTF-8 text of an input file, less a byte-order mark; a missing,
    unreadable or non-UTF-8 one raises ConfigError naming it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeError) as err:
        raise ConfigError(f"{path}: not a readable {what} ({err})") from None


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key given twice in one mapping, where
    safe_load keeps the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


def parse_config(path) -> RunConfig:
    """Load and validate a YAML run configuration file."""
    text = read_input(path, "config file")
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: not valid YAML ({err})") from err
    return config_from_dict(doc, source=str(path))


def resolved_config_dict(run: RunConfig, master_seed: int) -> dict:
    """Echo of the fully resolved configuration; feeding it back reproduces the run.

    Models are echoed as explicit exponent vectors so the echo does not
    depend on preset expansion staying stable across versions.
    """
    spec = run.experiment
    values = {**vars(spec.grid), **vars(spec.criterion), **vars(spec), **vars(run),
              "k": spec.k, "seed": master_seed}
    echo = {section: {key: list(v) if isinstance(v := values[field], tuple) else v
                      for key, field in keys.items()} for section, keys in _KEYS.items()}
    return {
        "factors": echo.pop("factors"),
        "runs": spec.n_runs,
        "model": {
            "primary_terms": [list(t.exponents) for t in spec.primary.terms],
            "potential_terms": [list(t.exponents) for t in spec.potential.terms],
        },
        **echo,
    }
