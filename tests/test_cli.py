import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import optex
from optex import cli, experiment, search
from optex.cli import main
from optex.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    parse_config,
    resolved_config_dict,
)
from optex.criteria import FAMILIES, CriterionConfig, compound_objective
from optex.experiment import ExperimentSpec
from optex.model import (
    Design,
    FactorGrid,
    FieldError,
    Term,
    TermSet,
    expand_preset,
    treatment_labels,
)
from optex.numeric import PriorSample
from optex.reporting import efficiency_table, read_design_csv, read_record

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def base_doc(**overrides):
    doc = {
        "factors": {"count": 2, "levels": 3},
        "runs": 24,
        "model": {"primary": "main_effects", "potential": "quadratic_terms"},
        "criterion": {
            "family": "MSE.D",
            "kappa": [1 / 3, 1 / 3, 1 / 3],
            "mc_samples": 1000,
        },
        "search": {"starts": 10, "seed": 123},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_reference_example_valid(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.yaml", base_doc()))
        spec = cfg.experiment
        assert spec.k == 2 and spec.n_runs == 24
        assert spec.p == 2 and spec.q == 2
        assert spec.criterion.family == "MSE.D"
        assert spec.criterion.mc_samples == 1000
        assert sum(spec.criterion.kappa) == pytest.approx(1.0, abs=1e-12)

    def test_weights_must_sum_to_one(self, tmp_path):
        doc = base_doc()
        doc["criterion"]["kappa"] = [0.5, 0.5, 0.5]
        with pytest.raises(ConfigError, match="weights must sum to 1"):
            parse_config(write_config(tmp_path / "c.yaml", doc))

    def test_single_level_factor_rejected(self, tmp_path):
        doc = base_doc(factors={"count": 2, "levels": 1})
        with pytest.raises(ConfigError, match="needs >=2 levels"):
            parse_config(write_config(tmp_path / "c.yaml", doc))

    def test_unknown_keys_are_hard_errors(self, tmp_path):
        doc = base_doc()
        doc["serach"] = {"starts": 10}
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path / "c.yaml", doc))
        doc = base_doc()
        doc["criterion"]["kapa"] = [1, 0, 0]
        with pytest.raises(ConfigError, match="criterion: unknown key"):
            parse_config(write_config(tmp_path / "c.yaml", doc))
        # before: keys of mixed types could not be sorted for the message (TypeError)
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \[1, 'typo'\]"):
            config_from_dict(base_doc(**{"typo": 0}) | {1: 0})

    def test_explicit_term_lists(self, tmp_path):
        doc = base_doc()
        doc["model"] = {
            "primary_terms": [[1, 0], [0, 1], [1, 1]],
            "potential_terms": [[2, 0], [0, 2]],
        }
        cfg = parse_config(write_config(tmp_path / "c.yaml", doc))
        assert cfg.experiment.p == 3
        assert [t.exponents for t in cfg.experiment.potential.terms] == [(2, 0), (0, 2)]

    def test_terms_take_precedence_over_presets(self):
        cfg = config_from_dict(base_doc(model={
            "primary": "second_order",
            "primary_terms": [[1, 0], [0, 1]],
        }))
        assert cfg.experiment.p == 2

    def test_defaults(self):
        cfg = config_from_dict({"factors": {"count": 3, "levels": 2}, "runs": 8})
        spec = cfg.experiment
        assert spec.p == 3 and spec.q == 0
        assert spec.criterion.family == "MSE.D"
        assert spec.criterion.tau2 == 1.0
        assert spec.criterion.alpha == 0.05
        assert spec.criterion.mc_samples == 50
        assert spec.n_starts == 10
        assert cfg.workers is None

    def test_omitted_keys_take_the_library_defaults(self):
        run = config_from_dict({"factors": {"count": 3}, "runs": 8})
        assert run == RunConfig(ExperimentSpec(
            grid=FactorGrid.regular(3, 2), n_runs=8, primary=expand_preset("main_effects", 3),
            potential=TermSet(())))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.yaml")

    def test_overlapping_primary_potential_rejected(self):
        with pytest.raises(ConfigError, match="both primary and potential"):
            config_from_dict(base_doc(model={
                "primary": "second_order", "potential": "quadratic_terms"}))

    def test_too_few_runs_rejected(self):
        with pytest.raises(ConfigError, match="cannot estimate"):
            config_from_dict(base_doc(runs=2))


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("search")
    doc = base_doc()
    doc["criterion"]["mc_samples"] = 200
    doc["search"] = {"starts": 4, "seed": 321}
    doc["output"] = {"dir": str(tmp / "out")}
    cfg_path = write_config(tmp / "cfg.yaml", doc)
    assert run_cli("search", "--config", str(cfg_path), "--workers", "1") == 0
    return tmp, cfg_path


class TestCmdSearch:
    def test_artifacts_written(self, search_run):
        tmp, _ = search_run
        out = tmp / "out"
        assert (out / "design.csv").exists()
        assert (out / "result.json").exists()
        assert (out / "report.txt").exists()
        design_text = (out / "design.csv").read_text()
        assert design_text.splitlines()[0] == "trt_label,x1,x2"
        assert len(design_text.splitlines()) == 25

    def test_design_on_grid_and_sorted(self, search_run):
        tmp, _ = search_run
        grid = FactorGrid.regular(2, 3)
        design = read_design_csv(tmp / "out" / "design.csv", grid)
        assert design.n == 24
        labels = [int(line.split(",")[0])
                  for line in (tmp / "out" / "design.csv").read_text().splitlines()[1:]]
        assert labels == sorted(labels)

    def test_record_contents(self, search_run):
        tmp, _ = search_run
        rec = json.loads((tmp / "out" / "result.json").read_text())
        assert rec["command"] == "search"
        assert rec["seed"] == 321
        assert len(rec["path"]) == 4
        assert rec["breakdown"]["compound_value"] == pytest.approx(min(rec["path"]))
        assert rec["config"]["criterion"]["family"] == "MSE.D"
        assert rec["config"]["search"]["seed"] == 321
        assert rec["breakdown"]["pe_df"] + rec["breakdown"]["lof_df"] == 24 - 2 - 1

    def test_record_carries_search_stats(self, search_run):
        tmp, _ = search_run
        rec = json.loads((tmp / "out" / "result.json").read_text())
        per_restart = rec["stats"]["restarts"]
        assert len(per_restart) == 4
        keys = ("passes", "screened_moves", "screen_calls", "exact_evaluations",
                "accepted_exchanges", "factorisations", "seconds")
        for st in per_restart:
            assert set(st) == set(keys)
            assert st["passes"] >= 1
            # one screen per window of move groups (point exchange: one group per run)
            assert 1 <= st["screen_calls"] <= st["passes"] * 24
            # the start is scored exactly, and so is every accepted exchange
            assert st["exact_evaluations"] >= 1 + st["accepted_exchanges"]
            # the start's factor, then at most one per accepted exchange
            assert 1 <= st["factorisations"] <= 1 + st["accepted_exchanges"]
            assert st["seconds"] > 0
        for key in keys:
            assert rec["stats"]["total"][key] == pytest.approx(sum(st[key] for st in per_restart))
        best = rec["stats"]["best_restart"]
        assert rec["path"][best] == min(rec["path"])
        assert rec["path"].index(min(rec["path"])) == best  # ties go to the lowest index
        report = (tmp / "out" / "report.txt").read_text()
        total = rec["stats"]["total"]
        assert (f"search work: {total['passes']} passes, "
                f"{total['screened_moves']} screened moves") in report
        assert (f"{total['factorisations']} factorisations, {total['seconds']:.2f} s in "
                f"restarts; best restart {best}") in report

    def test_record_carries_provenance(self, search_run):
        tmp, _ = search_run
        prov = json.loads((tmp / "out" / "result.json").read_text())["provenance"]
        assert prov["optex"] == optex.__version__
        assert prov["numpy"] == np.__version__
        assert prov["python"] == ".".join(map(str, sys.version_info[:3]))
        assert prov["platform"] and prov["workers"] == 1
        # this process has loaded scipy (the MSE.D prior draw), so its version is kept
        assert prov["scipy"] == sys.modules["scipy"].__version__

    def test_rerun_byte_identical_design(self, search_run, tmp_path):
        tmp, cfg_path = search_run
        assert run_cli("search", "--config", str(cfg_path), "--workers", "2",
                       "--out", str(tmp_path / "again")) == 0
        first = (tmp / "out" / "design.csv").read_bytes()
        second = (tmp_path / "again" / "design.csv").read_bytes()
        assert first == second

    def test_rerun_from_echoed_config(self, search_run, tmp_path):
        tmp, _ = search_run
        rec = json.loads((tmp / "out" / "result.json").read_text())
        echoed = dict(rec["config"])
        echoed["output"] = {"dir": str(tmp_path / "echo")}
        cfg2 = write_config(tmp_path / "echo.yaml", echoed)
        assert run_cli("search", "--config", str(cfg2), "--workers", "1") == 0
        assert (tmp_path / "echo" / "design.csv").read_bytes() == \
            (tmp / "out" / "design.csv").read_bytes()

    def test_seed_override_changes_seed(self, search_run, tmp_path):
        _, cfg_path = search_run
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(cfg_path), "--seed", "7",
                       "--starts", "2", "--workers", "1", "--out", str(out)) == 0
        rec = json.loads((out / "result.json").read_text())
        assert rec["seed"] == 7
        assert len(rec["path"]) == 2


class TestCmdEval:
    def test_round_trip_matches_search_breakdown(self, search_run, tmp_path):
        tmp, cfg_path = search_run
        out = tmp_path / "eval"
        assert run_cli("eval", "--config", str(cfg_path),
                       "--design", str(tmp / "out" / "design.csv"),
                       "--out", str(out)) == 0
        search_rec = json.loads((tmp / "out" / "result.json").read_text())
        eval_rec = json.loads((out / "eval_result.json").read_text())
        for key in ("phi_primary", "phi_lof", "phi_mse", "log_compound"):
            assert eval_rec["breakdown"][key] == pytest.approx(
                search_rec["breakdown"][key], rel=1e-10)

    def test_off_grid_setting_names_row_and_column(self, search_run, tmp_path):
        _, cfg_path = search_run
        bad = tmp_path / "bad.csv"
        bad.write_text("trt_label,x1,x2\n1,-1.0,-1.0\n2,0.4,1.0\n")
        code = run_cli("eval", "--config", str(cfg_path), "--design", str(bad),
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_off_grid_error_message(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("trt_label,x1,x2\n1,-1.0,-1.0\n2,0.4,1.0\n")
        with pytest.raises(ConfigError, match="row 2, column x1"):
            read_design_csv(bad, FactorGrid.regular(2, 3))

    def test_nan_setting_rejected(self, search_run, tmp_path, capsys):
        _, cfg_path = search_run
        bad = tmp_path / "nan.csv"
        bad.write_text("trt_label,x1,x2\n1,-1.0,-1.0\n2,1.0,nan\n")
        code = run_cli("eval", "--config", str(cfg_path), "--design", str(bad),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "row 2, column x2" in capsys.readouterr().err

    def test_design_file_with_a_byte_order_mark(self, search_run, tmp_path):
        # A spreadsheet may save CSV as UTF-8 with a byte-order mark. Before:
        # header columns ['\ufefftrt_label', 'x1', 'x2'] did not match, exit 2.
        tmp, cfg_path = search_run
        design = tmp / "out" / "design.csv"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + design.read_bytes())
        for path, out in ((design, tmp_path / "plain"), (marked, tmp_path / "bom")):
            assert run_cli("eval", "--config", str(cfg_path), "--design", str(path),
                           "--out", str(out)) == 0
        plain, bom = (json.loads((tmp_path / out / "eval_result.json").read_text())
                      for out in ("plain", "bom"))
        assert bom["breakdown"] == plain["breakdown"]

    @pytest.mark.parametrize("label", ["99", "abc"])
    def test_wrong_trt_label_rejected(self, search_run, tmp_path, capsys, label):
        # before: the trt_label column was skipped and any label accepted
        _, cfg_path = search_run
        bad = tmp_path / "labels.csv"
        bad.write_text(f"trt_label,x1,x2\n1,-1.0,-1.0\n{label},0.0,1.0\n")
        code = run_cli("eval", "--config", str(cfg_path), "--design", str(bad),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{bad}: row 2, column trt_label: '{label}' is not 6" in capsys.readouterr().err

    def test_header_only_file_rejected(self, search_run, tmp_path, capsys):
        _, cfg_path = search_run
        bad = tmp_path / "header.csv"
        bad.write_text("trt_label,x1,x2\n")
        code = run_cli("eval", "--config", str(cfg_path), "--design", str(bad),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{bad}: no design rows" in capsys.readouterr().err

    def test_duplicated_design_pe_df(self, search_run, tmp_path):
        # doubling every distinct row: t treatments, n = 2t, pe_df = t
        _, cfg_path = search_run
        rows = ["trt_label,x1,x2"]
        cells = [(-1.0, -1.0), (-1.0, 1.0), (0.0, 0.0), (1.0, -1.0), (1.0, 1.0),
                 (0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, -1.0)]
        for a, b in cells:
            label = int(1 + 3 * (a + 1) + (b + 1))  # a level's index is its setting + 1
            rows += [f"{label},{a},{b}", f"{label},{a},{b}"]
        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run_cli("eval", "--config", str(cfg_path), "--design", str(dup),
                       "--out", str(out)) == 0
        rec = json.loads((out / "eval_result.json").read_text())
        assert rec["breakdown"]["pe_df"] == 9

    def test_header_without_labels_accepted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x2\n-1.0,1.0\n0.0,0.0\n")
        d = read_design_csv(f, FactorGrid.regular(2, 3))
        assert d.n == 2
        assert list(d.settings[0]) == [0, 2]

    def test_wrong_header_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x3\n-1.0,1.0\n")
        with pytest.raises(ConfigError, match="header"):
            read_design_csv(f, FactorGrid.regular(2, 3))

    def test_outputs_off_still_print_the_report(self, search_run, tmp_path, capsys):
        tmp, _ = search_run
        doc = base_doc(output={"result_json": False, "report_txt": False})
        doc["criterion"]["mc_samples"] = 200
        cfg = write_config(tmp_path / "c.yaml", doc)
        out = tmp_path / "o"
        assert run_cli("eval", "--config", str(cfg), "--design", str(tmp / "out" / "design.csv"),
                       "--out", str(out)) == 0
        assert list(out.iterdir()) == []
        assert capsys.readouterr().out.startswith("evaluation report\n")

    def test_no_potential_terms_print_no_alias_block(self, search_run, tmp_path, capsys):
        tmp, _ = search_run
        doc = base_doc(model={"primary": "main_effects"})
        doc["criterion"] = {"family": "MSE.P", "kappa": [1.0, 0.0, 0.0]}
        cfg = write_config(tmp_path / "c.yaml", doc)
        assert run_cli("eval", "--config", str(cfg), "--design", str(tmp / "out" / "design.csv"),
                       "--out", str(tmp_path / "o")) == 0
        report = capsys.readouterr().out
        assert report.startswith("evaluation report\n") and "alias matrix" not in report

    def test_pb_projection_alias_entries(self, tmp_path):
        cfg = write_config(tmp_path / "pb.yaml", {
            "factors": {"count": 4, "levels": 2},
            "runs": 12,
            "model": {"primary": "main_effects", "potential": "linear_interactions"},
            "criterion": {"family": "MSE.L", "kappa": [1 / 3, 1 / 3, 1 / 3]},
        })
        out = tmp_path / "out"
        assert run_cli("eval", "--config", str(cfg),
                       "--design", str(DATA / "pb12_k4.csv"),
                       "--out", str(out)) == 0
        rec = json.loads((out / "eval_result.json").read_text())
        A = np.array(rec["alias_matrix"])
        assert A.shape == (4, 6)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for i in range(4):
            for t, (a, b) in enumerate(pairs):
                if i in (a, b):
                    assert A[i, t] == 0.0
                else:
                    assert abs(A[i, t]) == pytest.approx(1 / 3, abs=1e-12)
        assert rec["breakdown"]["pe_df"] <= 2


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    paths = []
    for i, kappa in enumerate([(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0),
                               (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]):
        doc = base_doc()
        doc["criterion"] = {"family": "MSE.P", "kappa": list(kappa)}
        doc["search"] = {"starts": 3, "seed": 1000 + i}
        doc["output"] = {"dir": str(tmp / f"run{i}")}
        cfg = write_config(tmp / f"c{i}.yaml", doc)
        assert run_cli("search", "--config", str(cfg), "--workers", "1") == 0
        paths.append(tmp / f"run{i}" / "result.json")
    return tmp, paths


class TestCmdReport:
    def test_table_shape_and_reference_rows(self, records, capsys):
        tmp, paths = records
        out = tmp / "table"
        assert run_cli("report", *[str(p) for p in paths], "--out", str(out)) == 0
        text = (out / "efficiency.csv").read_text().splitlines()
        assert text[0].startswith("kappa1,kappa2,kappa3,eff_DP,eff_LoF-DP,eff_MSE(D)")
        assert len(text) == 5
        rows = [line.split(",") for line in text[1:]]
        # each pure run is its own reference: efficiency 100 in its column
        assert float(rows[1][3]) == pytest.approx(100.0)
        assert float(rows[2][4]) == pytest.approx(100.0)
        assert float(rows[3][5]) == pytest.approx(100.0)

    def test_missing_reference_is_error(self, records):
        _, paths = records
        assert run_cli("report", str(paths[0]), str(paths[1])) == 2

    def test_record_with_a_byte_order_mark(self, records, tmp_path):
        # Before: json.loads of the text failed on the mark, exit 2.
        _, paths = records
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + paths[0].read_bytes())
        for first, out in ((paths[0], "plain"), (marked, "bom")):
            assert run_cli("report", str(first), *[str(p) for p in paths[1:]],
                           "--out", str(tmp_path / out)) == 0
        assert ((tmp_path / "bom" / "efficiency.csv").read_bytes()
                == (tmp_path / "plain" / "efficiency.csv").read_bytes())

    def test_mixed_families_rejected(self, records, tmp_path):
        tmp, paths = records
        doc = base_doc()
        doc["criterion"] = {"family": "MSE.L", "kappa": [1.0, 0.0, 0.0]}
        doc["search"] = {"starts": 2, "seed": 5}
        doc["output"] = {"dir": str(tmp_path / "lrun")}
        cfg = write_config(tmp_path / "l.yaml", doc)
        assert run_cli("search", "--config", str(cfg), "--workers", "1") == 0
        code = run_cli("report", str(paths[1]), str(paths[2]), str(paths[3]),
                       str(tmp_path / "lrun" / "result.json"))
        assert code == 2


    def test_records_with_and_without_provenance(self, records, tmp_path, capsys):
        _, paths = records
        rec = json.loads(paths[0].read_text())
        assert "provenance" in rec
        del rec["provenance"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(rec))
        assert "provenance" not in read_record(bare)
        assert read_record(paths[0])["provenance"]["workers"] == 1
        assert run_cli("report", *[str(p) for p in paths]) == 0
        with_block = capsys.readouterr().out
        assert run_cli("report", str(bare), *[str(p) for p in paths[1:]]) == 0
        assert capsys.readouterr().out == with_block

    def test_foreign_json_rejected(self, records, tmp_path, capsys):
        _, paths = records
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"foo": 1}\n')
        assert run_cli("report", str(foreign), *[str(p) for p in paths]) == 2
        assert f"{foreign}: field format" in capsys.readouterr().err

    def test_non_json_record_rejected(self, records, tmp_path, capsys):
        _, paths = records
        text = tmp_path / "text.json"
        text.write_text("not json\n")
        assert run_cli("report", str(text), *[str(p) for p in paths]) == 2
        assert capsys.readouterr().err.startswith(f"error: {text}: not a readable JSON file (")

    @pytest.mark.parametrize("field, mutate", [
        pytest.param("breakdown.phi_lof", lambda b: b.pop("phi_lof"), id="phi_lof-missing"),
        pytest.param("breakdown.components", lambda b: b.update(components=[None, None, None]),
                     id="components-not-strings"),
    ])
    def test_record_missing_field_rejected(self, records, tmp_path, capsys, field, mutate):
        _, paths = records
        rec = json.loads(paths[0].read_text())
        mutate(rec["breakdown"])
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(rec))
        assert run_cli("report", str(broken), *[str(p) for p in paths[1:]]) == 2
        assert f"{broken}: field {field}" in capsys.readouterr().err


class TestConfigFieldTypes:
    """Malformed scalars end in exit 2 with the field named, never a coercion."""

    @pytest.mark.parametrize("section, key, value, field", [
        ("factors", "count", True, "factors.count"),
        (None, "runs", True, "runs"),
        ("search", "starts", True, "search.starts"),
        ("search", "seed", False, "search.seed"),
        ("search", "workers", True, "search.workers"),
        ("criterion", "mc_samples", True, "criterion.mc_samples"),
        ("criterion", "mc_samples", 2.7, "criterion.mc_samples"),
        ("criterion", "tau2", "abc", "criterion.tau2"),
        ("criterion", "alpha", "abc", "criterion.alpha"),
        ("criterion", "alpha_lof", "abc", "criterion.alpha_lof"),
        ("criterion", "tau2", float("nan"), "criterion.tau2"),
        ("criterion", "kappa", ["abc", 0.5, 0.5], "criterion.kappa[0]"),
        ("criterion", "kappa", [0.5, 0.5, 0.5], "criterion.kappa"),
        ("criterion", "kappa", [0.5, 0.5], "criterion.kappa"),
        ("criterion", "kappa", [-0.2, 0.6, 0.6], "criterion.kappa"),
        ("criterion", "kappa", 5, "criterion.kappa"),
        ("criterion", "kappa", "abc", "criterion.kappa"),
        ("criterion", "tau2", -1.0, "criterion.tau2"),
        ("criterion", "alpha", 1.5, "criterion.alpha"),
        ("criterion", "family", "MSE.X", "criterion.family"),
        ("model", "primary_terms", [[0, 0]], "model.primary_terms"),
        ("model", "primary_terms", [[1]], "model.primary_terms"),
        ("model", "primary_terms", [], "model.primary_terms"),
        ("model", "primary", [], "model.primary"),
        ("model", "primary", 5, "model.primary"),
        (None, "factors", [1, 2], "factors"),
        ("model", "potential", "main_effects", "model.potential"),
        (None, "runs", 2, "runs"),
        ("output", "design_csv", "false", "output.design_csv"),
        ("output", "dir", None, "output.dir"),
        ("output", "dir", ["a", "b"], "output.dir"),
        ("criterion", "tau2", 10 ** 400, "criterion.tau2"),
        ("model", "primary_terms", [[1.5, 0]], "model.primary_terms"),
        ("model", "potential_terms", [[2.0, 0]], "model.potential_terms"),
        # before: 1 - alpha rounded to 1 or 1/tau2 overflowed, every design scored
        # +inf and the search still exited 0
        ("criterion", "alpha", 1.0e-17, "criterion.alpha"),
        ("criterion", "alpha_lof", 1.0e-17, "criterion.alpha_lof"),
        ("criterion", "tau2", 1.0e-310, "criterion.tau2"),
    ])
    def test_rejected_with_field_named(self, tmp_path, capsys, section, key, value, field):
        doc = base_doc()
        if section is None:
            doc[key] = value
        else:
            doc.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path / "c.yaml", doc)
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not (tmp_path / "o").exists()


class TestMalformedInputs:
    """Missing keys and unparsable files end in exit 2 naming the key or the file."""

    @pytest.mark.parametrize("section, key, field", [
        ("factors", "count", "factors.count"), (None, "runs", "runs")])
    def test_missing_key_is_required(self, tmp_path, capsys, section, key, field):
        doc = base_doc()
        del (doc if section is None else doc[section])[key]
        cfg = write_config(tmp_path / "c.yaml", doc)
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {field}: required\n"

    def test_broken_yaml(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("runs: [1, 2\n", encoding="utf-8")
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not valid YAML (")

    @pytest.mark.parametrize("key, tail", [
        ("runs", "runs: 12\n"),
        ("starts", "search:\n  starts: 2\n  seed: 1\n  starts: 3\n"),
    ], ids=["top-level", "nested"])
    def test_duplicate_key_is_refused(self, tmp_path, capsys, key, tail):
        # Before: yaml.safe_load kept the last of the two, and the run went on with it.
        doc = base_doc()
        if key == "starts":
            del doc["search"]
        head = yaml.safe_dump(doc)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(head + tail, encoding="utf-8")
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not valid YAML (")
        last = (head + tail).count("\n")  # the repeated key's line
        assert f"found duplicate key '{key}'\n  in \"<unicode string>\", line {last}," in err
        assert not (tmp_path / "o").exists()

    def test_a_merged_key_is_not_a_duplicate(self, tmp_path):
        # A mapping's own key overrides one it merges in (YAML's <<), as before.
        doc = base_doc()
        del doc["factors"]
        cfg = tmp_path / "c.yaml"
        merged = "factors:\n  <<: {count: 2, levels: 3}\n  levels: 5\n"
        cfg.write_text(yaml.safe_dump(doc) + merged, encoding="utf-8")
        assert list(parse_config(cfg).experiment.grid.levels) == [5, 5]

    @pytest.mark.parametrize("text, message", [
        ("", "empty design file"),
        ("x1,x2\n1,-1.0,-1.0\n", "row 1 has 3 fields, expected 2"),
        ("x1,x2\n-1.0,abc\n", "row 1, column x2: 'abc' is not a number"),
    ], ids=["empty", "extra-field", "not-a-number"])
    def test_malformed_design_file(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        design = tmp_path / "d.csv"
        design.write_text(text)
        assert run_cli("eval", "--config", str(cfg), "--design", str(design),
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {design}: {message}\n"


class TestPassCap:
    """Restarts that hit the pass cap are named on stderr, in the report and in the record."""

    def test_warned_and_recorded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optex.search, "MAX_PASSES", 1)
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(CONFIGS / "quickstart.yaml"), "--starts", "3",
                       "--workers", "1", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert ("warning: 3 restart(s) did not converge within the pass cap\n"
                in captured.err)
        warning = "warning: restarts [0, 1, 2] hit the pass cap without converging\n"
        assert warning in captured.out
        assert warning in (out / "report.txt").read_text()
        assert json.loads((out / "result.json").read_text())["non_converged"] == [0, 1, 2]


class TestCandidateCap:
    """Point exchange is never started on a grid above the candidate cap."""

    def cap_doc(self, **search):
        doc = base_doc(factors={"count": 3, "levels": 101}, runs=6,
                       search={"starts": 1, "seed": 5, **search})
        doc["model"] = {"primary": "main_effects"}
        return doc

    def test_default_algorithm_is_coordinate_exchange(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", self.cap_doc())
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(cfg), "--workers", "1", "--out", str(out)) == 0
        assert json.loads((out / "result.json").read_text())["algorithm"] == "coordex"

    def test_configured_point_exchange_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", self.cap_doc(algorithm="ptex"))
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: search.algorithm: ")

    def test_point_exchange_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", self.cap_doc())
        assert run_cli("search", "--config", str(cfg), "--algorithm", "ptex",
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: --algorithm: ")


class TestLabelRange:
    """Treatment labels are 64-bit integers; a grid with more level combinations is refused."""

    def label_doc(self, k):
        return base_doc(factors={"count": k, "levels": 2}, runs=k + 2,
                        model={"primary": "main_effects"})

    def test_two_to_the_62_candidates_are_accepted(self, tmp_path):
        grid = parse_config(write_config(tmp_path / "c.yaml", self.label_doc(62))).experiment.grid
        assert grid.n_candidates == 2 ** 62
        assert treatment_labels(np.ones((1, 62), dtype=np.int64), grid)[0] == 2 ** 62

    def test_overflowing_labels_exit_2(self, tmp_path, capsys):
        # before: the label strides wrapped to 0 with a RuntimeWarning; the
        # search exited 0 and wrote negative trt_label values
        cfg = write_config(tmp_path / "c.yaml", self.label_doc(63))
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: factors.levels: ")
        with pytest.raises(FieldError) as err:
            FactorGrid.regular(63, 2)
        assert err.value.field == "levels"

    @pytest.mark.parametrize("count", [5000, 1_000_000])
    def test_huge_factor_counts_exit_2_at_once(self, tmp_path, capsys, count):
        # before: a million factors hung multiplying and printing the level
        # combinations (parse_config raised ValueError: Exceeds the limit (4300
        # digits) for integer string conversion), and 5000 printed a
        # 2,386-digit number; the product now stops where it passes the bound
        cfg = write_config(tmp_path / "c.yaml", self.label_doc(count))
        start = time.perf_counter()
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: factors.levels: factors 1 to 63 have more than "
                              f"{np.iinfo(np.int64).max} level combinations")
        assert len(err) < 200


class TestPriorDrawCap:
    """An MSE.D prior draw of more than PRIOR_DRAW_CAP floats (q * mc_samples) is
    refused when the spec is checked, before any work."""

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the prior was drawn")
        monkeypatch.setattr(search, "sample_prior", refuse)

    def test_draw_above_the_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "PRIOR_DRAW_CAP", 2 * 1000 - 1)  # base_doc: q = 2
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "error: criterion.mc_samples: the prior draw of q * mc_samples = 2000 floats "
            "exceeds the cap of 1999\n")

    def test_huge_draw_exits_2(self, tmp_path, capsys):
        # before: mc_samples 10^12 parsed, then sample_prior died with
        # _ArrayMemoryError (14.6 TiB) and exit 1; the spec's check refuses it
        # first, and the fixture's guard keeps any draw from allocating it
        doc = base_doc()
        doc["criterion"]["mc_samples"] = 10 ** 12
        cfg = write_config(tmp_path / "c.yaml", doc)
        assert run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: criterion.mc_samples: ")

    @pytest.mark.parametrize("family, potential", [
        ("MSE.D", "quadratic_terms"),  # q * mc_samples at the cap
        ("MSE.D", None),  # q = 0: no draw
        ("MSE.P", "quadratic_terms"),  # one point prior
        ("MSE.L", "quadratic_terms"),
    ])
    def test_draws_within_the_cap_are_accepted(self, tmp_path, monkeypatch, family, potential):
        monkeypatch.setattr(experiment, "PRIOR_DRAW_CAP", 2 * 1000)
        doc = base_doc()
        doc["criterion"]["family"] = family
        doc["model"] = {"primary": "main_effects", **({"potential": potential} if potential
                                                      else {})}
        spec = parse_config(write_config(tmp_path / "c.yaml", doc)).experiment
        assert spec.criterion.mc_samples == 1000


class TestCommandLineOverrides:
    """Flags share the YAML fields' checks: exit 2 with the flag named."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--starts", "0", "--starts: must be an integer >= 1"),
        ("--seed", "-1", "--seed: must be a non-negative integer"),
        ("--workers", "0", "--workers: must be an integer >= 1"),
    ])
    def test_rejected_with_flag_named(self, tmp_path, capsys, flag, value, message):
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(cfg), flag, value, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_out_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        assert run_cli("search", "--config", str(cfg), "--out", "") == 2
        assert capsys.readouterr().err == "error: --out: must be a non-empty string, got ''\n"

    def test_eval_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        assert run_cli("eval", "--config", str(cfg), "--design", str(DATA / "pb12_k4.csv"),
                       "--seed", "-5", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: --seed: ")


class TestUnreadableInputs:
    """A directory or a non-UTF-8 file as an input exits 2 naming the file.

    Before: an IsADirectoryError or UnicodeDecodeError traceback, exit 1."""

    @pytest.fixture(params=["directory", "latin-1"])
    def unreadable(self, request, tmp_path):
        path = tmp_path / "input"
        if request.param == "directory":
            path.mkdir()
        else:
            path.write_bytes("runs: 12  # \u00e9\n".encode("latin-1"))
        return path

    def test_config(self, unreadable, tmp_path, capsys):
        assert run_cli("search", "--config", str(unreadable), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {unreadable}: not a readable config file (")
        assert not (tmp_path / "o").exists()

    def test_design(self, unreadable, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        assert run_cli("eval", "--config", str(cfg), "--design", str(unreadable),
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {unreadable}: not a readable design file (")
        assert not (tmp_path / "o").exists()


class TestOutputDirectory:
    """An output directory that cannot be made exits 2 naming where it was set,
    before any work. Before: FileExistsError or NotADirectoryError, exit 1,
    after every restart had run."""

    @pytest.fixture(params=["file", "under a file"])
    def blocked(self, request, tmp_path):
        (tmp_path / "taken").write_text("")
        return tmp_path / "taken" if request.param == "file" else tmp_path / "taken" / "out"

    @pytest.fixture
    def no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(cli, "multi_start", refuse)

    def test_search_out_flag(self, blocked, tmp_path, capsys, no_search):
        cfg = write_config(tmp_path / "c.yaml", base_doc())
        assert run_cli("search", "--config", str(cfg), "--out", str(blocked)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --out: cannot create the output directory {blocked} (")

    def test_search_output_dir_key(self, blocked, tmp_path, capsys, no_search):
        cfg = write_config(tmp_path / "c.yaml", base_doc(output={"dir": str(blocked)}))
        assert run_cli("search", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: output.dir: cannot create the output directory {blocked} (")

    def test_eval(self, blocked, tmp_path, capsys):
        doc = base_doc(factors={"count": 4, "levels": 2}, runs=12,
                       model={"primary": "main_effects", "potential": "linear_interactions"})
        cfg = write_config(tmp_path / "c.yaml", doc)
        assert run_cli("eval", "--config", str(cfg), "--design", str(DATA / "pb12_k4.csv"),
                       "--out", str(blocked)) == 2
        assert capsys.readouterr().err.startswith("error: --out: cannot create")

    def test_report(self, blocked, records, capsys):
        _, paths = records
        assert run_cli("report", *[str(p) for p in paths], "--out", str(blocked)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: cannot create") and not captured.out


def library_spec(**changes):
    fields = dict(grid=FactorGrid.regular(2, 3), n_runs=8, primary=expand_preset("main_effects", 2),
                  potential=expand_preset("quadratic_terms", 2), n_starts=2, seed=3)
    return ExperimentSpec(**{**fields, **changes})


class TestLibraryChecks:
    """A library caller gets the checks a config gets, from the dataclasses themselves."""

    @pytest.mark.parametrize("field, build", [
        ("algorithm", lambda: library_spec(algorithm="bogus")),
        # 1001 x 1001 level combinations lie above the candidate cap
        ("algorithm", lambda: library_spec(grid=FactorGrid.regular(2, 1001), algorithm="ptex")),
        ("seed", lambda: library_spec(seed=1.5)),
        ("seed", lambda: library_spec(seed=-1)),
        ("n_starts", lambda: library_spec(n_starts=True)),
        ("n_runs", lambda: library_spec(n_runs=8.0)),
        ("tau2", lambda: CriterionConfig(tau2=math.nan)),
        ("kappa[0]", lambda: CriterionConfig(kappa=(math.nan, 0.5, 0.5))),
        ("mc_samples", lambda: CriterionConfig(mc_samples=True)),
        ("alpha", lambda: CriterionConfig(alpha="0.05")),
        ("levels", lambda: FactorGrid((2.5,))),
        ("workers", lambda: RunConfig(library_spec(), workers=0)),
        ("out_dir", lambda: RunConfig(library_spec(), out_dir="")),
        ("alpha", lambda: CriterionConfig(alpha=1e-17)),
        ("alpha_lof", lambda: CriterionConfig(alpha_lof=1e-17)),
        ("tau2", lambda: CriterionConfig(tau2=1e-310)),
        ("primary", lambda: library_spec(primary=TermSet((Term((1,)),)))),
        ("potential", lambda: library_spec(potential=TermSet((Term((1, 1, 1)),)))),
        ("levels", lambda: FactorGrid(())),
        ("kappa", lambda: CriterionConfig(kappa=(0.5, 0.5))),
    ], ids=["algorithm", "ptex-above-cap", "fractional-seed", "negative-seed", "boolean-starts",
            "float-runs", "nan-tau2", "nan-kappa", "boolean-mc-samples", "string-alpha",
            "fractional-levels", "zero-workers", "empty-out-dir", "alpha-unrepresentable",
            "alpha-lof-unrepresentable", "tau2-inverse-overflows", "primary-exponents",
            "potential-exponents", "no-factors", "two-kappas"])
    def test_bad_value_raises_field_error(self, field, build):
        with pytest.raises(FieldError) as err:
            build()
        assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("criterion", None), ("grid", (3, 3)), ("primary", [(1, 0), (0, 1)]),
        ("potential", None)])
    def test_wrong_kind_of_part_raises_field_error(self, field, value):
        # before: criterion=None was accepted and multi_start failed on an AttributeError
        with pytest.raises(FieldError, match="must be a ") as err:
            library_spec(**{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("build, message", [
        (lambda: expand_preset("main_effects", 0), "k must be >= 1"),
        (lambda: Design(np.zeros(3)), "n x k matrix"),
        (lambda: Design.from_indices([[0]], FactorGrid.regular(2, 3)),
         "design has 1 columns, grid has 2 factors"),
    ], ids=["no-factors-preset", "flat-design", "design-columns"])
    def test_bad_value_raises_value_error(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_no_records_raise_config_error(self):
        with pytest.raises(ConfigError, match="no result records given"):
            efficiency_table([])

    def test_numpy_integer_counts_are_stored_as_ints(self):
        three = np.int64(3)
        spec = library_spec(grid=FactorGrid((three, three)), n_runs=np.int64(8),
                            n_starts=np.int64(2), seed=np.int64(3),
                            criterion=CriterionConfig(mc_samples=np.int64(5)))
        run = RunConfig(spec, workers=np.int64(2))
        counts = (*spec.grid.levels, spec.n_runs, spec.n_starts, spec.seed,
                  spec.criterion.mc_samples, run.workers)
        assert counts == (3, 3, 8, 2, 3, 5, 2)
        assert all(type(v) is int for v in counts)


class TestPureErrorRunRule:
    """Runs that leave no pure error are refused when a weighted component needs it."""

    @pytest.mark.parametrize("kappa, q, needs", [
        ((1 / 3, 1 / 3, 1 / 3), 2, True), ((1.0, 0.0, 0.0), 0, True),
        ((0.0, 1.0, 0.0), 2, True), ((0.0, 1.0, 0.0), 0, False), ((0.0, 0.0, 1.0), 2, False)])
    def test_which_weights_need_pure_error(self, kappa, q, needs):
        assert CriterionConfig(kappa=kappa).needs_pure_error(q) is needs

    def test_library_spec_needs_p_plus_two_runs(self):
        with pytest.raises(FieldError, match="leaves no pure error") as err:
            library_spec(n_runs=3)
        assert err.value.field == "n_runs"
        assert library_spec(n_runs=4).n_runs == 4
        # p + 1 runs stay allowed when no weighted component needs pure error
        assert library_spec(n_runs=3, criterion=CriterionConfig(kappa=(0.0, 0.0, 1.0))).n_runs == 3
        assert library_spec(n_runs=3, potential=TermSet(()),
                            criterion=CriterionConfig(kappa=(0.0, 1.0, 0.0))).n_runs == 3

    def test_search_exits_2_naming_runs(self, tmp_path, capsys):
        # before: runs = p + 1 scored every design +inf (path "inf inf") and
        # the search exited 0 with an arbitrary design
        doc = base_doc(factors={"count": 3, "levels": 5}, runs=10,
                       model={"primary": "second_order", "potential": "cubic_terms"},
                       criterion={"family": "MSE.P", "kappa": [0.4, 0.2, 0.4]},
                       search={"starts": 2, "seed": 1})
        cfg = write_config(tmp_path / "c.yaml", doc)
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: runs: runs=10 leaves no pure error")
        assert not out.exists()
        doc["runs"] = 11
        write_config(cfg, doc)
        assert run_cli("search", "--config", str(cfg), "--workers", "1", "--out", str(out)) == 0
        assert math.isfinite(json.loads((out / "result.json").read_text())["path"][0])
        # a finite best design brings no +inf warning
        assert "+inf" not in capsys.readouterr().err
        assert "+inf" not in (out / "report.txt").read_text()


class TestInfiniteBestDesign:
    """A search whose best design scores +inf still exits 0, with a warning; a finite
    one prints none (test_search_exits_2_naming_runs)."""

    def test_warned_on_stderr_and_in_the_report(self, tmp_path, capsys):
        # second_order on two-level factors: x^2 = 1 is the intercept, so every
        # design's information matrix is singular
        doc = {"factors": {"count": 2, "levels": 2}, "runs": 12,
               "model": {"primary": "second_order"}, "criterion": {"family": "MSE.P"},
               "search": {"starts": 2, "seed": 1}}
        cfg = write_config(tmp_path / "c.yaml", doc)
        out = tmp_path / "o"
        assert run_cli("search", "--config", str(cfg), "--workers", "1", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert re.search(r"^warning: .*\+inf", err, re.M)
        report = (out / "report.txt").read_text()
        assert "path (per-restart objective): inf inf\n" in report
        assert re.search(r"^warning: .*\+inf", report, re.M)


class TestZeroPeDesignReporting:
    def test_zero_pe_design_reports_zero_efficiency(self, tmp_path):
        # all-distinct 9-run design: pe_df = 0 so the quantile-bearing columns
        # show 0 while the MSE column stays informative
        doc = {
            "factors": {"count": 2, "levels": 3},
            "runs": 9,
            "model": {"primary": "main_effects", "potential": "quadratic_terms"},
            "criterion": {"family": "MSE.P", "kappa": [0.0, 0.0, 1.0]},
            "search": {"starts": 5, "seed": 10},
            "output": {"dir": str(tmp_path / "mse")},
        }
        cfg = write_config(tmp_path / "mse.yaml", doc)
        assert run_cli("search", "--config", str(cfg), "--workers", "1") == 0
        rec = json.loads((tmp_path / "mse" / "result.json").read_text())
        if rec["breakdown"]["pe_df"] == 0:
            assert rec["breakdown"]["phi_primary"] == math.inf
            assert math.isfinite(rec["breakdown"]["phi_mse"])


class TestScipyImport:
    """scipy is loaded by an MSE.D prior draw and by nothing else the CLI runs."""

    def test_only_the_mse_d_prior_draw_loads_scipy(self, tmp_path):
        doc = base_doc(search={"starts": 2, "seed": 77})
        doc["criterion"]["mc_samples"] = 20
        mse_d = write_config(tmp_path / "d.yaml", doc)
        doc["criterion"] = {"family": "MSE.P", "kappa": [0.4, 0.2, 0.4]}
        mse_p = write_config(tmp_path / "p.yaml", doc)
        script = textwrap.dedent("""
            import sys

            def scipy_modules():
                return [m for m in sys.modules if m.split(".")[0] == "scipy"]

            import optex.cli
            assert not scipy_modules(), scipy_modules()
            argv = ["search", "--workers", "1", "--config"]
            assert optex.cli.main(argv + [sys.argv[1], "--out", sys.argv[2]]) == 0
            assert not scipy_modules(), scipy_modules()
            assert optex.cli.main(argv + [sys.argv[3], "--out", sys.argv[4]]) == 0
            assert scipy_modules()
        """)
        src = str(Path(optex.__file__).resolve().parents[1])
        r = subprocess.run([sys.executable, "-c", script, str(mse_p), str(tmp_path / "p"),
                            str(mse_d), str(tmp_path / "d")],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                           text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        p_rec, rec = (json.loads((tmp_path / name / "result.json").read_text())
                      for name in ("p", "d"))
        assert "scipy" not in p_rec["provenance"]
        assert "scipy" in rec["provenance"]

        # the search's draws are ndtri of the Philox uniforms of its prior seed
        from scipy import special
        rng = np.random.Generator(np.random.Philox(key=rec["prior_seed"]))
        u = rng.integers(1, 1 << 53, size=(20, 2)).astype(float) / float(1 << 53)
        prior = PriorSample(draws=special.ndtri(u), seed=rec["prior_seed"])
        spec = parse_config(mse_d).experiment
        design = read_design_csv(tmp_path / "d" / "design.csv", spec.grid)
        assert compound_objective(design, spec, prior).log_compound == \
            rec["breakdown"]["log_compound"]


# -- any configuration ends in a result or a named field ------------------------

@st.composite
def changed_configs(draw):
    """YAML mappings that set every key to a value other than its default."""
    count = draw(st.integers(1, 3))
    return {
        "factors": {"count": count, "levels": draw(st.sampled_from([3, 4, [3, 5, 4][:count]]))},
        "runs": draw(st.integers(40, 60)),
        "model": {"primary": draw(st.sampled_from(["second_order",
                                                   ["main_effects", "quadratic_terms"]])),
                  "potential": "cubic_terms"},
        "criterion": {"family": draw(st.sampled_from(["MSE.P", "MSE.L"])),
                      "kappa": draw(st.sampled_from([[1, 0, 0], [0.4, 0.2, 0.4], [0, 0, 1]])),
                      "tau2": draw(st.sampled_from([0.25, 16.0])),
                      "alpha": draw(st.sampled_from([0.01, 0.1])),
                      "alpha_lof": draw(st.sampled_from([0.01, 0.1])),
                      "mc_samples": draw(st.integers(51, 2000))},
        "search": {"starts": draw(st.integers(11, 100)),
                   "algorithm": draw(st.sampled_from(["ptex", "coordex"])),
                   "seed": draw(st.integers(0, 2**32 - 1)), "workers": draw(st.integers(1, 4))},
        "output": {"dir": "elsewhere", "design_csv": False, "result_json": False,
                   "report_txt": False},
    }


@settings(max_examples=50)
@given(changed_configs(), st.integers(0, 2**32 - 1))
def test_echo_reads_back_as_the_same_run(doc, master_seed):
    run = config_from_dict(doc)
    echo = resolved_config_dict(run, master_seed)
    assert config_from_dict(echo) == replace(
        run, experiment=run.experiment.with_overrides(seed=master_seed))
    # every key is set away from its default, so an echo that repeats the
    # config shows that each key reached its field
    assert echo["criterion"] == doc["criterion"] and echo["output"] == doc["output"]
    assert echo["search"] == {**doc["search"], "seed": master_seed}
    assert echo["factors"]["count"] == doc["factors"]["count"]


WRONG_VALUES = (None, True, False, "abc", float("nan"), float("inf"), -1, 2.5, [1], {"a": 1})
FIELD_ERROR = re.compile(r"error: (factors|runs|model|criterion|search|output)"
                         r"(\.[a-z0-9_]+(\[\d\])?)?: ")


@st.composite
def config_docs(draw):
    """YAML mappings over the known keys: mostly valid values, some out of range
    (`bad`) and some of the wrong kind."""

    def pick(valid, bad=()):
        roll = draw(st.integers(0, 19))
        if roll == 19:
            return draw(st.sampled_from(WRONG_VALUES))
        return draw(st.sampled_from(bad if roll == 18 and bad else valid))

    def some(keys, odds):
        return {key: value for key, value in keys.items() if draw(st.integers(1, odds)) == 1}

    count = pick([1, 2, 3], [0])
    # 101 levels on three factors puts the full factorial above the candidate cap
    levels = pick([2, 3, 5, [3] * count if count in (1, 2, 3) else 3]
                  + [101] * 3 * (count == 3), [1, [3, 3, 3, 3]])
    doc = {
        "factors": {"count": count, **some({"levels": levels}, 1)},
        "runs": pick([12, 24, 40], [1, 4]),
        "model": some({
            "primary": pick(["main_effects", "second_order", ["main_effects", "quadratic_terms"]],
                            ["third_order_terms", []]),
            "potential": pick(["quadratic_terms", "cubic_terms"], ["main_effects", []]),
            "primary_terms": pick([[[1] * count]] if count in (1, 2, 3) else [[[1]]],
                                  [[[0, 0]], [[1]], [], [[1, 0], [1, 0]]]),
            "potential_terms": pick([[[3] * count]] if count in (1, 2, 3) else [[[3]]],
                                    [[[2, 0]], [[1, 0, 0]]]),
        }, 3),
        "criterion": some({
            "family": pick(FAMILIES, ["MSE.X"]),
            "kappa": pick([[1 / 3, 1 / 3, 1 / 3], [1, 0, 0], [0.4, 0.2, 0.4]],
                          [[0.5, 0.5, 0.5], [0.5, 0.5]]),
            "tau2": pick([0.25, 1.0, 16.0], [0.0]),
            "alpha": pick([0.05, 0.5], [1.0]),
            "alpha_lof": pick([0.05], [0.0]),
            "mc_samples": pick([1, 5], [0]),
        }, 3),
        # the default of 10 starts would make one example too slow
        "search": {"starts": pick([1, 2], [0]), **some({
            "algorithm": pick(["ptex", "coordex"], ["fedorov"]), "seed": pick([0, 7]),
            "workers": pick([1, 2], [0])}, 2)},
        "output": some({"dir": pick(["out"], [""]), "design_csv": pick([True, False]),
                        "result_json": pick([True, False]),
                        "report_txt": pick([True, False])}, 3),
    }
    if draw(st.integers(0, 19)) == 19:
        doc[draw(st.sampled_from(["factors", "criterion", "typo"]))] = {"bogus": 1}
    return doc


@settings(max_examples=100)
@given(config_docs())
def test_any_config_exits_cleanly_or_names_its_field(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.yaml", doc)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["search", "--config", str(cfg), "--workers", "1",
                         "--out", str(Path(tmp) / "out")])
    err = stderr.getvalue()
    assert code in (0, 2)
    if code == 2:
        assert FIELD_ERROR.match(err) or err.startswith(f"error: {cfg}: "), err
