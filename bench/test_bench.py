"""Fast self-test of the benchmark harness (under a minute on two cores).

    python3 -m pytest -q bench/test_bench.py

Drives one restart per workload through the traced run twice and requires
every exact count to repeat, and requires every metric named in
BENCHMARK.json to be emitted with its unit.
"""

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run.load_optex()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work():
    path = run.WORK / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat(name, work):
    wl = replace(WORKLOADS[name], trace_restarts=1)
    metrics, attempted, failures, _ = run.run_traced(wl, wl.seed, work)
    assert failures == [] and attempted == 2
    line = run.result_line(metrics, run.PER_LAYER, attempted, failures)
    assert {k: m["unit"] for k, m in line["metrics"].items()} == run.PER_LAYER
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())

    again = Tracer("again")
    run.trace_restarts(again, wl, run.workload_spec(wl, run.search_seed(wl.seed, 0), 1))
    counts = run.restart_counts(again)
    assert counts == {k: metrics[k] for k in counts}
    assert counts["criteria.evals_per_restart"] >= 1


def test_untraced_emits_every_end_to_end_metric(work):
    wl = replace(WORKLOADS["rsm-coordex"], starts=1, min_searches=1)
    metrics, attempted, failures, _, _ = run.run_untraced(wl, wl.seed, 0.0, work)
    assert failures == [] and attempted == 1
    line = run.result_line(metrics, run.END_TO_END, attempted, failures)
    assert {k: m["unit"] for k, m in line["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_check_rejects_a_tampered_design(work):
    wl = replace(WORKLOADS["rsm-coordex"], starts=1)
    spec = run.workload_spec(wl, 7, 1)
    assert run.run_search(wl, 7, work)["exit_code"] == 0
    run.check_search(spec, work)
    lines = (work / "design.csv").read_text(encoding="utf-8").splitlines()
    first = lines[1].split(",")
    first[1] = "0.0" if first[1] != "0.0" else "1.0"
    lines[1] = ",".join(first)
    (work / "design.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(run.CheckFailed):
        run.check_search(spec, work)
