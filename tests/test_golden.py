"""Golden outputs of `optex search` on the shipped configs.

Each golden is the sha256 of the written ``design.csv`` and the exact
per-restart objective path of ``result.json``, at the config's own seed with
8 restarts, and must come out the same at 1 and 2 workers. A change that moves
either changes the designs users get: it must be intended and explained, and
the golden re-recorded with it.

The search's work counters, summed over the restarts, are pinned beside them:
a change that makes the screen faster must not make the search score, accept
or factor anything more or less.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from optex import criteria, search
from optex.cli import main
from optex.config import apply_overrides, parse_config
from optex.criteria import CriterionEvaluator
from optex.search import multi_start, prior_for_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CASES = {
    "quickstart": ("quickstart.yaml",),
    "k4_two_level": ("k4_two_level.yaml",),
    "k3_response_surface": ("k3_response_surface.yaml",),
    "k3_response_surface-coordex": ("k3_response_surface.yaml", "--algorithm", "coordex"),
    "quickstart-coordex": ("quickstart.yaml", "--algorithm", "coordex"),
    "k4_two_level-coordex": ("k4_two_level.yaml", "--algorithm", "coordex"),
}

GOLDEN = {
    "quickstart": (
        "5cedd2128f5ac395274f906e1d39207e0278ad9c5ae9c6fd0b14b1cd97bc3ba0",
        [0.18994691404548325, 0.19054767143550103, 0.19054767143550103, 0.1900526178311641,
         0.1916291316345744, 0.19054767143550103, 0.19054767143550103, 0.18994691404548325]),
    "k4_two_level": (
        "172cb14b5eaff5aa0fa07f73f20c955fa0a3966ab855bd602921ced1a30fa470",
        [3.1904644251413767, 4.73423696178504, 3.1904644251413767, 4.734421828619194,
         3.1904644251413767, 3.1904644251413767, 2.969624028587981, 3.1904644251413767]),
    "k3_response_surface": (
        "417577153bea26f6fc4bf260555c1f8d5e59e4f6911656613a96e0f780c6de87",
        [0.19988412784272225, 0.20013891123710917, 0.20083515649897293, 0.19981759809407462,
         0.19798018098563977, 0.19798018098563983, 0.2032501179287201, 0.19900917922543657]),
    "k3_response_surface-coordex": (
        "dfbc1eb737811b7c5bd1f82735faa15089c410d77219564771f724112dc2e905",
        [0.19828325103843153, 0.20387311579834796, 0.20892180376321398, 0.20296705318365613,
         0.2059861432994941, 0.2066229291772154, 0.20551737303597736, 0.20921304485587086]),
    "quickstart-coordex": (
        "5cedd2128f5ac395274f906e1d39207e0278ad9c5ae9c6fd0b14b1cd97bc3ba0",
        [0.19043804572423542, 0.19054767143550103, 0.19043804572423542, 0.19043804572423542,
         0.18994691404548325, 0.18994691404548325, 0.1900526178311641, 0.18994691404548325]),
    "k4_two_level-coordex": (
        "18c1dbe386bd4a86d66c8cd61a98ffe77a50fe4d0181a7556a779f120abd36a5",
        [4.0143449490271, 6.781636363009651, 3.7536517046943527, 3.6257778273143004,
         6.25860357831187, 4.128471939135293, 3.6257778273142987, 3.523559169017033]),
}

# stats.total of result.json: exact evaluations, accepted exchanges,
# factorisations, screen calls and screened moves
WORK = {
    "quickstart": (80, 57, 65, 103, 2664),
    "k4_two_level": (64, 53, 61, 90, 3465),
    "k3_response_surface": (335, 327, 335, 412, 203484),
    "k3_response_surface-coordex": (636, 628, 636, 737, 38888),
    "quickstart-coordex": (112, 103, 111, 144, 1752),
    "k4_two_level-coordex": (96, 88, 96, 130, 1484),
}
# The same counters with every window capped at WINDOW_MOVES moves, the rule
# before point exchange's windows of runs (search._run_window)
MOVE_CAPPED_WORK = {
    "quickstart": (80, 57, 65, 103, 2664),
    "k4_two_level": (64, 53, 61, 90, 3465),
    "k3_response_surface": (335, 327, 335, 1061, 131564),
    "k3_response_surface-coordex": (636, 628, 636, 737, 38888),
    "quickstart-coordex": (112, 103, 111, 144, 1752),
    "k4_two_level-coordex": (96, 88, 96, 130, 1484),
}
COUNTERS = ("exact_evaluations", "accepted_exchanges", "factorisations", "screen_calls",
            "screened_moves")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(CASES))
def test_search_output_is_golden(case, workers, tmp_path, work=WORK):
    config, *flags = CASES[case]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["search", "--config", str(CONFIGS / config), "--starts", "8",
                     "--workers", str(workers), "--out", str(tmp_path), *flags]) == 0
    digest = hashlib.sha256((tmp_path / "design.csv").read_bytes()).hexdigest()
    result = json.loads((tmp_path / "result.json").read_text())
    assert (digest, result["path"]) == GOLDEN[case]
    total = result["stats"]["total"]
    assert tuple(total[name] for name in COUNTERS) == work[case]


@pytest.mark.parametrize("case", list(CASES))
def test_windows_of_runs_change_only_the_screen_counts(case, tmp_path, monkeypatch):
    # Point exchange screens a window of several runs in one call when every
    # label's row is kept. With windows capped at WINDOW_MOVES moves again,
    # the search gives the counters it gave before that: windows of runs
    # change how many screens run, not what the search scores, accepts or
    # factors.
    monkeypatch.setattr(search, "_run_window", lambda objective, groups: 0)
    test_search_output_is_golden(case, 1, tmp_path, MOVE_CAPPED_WORK)
    assert WORK[case][:3] == MOVE_CAPPED_WORK[case][:3]


@pytest.mark.parametrize("case", list(CASES))
def test_one_factorisation_per_accepted_design(case, monkeypatch):
    # Every matrix a search factors is an exact evaluation's, or the final
    # breakdown's: the screen's factor of each accepted design is built from
    # the factor of the exact call that confirmed it. One Cholesky call
    # factors a stack of matrices, the exact calls of a block of restarts.
    config, *flags = CASES[case]
    run = apply_overrides(parse_config(CONFIGS / config), starts=8,
                          algorithm=flags[1] if flags else None)
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    result = multi_start(run.experiment, workers=1)
    exact = sum(s.exact_evaluations for s in result.stats)
    assert (exact, sum(s.factorisations for s in result.stats)) == (WORK[case][0], WORK[case][2])
    assert sum(math.prod(shape[:-2]) for shape in calls) == exact + 1


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("case", list(CASES))
def test_search_output_is_golden_at_any_block_size(case, block, tmp_path, monkeypatch):
    # A worker runs its restarts in lockstep blocks of at most RESTART_BLOCK,
    # their exact calls, refreshes and screens stacked. The goldens hold at a
    # block of one, where each restart runs alone, and at 3, which splits the
    # 8 restarts into blocks of 2, 3 and 3.
    monkeypatch.setattr(search, "RESTART_BLOCK", block)
    test_search_output_is_golden(case, 1, tmp_path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case, labels", [pytest.param(case, "every", id=case) for case in CASES]
                         + [pytest.param(case, "one", id=f"{case}-one-label") for case in (
                             "quickstart", "k4_two_level", "quickstart-coordex",
                             "k4_two_level-coordex")])
def test_search_output_is_golden_without_a_candidate_table(case, labels, workers, tmp_path,
                                                           monkeypatch):
    # With SCREEN_CHUNK one entry short of every label's candidate half, the
    # objective keeps no table: labels are tallied sorted, W-rows are mapped at
    # each refresh and every screen builds its moves' halves. The designs and
    # paths are the goldens, and the counters those of windows capped at
    # WINDOW_MOVES moves, as windows of runs need every label's row. One entry
    # short of one label's half (the fast cases), a screen block still holds
    # one move, the floor of CriterionEvaluator.block_moves.
    config, *flags = CASES[case]
    spec = parse_config(CONFIGS / config).experiment
    evaluator = CriterionEvaluator.from_spec(spec)
    prior = prior_for_spec(spec, spec.seed)
    fits = spec.grid.n_candidates if labels == "every" else 1
    monkeypatch.setattr(criteria, "SCREEN_CHUNK", fits * evaluator.half_rows(prior) - 1)
    assert search._LabelObjective(evaluator, spec.grid, prior)._rows is None
    test_search_output_is_golden(case, workers, tmp_path, MOVE_CAPPED_WORK)
