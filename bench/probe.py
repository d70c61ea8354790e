"""Cold set-up probe: times everything before the first restart can start.

Run in a fresh interpreter, so the import is cold:

    PYTHONPATH=src python3 bench/probe.py CONFIG ALGORITHM SEED

Prints one JSON object of phase timestamps (time.perf_counter, which is
CLOCK_MONOTONIC on Linux and so comparable with the parent process) and
durations. `setup_s` spans the import of optex.cli through construction of
the exchange objective. Candidates are built inside that window only for
point exchange, which uses them; for coordinate exchange they are built
after it, so model.candidates_ms is still measured.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(config: str, algorithm: str, seed: int) -> dict:
    marks = [("start", T0)]

    def mark(name):
        marks.append((name, time.perf_counter()))

    import optex.cli  # noqa: F401
    mark("cli.import")
    from optex.config import parse_config
    from optex.criteria import CriterionEvaluator
    from optex.search import CoordObjective, PointObjective, build_candidates, prior_for_spec

    spec = parse_config(config).experiment.with_overrides(seed=seed, algorithm=algorithm)
    mark("config.parse")
    evaluator = CriterionEvaluator.from_spec(spec)
    mark("criteria.from_spec")
    prior = prior_for_spec(spec, seed)
    mark("numeric.prior_draw")
    if algorithm == "ptex":
        candidates = build_candidates(spec.grid)
        mark("model.candidates")
        PointObjective(evaluator, candidates, prior)
        mark("search.objective_init")
        setup_end = marks[-1][1]
    else:
        CoordObjective(evaluator, spec.grid, prior)
        mark("search.objective_init")
        setup_end = marks[-1][1]
        build_candidates(spec.grid)
        mark("model.candidates")
    phases = [{"name": name, "start": marks[i - 1][1], "end": t}
              for i, (name, t) in enumerate(marks) if i > 0]
    return {"start": T0, "setup_s": setup_end - T0, "phases": phases}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], int(sys.argv[3]))))
