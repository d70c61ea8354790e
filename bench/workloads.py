"""The two benchmark workloads and the seeds that generate their inputs.

Every workload runs `optex search` on one of the shipped configs with one
worker: on a two-core box two concurrent workers slow each other down by a
third to a half, and by a share that drifts from minute to minute. The run
seed chooses the master seed of each search; the program receives only that
seed, never the workload name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SEARCH_WORKERS = 1       # passed as --workers in the timed loop
PARALLEL_WORKERS = 2     # the traced run compares multi_start at 1 and at this many


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # path relative to the repository root
    algorithm: str       # "ptex" or "coordex", passed as --algorithm
    starts: int          # restarts per search in the timed loop
    min_searches: int    # searches always run; best_objective is their median
    trace_restarts: int  # restarts driven one by one in the traced run
    seed: int            # default --seed
    held_out_seed: int   # kept for re-checking claims made on `seed`
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rsm-ptex",
            config="configs/k3_response_surface.yaml",
            algorithm="ptex",
            starts=2,
            min_searches=3,
            trace_restarts=2,
            seed=16092024,
            held_out_seed=27182818,
            why="paper case study (k=3, n=36, MSE.P, 125 candidates) by point exchange; "
                "99% of restart time is criterion evaluation"),
        Workload(
            name="rsm-coordex",
            config="configs/k3_response_surface.yaml",
            algorithm="coordex",
            starts=4,
            min_searches=6,
            trace_restarts=4,
            seed=16092024,
            held_out_seed=27182818,
            why="same spec by coordinate exchange, which rebuilds the model matrices "
                "on every evaluation"),
    )
}


def search_seed(run_seed: int, index: int) -> int:
    """Master seed of search `index` within a run: a pure function of both."""
    seq = np.random.SeedSequence(entropy=run_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint32)[0])
