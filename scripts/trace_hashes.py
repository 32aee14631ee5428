"""Print one hash line per solve of a fixed 108-solve matrix.

Each line is `kind dim rule seed sha256`, where the hash covers the trace
values, the bytes of x_final, the status and the failure detail. Two trees
that print the same lines solve bitwise identically on this matrix, and two
runs of one tree under different PYTHONHASHSEED values must print the same
lines too.

The matrix is the six problem kinds at dims 5, 50 and 300 (problem seed 0;
quartic_scalar is one-dimensional at every dim), under the mean, monotone
and max(10) reference rules, from the starts prox(1, N(0, 1)) drawn with
seeds 3 and 11, at max_outer_iters=3000.

Usage: PYTHONPATH=src python scripts/trace_hashes.py > hashes.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from nmpg import MaxReference, ProblemSpec, SolverParams, build_problem, solve
from nmpg.problems import PROBLEM_KINDS

DIMS = (5, 50, 300)
RULES = {
    "mean": SolverParams(max_outer_iters=3000),
    "monotone": SolverParams(p_min=1.0, max_outer_iters=3000),
    "max10": SolverParams(reference_policy=MaxReference(10), max_outer_iters=3000),
}
START_SEEDS = (3, 11)


def solve_hash(result) -> str:
    h = hashlib.sha256()
    h.update(np.array(result.trace, dtype=np.float64).tobytes())
    h.update(result.x_final.tobytes())
    h.update(result.status.value.encode())
    h.update(result.detail.encode())
    return h.hexdigest()


def main() -> None:
    for kind in PROBLEM_KINDS:
        for dim in DIMS:
            problem = build_problem(ProblemSpec(kind=kind, dim=dim, seed=0))
            for rule, params in RULES.items():
                for seed in START_SEEDS:
                    v = np.random.default_rng(seed).standard_normal(problem.dim)
                    result = solve(problem, params, problem.phi.prox(1.0, v))
                    print(kind, dim, rule, seed, solve_hash(result))


if __name__ == "__main__":
    main()
