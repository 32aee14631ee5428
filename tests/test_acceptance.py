"""Acceptance gate: each criterion runs at its stated tolerance and prints one
pass/fail line (use `pytest -s tests/test_acceptance.py` to see them live)."""

import json
import time

import numpy as np
import pytest

from nmpg import (
    MaxReference,
    ProblemSpec,
    RunStatus,
    SolverParams,
    build_problem,
    cached_reference_optimum,
    make_sparsity_projected_quadratic,
    solve,
)
from nmpg.checks import (
    descent_audits,
    gradient_checks,
    lasso_identity_solution,
    m_constant_table,
    prox_oracles,
    sparsity_enumeration,
)
from nmpg.cli import SeededStart, ZerosStart, cmd_run, make_x0
from nmpg.diagnostics import estimate_q_factor, fit_loglog_slope


def iterate_distance_series(iterates, x_star) -> list[float]:
    """Distances ||x^k - x_star|| for a recorded iterate sequence."""
    return [float(np.linalg.norm(x - x_star)) for x in iterates]


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else "")
    print(line)
    assert ok, line


SUITE_KINDS = [
    ("lasso_identity", dict(dim=10, seed=1)),
    ("lasso_general", dict(dim=20, seed=0)),
    ("quartic_scalar", dict(dim=1)),
    ("quartic_regression_l0", dict(dim=10, seed=0)),
    ("sparsity_projected_quadratic", dict(dim=10, seed=0)),
    ("exp_fit_l1", dict(dim=8, seed=0)),
]

# epsilon = 1e-6 keeps per-step reference drops above float64 cancellation, so
# the audited inequalities are checked over the full meaningful decay range
SUITE_POLICIES = [
    ("mean_nonmonotone", SolverParams(epsilon=1e-6, max_outer_iters=20_000)),
    ("mean_monotone", SolverParams(p_min=1.0, epsilon=1e-6, max_outer_iters=20_000)),
    (
        "max_window_5",
        SolverParams(
            reference_policy=MaxReference(5), epsilon=1e-6, max_outer_iters=20_000
        ),
    ),
]

SUITE_STARTS = [ZerosStart(), SeededStart(101), SeededStart(202)]


@pytest.fixture(scope="module")
def suite_runs():
    t0 = time.perf_counter()
    runs = []
    for kind, kw in SUITE_KINDS:
        problem = build_problem(ProblemSpec(kind=kind, **kw))
        for policy_name, params in SUITE_POLICIES:
            for start in SUITE_STARTS:
                x0 = make_x0(problem, start, 0)
                result = solve(problem, params, x0)
                runs.append((problem, policy_name, params, result))
    return runs, time.perf_counter() - t0


def test_criterion_1_descent_invariant_audits(suite_runs):
    runs, elapsed = suite_runs
    ok, detail = descent_audits(runs)
    _report(
        "criterion 1: descent audits on 6 problems x 3 policies x 3 starts",
        ok and len(runs) == 54 and elapsed < 60.0,
        f"{detail}, {elapsed:.1f}s",
    )


def test_criterion_2_prox_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)  # one stream: the oracle cases, then enumeration
    prox_ok, prox_detail = prox_oracles(rng, n_cases=100)
    enum_ok, enum_detail = sparsity_enumeration(rng, [(5, 2), (8, 3), (12, 4)], draws=25)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2: prox kernels match the brute-force oracles",
        prox_ok and enum_ok and elapsed < 30.0,
        f"{prox_detail}; {enum_detail}; {elapsed:.1f}s",
    )


def test_criterion_3_gradient_oracle():
    problems = [build_problem(ProblemSpec(kind=kind, **kw)) for kind, kw in SUITE_KINDS]
    _report(
        "criterion 3: gradients match central differences at 20 points each",
        *gradient_checks(problems, np.random.default_rng(99), n_points=20),
    )


def test_criterion_4_linear_rate_class():
    t0 = time.perf_counter()
    problem = build_problem(ProblemSpec(kind="lasso_general", dim=50, seed=0))
    psi_star, _ = cached_reference_optimum(problem)
    fits = {}
    for label, params in [
        ("monotone", SolverParams(p_min=1.0, epsilon=1e-6, max_outer_iters=20_000)),
        ("nonmonotone", SolverParams(p_min=0.1, epsilon=1e-6, max_outer_iters=20_000)),
    ]:
        result = solve(problem, params, np.zeros(50))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        refs = [r.reference for r in result.trace]
        fits[label] = estimate_q_factor(refs, psi_star, tail_fraction=0.5)
    elapsed = time.perf_counter() - t0
    ok = all(rep.passed for rep in fits.values()) and elapsed < 30.0
    _report(
        "criterion 4: reference values contract linearly on the kappa=1/2 class",
        ok,
        ", ".join(f"{k}: q={v.fitted:.3f}" for k, v in fits.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_5_sublinear_rate_class(solve_recording):
    t0 = time.perf_counter()
    problem = build_problem(ProblemSpec(kind="quartic_scalar", dim=1))
    params = SolverParams(epsilon=0.0, max_outer_iters=100_000)
    result, iterates = solve_recording(problem, params, np.array([1.0]))
    assert result.status is RunStatus.MAX_ITERS

    refs = [r.reference for r in result.trace]
    value_fit = fit_loglog_slope(
        refs, 0.0, tail_fraction=0.5, predicted=-2.0, tolerance=0.15
    )
    distances = iterate_distance_series(iterates, np.zeros(1))
    dist_fit = fit_loglog_slope(
        distances, 0.0, tail_fraction=0.5, predicted=-0.5, tolerance=0.15
    )
    elapsed = time.perf_counter() - t0
    ok = value_fit.passed and dist_fit.passed and elapsed < 20.0
    _report(
        "criterion 5: kappa=1/4 class shows the k^-2 / k^-1/2 decay laws",
        ok,
        f"value slope {value_fit.fitted:.3f}, distance slope {dist_fit.fitted:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_stationarity_of_limits(suite_runs):
    runs, _ = suite_runs
    residual_ok = all(
        result.trace[-1].residual <= params.epsilon
        for _, _, params, result in runs
        if result.status is RunStatus.CONVERGED_RESIDUAL
    )

    solution_ok, solution_detail = lasso_identity_solution(
        build_problem(ProblemSpec(kind="lasso_identity", dim=10, seed=2)),
        [np.random.default_rng(seed).standard_normal(10) for seed in range(10)],
        SolverParams(),  # epsilon 1e-8
    )

    # step norms decay into the tail on a convex run with a nontrivial tail
    general = build_problem(ProblemSpec(kind="lasso_general", dim=20, seed=0))
    tail_run = solve(general, SolverParams(), np.zeros(20))
    assert tail_run.status is RunStatus.CONVERGED_RESIDUAL
    final_step = tail_run.trace[-1].step_norm
    _report(
        "criterion 6: converged runs are approximately stationary",
        residual_ok and solution_ok and final_step < 1e-6,
        f"{solution_detail}, final step {final_step:.1e}",
    )


def test_criterion_7_monotone_reduction(suite_runs):
    runs, _ = suite_runs
    psi_ok = True
    for _, policy_name, params, result in runs:
        if policy_name != "mean_monotone":
            continue
        psi = np.array([r.psi for r in result.trace])
        if psi.size >= 2:
            psi_ok &= bool(
                np.all(psi[1:] <= psi[:-1] + 1e-12 * (1 + np.abs(psi[:-1])))
            )

    problem = build_problem(ProblemSpec(kind="lasso_general", dim=20, seed=0))
    x0 = np.zeros(20)
    mono = solve(problem, SolverParams(p_min=1.0, epsilon=1e-6), x0)
    max1 = solve(
        problem,
        SolverParams(reference_policy=MaxReference(1), epsilon=1e-6),
        x0,
    )
    window_ok = mono.trace == max1.trace
    _report(
        "criterion 7: p=1 is monotone and a width-1 max window reproduces it",
        psi_ok and window_ok,
        f"max-rule W=1 matches monotone over {len(mono.trace)} iterations",
    )


def test_criterion_8_lookahead_constant():
    _report(
        "criterion 8: lookahead length matches the closed-form ceiling",
        *m_constant_table(
            [round(0.05 * i, 2) for i in range(1, 21)], [(1.0, 1), (0.75, 9), (0.96, 3)]
        ),
    )


def test_criterion_9_sparsity_projection_example(solve_recording):
    problem = make_sparsity_projected_quadratic(np.eye(2), np.array([3.0, -1.0]), 1)
    result, iterates = solve_recording(problem, SolverParams(), np.zeros(2))
    dist = float(np.linalg.norm(result.x_final - np.array([3.0, 0.0])))
    sparse_ok = all(np.count_nonzero(x) <= 1 for x in iterates[1:])
    _report(
        "criterion 9: projected gradient reaches [3, 0] and stays 1-sparse",
        result.status is RunStatus.CONVERGED_RESIDUAL and dist <= 1e-10 and sparse_ok,
        f"distance {dist:.2e} after {result.iterations} iterations",
    )


def test_criterion_10_bitwise_determinism(tmp_path):
    config = {
        "problem": {"kind": "exp_fit_l1", "dim": 8, "seed": 0, "lambda": 0.05},
        "params": {"epsilon": 1e-8},
        "x0": {"policy": "seeded", "seed": 7},
        "repeats": 2,
        "out_dir": str(tmp_path / "unused"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cmd_run(path, out_dir=str(tmp_path / "a")) == 0
    assert cmd_run(path, out_dir=str(tmp_path / "b")) == 0
    same = all(
        (tmp_path / "a" / f"trace_{i:03d}.csv").read_bytes()
        == (tmp_path / "b" / f"trace_{i:03d}.csv").read_bytes()
        for i in range(2)
    )
    _report(
        "criterion 10: identical configs produce bitwise-identical traces",
        same,
        "2 repeats compared across 2 executions",
    )


class TestIterateDistances:
    def test_all_zero_at_solution(self):
        x_star = np.array([1.0, -1.0])
        series = iterate_distance_series([x_star, x_star, x_star], x_star)
        assert series == [0.0, 0.0, 0.0]

    def test_lasso_identity_distances_vanish(self, solve_recording):
        problem = build_problem(ProblemSpec(kind="lasso_identity", dim=6, seed=4))
        _, iterates = solve_recording(problem, SolverParams(), np.zeros(6))
        d = iterate_distance_series(iterates, problem.optimum.x_star)
        assert d[-1] <= 1e-6
