"""Planted-fault tests for the shared property checks: each check passes on the
code as it is and reports ok=False once a fault is planted in its subject.
Below them, the brute-force oracles the checks compare against are tested
on cases with known answers."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmpg
import nmpg.diagnostics
import nmpg.prox
import nmpg.solver
from nmpg import (
    ProblemSpec,
    RunStatus,
    SmoothModel,
    SolverParams,
    build_problem,
    make_quartic_scalar,
    prox_l1,
    solve,
)
from nmpg import checks
from nmpg.diagnostics import audit_trace

SHAPES = [(5, 2), (8, 3)]


def lasso_identity():
    return build_problem(ProblemSpec(kind="lasso_identity", dim=10, seed=3))


class TestProxOracles:
    def test_passes(self):
        ok, detail = checks.prox_oracles(np.random.default_rng(20240), n_cases=20)
        assert ok, detail

    def test_soft_threshold_that_shrinks_twice_tau_fails(self, monkeypatch):
        original = nmpg.prox.prox_l1
        monkeypatch.setattr(nmpg.prox, "prox_l1", lambda v, tau: original(v, 2.0 * tau))
        ok, detail = checks.prox_oracles(np.random.default_rng(20240), n_cases=20)
        assert not ok
        assert detail.startswith("L1Term: objective gap")


class TestSparsityEnumeration:
    def test_passes(self):
        ok, detail = checks.sparsity_enumeration(np.random.default_rng(7), SHAPES, 10)
        assert ok, detail

    def test_projection_that_keeps_the_wrong_index_fails(self, monkeypatch):
        def wrong_index(v, s):
            # keeps the 2nd..(s+1)-th largest entries instead of the s largest
            keep = np.argsort(-np.abs(v), kind="stable")[1 : s + 1]
            z = np.zeros_like(v)
            z[keep] = v[keep]
            return z

        monkeypatch.setattr(nmpg.prox, "prox_sparsity", wrong_index)
        ok, detail = checks.sparsity_enumeration(np.random.default_rng(7), SHAPES, 10)
        assert not ok
        assert detail == "dim=5, s=2: projection mismatch"


class TestGradientChecks:
    def test_passes(self):
        problems = [build_problem(ProblemSpec(kind="lasso_general", dim=8, seed=0))]
        ok, detail = checks.gradient_checks(problems, np.random.default_rng(99), 5)
        assert ok, detail

    def test_gradient_off_by_a_scale_factor_fails(self):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=8, seed=0))
        grad = problem.f.grad
        scaled = dataclasses.replace(
            problem, f=dataclasses.replace(problem.f, grad=lambda x: 1.001 * grad(x))
        )
        ok, detail = checks.gradient_checks([scaled], np.random.default_rng(99), 5)
        assert not ok
        assert detail.startswith(f"{problem.name}: relative error")


class TestDescentAudits:
    def run(self, **params):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=8, seed=0))
        params = SolverParams(p_min=1.0, **params)
        return problem, "monotone", params, solve(problem, params, problem.phi.domain_witness)

    def test_passes(self):
        ok, detail = checks.descent_audits([self.run()])
        assert ok, detail
        assert detail == "descent invariants hold on 1 runs"

    def test_backtrack_capped_run_fails(self):
        run = self.run(epsilon=0.0, max_backtracks=3)
        problem, _, params, result = run
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert len(result.trace) == 32
        # the partial trace passes its audit: the status alone must fail it
        assert audit_trace(result.trace, params).passed
        ok, detail = checks.descent_audits([run])
        assert not ok
        assert detail == f"{problem.name}/monotone: backtrack_cap_exceeded"

    def test_rising_reference_fails(self):
        problem, policy, params, result = self.run()
        trace = list(result.trace)
        trace[1] = trace[1]._replace(reference=trace[0].reference + 1.0)
        tampered = dataclasses.replace(result, trace=trace)
        ok, detail = checks.descent_audits([(problem, policy, params, tampered)])
        assert not ok
        assert "reference_nonincreasing" in detail


class TestMConstantTable:
    GRID = [i / 10.0 for i in range(1, 11)]
    SPOTS = [(1.0, 1), (0.75, 9), (0.96, 3)]

    def test_passes(self):
        ok, detail = checks.m_constant_table(self.GRID, self.SPOTS)
        assert ok, detail
        assert "0.1 -> 1442" in detail

    def test_compute_m_off_by_one_fails(self, monkeypatch):
        original = nmpg.solver.compute_m
        monkeypatch.setattr(nmpg.solver, "compute_m", lambda p: original(p) + 1)
        ok, detail = checks.m_constant_table(self.GRID, self.SPOTS)
        assert not ok
        assert detail == "p_min=0.1: compute_m gives 1443, expected 1442"

    def test_wrong_spot_value_fails(self):
        ok, detail = checks.m_constant_table([], [(0.75, 8)])
        assert not ok
        assert detail == "p_min=0.75: compute_m gives 9, expected 8"


class TestRateFitSanity:
    POWER = [float(k) ** -2 for k in range(1, 2001)]

    def test_passes(self):
        ok, detail = checks.rate_fit_sanity(
            [0.5**k for k in range(120)], 0.5, self.POWER, -2.0
        )
        assert ok, detail

    def test_geometric_series_with_the_wrong_ratio_fails(self):
        ok, detail = checks.rate_fit_sanity(
            [0.6**k for k in range(120)], 0.5, self.POWER, -2.0
        )
        assert not ok
        assert detail.startswith("geometric series fit 0.6")

    def test_power_law_with_the_wrong_exponent_fails(self):
        ok, detail = checks.rate_fit_sanity(
            [0.5**k for k in range(120)], 0.5, [float(k) ** -3 for k in range(1, 2001)], -2.0
        )
        assert not ok
        assert detail.startswith("power-law slope -3")


class TestLassoIdentitySolution:
    def test_passes(self):
        starts = [np.zeros(10), np.random.default_rng(0).standard_normal(10)]
        ok, detail = checks.lasso_identity_solution(lasso_identity(), starts, SolverParams())
        assert ok, detail

    def test_solve_stopped_by_the_iteration_cap_fails(self):
        # steps capped at 0.5 need more than one iteration on the identity
        params = SolverParams(gamma_max=0.5, max_outer_iters=5)
        ok, detail = checks.lasso_identity_solution(lasso_identity(), [np.zeros(10)], params)
        assert not ok
        assert detail == "status max_iters"

    def test_solve_stopped_at_a_loose_tolerance_fails(self):
        params = SolverParams(gamma_max=0.5, epsilon=1e-3)
        ok, detail = checks.lasso_identity_solution(lasso_identity(), [np.zeros(10)], params)
        assert not ok
        assert detail.startswith("worst distance 5.7e-04")


def test_cli_imports_checks_only_when_checking():
    src = str(Path(nmpg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys, nmpg.cli\n"
        "assert 'nmpg.checks' not in sys.modules, 'imported with nmpg.cli'\n"
        "assert nmpg.cli.cmd_check() == 0\n"
        "assert 'nmpg.checks' in sys.modules, 'not imported by cmd_check'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[PASS]") == 7


MOVED_ORACLES = (
    "brute_force_prox_1d",
    "finite_diff_gradient",
    "max_gradient_error",
    "l1_shrinkage_optimality_gap",
    "iterate_distance_series",
)


@pytest.mark.parametrize("name", MOVED_ORACLES)
def test_diagnostics_holds_no_oracles(name):
    # `nmpg run` imports diagnostics; the oracles live in checks or the tests
    assert not hasattr(nmpg.diagnostics, name)


class TestBruteForceProx:
    def test_matches_soft_threshold(self):
        t = checks.brute_force_prox_1d(abs, 1.0, 3.0, -7.0, 7.0, 1e-4)
        assert t == pytest.approx(2.0, abs=1e-6)

    def test_zero_phi_returns_v(self):
        t = checks.brute_force_prox_1d(lambda s: 0.0, 0.5, 1.234, -4.0, 4.0, 1e-4)
        assert t == pytest.approx(1.234, abs=1e-6)

    def test_indicator_clamps(self):
        phi = lambda s: 0.0 if 0.0 <= s <= 1.0 else math.inf
        t = checks.brute_force_prox_1d(phi, 1.0, 2.0, -1.0, 3.0, 1e-4)
        assert t == pytest.approx(1.0, abs=1e-6)


class TestFiniteDiff:
    def test_quadratic(self):
        f = SmoothModel(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        fd = checks.finite_diff_gradient(f, np.array([1.0, 2.0]))
        assert np.allclose(fd, [1.0, 2.0], atol=1e-8)

    def test_quartic(self):
        problem = make_quartic_scalar()
        fd = checks.finite_diff_gradient(problem.f, np.array([2.0]))
        assert fd[0] == pytest.approx(8.0, abs=1e-5)


class TestShrinkageGap:
    def test_zero_at_closed_form(self):
        b = np.array([2.0, 0.5, -3.0])
        assert checks.l1_shrinkage_optimality_gap(prox_l1(b, 1.0), b, 1.0) <= 1e-15

    def test_positive_off_solution(self):
        b = np.array([2.0, 0.5])
        assert checks.l1_shrinkage_optimality_gap(b, b, 1.0) > 0.5
