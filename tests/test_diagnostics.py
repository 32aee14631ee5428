import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from nmpg import (
    MaxReference,
    MeanReference,
    ProblemSpec,
    SolverParams,
    build_problem,
    cached_reference_optimum,
    make_quartic_scalar,
    solve,
)
from nmpg.cli import SeededStart, load_config, make_x0
from nmpg.diagnostics import (
    NegativeGap,
    NonpositiveTail,
    TailNotSummable,
    audit_trace,
    brute_force_prox_1d,
    estimate_q_factor,
    finite_diff_gradient,
    fit_loglog_slope,
    iterate_distance_series,
    l1_shrinkage_optimality_gap,
    xi_series,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def lasso_run():
    problem = build_problem(ProblemSpec(kind="lasso_general", dim=10, seed=0))
    params = SolverParams()
    return solve(problem, params, np.zeros(10)), params


class TestBruteForceProx:
    def test_matches_soft_threshold(self):
        t = brute_force_prox_1d(abs, 1.0, 3.0, -7.0, 7.0, 1e-4)
        assert t == pytest.approx(2.0, abs=1e-6)

    def test_zero_phi_returns_v(self):
        t = brute_force_prox_1d(lambda s: 0.0, 0.5, 1.234, -4.0, 4.0, 1e-4)
        assert t == pytest.approx(1.234, abs=1e-6)

    def test_indicator_clamps(self):
        phi = lambda s: 0.0 if 0.0 <= s <= 1.0 else math.inf
        t = brute_force_prox_1d(phi, 1.0, 2.0, -1.0, 3.0, 1e-4)
        assert t == pytest.approx(1.0, abs=1e-6)


class TestFiniteDiff:
    def test_quadratic(self):
        from nmpg import GlobalLipschitz, SmoothModel

        f = SmoothModel(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                        GlobalLipschitz(1.0))
        fd = finite_diff_gradient(f, np.array([1.0, 2.0]))
        assert np.allclose(fd, [1.0, 2.0], atol=1e-8)

    def test_quartic(self):
        problem = make_quartic_scalar()
        fd = finite_diff_gradient(problem.f, np.array([2.0]))
        assert fd[0] == pytest.approx(8.0, abs=1e-5)


class TestQFactor:
    def test_exact_geometric(self):
        values = [0.5**k for k in range(100)]
        report = estimate_q_factor(values, 0.0)
        assert report.fitted == pytest.approx(0.5, abs=1e-12)
        assert report.passed
        assert report.mode == "q_linear"

    def test_sublinear_sequence_rejected(self):
        values = [float(k) ** -2 for k in range(1, 3000)]
        report = estimate_q_factor(values, 0.0)
        assert not report.passed
        assert report.fitted > 0.999

    def test_nonpositive_tail_raises(self):
        values = [1.0, 0.5, 0.25, 0.12, 0.05, 0.02, -0.01, 0.3, 0.2, 0.1]
        with pytest.raises(NonpositiveTail):
            estimate_q_factor(values, 0.0, tail_fraction=0.9)

    def test_float_exact_convergence_truncated(self):
        # trailing entries land exactly on psi_star; they must be dropped
        psi_star = 2.0
        values = [psi_star + 0.5**k for k in range(60)] + [psi_star] * 10
        report = estimate_q_factor(values, psi_star, tail_fraction=0.9)
        assert report.passed
        assert report.fitted == pytest.approx(0.5, rel=1e-6)


class TestLogLogSlope:
    def test_exact_power_law(self):
        values = [float(k) ** -2 for k in range(1, 3000)]
        report = fit_loglog_slope(values, 0.0, predicted=-2.0, tolerance=1e-6)
        assert report.fitted == pytest.approx(-2.0, abs=1e-6)
        assert report.passed

    def test_perturbed_power_law(self):
        ks = np.arange(1, 5000, dtype=float)
        values = 3.0 * ks**-2 * (1.0 + 0.01 * np.sin(ks))
        report = fit_loglog_slope(list(values), 0.0, predicted=-2.0, tolerance=0.05)
        assert report.passed

    def test_prediction_miss_fails(self):
        values = [float(k) ** -1 for k in range(1, 2000)]
        report = fit_loglog_slope(values, 0.0, predicted=-2.0, tolerance=0.15)
        assert not report.passed


class TestXiSeries:
    def test_arithmetic(self):
        trace = _fake_trace(references=[4.0, 1.0, 0.0])
        xis = xi_series(trace)
        assert xis == pytest.approx([math.sqrt(3.0), 1.0])

    def test_constant_reference(self):
        trace = _fake_trace(references=[2.0, 2.0, 2.0])
        assert xi_series(trace) == [0.0, 0.0]

    def test_negative_gap_raises(self):
        trace = _fake_trace(references=[1.0, 2.0])
        with pytest.raises(NegativeGap):
            xi_series(trace)

    def test_growing_tail_raises(self):
        references = [100.0 - k**2 for k in range(20)]  # drops grow with k
        with pytest.raises(TailNotSummable):
            xi_series(_fake_trace(references=references))

    def test_run_satisfies_step_bound(self, lasso_run):
        result, params = lasso_run
        xis = xi_series(result.trace)
        a = (1.0 - params.alpha) / (2.0 * params.gamma_max)
        for k in range(1, len(result.trace)):
            lhs = math.sqrt(a * params.p_min) * result.trace[k - 1].step_norm
            assert lhs <= xis[k - 1] + 1e-10


def _fake_trace(references):
    from nmpg import IterationRecord

    out = []
    for k, ref in enumerate(references):
        xi = 0.0 if k == 0 else math.sqrt(max(references[k - 1] - ref, 0.0))
        out.append(
            IterationRecord(
                k=k,
                psi=ref,
                reference=ref,
                gamma_accepted=1.0,
                backtracks=0,
                step_norm=0.0,
                residual=1.0,
                xi=xi,
            )
        )
    return out


class TestAuditTrace:
    def test_valid_run_passes(self, lasso_run):
        result, params = lasso_run
        report = audit_trace(result.trace, params)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_single_record_trace(self):
        problem = build_problem(ProblemSpec(kind="lasso_identity", dim=4, seed=0))
        params = SolverParams()
        result = solve(problem, params, problem.optimum.x_star)
        assert result.iterations == 1
        report = audit_trace(result.trace, params)
        assert report.passed

    def test_fault_reference_increase(self, lasso_run):
        result, params = lasso_run
        trace = list(result.trace)
        j = min(5, len(trace) - 1)
        trace[j] = dataclasses.replace(trace[j], reference=trace[j].reference + 1.0)
        report = audit_trace(trace, params)
        assert not report.check("reference_nonincreasing").passed

    def test_fault_reference_below_psi(self, lasso_run):
        result, params = lasso_run
        trace = list(result.trace)
        j = min(3, len(trace) - 1)
        trace[j] = dataclasses.replace(trace[j], reference=trace[j].psi - 1.0)
        report = audit_trace(trace, params)
        assert not report.check("reference_dominates_psi").passed

    def test_fault_step_norm_blowup(self, lasso_run):
        result, params = lasso_run
        trace = list(result.trace)
        trace[0] = dataclasses.replace(trace[0], step_norm=1e6)
        report = audit_trace(trace, params)
        assert not report.check("reference_drop_per_step").passed
        assert not report.check("step_bounded_by_xi").passed

    def test_fault_step_norm_growth_under_max_rule(self):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=10, seed=0))
        params = SolverParams(reference_policy=MaxReference(5))
        trace = list(solve(problem, params, np.zeros(10)).trace)
        assert len(trace) >= 20
        assert audit_trace(trace, params).passed
        head = trace[0].step_norm
        trace[-2:] = [dataclasses.replace(r, step_norm=10.0 * head) for r in trace[-2:]]
        assert not audit_trace(trace, params).check("step_norm_decay").passed

    def test_mean_rule_run_with_late_long_steps_passes(self):
        # the mean tail step exceeds the mean head step on this valid run;
        # the per-step bound of reference_drop_per_step holds throughout
        problem = build_problem(
            ProblemSpec(kind="quartic_regression_l0", dim=2, seed=1)
        )
        params = SolverParams()
        result = solve(problem, params, make_x0(problem, SeededStart(2), 2))
        report = audit_trace(result.trace, params)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_reference_drop_lost_to_rounding_passes(self):
        # the last reference drops are below float resolution, so xi is 0
        # while the step is about 1e-9
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=10, seed=1))
        params = SolverParams(p_min=1.0)
        result = solve(problem, params, make_x0(problem, SeededStart(7), 1))
        report = audit_trace(result.trace, params)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            audit_trace([], SolverParams())


class TestIterateDistances:
    def test_all_zero_at_solution(self):
        x_star = np.array([1.0, -1.0])
        series = iterate_distance_series([x_star, x_star, x_star], x_star)
        assert series == [0.0, 0.0, 0.0]

    def test_lasso_identity_distances_vanish(self):
        problem = build_problem(ProblemSpec(kind="lasso_identity", dim=6, seed=4))
        result = solve(problem, SolverParams(), np.zeros(6), record_iterates=True)
        d = iterate_distance_series(result.iterates, problem.optimum.x_star)
        assert d[-1] <= 1e-6


class TestShrinkageGap:
    def test_zero_at_closed_form(self):
        b = np.array([2.0, 0.5, -3.0])
        from nmpg import prox_l1

        assert l1_shrinkage_optimality_gap(prox_l1(b, 1.0), b, 1.0) <= 1e-15

    def test_positive_off_solution(self):
        b = np.array([2.0, 0.5])
        assert l1_shrinkage_optimality_gap(b, b, 1.0) > 0.5


def test_q_fit_is_stable_under_ulp_moves_of_psi_star():
    # the monotone row of `nmpg compare` on this config; gaps within rounding
    # of psi* are cut before the fit, so the fitted q must not follow the
    # last bits of psi* (before, it ranged over 0.1613-0.1632 here)
    config = load_config(CONFIGS / "lasso_general_50.json")
    problem = build_problem(config.problem)
    params = dataclasses.replace(
        config.params, p_min=1.0, reference_policy=MeanReference()
    )
    result = solve(problem, params, make_x0(problem, config.x0_policy, 0))
    refs = result.trace.columns()["reference"]
    psi_star = cached_reference_optimum(problem)[0]
    fits = []
    for ulps in (-4, -1, 0, 1, 4):
        moved = psi_star
        for _ in range(abs(ulps)):
            moved = math.nextafter(moved, math.copysign(math.inf, ulps))
        fits.append(estimate_q_factor(refs, moved).fitted)
    assert max(fits) - min(fits) < 1e-4
