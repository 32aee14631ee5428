import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmpg import (
    BoxIndicator,
    CompositeProblem,
    ConstantGamma,
    GlobalLipschitz,
    L0Term,
    L1Term,
    LHalfTerm,
    MaxReference,
    NonsmoothTerm,
    PreviousAccepted,
    RunStatus,
    SmoothModel,
    SolverParams,
    ZeroTerm,
    build_problem,
    compute_m,
    make_exp_fit_l1,
    make_lasso_identity,
    make_quartic_scalar,
    solve,
)
from nmpg.cli import write_trace_csv
from nmpg.problems import PROBLEM_KINDS, ProblemSpec


def overflowing_l1_problem():
    # The gradient at 0 is -5e307 per coordinate, so a step of 2 lands near
    # 1e308 per coordinate: f stays finite there but lam * ||x||_1 overflows.
    return CompositeProblem(
        f=SmoothModel(
            2,
            lambda x: -5e307 * float(np.tanh(x).sum()),
            lambda x: -5e307 / np.cosh(x) ** 2,
        ),
        phi=L1Term(2, 1.0),
        name="overflowing_l1",
    )


BIG_STEPS = SolverParams(gamma_max=2.0, gamma_init_policy=ConstantGamma(2.0))


def quadratic_problem(dim=1):
    return CompositeProblem(
        f=SmoothModel(dim, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                      GlobalLipschitz(1.0)),
        phi=ZeroTerm(dim),
        name="half_sq",
    )


class TestComputeM:
    def test_spot_values(self):
        assert compute_m(1.0) == 1
        assert compute_m(0.75) == 9
        assert compute_m(0.96) == 3

    def test_matches_closed_form(self):
        for i in range(1, 21):
            p = 0.05 * i
            r = math.sqrt(1.0 - p)
            oracle = 1 if p == 1.0 else math.ceil(((1.0 + r) / (1.0 - r)) ** 2)
            assert compute_m(p) == oracle

    def test_rejects_out_of_range(self):
        for p in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                compute_m(p)


def table_problem(values):
    """phi = 0 and an f that takes values[i] at x = i, with gradient -1
    everywhere: a unit stepsize moves x from i to i + 1, with step norm 1 and
    residual |1 - (-1) + (-1)| = 1, whatever the values are."""
    return CompositeProblem(
        f=SmoothModel(1, lambda x: values[int(x[0])], lambda x: -np.ones(1)),
        phi=ZeroTerm(1),
        name="table",
    )


def unit_steps(**kwargs):
    return SolverParams(epsilon=0.0, gamma_init_policy=ConstantGamma(1.0), **kwargs)


class TestFirstRows:
    def test_one_step_to_the_minimizer(self):
        # gamma = 1 maps x = 1 to 0: psi_next 0 <= 0.5 - 0.25 * 1, and the
        # residual (0 - 1)/1 - 0 + 1 is exactly 0
        problem = quadratic_problem(1)
        params = SolverParams(alpha=0.5, gamma_init_policy=ConstantGamma(1.0))
        result = solve(problem, params, [1.0])
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert result.trace == [(0, 0.5, 0.5, 1.0, 0, 1.0, 0.0)]
        assert np.array_equal(result.x_final, [0.0])

    def test_gradient_step_first_rows(self, solve_recording):
        # with phi = 0 a step is x - gamma * x = 0.75 x, so psi shrinks by
        # 0.5625 per step; |x0|^2 = 5.25, and the residual is
        # |-x - 0.75 x + x| = 0.75 |x|
        problem = quadratic_problem(3)
        x0 = np.array([1.0, -2.0, 0.5])
        params = SolverParams(
            epsilon=0.0, max_outer_iters=2, gamma_init_policy=ConstantGamma(0.25)
        )
        result, iterates = solve_recording(problem, params, x0)
        assert result.status is RunStatus.MAX_ITERS
        assert np.allclose(iterates[1], 0.75 * x0, atol=1e-15)
        assert np.allclose(result.x_final, 0.5625 * x0, atol=1e-15)
        norm0 = math.sqrt(5.25)
        psi1 = 2.625 * 0.5625
        reference1 = 0.9 * 2.625 + 0.1 * psi1
        expected = [
            (0, 2.625, 2.625, 0.25, 0, 0.25 * norm0, 0.75 * norm0),
            (1, psi1, reference1, 0.25, 0, 0.25 * 0.75 * norm0, 0.75 * 0.75 * norm0),
        ]
        assert len(result.trace) == 2
        for row, want in zip(result.trace, expected):
            assert row == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_constant_gradient_residual(self):
        # f linear with gradient -(3, 4): from 0, gamma = 1 steps to (3, 4);
        # the gradients cancel in the residual, leaving |dx| = 5
        slope = np.array([3.0, 4.0])
        problem = CompositeProblem(
            f=SmoothModel(2, lambda x: -float(slope @ x), lambda x: -slope),
            phi=ZeroTerm(2),
            name="linear",
        )
        params = unit_steps(max_outer_iters=1)
        result = solve(problem, params, np.zeros(2))
        assert result.trace == [(0, 0.0, 0.0, 1.0, 0, 5.0, 5.0)]
        assert np.array_equal(result.x_final, slope)

    def test_prox_step_composes_closed_forms(self):
        # from x = b the gradient vanishes, so the step is soft(b, lam), which
        # is the solution: the residual is exactly 0
        b = np.array([2.0, 0.5])
        problem = make_lasso_identity(b, 1.0)
        params = SolverParams(gamma_init_policy=ConstantGamma(1.0))
        result = solve(problem, params, b)
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert np.allclose(result.x_final, [1.0, 0.0], atol=1e-15)
        assert result.trace[0].backtracks == 0
        assert result.trace[0].residual == 0.0

    def test_stationary_point_is_a_fixed_point_accepted_at_once(self):
        problem = make_lasso_identity(np.array([2.0, 0.5]), 1.0)
        x_star = problem.optimum.x_star
        params = SolverParams(gamma_init_policy=ConstantGamma(1.0))
        result = solve(problem, params, x_star)
        assert np.allclose(result.x_final, x_star, atol=1e-15)
        assert result.trace[0].backtracks == 0
        assert result.trace[0].step_norm == 0.0
        assert result.trace[0].residual == 0.0

    def test_quartic_far_from_origin_backtracks_to_a_decrease(self):
        result = solve(make_quartic_scalar(), SolverParams(max_outer_iters=2), [10.0])
        assert result.trace[0].psi == 2500.0
        assert result.trace[0].backtracks >= 1
        assert result.trace[1].psi < 2500.0  # accepted step actually decreased psi


class TestAcceptance:
    # alpha = 0.5, gamma = 1 and a unit step: the test is psi_next <= psi0 - 0.25

    def test_boundary_is_accepted(self):
        params = unit_steps(alpha=0.5, max_backtracks=0, max_outer_iters=1)
        result = solve(table_problem([5.0, 4.75]), params, [0.0])
        assert result.status is RunStatus.MAX_ITERS
        assert result.trace[0].backtracks == 0

    def test_one_ulp_above_the_boundary_is_rejected(self):
        above = math.nextafter(4.75, math.inf)
        params = unit_steps(alpha=0.5, max_backtracks=0)
        result = solve(table_problem([5.0, above]), params, [0.0])
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert result.iterations == 0
        assert result.detail == (
            "no acceptable stepsize after 0 backtracks (gamma reached 1.000e+00)"
        )

    def test_no_decrease_with_motion_is_rejected_within_rounding(self):
        params = unit_steps(alpha=0.5, max_backtracks=0)
        result = solve(table_problem([5.0, 5.0]), params, [0.0])
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert result.detail == (
            "no acceptable stepsize after 0 backtracks (gamma reached 1.000e+00)"
            "; acceptance failed within rounding of the reference "
            "(the last trial's psi is within 4 ulps of it)"
        )

    def test_cap_zero_on_a_backtracking_step(self):
        params = SolverParams(max_backtracks=0)
        result = solve(make_quartic_scalar(), params, [10.0])
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert result.iterations == 0
        assert np.array_equal(result.x_final, [10.0])
        assert result.detail == (
            "no acceptable stepsize after 0 backtracks (gamma reached 1.000e+00)"
        )


def csv_xi(trace, tmp_path):
    """The `xi` column that write_trace_csv derives for `trace`."""
    write_trace_csv(tmp_path / "trace.csv", trace)
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    return [float(row.split(",")[-1]) for row in rows]


class TestReferenceUpdate:
    @pytest.mark.parametrize("p_min, reference", [(0.5, 8.0), (1.0, 6.0)])
    def test_mean_rule_is_a_convex_combination(self, p_min, reference, tmp_path):
        params = unit_steps(p_min=p_min, max_outer_iters=2)
        result = solve(table_problem([10.0, 6.0, 2.0]), params, [0.0])
        assert [r.psi for r in result.trace] == [10.0, 6.0]
        assert result.trace[1].reference == reference
        assert csv_xi(result.trace, tmp_path) == [0.0, math.sqrt(10.0 - reference)]

    @given(seed=st.integers(0, 10_000), p_min=st.floats(0.01, 1.0))
    @settings(deadline=None, max_examples=25)
    def test_mean_rule_recurrence_on_every_row(self, seed, p_min):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=4, seed=seed))
        x0 = np.random.default_rng(seed).standard_normal(4)
        result = solve(problem, SolverParams(p_min=p_min, epsilon=1e-6), x0)
        trace = result.trace
        for prev, row in zip(trace, trace[1:]):
            assert row.reference == (1.0 - p_min) * prev.reference + p_min * row.psi
            assert min(prev.reference, row.psi) - 1e-9 <= row.reference
            assert row.reference <= max(prev.reference, row.psi) + 1e-9

    def test_max_rule_is_the_window_max(self, tmp_path):
        # every step is accepted: 3, 4 and 4.5 each lie 0.45 below the max 5
        # of their window; the window of 3 then drops psi0 = 5
        psis = [5.0, 3.0, 4.0, 4.5, 1.0]
        params = unit_steps(reference_policy=MaxReference(3), max_outer_iters=4)
        result = solve(table_problem(psis), params, [0.0])
        assert result.status is RunStatus.MAX_ITERS
        assert [r.psi for r in result.trace] == psis[:4]
        assert [r.reference for r in result.trace] == [5.0, 5.0, 5.0, 4.5]
        assert csv_xi(result.trace, tmp_path) == [0.0, 0.0, 0.0, math.sqrt(0.5)]

    def test_max_rule_window_of_one_is_the_last_psi(self):
        params = unit_steps(reference_policy=MaxReference(1), max_outer_iters=2)
        result = solve(table_problem([5.0, 2.5, 1.0]), params, [0.0])
        assert [r.reference for r in result.trace] == [5.0, 2.5]


def diagonal_quadratic(diag):
    diag = np.asarray(diag, dtype=float)
    return CompositeProblem(
        f=SmoothModel(
            diag.size, lambda x: 0.5 * float(x @ (diag * x)), lambda x: diag * x
        ),
        phi=ZeroTerm(diag.size),
        name="diagonal_quadratic",
    )


class TestFirstTrialStepsize:
    # f = (x1^2 + 3 x2^2)/2 from (1, 1): from a first trial of 1, the first
    # step backtracks twice to 0.25; every trial of iteration 1 below is
    # accepted without backtracking

    @staticmethod
    def second_row(params, solve_recording):
        problem = diagonal_quadratic([1.0, 3.0])
        result, iterates = solve_recording(
            problem,
            dataclasses.replace(params, epsilon=0.0, max_outer_iters=2),
            np.ones(2),
        )
        assert result.iterations == 2
        assert result.trace[1].backtracks == 0
        return problem, result, iterates

    @pytest.mark.parametrize(
        "params",
        [
            SolverParams(gamma_min=0.25, gamma_init_policy=ConstantGamma(1e-3)),
            SolverParams(gamma_max=0.25, gamma_init_policy=ConstantGamma(5.0)),
        ],
        ids=["below_gamma_min", "above_gamma_max"],
    )
    def test_constant_gamma_is_clipped_into_the_box(self, params, solve_recording):
        _, result, _ = self.second_row(params, solve_recording)
        assert [r.gamma_accepted for r in result.trace] == [0.25, 0.25]

    def test_previous_accepted_starts_from_the_last_stepsize(self, solve_recording):
        params = SolverParams(gamma_init_policy=PreviousAccepted())
        _, result, _ = self.second_row(params, solve_recording)
        assert result.trace[0].backtracks == 2
        assert result.trace[1].gamma_accepted == result.trace[0].gamma_accepted == 0.25

    @pytest.mark.parametrize(
        "gamma_min, gamma_max, clipped",
        [(1e-10, 1.0, None), (0.35, 1.0, 0.35), (1e-10, 0.3, 0.3)],
        ids=["inside", "below_gamma_min", "above_gamma_max"],
    )
    def test_barzilai_borwein_quotient_is_clipped_into_the_box(
        self, gamma_min, gamma_max, clipped, solve_recording
    ):
        params = SolverParams(gamma_min=gamma_min, gamma_max=gamma_max)
        problem, result, iterates = self.second_row(params, solve_recording)
        x0, x1 = iterates[:2]
        dx = x1 - x0
        dg = problem.f.grad(x1) - problem.f.grad(x0)
        quotient = float(dx.dot(dg)) / float(dg.dot(dg))
        assert result.trace[1].gamma_accepted == min(max(quotient, gamma_min), gamma_max)
        if clipped is None:
            assert gamma_min < quotient < gamma_max
            # the quotient of this f lies between its curvature bounds 1/3 and 1
            assert 1.0 / 3.0 < quotient < 1.0
        else:
            assert result.trace[1].gamma_accepted == clipped

    @pytest.mark.parametrize(
        "kind, x0",
        [("linear", np.ones(4)), ("concave_quadratic", np.full(4, 0.5))],
    )
    def test_barzilai_borwein_falls_back_to_gamma_max(self, kind, x0):
        # linear f: dg = 0; concave f: <dx, dg> < 0
        params = SolverParams(gamma_max=2.0)
        result = solve(DEGENERATE_CURVATURE[kind](), params, x0)
        assert result.iterations == 2
        assert result.trace[1].backtracks == 0
        assert result.trace[1].gamma_accepted == 2.0


class TestSolve:
    def test_lasso_identity_converges(self):
        problem = make_lasso_identity(np.array([2.0, 0.5]), 1.0)
        result = solve(problem, SolverParams(epsilon=1e-10), np.zeros(2))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert np.linalg.norm(result.x_final - np.array([1.0, 0.0])) <= 1e-6

    def test_stationary_start_terminates_first_iteration(self):
        problem = make_lasso_identity(np.array([2.0, 0.5]), 1.0)
        result = solve(problem, SolverParams(), problem.optimum.x_star)
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert result.iterations == 1
        assert result.trace[-1].residual == 0.0

    def test_epsilon_zero_runs_to_cap(self):
        problem = make_quartic_scalar()
        params = SolverParams(epsilon=0.0, max_outer_iters=500)
        result = solve(problem, params, np.array([1.0]))
        assert result.status is RunStatus.MAX_ITERS
        assert result.iterations == 500

    def test_infeasible_start_rejected(self):
        problem = build_problem(
            ProblemSpec(kind="sparsity_projected_quadratic", dim=6, seed=0, s=2)
        )
        with pytest.raises(ValueError, match="dom"):
            solve(problem, SolverParams(), np.ones(6))

    def test_backtrack_cap_status_with_partial_trace(self):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=10, seed=0))
        params = SolverParams(max_backtracks=0)
        result = solve(problem, params, np.zeros(10))
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert result.detail.startswith("no acceptable stepsize after 0 backtracks")
        assert "rounding" not in result.detail  # the rejected trial rose far above

    def test_overflow_reports_numerical_failure(self):
        a = np.full((1, 1), 1.0)
        problem = make_exp_fit_l1(a, np.array([1.0]), 0.1)
        # start far out so exp overflows when evaluating the smooth part
        result = solve(problem, SolverParams(), np.array([800.0]))
        assert result.status is RunStatus.NUMERICAL_FAILURE
        assert "start objective f(x0) + phi(x0)" in result.detail

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_phi_at_trial_point_reports_numerical_failure(self):
        result = solve(overflowing_l1_problem(), BIG_STEPS, np.zeros(2))
        assert result.status is RunStatus.NUMERICAL_FAILURE
        assert result.iterations == 0
        assert "phi is non-finite at a trial point" in result.detail

    def test_nonfinite_start_gradient_reports_numerical_failure(self):
        problem = CompositeProblem(
            f=SmoothModel(1, lambda x: 0.0, lambda x: np.full(1, math.inf)),
            phi=ZeroTerm(1),
            name="inf_gradient",
        )
        result = solve(problem, SolverParams(), np.zeros(1))
        assert result.status is RunStatus.NUMERICAL_FAILURE
        assert result.detail == "the gradient at x0 has non-finite entries"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_start_rejected_naming_it(self, bad):
        message = r"x0 has non-finite entries at indices \[0\]"
        with pytest.raises(ValueError, match=message):
            solve(overflowing_l1_problem(), BIG_STEPS, [bad, 0.0])

    def test_overflowing_start_objective_reports_numerical_failure(self):
        # f and phi are finite at x0 but their sum is not
        problem = CompositeProblem(
            f=SmoothModel(1, lambda x: 1e308, lambda x: np.zeros(1)),
            phi=L1Term(1, 1e308),
            name="psi0_overflow",
        )
        result = solve(problem, SolverParams(), np.ones(1))
        assert result.status is RunStatus.NUMERICAL_FAILURE

    def test_stepsize_underflow_reports_backtrack_cap(self):
        # a gradient of the wrong sign makes every trial step go uphill
        problem = CompositeProblem(
            f=SmoothModel(
                1, lambda x: 0.5 * float(x @ x) + 10.0 * x[0], lambda x: -(x + 10.0)
            ),
            phi=ZeroTerm(1),
            name="wrong_gradient",
        )
        result = solve(problem, SolverParams(max_backtracks=5000), np.zeros(1))
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED

    def test_lhalf_solve_from_large_start_returns(self):
        # the half step puts prox inputs near -5e5, where adjacent floats lie
        # further apart than the 1e-12 bisection tolerance
        base = make_lasso_identity(np.array([2.0, 0.5]), 1.0)
        problem = CompositeProblem(f=base.f, phi=LHalfTerm(2, 0.5), name="lhalf")
        params = SolverParams(gamma_init_policy=ConstantGamma(0.5))
        result = solve(problem, params, np.array([1e4, -1e6]))
        assert result.status is RunStatus.CONVERGED_RESIDUAL

    @pytest.mark.parametrize(
        "params",
        [
            SolverParams(),
            SolverParams(p_min=1.0),
            SolverParams(reference_policy=MaxReference(5)),
        ],
        ids=["mean", "monotone", "max"],
    )
    def test_lhalf_lasso_general_runs_pass_audit_and_repeat(self, params):
        from nmpg.diagnostics import audit_trace

        base = build_problem(ProblemSpec(kind="lasso_general", dim=200, seed=0))
        problem = CompositeProblem(f=base.f, phi=LHalfTerm(200, 0.1), name="lhalf")
        for x0 in (np.zeros(200), np.random.default_rng(9).standard_normal(200)):
            first = solve(problem, params, x0)
            assert first.status is RunStatus.CONVERGED_RESIDUAL
            report = audit_trace(first.trace, params)
            assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
            again = solve(problem, params, x0)
            assert again.trace == first.trace
            assert again.x_final.tobytes() == first.x_final.tobytes()

    @pytest.mark.parametrize("term", [L1Term, LHalfTerm], ids=lambda t: t.__name__)
    def test_overflowing_prox_weight_gives_a_status(self, term):
        # gamma * lam overflows to inf; the prox at infinite weight is zero
        problem = CompositeProblem(
            f=quadratic_problem(2).f, phi=term(2, 1e300), name="huge_weight"
        )
        params = SolverParams(gamma_max=1e10, gamma_init_policy=ConstantGamma(1e10))
        result = solve(problem, params, np.ones(2))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert np.array_equal(result.x_final, np.zeros(2))

    @pytest.mark.parametrize(
        "term", [L1Term, L0Term, LHalfTerm], ids=lambda t: t.__name__
    )
    def test_underflowing_prox_weight_gives_a_status(self, term):
        # gamma * lam underflows to 0; the prox at zero weight is the identity
        problem = CompositeProblem(
            f=quadratic_problem(2).f, phi=term(2, 5e-324), name="tiny_weight"
        )
        params = SolverParams(gamma_init_policy=ConstantGamma(0.5))
        result = solve(problem, params, np.ones(2))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        # each identity prox leaves the gradient step x - 0.5 x, exact in floats
        assert np.array_equal(result.x_final, np.full(2, 0.5**result.iterations))

    def test_monotone_stall_names_rounding_in_detail(self):
        # next to a stationary point, psi at every trial equals the reference
        # to the last bit, so the monotone test asks for a decrease below
        # rounding and the stepsize shrinks to the cap
        base = build_problem(ProblemSpec(kind="lasso_general", dim=50, seed=0))
        problem = CompositeProblem(f=base.f, phi=LHalfTerm(50, 0.5), name="lhalf")
        x0 = np.random.default_rng(50).standard_normal(50)
        result = solve(problem, SolverParams(p_min=1.0), x0)
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert result.iterations == 162
        assert result.detail.startswith("no acceptable stepsize after 100 backtracks")
        assert "acceptance failed within rounding of the reference" in result.detail

    def test_gradient_is_called_at_x0_and_each_accepted_point(self, solve_recording):
        problem = build_problem(ProblemSpec(kind="exp_fit_l1", dim=6, seed=0))
        x0 = problem.phi.prox(1.0, np.random.default_rng(4).standard_normal(6))
        params = SolverParams(epsilon=0.0, max_outer_iters=50)
        result, iterates = solve_recording(problem, params, x0)
        # an exact fixed point: the last row has a zero step and residual
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert result.iterations > 10 and result.trace[-1].step_norm == 0.0
        assert len(iterates) == result.iterations + 1
        assert np.array_equal(iterates[0], x0)
        assert np.array_equal(iterates[-1], result.x_final)
        # the recorded points are the iterates: step k moves x^k to x^{k+1}
        for record, x, x_next in zip(result.trace, iterates, iterates[1:]):
            assert record.step_norm == math.sqrt(float((x_next - x).dot(x_next - x)))
        assert solve(problem, params, x0).trace == result.trace

    def test_reference_policies_agree_when_monotone(self):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=8, seed=0))
        x0 = np.zeros(8)
        mono = solve(problem, SolverParams(p_min=1.0), x0)
        max1 = solve(
            problem, SolverParams(reference_policy=MaxReference(1)), x0
        )
        assert mono.trace == max1.trace

    def test_deterministic_reruns(self):
        problem = build_problem(ProblemSpec(kind="exp_fit_l1", dim=6, seed=0))
        x0 = problem.phi.prox(1.0, np.random.default_rng(4).standard_normal(6))
        r1 = solve(problem, SolverParams(), x0)
        r2 = solve(problem, SolverParams(), x0)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x_final, r2.x_final)

    def test_gamma_stays_in_bounds(self):
        problem = build_problem(ProblemSpec(kind="quartic_regression_l0", dim=8, seed=1))
        result = solve(problem, SolverParams(), np.zeros(8))
        params = SolverParams()
        for record in result.trace:
            assert 0.0 < record.gamma_accepted <= params.gamma_max

    def test_nonmonotone_needs_no_more_backtracks(self):
        # fixed-seed regression property: relaxing the acceptance test never
        # costs extra stepsize shrinkage on this instance
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=50, seed=0))
        x0 = np.zeros(50)
        nm = solve(problem, SolverParams(p_min=0.1, epsilon=1e-6), x0)
        mono = solve(problem, SolverParams(p_min=1.0, epsilon=1e-6), x0)
        bt = lambda r: sum(t.backtracks for t in r.trace)
        assert bt(nm) <= bt(mono)

    def test_max_rule_reference_is_window_max(self):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=8, seed=0))
        window = 3
        result = solve(
            problem,
            SolverParams(epsilon=1e-6, reference_policy=MaxReference(window)),
            np.zeros(8),
        )
        psis = [r.psi for r in result.trace]
        refs = [r.reference for r in result.trace]
        for k in range(len(psis)):
            assert refs[k] == max(psis[max(0, k - window + 1) : k + 1])

    @given(
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.05, 0.8),
        beta=st.floats(0.2, 0.8),
        p_min=st.floats(0.2, 1.0),
    )
    @settings(deadline=None, max_examples=25)
    def test_random_quadratic_runs_satisfy_audits(self, seed, alpha, beta, p_min):
        from nmpg.diagnostics import audit_trace

        rng = np.random.default_rng(seed)
        diag = rng.uniform(0.3, 2.0, 4)
        b = rng.standard_normal(4)

        def f_eval(x):
            r = diag * x - b
            return 0.5 * float(r @ r)

        problem = CompositeProblem(
            f=SmoothModel(4, f_eval, lambda x: diag * (diag * x - b),
                          GlobalLipschitz(float(np.max(diag**2)))),
            phi=L1Term(4, 0.3),
            name="fuzz_quadratic",
        )
        params = SolverParams(
            alpha=alpha, beta=beta, p_min=p_min, epsilon=1e-5, max_outer_iters=2000
        )
        result = solve(problem, params, rng.standard_normal(4))
        assert result.status in (RunStatus.CONVERGED_RESIDUAL, RunStatus.MAX_ITERS)
        report = audit_trace(result.trace, params)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    @pytest.mark.parametrize(
        "policy",
        [ConstantGamma(0.2), ConstantGamma(5.0), PreviousAccepted()],
        ids=["constant", "constant_clipped", "previous_accepted"],
    )
    def test_gamma_init_policies_converge(self, policy):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=8, seed=0))
        params = SolverParams(gamma_init_policy=policy)
        result = solve(problem, params, np.zeros(8))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        # trial stepsizes are clipped into the box before any backtracking
        assert all(r.gamma_accepted <= params.gamma_max for r in result.trace)


def steep_gradient_problem():
    # f = |x|^2/2 + 1e157 sum tanh(1000 x): the gradient is about x far from
    # 0 and 1e160 at 0. From x0 = 0.5 the first step lands on 0, so the
    # gradient difference of that step overflows in dg @ dg.
    def f_eval(x):
        return 0.5 * float(x @ x) + 1e157 * float(np.tanh(1e3 * x).sum())

    def f_grad(x):
        return x + 1e160 / np.cosh(1e3 * x) ** 2

    return CompositeProblem(
        f=SmoothModel(4, f_eval, f_grad), phi=ZeroTerm(4), name="steep_gradient"
    )


SLOPE = np.array([1.0, -2.0, 0.5, 0.5])

# Smooth parts that make the Barzilai-Borwein quotient degenerate: a linear f
# (dg = 0, so bb_den = 0), a concave f (bb_num < 0), and steep_gradient
# (bb_den overflows).
DEGENERATE_CURVATURE = {
    "linear": lambda: CompositeProblem(
        f=SmoothModel(4, lambda x: float(SLOPE @ x), lambda x: SLOPE.copy()),
        phi=L1Term(4, 3.0),
        name="linear",
    ),
    "concave_quadratic": lambda: CompositeProblem(
        f=SmoothModel(4, lambda x: -0.5 * float(x @ x), lambda x: -x),
        phi=BoxIndicator(-np.ones(4), np.ones(4)),
        name="concave_quadratic",
    ),
    "steep_gradient": steep_gradient_problem,
}


@functools.cache
def hostile_problem(kind):
    if kind == "overflowing_l1":
        return overflowing_l1_problem()
    if kind in DEGENERATE_CURVATURE:
        return DEGENERATE_CURVATURE[kind]()
    return build_problem(ProblemSpec(kind=kind, dim=4, seed=0))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_steep_gradient_overflows_the_bb_denominator(solve_recording):
    problem = steep_gradient_problem()
    x0 = np.full(4, 0.5)
    _, iterates = solve_recording(problem, SolverParams(max_outer_iters=1), x0)
    x1 = iterates[1]
    assert np.array_equal(x1, np.zeros(4))
    dg = problem.f.grad(x1) - problem.f.grad(x0)
    assert np.all(np.isfinite(dg)) and float(dg @ dg) == math.inf
    assert isinstance(solve(problem, SolverParams(), x0).status, RunStatus)


HOSTILE_ENTRIES = [0.0, 0.5, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    kind=st.sampled_from(
        PROBLEM_KINDS + ("overflowing_l1",) + tuple(DEGENERATE_CURVATURE)
    ),
    entries=st.lists(st.sampled_from(HOSTILE_ENTRIES), min_size=4, max_size=4),
    max_backtracks=st.sampled_from([0, 100]),
    big_steps=st.booleans(),
)
@settings(deadline=None, max_examples=200)
def test_hostile_inputs_give_a_status_or_reject_the_start(
    kind, entries, max_backtracks, big_steps
):
    """solve returns a RunStatus, or raises ValueError for an invalid start;
    it never leaks any other exception."""
    problem = hostile_problem(kind)
    x0 = np.array(entries[: problem.dim])
    params = dataclasses.replace(
        BIG_STEPS if big_steps else SolverParams(),
        max_backtracks=max_backtracks,
        max_outer_iters=300,
    )
    invalid_start = not np.all(np.isfinite(x0)) or not math.isfinite(
        problem.phi.eval(x0)
    )
    try:
        result = solve(problem, params, x0)
    except ValueError:
        assert invalid_start
    else:
        assert not invalid_start
        assert isinstance(result.status, RunStatus)


def with_f(problem, **callables):
    """A copy of `problem` with f.eval or f.grad swapped out."""
    return dataclasses.replace(problem, f=dataclasses.replace(problem.f, **callables))


@pytest.mark.parametrize(
    "f_grad, message",
    [
        # broadcast against x, this one used to give converged_residual
        (lambda x: x[:1].copy(), "an array of shape (1,) and dtype float64"),
        (lambda x: np.append(x, 0.0), "an array of shape (4,) and dtype float64"),
        (lambda x: x.reshape(3, 1), "an array of shape (3, 1) and dtype float64"),
        (lambda x: x.astype(complex), "an array of shape (3,) and dtype complex128"),
        (lambda x: list(x), "a list"),
    ],
    ids=["short", "long", "column", "complex", "list"],
)
def test_malformed_gradient_is_rejected_naming_it(f_grad, message):
    with pytest.raises(ValueError) as info:
        solve(with_f(quadratic_problem(3), grad=f_grad), SolverParams(), np.ones(3))
    assert str(info.value) == (
        f"f.grad(x0) returned {message}, expected a real array of shape (3,)"
    )


@pytest.mark.parametrize(
    "f_eval, message",
    [
        (lambda x: 0.5 * x * x, "an array of shape (3,) and dtype float64"),
        (lambda x: None, "a NoneType"),
        (lambda x: complex(0.5 * float(x @ x)), "a complex"),
        (lambda x: np.complex128(0.5 * float(x @ x)), "a complex128"),
    ],
    ids=["array", "none", "complex", "numpy_complex"],
)
def test_malformed_value_is_rejected_naming_it(f_eval, message):
    with pytest.raises(ValueError) as info:
        solve(with_f(quadratic_problem(3), eval=f_eval), SolverParams(), np.ones(3))
    assert str(info.value) == f"f.eval(x0) returned {message}, expected a real scalar"


@pytest.mark.parametrize(
    "f_eval",
    [
        lambda x: 0.5 * float(x @ x),
        lambda x: 0.5 * (x @ x),  # a numpy float64
        lambda x: np.asarray(0.5 * (x @ x)),  # a 0-d array
        lambda x: int(x @ x) // 2,
    ],
    ids=["float", "numpy_float", "zero_dim_array", "int"],
)
def test_real_scalar_values_are_accepted(f_eval):
    result = solve(with_f(quadratic_problem(3), eval=f_eval), SolverParams(), np.ones(3))
    assert result.status is RunStatus.CONVERGED_RESIDUAL
    assert np.array_equal(result.x_final, np.zeros(3))


class ReshapingProx(NonsmoothTerm):
    """phi = 0, with a prox that returns `reshape(v)`."""

    def __init__(self, dim, reshape):
        self.dim = dim
        self.reshape = reshape

    def eval(self, x):
        return 0.0

    def prox(self, gamma, v):
        return self.reshape(np.array(v, dtype=np.float64))

    @property
    def domain_witness(self):
        return np.zeros(self.dim)


def halving_problem(phi=None, later_grad=None):
    """f = |x|^2/4 on dim 3, so a unit stepsize halves x; f.grad is right at
    x0 and is `later_grad` after that, when given."""
    grads = []

    def grad(x):
        grads.append(x)
        return 0.5 * x if later_grad is None or len(grads) == 1 else later_grad(x)

    return CompositeProblem(
        f=SmoothModel(3, lambda x: 0.25 * float(x @ x), grad),
        phi=phi if phi is not None else ZeroTerm(3),
        name="halving",
    )


@pytest.mark.parametrize(
    "reshape, message",
    [
        # broadcast against x, this one used to give converged_residual with
        # an x_final of shape (1,)
        (lambda v: v[:1], "an array of shape (1,) and dtype float64"),
        # this one leaked numpy's broadcast error
        (lambda v: v[:2], "an array of shape (2,) and dtype float64"),
        (lambda v: list(v), "a list"),
    ],
    ids=["length_1", "length_2", "list"],
)
def test_malformed_prox_output_is_rejected_naming_it(reshape, message):
    problem = halving_problem(phi=ReshapingProx(3, reshape))
    with pytest.raises(ValueError) as info:
        solve(problem, SolverParams(), np.ones(3))
    assert str(info.value) == (
        f"phi.prox returned {message} at iteration 0, expected an array of shape (3,)"
    )


def test_gradient_malformed_after_x0_is_rejected_naming_it():
    # this used to leak numpy's "shapes (3,) and (1,) not aligned" from the
    # Barzilai-Borwein quotient of the second iteration
    problem = halving_problem(later_grad=lambda x: 0.5 * x[:1])
    with pytest.raises(ValueError) as info:
        solve(problem, SolverParams(), np.ones(3))
    assert str(info.value) == (
        "f.grad returned an array of shape (1,) and dtype float64 at iteration 0, "
        "expected an array of shape (3,)"
    )


# -- the scalar finiteness checks -----------------------------------------------
#
# solve tests math.isfinite on dx @ dx and on the residual, whose vector
# holds -grad, and scans the entries of the trial or the gradient only when
# that number is non-finite. Each case below gives the status, detail, trace
# length and x_final that scanning every trial and gradient gave.


class NonfiniteProx(NonsmoothTerm):
    """phi = 0, with a prox that writes `bad` into the last entry once every
    |v_i| < 0.3."""

    def __init__(self, dim, bad):
        self.dim = dim
        self.bad = bad

    def eval(self, x):
        return 0.0

    def prox(self, gamma, v):
        z = np.array(v, dtype=np.float64)
        if np.max(np.abs(z)) < 0.3:
            z[-1] = self.bad
        return z

    @property
    def domain_witness(self):
        return np.zeros(self.dim)


class TestScalarFiniteChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_prox_output_is_a_numerical_failure(self, bad):
        # f = |x|^2/4 and gamma = 1 halve x: the first step (v = 0.5) is
        # accepted, the second trial (v = 0.25) gets the bad entry
        problem = CompositeProblem(
            f=SmoothModel(3, lambda x: 0.25 * float(x @ x), lambda x: 0.5 * x),
            phi=NonfiniteProx(3, bad),
            name="nonfinite_prox",
        )
        result = solve(problem, SolverParams(), np.ones(3))
        assert result.status is RunStatus.NUMERICAL_FAILURE
        assert result.detail == "prox step produced non-finite entries"
        assert result.iterations == 1
        assert np.array_equal(result.x_final, np.full(3, 0.5))

    @staticmethod
    def far_step_problem():
        # the gradient at 0 is -1e200 per entry, so the trial from 0 at
        # stepsize gamma is gamma * 1e200: finite entries whose squared norm
        # overflows until gamma is below about 1e-46; f stays finite
        return CompositeProblem(
            f=SmoothModel(
                2,
                lambda x: -1e200 * float(np.tanh(x).sum()),
                lambda x: -1e200 / np.cosh(x) ** 2,
            ),
            phi=ZeroTerm(2),
            name="far_step",
        )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_step_norm_is_rejected_not_a_prox_failure(self):
        problem = self.far_step_problem()
        x1 = problem.phi.prox(1.0, np.zeros(2) - 1.0 * problem.f.grad(np.zeros(2)))
        assert np.all(np.isfinite(x1)) and float(x1 @ x1) == math.inf
        result = solve(problem, SolverParams(), np.zeros(2))
        assert result.status is RunStatus.BACKTRACK_CAP_EXCEEDED
        assert result.detail == (
            "no acceptable stepsize after 100 backtracks (gamma reached 7.889e-31)"
        )
        assert result.iterations == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_step_norm_backtracks_to_an_accepted_step(self):
        result = solve(
            self.far_step_problem(),
            SolverParams(max_backtracks=2000, max_outer_iters=50),
            np.zeros(2),
        )
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert result.detail == ""
        assert [r.backtracks for r in result.trace] == [664, 627, 601]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_gradient_norm_with_finite_entries_is_accepted(self):
        problem = steep_gradient_problem()
        x0 = np.full(4, 0.5)
        result = solve(problem, SolverParams(max_outer_iters=1), x0)
        g1 = problem.f.grad(result.x_final)
        assert np.all(np.isfinite(g1)) and float(g1 @ g1) == math.inf
        assert result.status is RunStatus.MAX_ITERS
        assert result.detail == ""
        assert np.array_equal(result.x_final, np.zeros(4))
        # the next trial steps 1e160 away, where f overflows
        result = solve(problem, SolverParams(), x0)
        assert result.status is RunStatus.NUMERICAL_FAILURE
        assert result.detail == "smooth term overflowed at a trial point"
        assert result.iterations == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_gradient_entry_at_accepted_point(self, bad):
        def grad(x):
            g = x.copy()
            if abs(x[0]) < 0.25:
                g[1] = bad
            return g

        problem = CompositeProblem(
            f=SmoothModel(3, lambda x: 0.5 * float(x @ x), grad),
            phi=ZeroTerm(3),
            name="nonfinite_gradient",
        )
        # gamma = 1 steps from ones to 0, which is accepted
        result = solve(problem, SolverParams(), np.ones(3))
        assert result.status is RunStatus.NUMERICAL_FAILURE
        assert result.detail == "gradient overflowed at the accepted point"
        assert result.iterations == 0
        assert np.array_equal(result.x_final, np.ones(3))
