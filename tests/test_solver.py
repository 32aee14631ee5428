import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmpg import (
    BacktrackLimitExceeded,
    BoxIndicator,
    CompositeProblem,
    ConstantGamma,
    GlobalLipschitz,
    L0Term,
    L1Term,
    LHalfTerm,
    MaxReference,
    PreviousAccepted,
    RunStatus,
    SmoothModel,
    SolverParams,
    ZeroTerm,
    accept_step,
    backtrack,
    build_problem,
    compute_m,
    make_exp_fit_l1,
    make_lasso_identity,
    make_quartic_scalar,
    max_rule_reference,
    residual,
    solve,
    subproblem_step,
    update_reference,
)
from nmpg.problems import PROBLEM_KINDS, ProblemSpec
from nmpg.solver import SolverState


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


class TestAcceptStep:
    def test_accept_case(self):
        # threshold 5 - 0.5/2 * 0.1 = 4.975
        assert accept_step(4.9, 5.0, 0.5, 1.0, 0.1)

    def test_reject_at_reference_with_motion(self):
        assert not accept_step(5.0, 5.0, 0.5, 1.0, 0.1)

    def test_zero_step_boundary(self):
        assert accept_step(5.0, 5.0, 0.5, 1.0, 0.0)
        assert not accept_step(5.0 + 1e-12, 5.0, 0.5, 1.0, 0.0)


class TestUpdateReference:
    def test_convex_combination(self):
        assert update_reference(10.0, 0.5, 6.0) == 8.0

    def test_p_one_is_monotone(self):
        assert update_reference(10.0, 1.0, 6.0) == 6.0

    def test_fixed_point(self):
        assert update_reference(7.0, 0.3, 7.0) == 7.0

    @given(
        st.floats(-100, 100), st.floats(0.01, 1.0), st.floats(-100, 100)
    )
    @settings(deadline=None)
    def test_stays_between_inputs(self, r, p, psi):
        out = update_reference(r, p, psi)
        assert min(r, psi) - 1e-9 <= out <= max(r, psi) + 1e-9


class TestMaxRule:
    def test_max_of_window(self):
        assert max_rule_reference([3.0, 5.0, 4.0]) == 5.0

    def test_singleton(self):
        assert max_rule_reference([2.5]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_rule_reference([])


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


class TestSubproblemStep:
    def test_zero_phi_is_gradient_step(self):
        problem = quadratic_problem(3)
        x = np.array([1.0, -2.0, 0.5])
        g = problem.f.grad(x)
        z = subproblem_step(problem, x, g, 0.25)
        assert np.allclose(z, x - 0.25 * g, atol=1e-15)

    def test_composes_closed_forms(self):
        b = np.array([2.0, 0.5])
        problem = make_lasso_identity(b, 1.0)
        # from x = b the gradient vanishes, so the step is soft(b, lam)
        z = subproblem_step(problem, b, problem.f.grad(b), 1.0)
        assert np.allclose(z, [1.0, 0.0], atol=1e-15)

    def test_fixed_point_at_solution(self):
        b = np.array([2.0, 0.5])
        problem = make_lasso_identity(b, 1.0)
        x_star = problem.optimum.x_star
        z = subproblem_step(problem, x_star, problem.f.grad(x_star), 1.0)
        assert np.allclose(z, x_star, atol=1e-15)


class TestResidual:
    def test_constant_gradient(self):
        x, x_next = np.zeros(2), np.array([3.0, 4.0])
        g = np.array([1.0, 1.0])
        assert residual(x_next, x, 1.0, g, g) == pytest.approx(5.0)

    def test_zero_at_rest(self):
        x = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        assert residual(x, x, 0.7, g, g) == 0.0


def _state(problem, x, params):
    x = np.asarray(x, dtype=float)
    psi = float(problem.f.eval(x)) + problem.phi.eval(x)
    return SolverState(x=x, psi_x=psi, reference=psi, grad_x=problem.f.grad(x))


class TestBacktrack:
    def test_single_acceptance_hand_computed(self):
        problem = quadratic_problem(1)
        params = SolverParams(alpha=0.5, gamma_init_policy=ConstantGamma(1.0))
        out = backtrack(problem, _state(problem, [1.0], params), params)
        # gamma = 1 maps x = 1 to 0: psi_next 0 <= 0.5 - 0.25 * 1
        assert out.backtracks == 0
        assert out.gamma_used == 1.0
        assert out.x_next[0] == 0.0
        assert out.psi_next == 0.0

    def test_quartic_far_from_origin_backtracks(self):
        problem = make_quartic_scalar()
        params = SolverParams()
        out = backtrack(problem, _state(problem, [10.0], params), params)
        assert out.backtracks >= 1
        assert out.psi_next < 2500.0  # accepted step actually decreased psi

    def test_stationary_point_accepts_immediately(self):
        problem = make_lasso_identity(np.array([2.0, 0.5]), 1.0)
        params = SolverParams()
        out = backtrack(problem, _state(problem, problem.optimum.x_star, params), params)
        assert out.backtracks == 0
        assert out.step_norm == 0.0
        assert out.residual == 0.0

    def test_cap_zero_raises(self):
        problem = make_quartic_scalar()
        params = SolverParams(max_backtracks=0)
        with pytest.raises(BacktrackLimitExceeded):
            backtrack(problem, _state(problem, [10.0], params), params)


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

    def test_record_iterates_length(self):
        problem = make_quartic_scalar()
        params = SolverParams(epsilon=0.0, max_outer_iters=50)
        result = solve(problem, params, np.array([1.0]), record_iterates=True)
        assert len(result.iterates) == result.iterations + 1
        assert np.array_equal(result.iterates[0], [1.0])

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
def test_steep_gradient_overflows_the_bb_denominator():
    problem = steep_gradient_problem()
    x0 = np.full(4, 0.5)
    result = solve(problem, SolverParams(max_outer_iters=1), x0, record_iterates=True)
    x1 = result.iterates[1]
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
