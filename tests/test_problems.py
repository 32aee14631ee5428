import math
import sys
import threading

import numpy as np
import pytest

from nmpg import (
    GlobalLipschitz,
    LocalLipschitz,
    ProblemSpec,
    ReferenceSolveFailed,
    RunStatus,
    SolverParams,
    build_problem,
    cached_reference_optimum,
    make_exp_fit_l1,
    make_lasso_general,
    make_lasso_identity,
    make_quartic_regression_l0,
    make_quartic_scalar,
    make_sparsity_projected_quadratic,
    psi_eval,
    reference_optimum,
    solve,
)
from nmpg.checks import max_gradient_error
from nmpg.problems import _diag_dominant_matrix, _last_point_memo

ALL_KINDS = [
    "lasso_identity",
    "lasso_general",
    "quartic_scalar",
    "quartic_regression_l0",
    "sparsity_projected_quadratic",
    "exp_fit_l1",
]


class TestLassoIdentity:
    def test_frozen_example(self):
        problem = make_lasso_identity(np.array([2.0, 0.5]), 1.0)
        assert np.allclose(problem.optimum.x_star, [1.0, 0.0], atol=1e-15)
        assert problem.optimum.psi_star == pytest.approx(1.625, abs=1e-12)
        assert problem.kl_hypothesis.kappa == 0.5

    def test_zero_data(self):
        problem = make_lasso_identity(np.zeros(3), 1.0)
        assert np.array_equal(problem.optimum.x_star, np.zeros(3))
        assert problem.optimum.psi_star == 0.0

    def test_full_shrinkage(self):
        b = np.array([0.5, -0.9])
        problem = make_lasso_identity(b, float(np.max(np.abs(b))))
        assert np.array_equal(problem.optimum.x_star, np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_rejected(self, bad):
        with pytest.raises(ValueError, match="^b has non-finite entries$"):
            make_lasso_identity(np.array([1.0, bad]), 1.0)


class TestLassoGeneral:
    def test_identity_matrix_reduces_to_identity_variant(self):
        b = np.array([2.0, 0.5])
        general = make_lasso_general(np.eye(2), b, 1.0)
        identity = make_lasso_identity(b, 1.0)
        x = np.array([0.3, -0.8])
        assert float(psi_eval(general, x)) == pytest.approx(
            float(psi_eval(identity, x)), abs=1e-14
        )
        assert np.allclose(general.f.grad(x), identity.f.grad(x), atol=1e-14)

    def test_cached_reference_solve(self):
        a = np.diag([1.0, 2.0])
        problem = make_lasso_general(a, np.array([1.0, 1.0]), 0.1, name="diag12")
        psi_star, x_star = cached_reference_optimum(problem)
        again = cached_reference_optimum(problem)
        assert (psi_star, x_star.tobytes()) == (again[0], again[1].tobytes())
        # hand solve: x_i = (b_i - lam/a_i)/a_i while positive
        expect = np.array([(1.0 - 0.1) / 1.0, (1.0 - 0.1 / 2.0) / 2.0])
        assert np.linalg.norm(x_star - expect) <= 1e-8

    # each monotone solve takes under 0.1 s; dim 50 seed 0 is acceptance
    # criterion 4's instance
    @pytest.mark.parametrize("dim,seed", [(10, 0), (20, 2), (50, 0), (50, 2)])
    def test_reference_matches_monotone_oracle(self, dim, seed):
        # oracle: the monotone rule (p_min = 1) run to the same tolerance
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=dim, seed=seed))
        params = SolverParams(p_min=1.0, epsilon=1e-12, max_outer_iters=1_000_000)
        oracle = solve(problem, params, problem.phi.domain_witness)
        assert oracle.status is RunStatus.CONVERGED_RESIDUAL
        psi_star, _ = reference_optimum(problem)
        expect = psi_eval(problem, oracle.x_final)
        assert psi_star == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_unconverged_reference_raises_naming_status(self):
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=10, seed=0))
        with pytest.raises(ReferenceSolveFailed, match="reference solve max_iters"):
            reference_optimum(problem, max_outer_iters=1)

    def test_zero_data_optimum_is_origin(self):
        problem = make_lasso_general(np.diag([1.0, 2.0]), np.zeros(2), 0.5)
        psi_star, x_star = cached_reference_optimum(problem)
        assert psi_star == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(x_star) <= 1e-8

    def test_zero_matrix_solves_to_the_origin(self):
        problem = make_lasso_general(np.zeros((2, 2)), np.array([1.0, 2.0]), 0.5)
        result = solve(problem, SolverParams(), np.array([1.0, -2.0]))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert np.array_equal(result.x_final, np.zeros(2))


class TestQuarticScalar:
    def test_values_and_gradient(self):
        problem = make_quartic_scalar()
        assert problem.f.eval(np.array([2.0])) == 4.0
        assert problem.f.grad(np.array([2.0]))[0] == 8.0
        assert isinstance(problem.f.lipschitz_class, LocalLipschitz)

    def test_gradient_matches_finite_differences(self):
        problem = make_quartic_scalar()
        assert max_gradient_error(problem.f, [np.array([1.0])]) <= 1e-6


class TestQuarticRegressionL0:
    def test_origin_is_global_min_for_zero_data(self):
        a = np.eye(3)
        problem = make_quartic_regression_l0(a, np.zeros(3), 0.1)
        assert float(psi_eval(problem, np.zeros(3))) == 0.0
        assert np.array_equal(problem.f.grad(np.zeros(3)), np.zeros(3))

    def test_seeded_instance_converges(self):
        problem = build_problem(ProblemSpec(kind="quartic_regression_l0", dim=8, seed=0))
        result = solve(problem, SolverParams(), np.zeros(8))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert result.trace[-1].residual <= SolverParams().epsilon


class TestSparsityProjectedQuadratic:
    def test_example_fixed_point(self):
        problem = make_sparsity_projected_quadratic(np.eye(2), np.array([3.0, -1.0]), 1)
        result = solve(problem, SolverParams(), np.zeros(2))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert np.linalg.norm(result.x_final - np.array([3.0, 0.0])) <= 1e-10

    def test_full_sparsity_is_least_squares(self):
        rng = np.random.default_rng(0)
        a = np.diag([1.0, 2.0]) + 0.01 * rng.standard_normal((2, 2))
        b = np.array([1.0, -1.0])
        problem = make_sparsity_projected_quadratic(a, b, 2)
        result = solve(problem, SolverParams(epsilon=1e-12), np.zeros(2))
        assert np.linalg.norm(result.x_final - np.linalg.solve(a, b)) <= 1e-8

    def test_zero_data(self):
        problem = make_sparsity_projected_quadratic(np.eye(2), np.zeros(2), 1)
        assert float(psi_eval(problem, np.zeros(2))) == 0.0


class TestExpFitL1:
    def test_perfect_fit_at_origin(self):
        a = np.array([[0.5, -0.2], [0.1, 0.3]])
        problem = make_exp_fit_l1(a, np.ones(2), 0.1)
        assert float(psi_eval(problem, np.zeros(2))) == 0.0

    def test_seeded_instance_converges_without_cap(self):
        problem = build_problem(ProblemSpec(kind="exp_fit_l1", dim=6, seed=0))
        result = solve(problem, SolverParams(), np.zeros(6))
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert all(r.backtracks < SolverParams().max_backtracks for r in result.trace)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_check_twenty_points(kind):
    problem = build_problem(ProblemSpec(kind=kind, dim=8, seed=0))
    rng = np.random.default_rng(17)
    points = [rng.uniform(-0.5, 0.5, problem.dim) for _ in range(20)]
    assert max_gradient_error(problem.f, points) <= 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_build_is_deterministic(kind):
    p1 = build_problem(ProblemSpec(kind=kind, dim=6, seed=9))
    p2 = build_problem(ProblemSpec(kind=kind, dim=6, seed=9))
    x = np.random.default_rng(1).uniform(-0.5, 0.5, p1.dim)
    assert p1.name == p2.name
    assert p1.f.eval(x) == p2.f.eval(x)
    assert np.array_equal(p1.f.grad(x), p2.f.grad(x))


def test_lasso_identity_limit_from_random_starts():
    problem = build_problem(ProblemSpec(kind="lasso_identity", dim=10, seed=2))
    x_star = problem.optimum.x_star
    for seed in range(10):
        x0 = np.random.default_rng(seed).standard_normal(10)
        result = solve(problem, SolverParams(), x0)
        assert result.status is RunStatus.CONVERGED_RESIDUAL
        assert np.linalg.norm(result.x_final - x_star) <= 1e-6


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ProblemSpec(kind="nope")
    with pytest.raises(ValueError):
        ProblemSpec(kind="lasso_identity", dim=0)
    with pytest.raises(ValueError):
        ProblemSpec(kind="lasso_identity", lam=-1.0)


def test_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
        ProblemSpec(kind="lasso_identity", seed=-1)


def test_spec_rejects_sparsity_level_above_dim():
    with pytest.raises(ValueError, match=r"^s must be at most dim \(5\)$"):
        ProblemSpec(kind="sparsity_projected_quadratic", dim=5, s=6)
    problem = build_problem(ProblemSpec(kind="sparsity_projected_quadratic", dim=5, s=5))
    assert problem.phi.s == 5


@pytest.mark.parametrize("lam", [0.0, float("nan"), float("inf")])
def test_spec_rejects_nonfinite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be a positive finite real"):
        ProblemSpec(kind="lasso_general", lam=lam)


MATRIX_KINDS = [
    "lasso_general",
    "quartic_regression_l0",
    "sparsity_projected_quadratic",
    "exp_fit_l1",
]

MATRIX_FACTORIES = {
    "lasso_general": lambda a, b: make_lasso_general(a, b, 0.1),
    "quartic_regression_l0": lambda a, b: make_quartic_regression_l0(a, b, 0.1),
    "sparsity_projected_quadratic": lambda a, b: make_sparsity_projected_quadratic(
        a, b, 1
    ),
    "exp_fit_l1": lambda a, b: make_exp_fit_l1(a, b, 0.1),
}


@pytest.mark.parametrize("kind", MATRIX_KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["A", "b"])
def test_non_finite_data_rejected_naming_it(kind, bad, where):
    a, b = np.eye(3), np.ones(3)
    if where == "A":
        a[1, 2] = bad
    else:
        b[1] = bad
    with pytest.raises(ValueError, match=f"^{where} has non-finite entries$"):
        MATRIX_FACTORIES[kind](a, b)


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_matrix_without_columns_rejected_naming_dim(kind):
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        MATRIX_FACTORIES[kind](np.zeros((2, 0)), np.ones(2))


QUADRATIC_KINDS = ["lasso_general", "sparsity_projected_quadratic"]


def lipschitz_value(problem):
    assert isinstance(problem.f.lipschitz_class, GlobalLipschitz)
    return problem.f.lipschitz_class.value


def spectral_sq(a):
    return float(np.linalg.norm(a, 2) ** 2)


@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
class TestQuadraticLipschitzBound:
    """The declared constant bounds ||A||_2^2, the smallest valid one."""

    @pytest.mark.parametrize(
        "shape,seed", [((30, 30), 0), ((40, 15), 1), ((15, 40), 2)]
    )
    def test_bounds_spectral_norm_on_seeded_matrices(self, kind, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        problem = MATRIX_FACTORIES[kind](a, np.zeros(shape[0]))
        assert lipschitz_value(problem) >= spectral_sq(a) * (1 - 1e-12)

    @pytest.mark.parametrize("dim,seed", [(10, 0), (50, 2), (200, 1)])
    def test_bounds_spectral_norm_on_built_problems(self, kind, dim, seed):
        # build_problem draws A first, from the spec's seed, for both kinds
        a = _diag_dominant_matrix(dim, np.random.default_rng(seed))
        problem = build_problem(ProblemSpec(kind=kind, dim=dim, seed=seed))
        assert lipschitz_value(problem) >= spectral_sq(a) * (1 - 1e-12)

    def test_tight_on_all_ones(self, kind):
        a = np.ones((7, 5))
        problem = MATRIX_FACTORIES[kind](a, np.zeros(7))
        assert lipschitz_value(problem) == pytest.approx(spectral_sq(a), rel=1e-12)

    def test_exact_on_diagonal(self, kind):
        problem = MATRIX_FACTORIES[kind](np.diag([1.0, 3.0]), np.zeros(2))
        assert lipschitz_value(problem) == 9.0

    @pytest.mark.parametrize("rows", [2, 0])
    def test_zero_matrix_is_valid(self, kind, rows):
        problem = MATRIX_FACTORIES[kind](np.zeros((rows, 2)), np.ones(rows))
        assert lipschitz_value(problem) == 0.0


def fresh(kind):
    return build_problem(ProblemSpec(kind=kind, dim=6, seed=4))


def fresh_grad_bytes(kind, x):
    """f.grad(x) on a problem that has evaluated nothing before."""
    return fresh(kind).f.grad(np.array(x)).tobytes()


@pytest.mark.parametrize("kind", MATRIX_KINDS)
class TestEvaluationMemo:
    """f.eval and f.grad share a memo; no sequence of calls may read it stale."""

    def test_grad_after_eval_at_the_same_point(self, kind):
        problem = fresh(kind)
        x = np.random.default_rng(0).uniform(-0.5, 0.5, 6)
        assert problem.f.eval(x) == fresh(kind).f.eval(x)
        assert problem.f.grad(x).tobytes() == fresh_grad_bytes(kind, x)

    def test_in_place_change_between_eval_and_grad(self, kind):
        problem = fresh(kind)
        x = np.random.default_rng(1).uniform(-0.5, 0.5, 6)
        problem.f.eval(x)
        x[2] += 0.25
        assert problem.f.grad(x).tobytes() == fresh_grad_bytes(kind, x)

    def test_grad_at_an_earlier_point(self, kind):
        problem = fresh(kind)
        rng = np.random.default_rng(2)
        x1, x2 = rng.uniform(-0.5, 0.5, 6), rng.uniform(-0.5, 0.5, 6)
        problem.f.eval(x1)
        problem.f.eval(x2)
        assert problem.f.grad(x1).tobytes() == fresh_grad_bytes(kind, x1)

    def test_negative_zero_entries(self, kind):
        problem = fresh(kind)
        x = np.array([0.0, 0.3, 0.0, -0.2, 0.0, 0.1])
        x_neg = x.copy()
        x_neg[[0, 2, 4]] = -0.0
        problem.f.eval(x)
        assert problem.f.grad(x_neg).tobytes() == fresh_grad_bytes(kind, x_neg)
        problem.f.eval(x_neg)
        assert problem.f.grad(x).tobytes() == fresh_grad_bytes(kind, x)

    def test_threads_sharing_a_problem_read_their_own_points(self, kind):
        # Each thread alternates eval and grad at its own point; a memo that
        # handed one thread another thread's intermediate would change a grad.
        problem = fresh(kind)
        points = [np.full(6, 0.05 * (i + 1)) for i in range(6)]
        expected = [fresh_grad_bytes(kind, x) for x in points]
        wrong = []
        start = threading.Barrier(len(points))

        def work(i):
            start.wait(timeout=30)
            for _ in range(1000):
                problem.f.eval(points[i])
                if problem.f.grad(points[i]).tobytes() != expected[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def test_memo_never_pairs_a_key_with_another_points_value():
    # Thread A stalls inside compute while the main thread stores its own
    # point; whatever A stores when it resumes, the main thread's point must
    # still map to its own value.
    stalled, release = threading.Event(), threading.Event()

    def compute(x):
        if x[0] == 1.0:
            stalled.set()
            release.wait(timeout=30)
        return 10.0 * x

    at = _last_point_memo(compute)
    a = threading.Thread(target=at, args=(np.array([1.0]),))
    a.start()
    assert stalled.wait(timeout=30)
    assert at(np.array([2.0]))[0] == 20.0
    release.set()
    a.join(timeout=30)
    assert not a.is_alive()
    assert at(np.array([2.0]))[0] == 20.0
    assert at(np.array([1.0]))[0] == 10.0
