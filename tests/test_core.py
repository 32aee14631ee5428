import dataclasses
import math

import numpy as np
import pytest

from nmpg import (
    CompositeProblem,
    GlobalLipschitz,
    L1Term,
    Optimum,
    SmoothModel,
    SolverParams,
    ZeroTerm,
    psi_eval,
)


def _half_sq_norm_model(dim):
    return SmoothModel(
        dim,
        lambda x: 0.5 * float(x @ x),
        lambda x: x.copy(),
        GlobalLipschitz(1.0),
    )


class TestPsiEval:
    def test_l1_plus_quadratic(self):
        problem = CompositeProblem(
            f=_half_sq_norm_model(2), phi=L1Term(2, 1.0), name="demo"
        )
        assert float(psi_eval(problem, [1.0, -2.0])) == pytest.approx(5.5, abs=1e-14)

    def test_infeasible_point_is_pos_inf(self):
        from nmpg import BoxIndicator

        problem = CompositeProblem(
            f=_half_sq_norm_model(2),
            phi=BoxIndicator([-1.0, -1.0], [1.0, 1.0]),
            name="box",
        )
        assert psi_eval(problem, [2.0, 0.0]) == math.inf

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_l1_term_is_pos_inf(self):
        problem = CompositeProblem(
            f=_half_sq_norm_model(2), phi=L1Term(2, 1.0), name="demo"
        )
        assert psi_eval(problem, [1e308, 1e308]) == math.inf

    def test_nonfinite_smooth_value_at_feasible_point_raises(self):
        problem = CompositeProblem(
            f=SmoothModel(1, lambda x: math.inf, lambda x: x.copy()),
            phi=ZeroTerm(1),
            name="overflow",
        )
        with pytest.raises(ValueError, match="smooth term"):
            psi_eval(problem, [0.0])

    def test_zero_case(self):
        problem = CompositeProblem(
            f=SmoothModel(1, lambda x: 0.25 * float(x[0] ** 4), lambda x: x**3),
            phi=ZeroTerm(1),
            name="quartic",
        )
        assert float(psi_eval(problem, [0.0])) == 0.0

    def test_dimension_mismatch(self):
        problem = CompositeProblem(
            f=_half_sq_norm_model(2), phi=L1Term(2, 1.0), name="demo"
        )
        with pytest.raises(ValueError):
            psi_eval(problem, [1.0, 2.0, 3.0])


class TestCompositeProblem:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            CompositeProblem(f=_half_sq_norm_model(2), phi=L1Term(3, 1.0), name="bad")

    def test_inconsistent_optimum_rejected(self):
        with pytest.raises(ValueError, match="optimum"):
            CompositeProblem(
                f=_half_sq_norm_model(1),
                phi=ZeroTerm(1),
                name="bad",
                optimum=Optimum(psi_star=1.0, x_star=np.zeros(1)),
            )

    def test_consistent_optimum_accepted(self):
        problem = CompositeProblem(
            f=_half_sq_norm_model(1),
            phi=ZeroTerm(1),
            name="ok",
            optimum=Optimum(psi_star=0.0, x_star=np.zeros(1)),
        )
        assert problem.optimum.psi_star == 0.0


class TestSolverParams:
    def test_defaults_valid(self):
        params = SolverParams()
        assert params.gamma_min <= params.gamma_max
        assert 0 < params.p_min <= 1

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(gamma_min=2.0, gamma_max=1.0), "gamma_min"),
            (dict(gamma_min=0.0), "gamma_min"),
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=1.0), "alpha"),
            (dict(beta=0.0), "beta"),
            (dict(beta=1.0), "beta"),
            (dict(p_min=0.0), "p_min"),
            (dict(p_min=1.5), "p_min"),
            (dict(epsilon=-1.0), "epsilon"),
            (dict(max_outer_iters=0), "max_outer_iters"),
            (dict(max_backtracks=-1), "max_backtracks"),
        ],
    )
    def test_invalid_rejected_naming_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SolverParams(**kwargs)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolverParams)] == [
            "gamma_min",
            "gamma_max",
            "alpha",
            "beta",
            "p_min",
            "epsilon",
            "max_outer_iters",
            "max_backtracks",
            "gamma_init_policy",
            "reference_policy",
        ]

    def test_zero_backtracks_allowed(self):
        assert SolverParams(max_backtracks=0).max_backtracks == 0

    def test_zero_epsilon_allowed(self):
        assert SolverParams(epsilon=0.0).epsilon == 0.0
