import dataclasses
import math

import numpy as np
import pytest

from nmpg import (
    CompositeProblem,
    GlobalLipschitz,
    IterationRecord,
    L1Term,
    MaxReference,
    MeanReference,
    Optimum,
    ProblemSpec,
    SmoothModel,
    SolverParams,
    ZeroTerm,
    build_problem,
    psi_eval,
    solve,
    trace_columns,
)
from nmpg.cli import _run_summary, read_trace_csv, write_trace_csv
from nmpg.diagnostics import audit_trace


def _half_sq_norm_model(dim):
    return SmoothModel(
        dim,
        lambda x: 0.5 * float(x @ x),
        lambda x: x.copy(),
        GlobalLipschitz(1.0),
    )


class TestGlobalLipschitz:
    def test_zero_is_the_constant_of_an_affine_f(self):
        assert GlobalLipschitz(0.0).value == 0.0

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="nonnegative finite real"):
            GlobalLipschitz(value)


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


@pytest.fixture(scope="module")
def max_rule_run():
    problem = build_problem(ProblemSpec(kind="lasso_general", dim=12, seed=3))
    return solve(problem, SolverParams(reference_policy=MaxReference(5)), np.ones(12))


class TestTrace:
    def test_solve_returns_a_list_of_records(self, max_rule_run):
        trace = max_rule_run.trace
        assert type(trace) is list
        assert len(trace) == max_rule_run.iterations >= 20
        assert all(type(r) is IterationRecord for r in trace)
        assert [r.k for r in trace] == list(range(len(trace)))
        # a record is a tuple in the field order
        assert trace[0] == tuple(getattr(trace[0], f) for f in IterationRecord._fields)

    def test_replace_changes_one_field_of_a_copy(self, max_rule_run):
        record = max_rule_run.trace[4]
        changed = record._replace(residual=record.residual + 1.0)
        assert type(changed) is IterationRecord
        assert changed.residual == record.residual + 1.0 and changed != record
        assert changed[:-1] == record[:-1]
        assert max_rule_run.trace[4] is record
        assert tuple(record._asdict()) == IterationRecord._fields

    def test_consumers_agree_on_a_trace_and_its_csv_copy(self, max_rule_run, tmp_path):
        trace = max_rule_run.trace
        params = SolverParams(reference_policy=MaxReference(5))
        write_trace_csv(tmp_path / "trace.csv", trace)
        back = read_trace_csv(tmp_path / "trace.csv")
        assert audit_trace(back, params).to_dict() == audit_trace(
            trace, params
        ).to_dict()

    def test_columns_match_the_records(self, max_rule_run):
        trace = max_rule_run.trace
        cols = trace_columns(trace)
        assert tuple(cols) == IterationRecord._fields
        for name, col in cols.items():
            assert col.dtype == np.float64 and col.flags.c_contiguous
            assert np.array_equal(col, [getattr(r, name) for r in trace])
        assert tuple(trace_columns([])) == IterationRecord._fields
        assert all(col.shape == (0,) for col in trace_columns([]).values())

    @pytest.mark.parametrize("rule", [MeanReference(), MaxReference(5)])
    def test_records_read_as_the_summary_and_columns(self, rule):
        # per-record reads of `backtracks`, `reference` and `residual` give
        # what the columns and the run summary give
        problem = build_problem(ProblemSpec(kind="lasso_general", dim=12, seed=3))
        params = SolverParams(reference_policy=rule)
        result = solve(problem, params, np.ones(12))
        trace, cols = result.trace, trace_columns(result.trace)
        assert sum(r.backtracks for r in trace) == int(cols["backtracks"].sum())
        assert [r.reference for r in trace] == cols["reference"].tolist()
        summary = _run_summary(problem, params, result, "trace.csv")
        assert trace[-1].residual == summary["final_residual"]
        assert summary["total_backtracks"] == sum(r.backtracks for r in trace)

    def test_csv_round_trip(self, max_rule_run, tmp_path):
        trace = max_rule_run.trace
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes().count(b"\n") == len(trace) + 1
        back = read_trace_csv(path)
        assert type(back) is list and back == trace
        assert all(type(r.k) is int and type(r.backtracks) is int for r in back)
        write_trace_csv(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
