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
    Optimum,
    ProblemSpec,
    SmoothModel,
    SolverParams,
    Trace,
    ZeroTerm,
    build_problem,
    psi_eval,
    solve,
)
from nmpg.cli import read_trace_csv, write_trace_csv
from nmpg.core import TRACE_FIELDS
from nmpg.diagnostics import audit_trace, xi_series


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


@pytest.fixture(scope="module")
def max_rule_run():
    # the max rule makes every audit check run, including step_norm_decay
    problem = build_problem(ProblemSpec(kind="lasso_general", dim=12, seed=3))
    params = SolverParams(reference_policy=MaxReference(5))
    return solve(problem, params, np.ones(12)), params


class TestTrace:
    def test_solve_returns_a_trace(self, max_rule_run):
        result, _ = max_rule_run
        assert isinstance(result.trace, Trace)
        assert len(result.trace) == result.iterations >= 20

    def test_indexing_and_iteration_yield_records(self, max_rule_run):
        trace = max_rule_run[0].trace
        records = list(trace)
        assert all(type(r) is IterationRecord for r in records)
        assert [r.k for r in records] == list(range(len(trace)))
        assert trace[0] == records[0]
        assert trace[-1] == records[-1]
        assert trace[-3] == records[len(records) - 3]
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_slices_are_traces(self, max_rule_run):
        trace = max_rule_run[0].trace
        records = list(trace)
        for s in (slice(2, 7), slice(-4, None), slice(None, None, 3), slice(5, 5)):
            part = trace[s]
            assert isinstance(part, Trace)
            assert part == records[s]
            assert len(part) == len(records[s])

    def test_equality_in_both_directions(self, max_rule_run):
        trace = max_rule_run[0].trace
        records = list(trace)
        assert trace == records and records == trace
        assert trace == Trace(list(trace.rows)) and Trace.of(records) == trace
        assert not trace != records and not records != trace
        changed = list(records)
        changed[4] = dataclasses.replace(changed[4], xi=changed[4].xi + 1.0)
        assert trace != changed and changed != trace
        assert trace != Trace.of(changed)
        assert trace != records[:-1] and records[:-1] != trace
        assert trace != [] and Trace() == [] and [] == Trace()
        assert trace != tuple(records)
        assert trace != [r.k for r in records]

    def test_unhashable_like_a_list(self):
        with pytest.raises(TypeError):
            hash(Trace())

    def test_columns_match_the_records(self, max_rule_run):
        trace = max_rule_run[0].trace
        cols = trace.columns()
        assert tuple(cols) == TRACE_FIELDS
        for name, col in cols.items():
            assert col.dtype == np.float64 and col.flags.c_contiguous
            assert np.array_equal(col, [getattr(r, name) for r in trace])
        assert all(col.shape == (0,) for col in Trace().columns().values())

    def test_consumers_agree_on_a_trace_and_its_list(self, max_rule_run, tmp_path):
        result, params = max_rule_run
        trace, records = result.trace, list(result.trace)
        assert audit_trace(trace, params).to_dict() == audit_trace(
            records, params
        ).to_dict()
        assert xi_series(trace, verify_tail=False) == xi_series(
            records, verify_tail=False
        )
        write_trace_csv(tmp_path / "trace.csv", trace)
        write_trace_csv(tmp_path / "list.csv", records)
        text = (tmp_path / "trace.csv").read_bytes()
        assert text == (tmp_path / "list.csv").read_bytes()
        assert text.count(b"\n") == len(trace) + 1

    def test_csv_round_trip(self, max_rule_run, tmp_path):
        trace = max_rule_run[0].trace
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert isinstance(back, Trace)
        assert back == trace and back.rows == trace.rows
        assert all(type(row[0]) is int and type(row[4]) is int for row in back.rows)
        write_trace_csv(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
