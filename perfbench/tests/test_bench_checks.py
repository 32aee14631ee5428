"""Each output check of the benchmark rejects a wrong answer."""

import dataclasses
import json

import numpy as np
import pytest

import checks
import nmpg.cli
import workloads
from checks import CheckFailed
from spans import Layers, SpanTable, Tracer

KINDS = [
    workloads.lasso_identity,
    workloads.lasso_general,
    workloads.quartic_regression_l0,
    workloads.sparsity_projected_quadratic,
    workloads.exp_fit_l1,
]


def _solved(inst, params=nmpg.SolverParams()):
    x0 = workloads.start_for(inst, np.random.default_rng(5))
    op = workloads.solve_op(Layers(), inst, params, x0, "test")
    return op, op.run()


@pytest.mark.parametrize("make", KINDS, ids=lambda m: m.__name__)
def test_perturbed_x_final_fails_stationarity(make):
    inst = make(Layers(), np.random.default_rng(3), 12)
    op, result = _solved(inst)
    op.check(result)  # the true answer passes
    x = result.x_final.copy()
    i = int(np.argmax(np.abs(x)))
    x[i] += 1e-3 * (1.0 + abs(x[i]))
    with pytest.raises(CheckFailed, match="stationarity"):
        op.check(dataclasses.replace(result, x_final=x))


def test_perturbed_x_final_fails_lhalf_stationarity():
    base = workloads.lasso_general(Layers(), np.random.default_rng(3), 12)
    op, result = _solved(workloads.with_lhalf(base, 0.1))
    op.check(result)
    x = result.x_final.copy()
    x[np.nonzero(x)[0][0]] *= 1.001
    with pytest.raises(CheckFailed, match="stationarity"):
        op.check(dataclasses.replace(result, x_final=x))


def test_worse_x_final_fails_descent():
    inst = workloads.lasso_general(Layers(), np.random.default_rng(3), 12)
    x0 = workloads.start_for(inst, np.random.default_rng(5))
    with pytest.raises(CheckFailed, match="psi"):
        checks.require_descent(
            inst.f(10 * x0) + inst.phi(10 * x0), inst.f(x0) + inst.phi(x0), "x"
        )


def test_sparsity_check_rejects_too_many_nonzeros():
    rng = np.random.default_rng(3)
    inst = workloads.sparsity_projected_quadratic(Layers(), rng, 12)
    x = np.ones(12)
    assert inst.stationarity(x, np.zeros(12)) == np.inf


def test_quartic_slope_check():
    k = np.arange(1, 2001, dtype=np.float64)
    checks.require_quartic_slope(k**-2.0, "k^-2")
    with pytest.raises(CheckFailed, match="slope"):
        checks.require_quartic_slope(k**-1.0, "k^-1")


@pytest.fixture
def cli_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "problem": {"kind": "lasso_general", "dim": 10, "seed": 4},
                "x0": {"policy": "seeded", "seed": 1},
                "repeats": 2,
            }
        )
    )
    out = tmp_path / "out"
    code = nmpg.cli.main(["run", "--config", str(config), "--out", str(out)])
    return out, code


def _tamper(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(value))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_cli_output_passes_untouched(cli_run):
    out, code = cli_run
    outcome = workloads.check_cli_output(out, "run", code, 1e-8, "run")
    assert outcome.iterations > 0


def test_rising_reference_fails(cli_run):
    out, code = cli_run
    trace = out / "trace_001.csv"
    rows = checks.parse_trace_csv(trace.read_text())
    _tamper(trace, 3, 2, rows[2, 2] + 1.0)
    with pytest.raises(CheckFailed, match="reference increases"):
        workloads.check_cli_output(out, "run", code, 1e-8, "run")


def test_psi_above_reference_fails(cli_run):
    out, code = cli_run
    trace = out / "trace_000.csv"
    rows = checks.parse_trace_csv(trace.read_text())
    _tamper(trace, 1, 1, rows[1, 2] + 1.0)
    with pytest.raises(CheckFailed, match="psi exceeds"):
        workloads.check_cli_output(out, "run", code, 1e-8, "run")


def test_missing_trace_row_fails(cli_run):
    out, code = cli_run
    trace = out / "trace_000.csv"
    trace.write_text("\n".join(trace.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="trace rows"):
        workloads.check_cli_output(out, "run", code, 1e-8, "run")


def test_unconverged_residual_fails(cli_run):
    out, code = cli_run
    with pytest.raises(CheckFailed, match="final residual"):
        workloads.check_cli_output(out, "run", code, 1e-30, "run")


def test_spans_nest_and_self_time_is_what_children_leave():
    tracer = Tracer()
    inst = workloads.instrumented(
        tracer, workloads.lasso_general(tracer, np.random.default_rng(3), 12)
    )
    tracer.solve(inst.problem, nmpg.SolverParams(), np.ones(12))
    table = SpanTable(tracer.spans(), tracer.names)
    assert table.children_within_parents()
    assert table.calls("solver.solve") == 1 and table.calls("problems.build") == 1
    children = sum(
        table.seconds(n) for n in ("problems.f_eval", "problems.f_grad", "prox")
    )
    assert table.self_seconds("solver.solve") == pytest.approx(
        table.seconds("solver.solve") - children, abs=1e-9
    )


def test_self_time_takes_the_union_of_overlapping_children():
    # id, name, parent, start, end, thread: two children on two pool threads
    spans = np.array(
        [
            [0, 0, -1, 0.0, 10.0, 0],
            [1, 1, 0, 1.0, 5.0, 1],
            [2, 1, 0, 3.0, 8.0, 2],
        ]
    )
    table = SpanTable(spans, ["cli.command.run", "solver.solve"])
    assert table.children_within_parents()
    assert table.self_seconds("cli.command") == pytest.approx(3.0)
    assert table.child_seconds("cli.command.run", "solver.solve") == pytest.approx(9.0)
