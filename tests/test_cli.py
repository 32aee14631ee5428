import json

import numpy as np
import pytest

import nmpg.problems
import nmpg.prox
from nmpg import (
    CompositeProblem,
    ConstantGamma,
    NonsmoothTerm,
    ProblemSpec,
    RunStatus,
    SmoothModel,
    SolverParams,
    build_problem,
    solve,
)
from nmpg.cli import (
    ConfigError,
    SeededStart,
    _evaluation_counts,
    cmd_check,
    cmd_compare,
    cmd_run,
    config_to_dict,
    load_config,
    main,
    make_x0,
    parse_config,
    read_trace_csv,
    write_trace_csv,
)
from nmpg.problems import PROBLEM_KINDS, ReferenceSolveFailed


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


BASE_CONFIG = {
    "problem": {"kind": "lasso_identity", "dim": 6, "seed": 1, "lambda": 0.5},
    "params": {"epsilon": 1e-8},
    "x0": "zeros",
    "record_iterates": False,
    "out_dir": "runs",
    "repeats": 1,
}


class TestConfigParsing:
    def test_round_trip(self):
        config = parse_config(BASE_CONFIG)
        assert parse_config(config_to_dict(config)) == config

    def test_unknown_top_level_key(self):
        doc = dict(BASE_CONFIG, tolerance=1e-8)
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config(doc)

    def test_unknown_param_key_named(self):
        doc = dict(BASE_CONFIG, params={"gamma_mim": 1e-8})
        with pytest.raises(ConfigError, match="gamma_mim"):
            parse_config(doc)

    @pytest.mark.parametrize("key", ["alpha_min", "alpha_max", "beta_min", "beta_max"])
    def test_removed_midpoint_keys_are_unknown(self, key):
        doc = dict(BASE_CONFIG, params={key: 0.1})
        with pytest.raises(ConfigError, match=f"unknown key 'params.{key}'"):
            parse_config(doc)

    def test_every_scalar_param_round_trips(self):
        from nmpg import SolverParams

        params = {
            "gamma_min": 1e-9,
            "gamma_max": 2.0,
            "alpha": 0.3,
            "beta": 0.7,
            "p_min": 0.5,
            "epsilon": 1e-7,
            "max_outer_iters": 77,
            "max_backtracks": 9,
        }
        config = parse_config(dict(BASE_CONFIG, params=params))
        assert config.params == SolverParams(**params)
        assert isinstance(config.params.max_backtracks, int)
        assert parse_config(config_to_dict(config)) == config

    def test_invalid_bounds_name_field(self):
        doc = dict(BASE_CONFIG, params={"gamma_min": 2.0, "gamma_max": 1.0})
        with pytest.raises(ConfigError, match="gamma_min"):
            parse_config(doc)

    def test_policies_parse(self):
        doc = dict(
            BASE_CONFIG,
            params={
                "gamma_init_policy": {"policy": "constant", "value": 0.5},
                "reference_policy": {"rule": "max", "window": 7},
            },
            x0={"policy": "seeded", "seed": 3},
        )
        config = parse_config(doc)
        assert parse_config(config_to_dict(config)) == config

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    @pytest.mark.parametrize(
        "doc, field",
        [
            (dict(BASE_CONFIG, problem={"kind": "lasso_identity", "dim": "big"}),
             "problem.dim"),
            (dict(BASE_CONFIG, params={"epsilon": {"oops": 1}}), "params.epsilon"),
            (dict(BASE_CONFIG, repeats="three"), "repeats"),
            (dict(BASE_CONFIG, x0={"policy": "seeded", "seed": None}), "x0.seed"),
            (dict(BASE_CONFIG, params={"reference_policy": {"rule": "max",
                                                            "window": "wide"}}),
             "params.reference_policy.window"),
        ],
    )
    def test_wrong_value_types_name_the_field(self, doc, field):
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            parse_config(doc)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        from nmpg import ProblemSpec, SolverParams, build_problem, solve

        problem = build_problem(ProblemSpec(kind="lasso_general", dim=6, seed=0))
        result = solve(problem, SolverParams(), np.zeros(6))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.trace)
        assert read_trace_csv(path) == result.trace


class TestCmdRun:
    def test_successful_run(self, tmp_path):
        config = dict(BASE_CONFIG, out_dir=str(tmp_path / "out"))
        code = cmd_run(write_config(tmp_path, config))
        assert code == 0
        trace = read_trace_csv(tmp_path / "out" / "trace_000.csv")
        assert trace[-1].residual <= 1e-8
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["runs"][0]["status"] == "converged_residual"
        assert summary["runs"][0]["trace_file"] == "trace_000.csv"
        assert summary["runs"][0]["audit"]["pass"]
        assert summary["runs"][0]["detail"] == ""

    def test_summary_rate_fit_uses_numerical_optimum(self, tmp_path):
        # no closed-form optimum on this kind; the harness solves for one
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
            params={"epsilon": 1e-6},
        )
        assert cmd_run(write_config(tmp_path, config), out_dir=str(tmp_path / "o")) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        rates = summary["runs"][0]["rates"]
        assert rates and rates[0]["mode"] == "q_linear" and rates[0]["pass"]
        assert summary["runs"][0]["rates_skipped"] is None

    def test_failed_reference_solve_skips_rate_fit(self, tmp_path, monkeypatch):
        calls = []

        def failing_reference(problem, *args, **kwargs):
            calls.append(problem.name)
            raise ReferenceSolveFailed("reference solve max_iters: forced")

        monkeypatch.setattr(nmpg.problems, "reference_optimum", failing_reference)
        monkeypatch.setattr(nmpg.problems, "_REFERENCE_CACHE", {})
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
            params={"epsilon": 1e-6},
            x0={"policy": "seeded", "seed": 3},
            repeats=8,
        )
        path = write_config(tmp_path, config)
        assert cmd_run(path, out_dir=str(tmp_path / "o")) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert len(summary["runs"]) == 8
        for run in summary["runs"]:
            assert run["status"] == "converged_residual"
            assert run["rates"] == []
            assert run["rates_skipped"] == "reference solve max_iters: forced"

        assert cmd_compare(path, out_dir=str(tmp_path / "c")) == 0
        rows = json.loads((tmp_path / "c" / "compare_summary.json").read_text())["rows"]
        assert all(r["rates_skipped"] == "reference solve max_iters: forced" for r in rows)
        assert calls == [summary["problem"]]

    def test_summary_rate_fit_sublinear_class(self, tmp_path):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "quartic_scalar", "dim": 1},
            params={"epsilon": 0.0, "max_outer_iters": 2000},
            x0={"policy": "seeded", "seed": 0},
        )
        assert cmd_run(write_config(tmp_path, config), out_dir=str(tmp_path / "q")) == 0
        summary = json.loads((tmp_path / "q" / "summary.json").read_text())
        rates = summary["runs"][0]["rates"]
        assert rates and rates[0]["mode"] == "sublinear_power"
        assert rates[0]["predicted"] == -2.0 and rates[0]["pass"]

    def test_config_error_exit_1(self, tmp_path, capsys):
        config = dict(BASE_CONFIG, params={"gamma_min": 2.0, "gamma_max": 1.0})
        code = cmd_run(write_config(tmp_path, config))
        assert code == 1
        assert "gamma_min" in capsys.readouterr().err

    def test_forced_backtrack_failure_exit_2(self, tmp_path, capsys):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
            params={"max_backtracks": 0},
            out_dir=str(tmp_path / "out"),
        )
        code = cmd_run(write_config(tmp_path, config))
        assert code == 2
        assert (
            "-> backtrack_cap_exceeded: no acceptable stepsize after 0 backtracks"
            in capsys.readouterr().err
        )
        runs = json.loads((tmp_path / "out" / "summary.json").read_text())["runs"]
        assert runs[0]["detail"].startswith("no acceptable stepsize after 0 backtracks")
        assert runs[0]["rates"] == []
        assert runs[0]["rates_skipped"] == "fewer than two iterations"

    def test_bitwise_identical_reruns(self, tmp_path):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "exp_fit_l1", "dim": 6, "seed": 0, "lambda": 0.05},
            x0={"policy": "seeded", "seed": 5},
        )
        path = write_config(tmp_path, config)
        assert cmd_run(path, out_dir=str(tmp_path / "a")) == 0
        assert cmd_run(path, out_dir=str(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "trace_000.csv").read_bytes()
        b = (tmp_path / "b" / "trace_000.csv").read_bytes()
        assert a == b

    def test_repeats_vary_only_seeded_start(self, tmp_path):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 6, "seed": 0, "lambda": 0.1},
            x0={"policy": "seeded", "seed": 100},
            repeats=3,
        )
        assert cmd_run(write_config(tmp_path, config), out_dir=str(tmp_path / "o")) == 0
        traces = [
            read_trace_csv(tmp_path / "o" / f"trace_{i:03d}.csv") for i in range(3)
        ]
        assert traces[0] != traces[1]  # different x0 seeds
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [r["trace_file"] for r in summary["runs"]] == [
            "trace_000.csv",
            "trace_001.csv",
            "trace_002.csv",
        ]


class TestCmdCompare:
    def test_three_rows_converge(self, tmp_path):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
        )
        code = cmd_compare(write_config(tmp_path, config), out_dir=str(tmp_path / "c"))
        assert code == 0
        rows = json.loads((tmp_path / "c" / "compare_summary.json").read_text())["rows"]
        assert [r["policy"] for r in rows] == ["monotone", "mean_rule", "max_rule"]
        assert all(r["status"] == "converged_residual" for r in rows)
        assert all(r["detail"] == "" for r in rows)
        assert all(r["rates"] and r["rates_skipped"] is None for r in rows)

    def test_failure_detail_in_rows(self, tmp_path, capsys):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
            params={"max_backtracks": 0},
        )
        code = cmd_compare(write_config(tmp_path, config), out_dir=str(tmp_path / "c"))
        assert code == 2
        rows = json.loads((tmp_path / "c" / "compare_summary.json").read_text())["rows"]
        assert all(
            r["detail"].startswith("no acceptable stepsize after 0 backtracks")
            for r in rows
        )
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"compare failed: {r['policy']} -> {r['status']}: {r['detail']}"
            for r in rows
        ]
        assert [line.split(" -> ")[0] for line in err] == [
            "compare failed: monotone",
            "compare failed: mean_rule",
            "compare failed: max_rule",
        ]

    def test_p_min_one_collapses_to_monotone(self, tmp_path):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 8, "seed": 0, "lambda": 0.1},
            params={"p_min": 1.0},
        )
        assert cmd_compare(write_config(tmp_path, config), out_dir=str(tmp_path / "c")) == 0
        mono = read_trace_csv(tmp_path / "c" / "compare_monotone.csv")
        mean = read_trace_csv(tmp_path / "c" / "compare_mean_rule.csv")
        assert mono == mean

    def test_epsilon_zero_still_emits_comparison(self, tmp_path):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "quartic_scalar", "dim": 1},
            params={"epsilon": 0.0, "max_outer_iters": 200},
            x0={"policy": "seeded", "seed": 0},
        )
        code = cmd_compare(write_config(tmp_path, config), out_dir=str(tmp_path / "c"))
        assert code == 0
        rows = json.loads((tmp_path / "c" / "compare_summary.json").read_text())["rows"]
        assert all(r["status"] == "max_iters" for r in rows)
        assert len(rows) == 3


class TestCmdCheck:
    def test_pristine_build_passes(self, capsys):
        assert cmd_check() == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "m_constant_table" in out

    def test_flipped_tiebreak_detected(self, monkeypatch):
        original = nmpg.prox.prox_l0

        def flipped(v, tau):
            import numpy as np

            v = np.asarray(v, dtype=float)
            return np.where(np.abs(v) >= np.sqrt(2.0 * tau), v, 0.0)  # >= not >

        monkeypatch.setattr(nmpg.prox, "prox_l0", flipped)
        try:
            assert cmd_check("prox_oracles") == 3
        finally:
            monkeypatch.setattr(nmpg.prox, "prox_l0", original)

    def test_filter_selects_subset(self, capsys):
        assert cmd_check("rate_fit") == 0
        out = capsys.readouterr().out
        assert "rate_fit_sanity" in out
        assert "gradient_checks" not in out


class TestMain:
    def test_run_subcommand(self, tmp_path):
        config = dict(BASE_CONFIG, out_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, config)
        assert main(["run", "--config", str(path)]) == 0

    def test_check_subcommand_with_filter(self):
        assert main(["check", "--filter", "m_constant"]) == 0


class TestParallelism:
    def test_jobs_env_override(self, monkeypatch):
        from nmpg.cli import _n_jobs

        monkeypatch.setenv("NMPG_JOBS", "2")
        assert _n_jobs(8) == 2
        monkeypatch.setenv("NMPG_JOBS", "not-a-number")
        assert _n_jobs(8) >= 1

    def test_parallel_repeats_stay_deterministic(self, tmp_path, monkeypatch):
        # the repeats share one problem, and with it its evaluation memo
        kinds = [
            "lasso_general",
            "quartic_regression_l0",
            "sparsity_projected_quadratic",
            "exp_fit_l1",
        ]
        for kind in kinds:
            config = dict(
                BASE_CONFIG,
                problem={"kind": kind, "dim": 8, "seed": 0},
                x0={"policy": "seeded", "seed": 100},
                repeats=4,
            )
            path = write_config(tmp_path, config, name=f"{kind}.json")
            for jobs in ("4", "1"):
                monkeypatch.setenv("NMPG_JOBS", jobs)
                assert cmd_run(path, out_dir=str(tmp_path / kind / jobs)) == 0
            for i in range(4):
                name = f"trace_{i:03d}.csv"
                assert (tmp_path / kind / "4" / name).read_bytes() == (
                    tmp_path / kind / "1" / name
                ).read_bytes()


class CountingTerm(NonsmoothTerm):
    """Delegates to `term`, counting prox calls."""

    def __init__(self, term):
        self.term = term
        self.dim = term.dim
        self.prox_calls = 0

    def eval(self, x):
        return self.term.eval(x)

    def prox(self, gamma, v):
        self.prox_calls += 1
        return self.term.prox(gamma, v)

    @property
    def domain_witness(self):
        return self.term.domain_witness


class TestEvaluationCounts:
    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    @pytest.mark.parametrize(
        "params, status",
        [
            (SolverParams(epsilon=1e-6), RunStatus.CONVERGED_RESIDUAL),
            # a short constant stepsize keeps lasso_identity from landing on
            # its solution in one step
            (
                SolverParams(
                    epsilon=0.0, max_outer_iters=7, gamma_init_policy=ConstantGamma(0.3)
                ),
                RunStatus.MAX_ITERS,
            ),
        ],
    )
    def test_counts_match_counted_calls(self, kind, params, status):
        base = build_problem(ProblemSpec(kind=kind, dim=8, seed=0))
        calls = {"eval": 0, "grad": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)

            return wrapper

        phi = CountingTerm(base.phi)
        problem = CompositeProblem(
            f=SmoothModel(
                base.dim, counted("eval", base.f.eval), counted("grad", base.f.grad)
            ),
            phi=phi,
            name=base.name,
        )
        x0 = make_x0(base, SeededStart(0), 0)
        result = solve(problem, params, x0)
        assert result.status is status
        counts = _evaluation_counts(result)
        trials = result.iterations + sum(r.backtracks for r in result.trace)
        assert counts == {
            "total_backtracks": trials - result.iterations,
            "f_evals": calls["eval"],
            "grad_evals": calls["grad"],
            "prox_calls": phi.prox_calls,
        }
        assert counts["f_evals"] == 1 + trials
        assert counts["grad_evals"] == 1 + result.iterations
        assert counts["prox_calls"] == trials

    def test_summaries_carry_counts(self, tmp_path, capsys):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
        )
        path = write_config(tmp_path, config)
        assert cmd_run(path, out_dir=str(tmp_path / "r")) == 0
        run = json.loads((tmp_path / "r" / "summary.json").read_text())["runs"][0]
        trials = run["iterations"] + run["total_backtracks"]
        assert (run["f_evals"], run["grad_evals"], run["prox_calls"]) == (
            1 + trials,
            1 + run["iterations"],
            trials,
        )
        capsys.readouterr()
        assert cmd_compare(path, out_dir=str(tmp_path / "c")) == 0
        rows = json.loads((tmp_path / "c" / "compare_summary.json").read_text())["rows"]
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == [
            "policy",
            "status",
            "iters",
            "backtracks",
            "f_evals",
            "grad_evals",
            "prox_calls",
            "final_resid",
            "wall_s",
        ]
        for row, line in zip(rows, table[1:]):
            trials = row["iterations"] + row["total_backtracks"]
            assert row["prox_calls"] == trials
            assert line.split()[2:7] == [
                str(row["iterations"]),
                str(row["total_backtracks"]),
                str(1 + trials),
                str(1 + row["iterations"]),
                str(trials),
            ]

    def test_failed_runs_report_no_counts(self, tmp_path, capsys):
        config = dict(
            BASE_CONFIG,
            problem={"kind": "lasso_general", "dim": 10, "seed": 0, "lambda": 0.1},
            params={"max_backtracks": 0},
        )
        path = write_config(tmp_path, config)
        assert cmd_compare(path, out_dir=str(tmp_path / "c")) == 2
        rows = json.loads((tmp_path / "c" / "compare_summary.json").read_text())["rows"]
        table = capsys.readouterr().out.splitlines()
        for row, line in zip(rows, table[1:]):
            assert row["status"] == "backtrack_cap_exceeded"
            assert row["f_evals"] is row["grad_evals"] is row["prox_calls"] is None
            assert line.split()[4:7] == ["-", "-", "-"]
        assert cmd_run(path, out_dir=str(tmp_path / "r")) == 2
        run = json.loads((tmp_path / "r" / "summary.json").read_text())["runs"][0]
        assert run["f_evals"] is run["grad_evals"] is run["prox_calls"] is None
