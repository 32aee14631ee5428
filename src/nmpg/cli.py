"""Benchmark harness: config-driven runs and policy comparisons.

Configs are JSON documents; unknown keys are hard errors so a typo in a
tolerance name cannot silently invalidate an experiment. Traces go to CSV
with 17-significant-digit floats (lossless for float64), summaries to JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .core import (
    FAILED_STATUSES,
    BarzilaiBorweinSafeguarded,
    CompositeProblem,
    ConstantGamma,
    IterationRecord,
    MaxReference,
    MeanReference,
    PreviousAccepted,
    RunResult,
    RunStatus,
    SolverParams,
    Vector,
    trace_columns,
)
from .problems import (
    PROBLEM_KINDS,
    ProblemSpec,
    ReferenceSolveFailed,
    build_problem,
    cached_reference_optimum,
)
from .solver import solve

TRACE_HEADER = "k,psi,reference,gamma,backtracks,step_norm,residual,xi"


class ConfigError(ValueError):
    """A config document failed validation; the message names the field."""


# -- experiment configuration --------------------------------------------------


@dataclass(frozen=True)
class ZerosStart:
    pass


@dataclass(frozen=True)
class DomainWitnessStart:
    pass


@dataclass(frozen=True)
class SeededStart:
    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


X0Policy = typing.Union[ZerosStart, DomainWitnessStart, SeededStart]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Its fields, and those of the classes they hold, are the
    config schema: each key, type and default is stated here once."""

    problem: ProblemSpec
    params: SolverParams = SolverParams()
    x0_policy: X0Policy = ZerosStart()
    out_dir: str = "runs"
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be a positive integer")


# The config schema is the fields of the dataclasses above. A document key is
# the field name, except for these:
_KEYS = {"lam": "lambda", "x0_policy": "x0"}

# Each union field: the key that names its variant, and the variants by name.
# A variant is written as its name when it has no fields, and can always be
# written as an object {tag: name, **fields}.
_UNIONS = {
    "gamma_init_policy": (
        "policy",
        {
            "constant": ConstantGamma,
            "previous_accepted": PreviousAccepted,
            "barzilai_borwein": BarzilaiBorweinSafeguarded,
        },
    ),
    "reference_policy": ("rule", {"mean": MeanReference, "max": MaxReference}),
    "x0_policy": (
        "policy",
        {
            "zeros": ZerosStart,
            "domain_witness": DomainWitnessStart,
            "seeded": SeededStart,
        },
    ),
}

# Resolved once per class: resolving the string annotations takes ten times
# as long as the rest of a parse.
_type_hints = functools.cache(typing.get_type_hints)

# The JSON types each scalar field type takes, and how an error names them.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _scalar(kind, value, path: str):
    if type(None) in typing.get_args(kind):  # an optional field
        if value is None:
            return None
        (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
    accepted, what = _SCALARS[kind]
    if type(value) not in accepted:
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{path} must be a number in the float range") from exc


def _parse(cls, doc, prefix: str):
    """Build `cls` from a document; `prefix` is the path of its keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix[:-1] or 'config root'} must be an object")
    fields = {_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    kinds = _type_hints(cls)
    kwargs = {}
    for key, field in fields.items():
        path = prefix + key
        if key not in doc:
            if field.default is dataclasses.MISSING:
                raise ConfigError(f"{path} is required")
            continue
        kind = kinds[field.name]
        if field.name in _UNIONS:
            kwargs[field.name] = _parse_variant(field.name, doc[key], path)
        elif dataclasses.is_dataclass(kind):
            kwargs[field.name] = _parse(kind, doc[key], path + ".")
        else:
            kwargs[field.name] = _scalar(kind, doc[key], path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # a message that starts with a key gets its path ("x0.seed must be
        # ..."); any other follows the path of the object ("problem: ...")
        message = str(exc).removeprefix(f"{cls.__name__}.")
        if not prefix or message.split(" ", 1)[0] in fields:
            raise ConfigError(prefix + message) from exc
        raise ConfigError(f"{prefix[:-1]}: {message}") from exc


def _parse_variant(name: str, doc, path: str):
    tag, variants = _UNIONS[name]
    if isinstance(doc, str):
        variant, doc = doc, {}
    elif isinstance(doc, dict):
        if tag not in doc:
            raise ConfigError(f"{path}.{tag} is required")
        doc = dict(doc)
        variant = doc.pop(tag)
    else:
        raise ConfigError(f"{path} must be a string or object")
    if not isinstance(variant, str) or variant not in variants:
        raise ConfigError(f"{path}: unknown {tag} {variant!r}")
    return _parse(variants[variant], doc, path + ".")


def parse_config(doc: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, doc, "")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
            f"at offset {exc.start}"
        ) from exc
    return parse_config(doc)


def config_to_dict(config) -> dict:
    """Serialize back to the canonical document shape (round-trips)."""
    doc = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if value is None:  # an unset optional field
            continue
        if field.name in _UNIONS:
            tag, variants = _UNIONS[field.name]
            variant = next(n for n, cls in variants.items() if type(value) is cls)
            fields = config_to_dict(value)
            value = {tag: variant, **fields} if fields else variant
        elif dataclasses.is_dataclass(value):
            value = config_to_dict(value)
        doc[_KEYS.get(field.name, field.name)] = value
    return doc


# -- trace persistence ----------------------------------------------------------


def write_trace_csv(path, trace: list[IterationRecord]) -> None:
    """One CSV row per record, plus a derived `xi` column: sqrt(R_{k-1} - R_k),
    the square root of the reference drop into row k, 0 at k = 0."""
    lines = [TRACE_HEADER]
    ref_prev = trace[0].reference if trace else 0.0
    for k, psi, ref, gamma, bts, step, res in trace:
        xi = math.sqrt(max(ref_prev - ref, 0.0))
        ref_prev = ref
        lines.append(
            f"{k},{psi:.17g},{ref:.17g},{gamma:.17g},"
            f"{bts},{step:.17g},{res:.17g},{xi:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path) -> list[IterationRecord]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: not a trace file")
    trace = []
    for line in lines[1:]:
        k, psi, ref, gamma, bts, step, res, _xi = line.split(",")
        trace.append(
            IterationRecord(
                int(k),
                float(psi),
                float(ref),
                float(gamma),
                int(bts),
                float(step),
                float(res),
            )
        )
    return trace


def make_x0(problem: CompositeProblem, policy: X0Policy, repeat: int) -> Vector:
    """Starting point for one run; repeats only shift the x0 seed."""
    if isinstance(policy, ZerosStart):
        return np.zeros(problem.dim)
    if isinstance(policy, DomainWitnessStart):
        return problem.phi.domain_witness
    rng = np.random.default_rng(policy.seed + repeat)
    # project the draw through the prox so indicator-type terms get a
    # feasible start; penalties only see a mild shrinkage
    return problem.phi.prox(1.0, rng.standard_normal(problem.dim))


def _rate_fits(
    problem: CompositeProblem, result: RunResult, columns: dict[str, Vector]
) -> tuple[list[diagnostics.RateReport], str | None]:
    """Tail-rate fit of the reference values, or no fit and the reason.

    psi* is the declared optimum if present, else a cached high-accuracy
    numerical solve (only attempted for convex instances); a reference solve
    that did not converge gives no psi*, and so no fit.
    """
    if problem.kl_hypothesis is None:
        return [], "no KL hypothesis declared"
    if len(result.trace) < 2:
        return [], "fewer than two iterations"
    kappa = problem.kl_hypothesis.kappa
    if problem.optimum is not None:
        psi_star = problem.optimum.psi_star
    elif kappa >= 0.5:
        try:
            psi_star = cached_reference_optimum(problem)[0]
        except ReferenceSolveFailed as exc:
            return [], str(exc)
    else:
        return [], "no declared optimum, and no reference solve for KL exponent < 1/2"
    refs = columns["reference"]
    try:
        if kappa >= 0.5:
            rate = diagnostics.estimate_q_factor(refs, psi_star)
        else:
            rate = diagnostics.fit_loglog_slope(
                refs, psi_star, predicted=-1.0 / (1.0 - 2.0 * kappa)
            )
    except diagnostics.NonpositiveTail as exc:
        # the run finished below the float resolution of psi*
        return [], str(exc)
    return [rate], None


def _evaluation_counts(result: RunResult, columns: dict[str, Vector]) -> dict:
    """Backtracks, and f, gradient and prox evaluations, of a solve.

    All are derived from the trace: each trial evaluates f and the prox once,
    and the start point and each accepted step evaluate the gradient once. A
    failed run's trace lacks the trials of its failing iteration, so its
    evaluation counts are None.
    """
    backtracks = int(columns["backtracks"].sum())
    if result.status in FAILED_STATUSES:
        return {
            "total_backtracks": backtracks,
            "f_evals": None,
            "grad_evals": None,
            "prox_calls": None,
        }
    trials = result.iterations + backtracks
    return {
        "total_backtracks": backtracks,
        "f_evals": 1 + trials,
        "grad_evals": 1 + result.iterations,
        "prox_calls": trials,
    }


def _run_summary(
    problem: CompositeProblem,
    params: SolverParams,
    result: RunResult,
    trace_file: str,
) -> dict:
    trace = result.trace
    columns = trace_columns(trace)
    audit = diagnostics.audit_trace(trace, params) if trace else None
    rates, rates_skipped = _rate_fits(problem, result, columns)
    return {
        "trace_file": trace_file,
        "status": result.status.value,
        "detail": result.detail,
        "iterations": result.iterations,
        "final_residual": trace[-1].residual if trace else None,
        **_evaluation_counts(result, columns),
        "wall_time": result.wall_time,
        "audit": None if audit is None else audit.to_dict(),
        "rates": [r.to_dict() for r in rates],
        "rates_skipped": rates_skipped,
    }


def cmd_run(config_path, out_dir=None) -> int:
    """Execute the configured repeats; write one trace per run plus a summary."""
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    problem = build_problem(config.problem)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = [
        solve(problem, config.params, make_x0(problem, config.x0_policy, i))
        for i in range(config.repeats)
    ]

    runs = []
    for i, result in enumerate(results):
        trace_file = f"trace_{i:03d}.csv"
        write_trace_csv(out / trace_file, result.trace)
        runs.append(_run_summary(problem, config.params, result, trace_file))

    summary = {
        "problem": problem.name,
        "config": config_to_dict(config),
        "runs": runs,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )

    for run, result in zip(runs, results):
        if result.status in FAILED_STATUSES:
            print(
                f"run failed: {run['trace_file']} -> {run['status']}: {run['detail']}",
                file=sys.stderr,
            )
            return 2
    for run in runs:
        print(
            f"{run['trace_file']}: {run['status']} in {run['iterations']} iterations, "
            f"final residual {run['final_residual']:.3e}"
        )
    return 0


def cmd_compare(config_path, out_dir=None) -> int:
    """Run monotone, mean-rule, and max-rule variants of one configuration."""
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    problem = build_problem(config.problem)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    window = (
        config.params.reference_policy.window
        if isinstance(config.params.reference_policy, MaxReference)
        else 10
    )
    variants = [
        (
            "monotone",
            dataclasses.replace(
                config.params, p_min=1.0, reference_policy=MeanReference()
            ),
        ),
        (
            "mean_rule",
            dataclasses.replace(config.params, reference_policy=MeanReference()),
        ),
        (
            "max_rule",
            dataclasses.replace(
                config.params, reference_policy=MaxReference(window)
            ),
        ),
    ]

    x0 = make_x0(problem, config.x0_policy, 0)
    rows = []
    for label, params in variants:
        result = solve(problem, params, x0)
        trace_file = f"compare_{label}.csv"
        write_trace_csv(out / trace_file, result.trace)
        summary = _run_summary(problem, params, result, trace_file)
        summary["policy"] = label
        rows.append(summary)

    (out / "compare_summary.json").write_text(
        json.dumps(
            {"problem": problem.name, "config": config_to_dict(config), "rows": rows},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    print(
        f"{'policy':<10} {'status':<22} {'iters':>7} {'backtracks':>10} "
        f"{'f_evals':>8} {'grad_evals':>10} {'prox_calls':>10} "
        f"{'final_resid':>12} {'wall_s':>8}"
    )
    for row in rows:
        f_evals, grad_evals, prox_calls = (
            "-" if row[key] is None else row[key]
            for key in ("f_evals", "grad_evals", "prox_calls")
        )
        resid = row["final_residual"]
        print(
            f"{row['policy']:<10} {row['status']:<22} {row['iterations']:>7} "
            f"{row['total_backtracks']:>10} "
            f"{f_evals:>8} {grad_evals:>10} {prox_calls:>10} "
            f"{'-' if resid is None else format(resid, '.3e'):>12} "
            f"{row['wall_time']:>8.3f}"
        )

    failures = [row for row in rows if RunStatus(row["status"]) in FAILED_STATUSES]
    for row in failures:
        print(
            f"compare failed: {row['policy']} -> {row['status']}: {row['detail']}",
            file=sys.stderr,
        )
    return 2 if failures else 0


# -- property-check suite --------------------------------------------------------


def cmd_check(name_filter=None) -> int:
    """Run the property suite and print one pass/fail line per check."""
    # imported here, so that `run` and `compare` do not compile the checks
    from . import checks

    rng = np.random.default_rng

    def problems(*kinds, dim=8, seed=0):
        return [build_problem(ProblemSpec(kind=k, dim=dim, seed=seed)) for k in kinds]

    def audited_runs():
        for problem in problems("lasso_identity", "lasso_general", "quartic_regression_l0"):
            for name, params in [
                ("mean", SolverParams(max_outer_iters=5000)),
                ("monotone", SolverParams(p_min=1.0, max_outer_iters=5000)),
                ("max_5", SolverParams(reference_policy=MaxReference(5), max_outer_iters=5000)),
            ]:
                yield problem, name, params, solve(problem, params, problem.phi.domain_witness)

    suite = {
        "prox_oracles": lambda: checks.prox_oracles(rng(20240), n_cases=100),
        "sparsity_enumeration": lambda: checks.sparsity_enumeration(
            rng(7), [(5, 2), (8, 3), (12, 4)], draws=30
        ),
        "gradient_checks": lambda: checks.gradient_checks(
            problems(*PROBLEM_KINDS), rng(99), n_points=20
        ),
        "descent_audits": lambda: checks.descent_audits(audited_runs()),
        "m_constant_table": lambda: checks.m_constant_table(
            [i / 10.0 for i in range(1, 11)], spots=[(1.0, 1), (0.75, 9), (0.96, 3)]
        ),
        "rate_fit_sanity": lambda: checks.rate_fit_sanity(
            [0.5**k for k in range(120)], 0.5, [float(k) ** -2 for k in range(1, 2001)], -2.0
        ),
        "lasso_identity_solution": lambda: checks.lasso_identity_solution(
            problems("lasso_identity", dim=10, seed=3)[0], [np.zeros(10)], SolverParams()
        ),
    }
    selected = [name for name in suite if not name_filter or name_filter in name]
    if not selected:
        print(f"no check matches filter '{name_filter}'", file=sys.stderr)
        print("checks: " + ", ".join(suite), file=sys.stderr)
        return 3
    all_ok = True
    for name in selected:
        try:
            ok, detail = suite[name]()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all_ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmpg",
        description="Nonmonotone proximal gradient benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="override the config out_dir")

    cmp_p = sub.add_parser("compare", help="monotone vs nonmonotone comparison")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", default=None, help="override the config out_dir")

    chk_p = sub.add_parser("check", help="run the property-check suite")
    chk_p.add_argument("--filter", default=None, help="substring check filter")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "compare":
        return cmd_compare(args.config, args.out)
    return cmd_check(args.filter)


if __name__ == "__main__":
    raise SystemExit(main())
