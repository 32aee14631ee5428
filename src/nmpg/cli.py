"""Benchmark harness: config-driven runs, policy comparisons, property checks.

Configs are JSON documents; unknown keys are hard errors so a typo in a
tolerance name cannot silently invalidate an experiment. Traces go to CSV
with 17-significant-digit floats (lossless for float64), summaries to JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from . import diagnostics, prox
from .core import (
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
)
from .problems import (
    ProblemSpec,
    ReferenceSolveFailed,
    build_problem,
    cached_reference_optimum,
)
from .solver import compute_m, solve

TRACE_HEADER = "k,psi,reference,gamma,backtracks,step_norm,residual,xi"

JOBS_ENV_VAR = "NMPG_JOBS"


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


X0Policy = Union[ZerosStart, DomainWitnessStart, SeededStart]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    params: SolverParams
    x0_policy: X0Policy
    record_iterates: bool
    out_dir: str
    repeats: int

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError("repeats must be a positive integer")


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _as_int(value, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} must be an integer, got {value!r}") from exc


def _as_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} must be a number, got {value!r}") from exc


def _parse_problem(doc: dict) -> ProblemSpec:
    _check_keys(doc, {"kind", "dim", "seed", "lambda", "s"}, "problem.")
    if "kind" not in doc:
        raise ConfigError("problem.kind is required")
    try:
        return ProblemSpec(
            kind=doc["kind"],
            dim=_as_int(doc.get("dim", 10), "problem.dim"),
            seed=_as_int(doc.get("seed", 0), "problem.seed"),
            lam=None
            if doc.get("lambda") is None
            else _as_float(doc["lambda"], "problem.lambda"),
            s=None if doc.get("s") is None else _as_int(doc["s"], "problem.s"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"problem: {exc}") from exc


def _parse_gamma_policy(doc) -> object:
    if isinstance(doc, str):
        if doc == "previous_accepted":
            return PreviousAccepted()
        if doc == "barzilai_borwein":
            return BarzilaiBorweinSafeguarded()
        raise ConfigError(
            f"params.gamma_init_policy: unknown policy {doc!r}"
        )
    if isinstance(doc, dict):
        _check_keys(doc, {"policy", "value"}, "params.gamma_init_policy.")
        if doc.get("policy") == "constant":
            if "value" not in doc:
                raise ConfigError("params.gamma_init_policy.value is required")
            return ConstantGamma(
                _as_float(doc["value"], "params.gamma_init_policy.value")
            )
        raise ConfigError(
            f"params.gamma_init_policy: unknown policy {doc.get('policy')!r}"
        )
    raise ConfigError("params.gamma_init_policy must be a string or object")


def _parse_reference_policy(doc) -> object:
    if isinstance(doc, str):
        if doc == "mean":
            return MeanReference()
        raise ConfigError(f"params.reference_policy: unknown rule {doc!r}")
    if isinstance(doc, dict):
        _check_keys(doc, {"rule", "window"}, "params.reference_policy.")
        rule = doc.get("rule")
        if rule == "mean":
            return MeanReference()
        if rule == "max":
            if "window" not in doc:
                raise ConfigError("params.reference_policy.window is required")
            return MaxReference(
                _as_int(doc["window"], "params.reference_policy.window")
            )
        raise ConfigError(f"params.reference_policy: unknown rule {rule!r}")
    raise ConfigError("params.reference_policy must be a string or object")


_PARAM_POLICIES = {"gamma_init_policy", "reference_policy"}
# Every other SolverParams field is a number of the type of its default.
_PARAM_SCALARS = {
    f.name: type(f.default)
    for f in dataclasses.fields(SolverParams)
    if f.name not in _PARAM_POLICIES
}


def _parse_params(doc: dict) -> SolverParams:
    _check_keys(doc, _PARAM_SCALARS.keys() | _PARAM_POLICIES, "params.")
    kwargs = {}
    for key, kind in _PARAM_SCALARS.items():
        if key in doc:
            as_number = _as_int if kind is int else _as_float
            kwargs[key] = as_number(doc[key], f"params.{key}")
    if "gamma_init_policy" in doc:
        kwargs["gamma_init_policy"] = _parse_gamma_policy(doc["gamma_init_policy"])
    if "reference_policy" in doc:
        kwargs["reference_policy"] = _parse_reference_policy(doc["reference_policy"])
    try:
        return SolverParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _parse_x0(doc) -> X0Policy:
    if isinstance(doc, str):
        if doc == "zeros":
            return ZerosStart()
        if doc == "domain_witness":
            return DomainWitnessStart()
        raise ConfigError(f"x0.policy: unknown policy {doc!r}")
    if isinstance(doc, dict):
        _check_keys(doc, {"policy", "seed"}, "x0.")
        policy = doc.get("policy")
        if policy == "zeros":
            return ZerosStart()
        if policy == "domain_witness":
            return DomainWitnessStart()
        if policy == "seeded":
            if "seed" not in doc:
                raise ConfigError("x0.seed is required for the seeded policy")
            return SeededStart(_as_int(doc["seed"], "x0.seed"))
        raise ConfigError(f"x0.policy: unknown policy {policy!r}")
    raise ConfigError("x0 must be a string or object")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys(
        doc,
        {"problem", "params", "x0", "record_iterates", "out_dir", "repeats"},
        "",
    )
    if "problem" not in doc:
        raise ConfigError("problem is required")
    problem = _parse_problem(doc["problem"])
    params = _parse_params(doc.get("params", {}))
    x0_policy = _parse_x0(doc.get("x0", "zeros"))
    record = bool(doc.get("record_iterates", False))
    out_dir = str(doc.get("out_dir", "runs"))
    repeats = _as_int(doc.get("repeats", 1), "repeats")
    return ExperimentConfig(problem, params, x0_policy, record, out_dir, repeats)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(doc)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize back to the canonical document shape (round-trips)."""
    p = config.params
    gamma_policy: object
    if isinstance(p.gamma_init_policy, ConstantGamma):
        gamma_policy = {"policy": "constant", "value": p.gamma_init_policy.value}
    elif isinstance(p.gamma_init_policy, PreviousAccepted):
        gamma_policy = "previous_accepted"
    else:
        gamma_policy = "barzilai_borwein"
    if isinstance(p.reference_policy, MaxReference):
        ref_policy: object = {"rule": "max", "window": p.reference_policy.window}
    else:
        ref_policy = "mean"
    if isinstance(config.x0_policy, SeededStart):
        x0: object = {"policy": "seeded", "seed": config.x0_policy.seed}
    elif isinstance(config.x0_policy, DomainWitnessStart):
        x0 = "domain_witness"
    else:
        x0 = "zeros"
    problem: dict = {
        "kind": config.problem.kind,
        "dim": config.problem.dim,
        "seed": config.problem.seed,
    }
    if config.problem.lam is not None:
        problem["lambda"] = config.problem.lam
    if config.problem.s is not None:
        problem["s"] = config.problem.s
    return {
        "problem": problem,
        "params": {
            **{key: getattr(p, key) for key in _PARAM_SCALARS},
            "gamma_init_policy": gamma_policy,
            "reference_policy": ref_policy,
        },
        "x0": x0,
        "record_iterates": config.record_iterates,
        "out_dir": config.out_dir,
        "repeats": config.repeats,
    }


# -- trace persistence ----------------------------------------------------------


def write_trace_csv(path, trace: list[IterationRecord]) -> None:
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(
            f"{r.k},{r.psi:.17g},{r.reference:.17g},{r.gamma_accepted:.17g},"
            f"{r.backtracks},{r.step_norm:.17g},{r.residual:.17g},{r.xi:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path) -> list[IterationRecord]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: not a trace file")
    out = []
    for line in lines[1:]:
        k, psi, ref, gamma, bts, step, res, xi = line.split(",")
        out.append(
            IterationRecord(
                k=int(k),
                psi=float(psi),
                reference=float(ref),
                gamma_accepted=float(gamma),
                backtracks=int(bts),
                step_norm=float(step),
                residual=float(res),
                xi=float(xi),
            )
        )
    return out


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


def _n_jobs(n_runs: int) -> int:
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(n_runs, os.cpu_count() or 1))


def _rate_fits(
    problem: CompositeProblem, result: RunResult
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
    refs = [r.reference for r in result.trace]
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


def _run_summary(
    problem: CompositeProblem,
    params: SolverParams,
    result: RunResult,
    trace_file: str,
) -> dict:
    audit = diagnostics.audit_trace(result.trace, params) if result.trace else None
    rates, rates_skipped = _rate_fits(problem, result)
    return {
        "trace_file": trace_file,
        "status": result.status.value,
        "detail": result.detail,
        "iterations": result.iterations,
        "final_residual": result.trace[-1].residual if result.trace else None,
        "total_backtracks": sum(r.backtracks for r in result.trace),
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

    def one_run(i: int) -> RunResult:
        x0 = make_x0(problem, config.x0_policy, i)
        return solve(problem, config.params, x0, config.record_iterates)

    with ThreadPoolExecutor(max_workers=_n_jobs(config.repeats)) as pool:
        results = list(pool.map(one_run, range(config.repeats)))

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

    failed = {RunStatus.BACKTRACK_CAP_EXCEEDED.value, RunStatus.NUMERICAL_FAILURE.value}
    for run in runs:
        if run["status"] in failed:
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
        result = solve(problem, params, x0, config.record_iterates)
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

    print(f"{'policy':<10} {'status':<22} {'iters':>7} {'backtracks':>10} "
          f"{'final_resid':>12} {'wall_s':>8}")
    for row in rows:
        resid = row["final_residual"]
        print(
            f"{row['policy']:<10} {row['status']:<22} {row['iterations']:>7} "
            f"{row['total_backtracks']:>10} "
            f"{'-' if resid is None else format(resid, '.3e'):>12} "
            f"{row['wall_time']:>8.3f}"
        )

    failed = {RunStatus.BACKTRACK_CAP_EXCEEDED.value, RunStatus.NUMERICAL_FAILURE.value}
    failures = [row for row in rows if row["status"] in failed]
    for row in failures:
        print(
            f"compare failed: {row['policy']} -> {row['status']}: {row['detail']}",
            file=sys.stderr,
        )
    return 2 if failures else 0


# -- property-check suite --------------------------------------------------------


def _check_prox_oracles() -> tuple[bool, str]:
    rng = np.random.default_rng(20240)
    worst = 0.0
    cases = []
    for _ in range(100):
        v = float(rng.uniform(-3.0, 3.0))
        gamma = float(rng.uniform(0.05, 2.0))
        cases.append((v, gamma))

    def gap(term_prox, phi_scalar, v, gamma):
        z = float(term_prox(gamma, np.array([v]))[0])
        obj_z = phi_scalar(z) + (z - v) ** 2 / (2.0 * gamma)
        t = diagnostics.brute_force_prox_1d(
            phi_scalar, gamma, v, -2.0 * abs(v) - 1.0, 2.0 * abs(v) + 1.0, 1e-4
        )
        obj_t = phi_scalar(t) + (t - v) ** 2 / (2.0 * gamma)
        return obj_z - obj_t

    # numpy-vectorized over grids; brute_force_prox_1d exploits that
    terms = [
        (prox.L1Term(1, 0.7), lambda t: 0.7 * np.abs(t)),
        (prox.L0Term(1, 0.7), lambda t: 0.7 * np.not_equal(t, 0.0).astype(np.float64)),
        (prox.LHalfTerm(1, 0.7), lambda t: 0.7 * np.sqrt(np.abs(t))),
        (
            prox.BoxIndicator(np.array([-1.0]), np.array([1.0])),
            lambda t: np.where((t >= -1.0) & (t <= 1.0), 0.0, np.inf),
        ),
    ]
    for term, phi_scalar in terms:
        for v, gamma in cases:
            worst = max(worst, gap(term.prox, phi_scalar, v, gamma))
            if worst > 1e-8:
                return False, f"{type(term).__name__}: objective gap {worst:.3e}"

    # declared tie-breaks
    if prox.prox_l0(np.array([1.0]), 0.5)[0] != 0.0:
        return False, "hard-threshold tie must map to 0"
    if not np.array_equal(prox.prox_sparsity(np.array([1.0, 1.0]), 1), [1.0, 0.0]):
        return False, "sparsity tie must keep the lower index"
    return True, f"worst objective gap {worst:.3e}"


def _check_sparsity_enumeration() -> tuple[bool, str]:
    from itertools import combinations

    rng = np.random.default_rng(7)
    for dim, s in [(5, 2), (8, 3), (12, 4)]:
        for _ in range(30):
            v = rng.standard_normal(dim)
            z = prox.prox_sparsity(v, s)
            best = min(
                float(np.sum((np.where(np.isin(np.arange(dim), c), v, 0.0) - v) ** 2))
                for size in range(s + 1)
                for c in combinations(range(dim), size)
            )
            dist = float(np.sum((z - v) ** 2))
            if not (
                dist <= best + 1e-12
                and np.count_nonzero(z) <= s
                and np.all((z == 0) | (z == v))
            ):
                return False, f"dim={dim}, s={s}: projection mismatch"
    return True, "matches support enumeration for dim <= 12"


def _check_gradients() -> tuple[bool, str]:
    rng = np.random.default_rng(99)
    worst = 0.0
    for kind in (
        "lasso_identity",
        "lasso_general",
        "quartic_scalar",
        "quartic_regression_l0",
        "sparsity_projected_quadratic",
        "exp_fit_l1",
    ):
        problem = build_problem(ProblemSpec(kind=kind, dim=8, seed=0))
        points = [rng.uniform(-0.5, 0.5, problem.dim) for _ in range(20)]
        err = diagnostics.max_gradient_error(problem.f, points)
        worst = max(worst, err)
        if err > 1e-6:
            return False, f"{kind}: relative error {err:.3e}"
    return True, f"worst relative error {worst:.3e}"


def _check_audits() -> tuple[bool, str]:
    policies = [
        SolverParams(max_outer_iters=5000),
        SolverParams(p_min=1.0, max_outer_iters=5000),
        SolverParams(reference_policy=MaxReference(5), max_outer_iters=5000),
    ]
    for kind in ("lasso_identity", "lasso_general", "quartic_regression_l0"):
        problem = build_problem(ProblemSpec(kind=kind, dim=8, seed=0))
        for params in policies:
            result = solve(problem, params, problem.phi.domain_witness)
            if result.status == RunStatus.NUMERICAL_FAILURE:
                return False, f"{kind}: unexpected numerical failure"
            report = diagnostics.audit_trace(result.trace, params)
            if not report.passed:
                bad = [c.name for c in report.checks if not c.passed]
                return False, f"{kind}: failed {bad}"
    return True, "descent invariants hold on fresh runs"


def _check_m_table() -> tuple[bool, str]:
    print("  p_min -> lookahead length")
    for i in range(1, 11):
        p = i / 10.0
        m = compute_m(p)
        r = math.sqrt(1.0 - p)
        oracle = math.ceil(((1.0 + r) / (1.0 - r)) ** 2) if p < 1.0 else 1
        print(f"  {p:4.2f} -> {m}")
        if m != oracle:
            return False, f"p_min={p}: scan {m} != closed form {oracle}"
    return True, "matches the closed-form ceiling"


def _check_rate_fits() -> tuple[bool, str]:
    geo = [0.5**k for k in range(120)]
    report = diagnostics.estimate_q_factor(geo, 0.0)
    if abs(report.fitted - 0.5) > 1e-12:
        return False, f"geometric series fit {report.fitted}"
    power = [float(k) ** -2 for k in range(1, 2001)]
    report = diagnostics.fit_loglog_slope(power, 0.0, predicted=-2.0, tolerance=1e-6)
    if not report.passed:
        return False, f"power-law slope {report.fitted}"
    return True, "synthetic series recovered"


def _check_lasso_identity_solution() -> tuple[bool, str]:
    problem = build_problem(ProblemSpec(kind="lasso_identity", dim=10, seed=3))
    params = SolverParams()
    result = solve(problem, params, np.zeros(problem.dim))
    if result.status is not RunStatus.CONVERGED_RESIDUAL:
        return False, f"status {result.status.value}"
    x_star = problem.optimum.x_star
    err = float(np.linalg.norm(result.x_final - x_star))
    b = np.asarray(problem.f.grad(np.zeros(problem.dim))) * -1.0
    gap = diagnostics.l1_shrinkage_optimality_gap(
        result.x_final, b, problem.phi.lam
    )
    if err > 1e-6:
        return False, f"distance to closed form {err:.3e}"
    if gap > params.epsilon + 1e-12:
        return False, f"optimality gap {gap:.3e}"
    return True, f"distance {err:.1e}, optimality gap {gap:.1e}"


def cmd_check(name_filter=None) -> int:
    """Run the property suite and print one pass/fail line per check."""
    checks = [
        ("prox_oracles", _check_prox_oracles),
        ("sparsity_enumeration", _check_sparsity_enumeration),
        ("gradient_checks", _check_gradients),
        ("descent_audits", _check_audits),
        ("m_constant_table", _check_m_table),
        ("rate_fit_sanity", _check_rate_fits),
        ("lasso_identity_solution", _check_lasso_identity_solution),
    ]
    all_ok = True
    for name, fn in checks:
        if name_filter and name_filter not in name:
            continue
        try:
            ok, detail = fn()
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
