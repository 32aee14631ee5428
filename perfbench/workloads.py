"""The four workloads: seeded inputs, the operations run on them, and the
check each operation's output has to pass.

Every input (A, b, x0, config documents) is drawn here from the workload
seed; only the problem seeds of cli_sweep are fixed (see `CliSweep`).
Problems are built by the public factories of `nmpg.problems`, and the
benchmark keeps its own copy of the data and of the formulas for f, its
gradient and phi, so that the checks recompute optimality independently of
the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nmpg
import nmpg.cli
import nmpg.problems
from nmpg import CompositeProblem, LHalfTerm, MaxReference, RunStatus, SolverParams

import checks
from checks import CheckFailed, OpFailed
from spans import Layers


@dataclass(frozen=True)
class Outcome:
    """What one checked operation did, as the program reports it."""

    iterations: int
    backtracks: int


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a timed call and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Instance:
    """A problem built by a public factory, with the benchmark's own formulas.

    `stationarity(x, g)` is the worst violation of the first-order condition
    at x, given the gradient g of f at x.
    """

    label: str
    problem: CompositeProblem
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], float]
    stationarity: Callable[[np.ndarray, np.ndarray], float]


# -- smooth parts and penalties, written apart from nmpg.problems --------------


def _least_squares(a, b):
    def f(x):
        r = a @ x - b
        return 0.5 * float(r @ r)

    return f, lambda x: a.T @ (a @ x - b)


def _quartic_residual(a, b):
    def f(x):
        return 0.25 * float(np.sum((a @ x - b) ** 4))

    return f, lambda x: a.T @ ((a @ x - b) ** 3)


def _exp_fit(a, b):
    def f(x):
        r = np.exp(a @ x) - b
        return float(r @ r)

    def grad(x):
        e = np.exp(a @ x)
        return a.T @ (2.0 * (e - b) * e)

    return f, grad


def _l1(lam):
    return (
        lambda x: lam * float(np.abs(x).sum()),
        lambda x, g: checks.l1_violation(x, g, lam),
    )


def _l0(lam):
    return lambda x: lam * float(np.count_nonzero(x)), checks.support_violation


def _lhalf(lam):
    return (
        lambda x: lam * float(np.sqrt(np.abs(x)).sum()),
        lambda x, g: checks.lhalf_violation(x, g, lam),
    )


def _sparsity(s):
    def phi(x):
        return 0.0 if np.count_nonzero(x) <= s else math.inf

    def stationarity(x, g):
        if np.count_nonzero(x) > s:
            return math.inf
        return checks.support_violation(x, g)

    return phi, stationarity


# -- seeded instances of each problem kind -------------------------------------


def _diag_dominant(rng, n):
    diagonal = 1.0 + rng.uniform(0.0, 1.0, n)
    return np.diag(diagonal) + rng.standard_normal((n, n)) * (0.5 / n)


def _instance(layers, label, factory, args, smooth, penalty):
    problem = layers.factory(factory)(*args)
    return Instance(label, problem, *smooth, *penalty)


def instrumented(layers, inst: Instance) -> Instance:
    return dataclasses.replace(inst, problem=layers.problem(inst.problem))


def lasso_identity(layers, rng, n):
    b = 2.0 * rng.standard_normal(n)
    lam = 0.5
    x_star = checks.soft_threshold(b, lam)

    def closed_form_gap(x, g):  # strongly convex: |x - x*| <= dist(0, dpsi)
        return float(np.max(np.abs(x - x_star)))

    smooth = (lambda x: 0.5 * float((x - b) @ (x - b)), lambda x: x - b)
    penalty = (_l1(lam)[0], closed_form_gap)
    return _instance(
        layers, "lasso_identity", nmpg.make_lasso_identity, (b, lam), smooth, penalty
    )


def lasso_general(layers, rng, n):
    a, b = _diag_dominant(rng, n), rng.standard_normal(n)
    return _instance(
        layers, "lasso_general", nmpg.make_lasso_general, (a, b, 0.1),
        _least_squares(a, b), _l1(0.1),
    )


def quartic_scalar(layers, rng, n):
    smooth = (lambda x: 0.25 * float(x[0] ** 4), lambda x: x**3)
    penalty = (lambda x: 0.0, lambda x, g: float(np.max(np.abs(g))))
    return _instance(
        layers, "quartic_scalar", nmpg.make_quartic_scalar, (), smooth, penalty
    )


def quartic_regression_l0(layers, rng, n, noise=0.01):
    a = rng.standard_normal((2 * n, n)) / math.sqrt(n)
    x_true = rng.standard_normal(n) * (rng.random(n) < 0.4)
    b = a @ x_true + noise * rng.standard_normal(2 * n)
    return _instance(
        layers, "quartic_regression_l0", nmpg.make_quartic_regression_l0, (a, b, 0.05),
        _quartic_residual(a, b), _l0(0.05),
    )


def sparsity_projected_quadratic(layers, rng, n):
    a, s = _diag_dominant(rng, n), max(1, n // 3)
    x_true = np.zeros(n)
    x_true[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
    b = a @ x_true + 0.01 * rng.standard_normal(n)
    return _instance(
        layers, "sparsity_projected_quadratic", nmpg.make_sparsity_projected_quadratic,
        (a, b, s), _least_squares(a, b), _sparsity(s),
    )


def exp_fit_l1(layers, rng, n):
    a = rng.uniform(-1.0, 1.0, (2 * n, n)) / math.sqrt(n)
    x_true = rng.uniform(-0.5, 0.5, n) * (rng.random(n) < 0.5)
    b = np.exp(a @ x_true)
    return _instance(
        layers, "exp_fit_l1", nmpg.make_exp_fit_l1, (a, b, 0.05),
        _exp_fit(a, b), _l1(0.05),
    )


def with_lhalf(base: Instance, lam: float) -> Instance:
    """The f of a factory-built problem composed with the l^1/2 penalty."""
    f = base.problem.f
    label = f"{base.label}+lhalf"
    problem = CompositeProblem(f=f, phi=LHalfTerm(f.dim, lam), name=label)
    return Instance(label, problem, base.f, base.grad, *_lhalf(lam))


def start_for(instance: Instance, rng) -> np.ndarray:
    """A seeded start in dom(phi): a normal draw, cut to s entries for the
    sparsity set; quartic_scalar starts at +-[0.5, 2]."""
    n = instance.problem.dim
    if instance.label == "quartic_scalar":
        return np.array([rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)])
    x0 = rng.standard_normal(n)
    if instance.label == "sparsity_projected_quadratic":
        x0[np.argsort(-np.abs(x0), kind="stable")[max(1, n // 3):]] = 0.0
    return x0


# -- operations on direct `solve` calls ----------------------------------------


def solve_op(layers: Layers, inst: Instance, params: SolverParams, x0, tag: str) -> Op:
    what = f"{inst.label} {tag}"

    def check(result) -> Outcome:
        if result.status is not RunStatus.CONVERGED_RESIDUAL:
            raise OpFailed(f"{what}: status {result.status.value}")
        x = result.x_final
        violation = inst.stationarity(x, inst.grad(x))
        checks.require_stationary(violation, params.epsilon, what)
        checks.require_descent(inst.f(x) + inst.phi(x), inst.f(x0) + inst.phi(x0), what)
        return Outcome(result.iterations, sum(r.backtracks for r in result.trace))

    return Op(what, lambda: layers.solve(inst.problem, params, x0), check)


def fixed_length_quartic_op(layers: Layers, inst: Instance, iterations: int, x0) -> Op:
    """quartic_scalar for a fixed number of iterations (epsilon = 0); its
    reference values must decay like k^-2, the rate of KL exponent 1/4."""
    params = SolverParams(epsilon=0.0, max_outer_iters=iterations)
    what = f"quartic_scalar fixed {iterations} x0={x0[0]:.3f}"

    def check(result) -> Outcome:
        if result.status is not RunStatus.MAX_ITERS or result.iterations != iterations:
            raise OpFailed(
                f"{what}: status {result.status.value} after {result.iterations}"
            )
        references = np.array([r.reference for r in result.trace])
        checks.require_quartic_slope(references, what)
        x = result.x_final
        checks.require_descent(inst.f(x), inst.f(x0), what)
        return Outcome(result.iterations, sum(r.backtracks for r in result.trace))

    return Op(what, lambda: layers.solve(inst.problem, params, x0), check)


# -- workloads -----------------------------------------------------------------


class Workload:
    """A fixed list of operations, a round, built by `prepare` and run the
    same way in every round."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    def prepare(self, layers: Layers) -> list[Op]:
        raise NotImplementedError

    def discard(self) -> None:
        """Remove what the last `prepare` left on disk."""


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over the groups, so the first ops of a round cover each."""
    ops = []
    for i in range(max(map(len, groups))):
        ops += [g[i] for g in groups if i < len(g)]
    return ops


def planned_ops(layers, rng, plan, dim, policies) -> list[Op]:
    """For each (make, instances, starts) of the plan, solve every
    instance from `starts` seeded starts under each (tag, params) policy."""
    groups = []
    for make, instances, starts in plan:
        ops = []
        for j in range(instances):
            inst = instrumented(layers, make(layers, rng, dim))
            for i in range(starts):
                x0 = start_for(inst, rng)
                ops += [
                    solve_op(layers, inst, params, x0, f"#{j} {tag} start {i}")
                    for tag, params in policies
                ]
        groups.append(ops)
    return interleave(groups)


# Unequal op counts per kind keep the median and the tail percentile inside a
# kind's cluster of latencies rather than in the gap between two clusters.
LARGE_DIM = 1000
LARGE_PLAN = (  # instance maker, instances, starts per instance
    (lasso_general, 2, 6),
    (quartic_regression_l0, 4, 2),
    (sparsity_projected_quadratic, 2, 4),
    (exp_fit_l1, 2, 6),
)


class LargeDim(Workload):
    name = "large_dim"

    def prepare(self, layers):
        policies = [("default", SolverParams())]
        return planned_ops(layers, self.rng(1), LARGE_PLAN, LARGE_DIM, policies)


SMALL_DIM = 20
# Unequal counts put the median op among the lasso_general and sparsity
# solves (0.3 ms), not at the edge of the exp_fit_l1 ones (0.6-1.2 ms).
# quartic_regression_l0 gets noise 0.1 in b: with 0.01, a dim-20 instance can
# reach a near-zero residual where the quartic is flat, and 5% of the runs
# then take 57% of all iterations (up to 18k), which no draw of a few
# instances averages out. The flat, sublinear regime is measured by the
# quartic_scalar runs.
SMALL_PLAN = (
    (lasso_identity, 8, 1),
    (lasso_general, 8, 1),
    (functools.partial(quartic_regression_l0, noise=0.1), 4, 1),
    (sparsity_projected_quadratic, 8, 1),
    (exp_fit_l1, 4, 1),
)
SMALL_POLICIES = (
    ("mean", SolverParams(epsilon=1e-6, max_outer_iters=20_000)),
    ("monotone", SolverParams(p_min=1.0, epsilon=1e-6, max_outer_iters=20_000)),
    (
        "max",
        SolverParams(
            reference_policy=MaxReference(10), epsilon=1e-6, max_outer_iters=20_000
        ),
    ),
)
SMALL_QUARTIC_STARTS = 5
SMALL_FIXED_RUNS = 2
SMALL_FIXED_ITERATIONS = 20_000


class SmallDim(Workload):
    """The long quartic_scalar runs come last in a round: a one-iteration
    solve right after one was measured ten times slower than elsewhere in the
    round. There are more than a tenth of them, so op_ms_tail (p90) reads the
    quartic_scalar runs to convergence."""

    name = "small_dim"

    def prepare(self, layers):
        rng = self.rng(2)
        ops = planned_ops(layers, rng, SMALL_PLAN, SMALL_DIM, SMALL_POLICIES)
        quartic = instrumented(layers, quartic_scalar(layers, rng, 1))
        for i in range(SMALL_QUARTIC_STARTS):
            x0 = start_for(quartic, rng)
            ops += [
                solve_op(layers, quartic, params, x0, f"{tag} start {i}")
                for tag, params in SMALL_POLICIES
            ]
        ops += [
            fixed_length_quartic_op(
                layers, quartic, SMALL_FIXED_ITERATIONS, start_for(quartic, rng)
            )
            for _ in range(SMALL_FIXED_RUNS)
        ]
        return ops


def least_squares_lhalf(layers, rng, n):
    return with_lhalf(lasso_general(layers, rng, n), 0.1)


def exp_fit_lhalf(layers, rng, n):
    return with_lhalf(exp_fit_l1(layers, rng, n), 0.05)


LHALF_DIM = 200
LHALF_PLAN = ((least_squares_lhalf, 20, 1), (exp_fit_lhalf, 36, 1))


class LHalfProx(Workload):
    name = "lhalf_prox"

    def prepare(self, layers):
        policies = [("default", SolverParams())]
        return planned_ops(layers, self.rng(3), LHALF_PLAN, LHALF_DIM, policies)


# -- the nmpg command ------------------------------------------------------------

CLI_DIM = 100
CLI_COMMANDS = 40
CLI_REPEATS = 8
# three lasso_general commands (which solve for a reference optimum) to one
# lasso_identity command (whose optimum is declared)
CLI_KINDS = ("lasso_general", "lasso_general", "lasso_general", "lasso_identity")
# blocks of len(CLI_KINDS) commands, in this cycle; mostly `run`, so that the
# median and tail latency fall inside the cluster of `run` on lasso_general
CLI_CYCLE = ("run", "run", "run", "compare")
CLI_EPSILON = SolverParams().epsilon
CLI_FAILED = {RunStatus.BACKTRACK_CAP_EXCEEDED.value, RunStatus.NUMERICAL_FAILURE.value}


def check_cli_output(
    out: Path, command: str, exit_code: int, epsilon: float, what: str
) -> Outcome:
    """Exit 0; one trace row per reported iteration; psi <= reference and the
    reference never rises; converged runs end with residual <= epsilon."""
    if exit_code != 0:
        raise OpFailed(f"{what}: exit code {exit_code}")
    summary_name = "summary.json" if command == "run" else "compare_summary.json"
    summary = json.loads((out / summary_name).read_text(encoding="utf-8"))
    runs = summary["runs"] if command == "run" else summary["rows"]
    iterations = backtracks = 0
    for run in runs:
        label = f"{what} {run['trace_file']}"
        if run["status"] in CLI_FAILED:
            raise OpFailed(f"{label}: status {run['status']}")
        text = (out / run["trace_file"]).read_text(encoding="utf-8")
        rows = checks.parse_trace_csv(text)
        if rows.shape[0] != run["iterations"]:
            raise CheckFailed(
                f"{label}: {rows.shape[0]} trace rows for "
                f"{run['iterations']} iterations"
            )
        checks.require_reference_properties(rows, label)
        if run["status"] == RunStatus.CONVERGED_RESIDUAL.value and not (
            run["final_residual"] <= epsilon
        ):
            raise CheckFailed(
                f"{label}: final residual {run['final_residual']!r} > {epsilon}"
            )
        iterations += run["iterations"]
        backtracks += run["total_backtracks"]
    return Outcome(iterations, backtracks)


class CliSweep(Workload):
    """`nmpg run|compare` on generated configs; set-up writes the configs.

    Every round runs the same 40 problem seeds. After each command, outside
    its clock, the reference-optimum cache is emptied, so no reference solve
    carries over from one command to the next, as when each command runs in
    a process of its own.
    """

    name = "cli_sweep"

    def prepare(self, layers):
        rng = self.rng(4)
        configs = self.workdir / "configs"
        configs.mkdir()
        ops = []
        for i in range(CLI_COMMANDS):
            command = CLI_CYCLE[(i // len(CLI_KINDS)) % len(CLI_CYCLE)]
            # The problem seeds are the same in every run; --seed draws the
            # starts. A 1e-12 reference solve costs from 1 ms to 0.5 s
            # depending on the instance, so a per-seed draw of instances
            # would not repeat.
            doc = {
                "problem": {
                    "kind": CLI_KINDS[i % len(CLI_KINDS)],
                    "dim": CLI_DIM,
                    "seed": i,
                },
                "params": {"epsilon": CLI_EPSILON},
                "x0": {"policy": "seeded", "seed": int(rng.integers(0, 2**31))},
                "repeats": CLI_REPEATS if command == "run" else 1,
            }
            config = configs / f"c{i}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            ops.append(self._op(layers, command, config, self.workdir / f"out{i}"))
        return ops

    def discard(self) -> None:
        shutil.rmtree(self.workdir / "configs")

    @staticmethod
    def _op(layers, command, config: Path, out: Path) -> Op:
        argv = [command, "--config", str(config), "--out", str(out)]
        what = f"nmpg {command} {config.name}"

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return layers.cli(argv)

        def check(exit_code) -> Outcome:
            try:
                return check_cli_output(out, command, exit_code, CLI_EPSILON, what)
            finally:
                shutil.rmtree(out, ignore_errors=True)
                nmpg.problems._REFERENCE_CACHE.clear()

        return Op(what, run, check)


WORKLOADS = {w.name: w for w in (LargeDim, SmallDim, LHalfProx, CliSweep)}
