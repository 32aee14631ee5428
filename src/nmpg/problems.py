"""Test-problem factories spanning globally- and locally-Lipschitz regimes.

Quadratic losses (lasso variants) declare a global Lipschitz constant of
their gradient: a one-pass upper bound, recorded on the problem but never
read by the solver. The quartic and exponential fits only have a locally
Lipschitz gradient, which is the regime the nonmonotone stepsize analysis is
designed for. Declared KL exponents ride along as hypotheses for the rate
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LOCAL_LIPSCHITZ,
    CompositeProblem,
    GlobalLipschitz,
    KLHypothesis,
    Optimum,
    RunStatus,
    SmoothModel,
    SolverParams,
    Vector,
    as_vector,
    frozen_array,
    psi_eval,
)
from .prox import (
    L0Term,
    L1Term,
    SparsitySetIndicator,
    ZeroTerm,
    prox_l1,
)
from .solver import solve


def _last_point_memo(compute):
    """One-entry memo of `compute(x)`, shared by a factory's f_eval and f_grad.

    The solver asks for the gradient at the point whose value it just
    accepted, so the intermediate both need (a residual, an exponential) is
    computed once per point. The key is the bytes of x: a caller that changes
    x in place, or passes -0.0 for 0.0, misses and recomputes. The (key,
    value) pair is replaced in one assignment, so threads sharing a problem
    never read a value stored under another point's key; a race only costs a
    recomputation. The value is read-only, so no caller can alter the memo.
    """
    last = (None, None)

    def at(x):
        nonlocal last
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        hit_key, value = last
        if key != hit_key:
            value = compute(x)
            value.setflags(write=False)
            last = (key, value)
        return value

    return at


def _finite_vector(b) -> Vector:
    """A read-only copy of the data vector b, which must be finite."""
    b = frozen_array(as_vector(b))
    if not np.isfinite(b).all():
        raise ValueError("b has non-finite entries")
    return b


def _matrix_data(a, b) -> tuple[np.ndarray, Vector]:
    """Read-only copies of the data of a fit A x ~ b.

    A must be a finite matrix and b a finite vector with one entry per row.
    """
    a = frozen_array(a)
    if a.ndim != 2:
        raise ValueError("A must be a matrix")
    if not np.isfinite(a).all():
        raise ValueError("A has non-finite entries")
    b = _finite_vector(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and b have incompatible shapes")
    return a, b


def _quadratic_lipschitz_bound(a: np.ndarray) -> float:
    """||A||_1 ||A||_inf, an upper bound on ||A||_2^2 in one pass over A.

    The gradient A^T (A x - b) of 0.5 ||A x - b||^2 is ||A||_2^2-Lipschitz,
    and ||A||_2^2 <= ||A||_1 ||A||_inf (Schur), with equality for diagonal A.
    """
    abs_a = np.abs(a)
    max_col_sum = abs_a.sum(axis=0).max(initial=0.0)
    max_row_sum = abs_a.sum(axis=1).max(initial=0.0)
    return float(max_col_sum * max_row_sum)


def make_lasso_identity(b, lam: float, name: str | None = None) -> CompositeProblem:
    """f(x) = 0.5 ||x - b||^2 with an l1 penalty; optimum in closed form."""
    b = _finite_vector(b)
    dim = b.shape[0]
    x_star = prox_l1(b, lam)
    psi_star = 0.5 * float(np.sum((x_star - b) ** 2)) + lam * float(
        np.abs(x_star).sum()
    )

    def f_eval(x):
        d = x - b
        return 0.5 * float(d @ d)

    def f_grad(x):
        return x - b

    return CompositeProblem(
        f=SmoothModel(dim, f_eval, f_grad, GlobalLipschitz(1.0)),
        phi=L1Term(dim, lam),
        name=name or f"lasso_identity(dim={dim})",
        optimum=Optimum(psi_star=psi_star, x_star=frozen_array(x_star)),
        kl_hypothesis=KLHypothesis(0.5, "strongly convex quadratic plus l1"),
    )


def make_lasso_general(a, b, lam: float, name: str | None = None) -> CompositeProblem:
    """f(x) = 0.5 ||A x - b||^2 with an l1 penalty.

    The caller is responsible for A having full column rank when the problem
    feeds the linear-rate tests. No reference optimum is attached; use
    `cached_reference_optimum` when one is needed.
    """
    a, b = _matrix_data(a, b)
    dim = a.shape[1]
    lip = _quadratic_lipschitz_bound(a)

    residual = _last_point_memo(lambda x: a @ x - b)

    def f_eval(x):
        r = residual(x)
        return 0.5 * float(r @ r)

    def f_grad(x):
        return a.T @ residual(x)

    return CompositeProblem(
        f=SmoothModel(dim, f_eval, f_grad, GlobalLipschitz(lip)),
        phi=L1Term(dim, lam),
        name=name or f"lasso_general(dim={dim})",
        kl_hypothesis=KLHypothesis(0.5, "full-rank least squares plus l1"),
    )


def make_quartic_scalar(name: str | None = None) -> CompositeProblem:
    """One-dimensional f(x) = x^4 / 4, no nonsmooth part.

    The flat fourth-order minimum at 0 puts this in the sublinear-rate class:
    the declared exponent 1/4 predicts objective decay ~ k^-2 and iterate
    decay ~ k^-1/2.
    """

    def f_eval(x):
        return 0.25 * float(x[0] ** 4)

    def f_grad(x):
        return np.array([float(x[0] ** 3)])

    return CompositeProblem(
        f=SmoothModel(1, f_eval, f_grad, LOCAL_LIPSCHITZ),
        phi=ZeroTerm(1),
        name=name or "quartic_scalar",
        optimum=Optimum(psi_star=0.0, x_star=frozen_array(np.zeros(1))),
        kl_hypothesis=KLHypothesis(0.25, "quartic growth at the minimizer"),
    )


def make_quartic_regression_l0(
    a, b, lam: float, name: str | None = None
) -> CompositeProblem:
    """f(x) = 0.25 sum_i (<a_i, x> - b_i)^4 with an l0 penalty."""
    a, b = _matrix_data(a, b)
    dim = a.shape[1]

    residual = _last_point_memo(lambda x: a @ x - b)

    def f_eval(x):
        return 0.25 * float(np.sum(residual(x) ** 4))

    def f_grad(x):
        return a.T @ (residual(x) ** 3)

    return CompositeProblem(
        f=SmoothModel(dim, f_eval, f_grad, LOCAL_LIPSCHITZ),
        phi=L0Term(dim, lam),
        name=name or f"quartic_regression_l0(dim={dim})",
    )


def make_sparsity_projected_quadratic(
    a, b, s: int, name: str | None = None
) -> CompositeProblem:
    """f(x) = 0.5 ||A x - b||^2 constrained to at most s nonzeros."""
    a, b = _matrix_data(a, b)
    dim = a.shape[1]
    lip = _quadratic_lipschitz_bound(a)

    residual = _last_point_memo(lambda x: a @ x - b)

    def f_eval(x):
        r = residual(x)
        return 0.5 * float(r @ r)

    def f_grad(x):
        return a.T @ residual(x)

    return CompositeProblem(
        f=SmoothModel(dim, f_eval, f_grad, GlobalLipschitz(lip)),
        phi=SparsitySetIndicator(dim, s),
        name=name or f"sparsity_projected_quadratic(dim={dim},s={s})",
    )


def make_exp_fit_l1(a, b, lam: float, name: str | None = None) -> CompositeProblem:
    """f(x) = sum_i (exp(<a_i, x>) - b_i)^2 with an l1 penalty.

    The exponential makes the gradient locally but not globally Lipschitz.
    Overflow in exp is left to propagate; the solver reports it as a
    numerical failure.
    """
    a, b = _matrix_data(a, b)
    dim = a.shape[1]

    @_last_point_memo
    def exp_ax(x):
        with np.errstate(over="ignore"):
            return np.exp(a @ x)

    def f_eval(x):
        with np.errstate(over="ignore"):
            r = exp_ax(x) - b
            return float(r @ r)

    def f_grad(x):
        with np.errstate(over="ignore", invalid="ignore"):
            e = exp_ax(x)
            return a.T @ (2.0 * (e - b) * e)

    return CompositeProblem(
        f=SmoothModel(dim, f_eval, f_grad, LOCAL_LIPSCHITZ),
        phi=L1Term(dim, lam),
        name=name or f"exp_fit_l1(dim={dim})",
    )


# -- seeded instances ---------------------------------------------------------

PROBLEM_KINDS = (
    "lasso_identity",
    "lasso_general",
    "quartic_scalar",
    "quartic_regression_l0",
    "sparsity_projected_quadratic",
    "exp_fit_l1",
)


@dataclass(frozen=True)
class ProblemSpec:
    """Addressable description of a seeded problem instance."""

    kind: str
    dim: int = 10
    seed: int = 0
    lam: float | None = None
    s: int | None = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.lam is not None and not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lambda must be a positive finite real")
        if self.s is not None and self.s < 1:
            raise ValueError("s must be a positive integer")
        if self.kind == "sparsity_projected_quadratic" and self.s is not None and (
            self.s > self.dim
        ):
            raise ValueError(f"s must be at most dim ({self.dim})")


def _diag_dominant_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Row-diagonal dominance keeps the matrix full rank and well conditioned.
    return np.diag(1.0 + rng.uniform(0.0, 1.0, dim)) + rng.standard_normal(
        (dim, dim)
    ) * (0.5 / dim)


def build_problem(spec: ProblemSpec) -> CompositeProblem:
    """Instantiate the seeded problem a spec describes."""
    rng = np.random.default_rng(spec.seed)
    dim = spec.dim
    tag = f"(dim={dim},seed={spec.seed}"
    if spec.kind == "lasso_identity":
        lam = spec.lam if spec.lam is not None else 0.5
        b = 2.0 * rng.standard_normal(dim)
        return make_lasso_identity(b, lam, name=f"lasso_identity{tag},lam={lam})")
    if spec.kind == "lasso_general":
        lam = spec.lam if spec.lam is not None else 0.1
        a = _diag_dominant_matrix(dim, rng)
        b = rng.standard_normal(dim)
        return make_lasso_general(a, b, lam, name=f"lasso_general{tag},lam={lam})")
    if spec.kind == "quartic_scalar":
        return make_quartic_scalar(name="quartic_scalar")
    if spec.kind == "quartic_regression_l0":
        lam = spec.lam if spec.lam is not None else 0.05
        rows = 2 * dim
        a = rng.standard_normal((rows, dim)) / math.sqrt(dim)
        x_true = rng.standard_normal(dim) * (rng.random(dim) < 0.4)
        b = a @ x_true + 0.01 * rng.standard_normal(rows)
        return make_quartic_regression_l0(
            a, b, lam, name=f"quartic_regression_l0{tag},lam={lam})"
        )
    if spec.kind == "sparsity_projected_quadratic":
        s = spec.s if spec.s is not None else max(1, dim // 3)
        a = _diag_dominant_matrix(dim, rng)
        x_true = np.zeros(dim)
        support = rng.choice(dim, size=s, replace=False)
        x_true[support] = rng.standard_normal(s)
        b = a @ x_true + 0.01 * rng.standard_normal(dim)
        return make_sparsity_projected_quadratic(
            a, b, s, name=f"sparsity_projected_quadratic{tag},s={s})"
        )
    if spec.kind == "exp_fit_l1":
        lam = spec.lam if spec.lam is not None else 0.05
        rows = 2 * dim
        a = rng.uniform(-1.0, 1.0, (rows, dim)) / math.sqrt(dim)
        x_true = rng.uniform(-0.5, 0.5, dim) * (rng.random(dim) < 0.5)
        b = np.exp(a @ x_true)
        return make_exp_fit_l1(a, b, lam, name=f"exp_fit_l1{tag},lam={lam})")
    raise ValueError(f"unknown problem kind {spec.kind!r}")  # pragma: no cover


# -- high-accuracy reference optima -------------------------------------------


class ReferenceSolveFailed(RuntimeError):
    """The reference solve ended without meeting its residual tolerance, so
    no optimal value is available for the instance."""


_REFERENCE_CACHE: dict[str, tuple[float, Vector] | ReferenceSolveFailed] = {}


def reference_optimum(
    problem: CompositeProblem,
    epsilon: float = 1e-12,
    max_outer_iters: int = 1_000_000,
) -> tuple[float, Vector]:
    """High-accuracy optimum estimate from a mean-rule run to `epsilon`.

    Intended for problems without a closed-form optimum whose objective gap
    the rate diagnostics need. Runs the default nonmonotone rule
    (`SolverParams` defaults, p_min = 0.1) from the domain witness. The
    monotone rule (p = 1) is not used: near the optimum its acceptance test
    fails on rounding noise and backtracks until the step vanishes.

    Raises ReferenceSolveFailed, naming the status and its detail, unless
    the run ends `CONVERGED_RESIDUAL`; an unconverged point is never
    returned as psi*.
    """
    params = SolverParams(epsilon=epsilon, max_outer_iters=max_outer_iters)
    result = solve(problem, params, problem.phi.domain_witness)
    if result.status is not RunStatus.CONVERGED_RESIDUAL:
        raise ReferenceSolveFailed(
            f"reference solve {result.status.value}: "
            + (result.detail or f"{result.iterations} iterations")
        )
    x_star = frozen_array(result.x_final)
    psi_star = psi_eval(problem, x_star)
    return psi_star, x_star


def cached_reference_optimum(problem: CompositeProblem) -> tuple[float, Vector]:
    """Memoized `reference_optimum`, keyed by the instance name.

    A failed solve is cached too, and raises its ReferenceSolveFailed again
    on every later call. Safe for problems built through `build_problem`,
    whose names encode kind, dimension, seed, and data parameters.
    """
    hit = _REFERENCE_CACHE.get(problem.name)
    if hit is None:
        try:
            hit = reference_optimum(problem)
        except ReferenceSolveFailed as exc:
            hit = exc
        _REFERENCE_CACHE[problem.name] = hit
    if isinstance(hit, ReferenceSolveFailed):
        raise hit.with_traceback(None)
    return hit
