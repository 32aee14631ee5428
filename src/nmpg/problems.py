"""Test-problem factories spanning globally- and locally-Lipschitz regimes.

Quadratic losses (lasso variants) keep a global Lipschitz constant; the
quartic and exponential fits only have a locally Lipschitz gradient, which
is the regime the nonmonotone stepsize analysis is designed for. Declared
KL exponents ride along as hypotheses for the rate diagnostics.
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


def make_lasso_identity(b, lam: float, name: str | None = None) -> CompositeProblem:
    """f(x) = 0.5 ||x - b||^2 with an l1 penalty; optimum in closed form."""
    b = frozen_array(as_vector(b))
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
    a = frozen_array(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError("A must be a matrix")
    b = frozen_array(as_vector(b))
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and b have incompatible shapes")
    dim = a.shape[1]
    lip = float(np.linalg.norm(a, 2) ** 2)

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
    a = frozen_array(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError("A must be a matrix")
    b = frozen_array(as_vector(b))
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and b have incompatible shapes")
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
    a = frozen_array(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError("A must be a matrix")
    b = frozen_array(as_vector(b))
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and b have incompatible shapes")
    dim = a.shape[1]
    lip = float(np.linalg.norm(a, 2) ** 2)

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
    a = frozen_array(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError("A must be a matrix")
    b = frozen_array(as_vector(b))
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and b have incompatible shapes")
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
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.s is not None and self.s < 1:
            raise ValueError("s must be a positive integer")


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

_REFERENCE_CACHE: dict[str, tuple[float, Vector]] = {}


def reference_optimum(
    problem: CompositeProblem,
    epsilon: float = 1e-12,
    max_outer_iters: int = 1_000_000,
) -> tuple[float, Vector]:
    """High-accuracy optimum estimate from a long monotone run (p = 1).

    Intended for problems without a closed-form optimum whose objective gap
    the rate diagnostics need. Starts from the domain witness.
    """
    params = SolverParams(
        p_min=1.0, epsilon=epsilon, max_outer_iters=max_outer_iters
    )
    result = solve(problem, params, problem.phi.domain_witness)
    x_star = frozen_array(result.x_final)
    psi_star = psi_eval(problem, x_star)
    return psi_star, x_star


def cached_reference_optimum(problem: CompositeProblem) -> tuple[float, Vector]:
    """Memoized `reference_optimum`, keyed by the instance name.

    Safe for problems built through `build_problem`, whose names encode kind,
    dimension, seed, and data parameters.
    """
    hit = _REFERENCE_CACHE.get(problem.name)
    if hit is None:
        hit = reference_optimum(problem)
        _REFERENCE_CACHE[problem.name] = hit
    return hit
