"""Nonmonotone proximal gradient iteration with stepsize backtracking.

`solve` is one loop. Each outer iteration takes prox steps on a quadratic
model of the smooth part, shrinking the trial stepsize geometrically until
one passes the nonmonotone acceptance test against the reference value. The
reference is then updated: a running convex combination of past objective
values (mean rule, the default) or the max over a sliding window (max rule,
kept as a comparison policy). A failure returns its status and reason.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque

import numpy as np

from .core import (
    BarzilaiBorweinSafeguarded,
    CompositeProblem,
    ConstantGamma,
    IterationRecord,
    MaxReference,
    PreviousAccepted,
    RunResult,
    RunStatus,
    SolverParams,
    Vector,
    as_vector,
    check_dim,
)


def compute_m(p_min: float) -> int:
    """Smallest l with (1 - sqrt(1 - p_min)) * sqrt(l) >= 1 + sqrt(1 - p_min).

    This is the fixed lookahead length that makes the reference-drop telescoping
    argument close; it only depends on p_min.
    """
    if not 0.0 < p_min <= 1.0:
        raise ValueError("p_min must lie in (0, 1]")
    r = math.sqrt(1.0 - p_min)
    l = 1
    while (1.0 - r) * math.sqrt(l) < 1.0 + r:
        l += 1
    return l


def _described(value) -> str:
    if isinstance(value, np.ndarray):
        return f"an array of shape {value.shape} and dtype {value.dtype}"
    return f"a {type(value).__name__}"


def solve(problem: CompositeProblem, params: SolverParams, x0) -> RunResult:
    """Run the nonmonotone proximal gradient method from x0.

    Parameters
    ----------
    problem : CompositeProblem
        Target psi = f + phi; x0 must be feasible for phi.
    params : SolverParams
        Algorithm constants. With epsilon = 0 the residual test is disabled
        (except for an exact fixed point, whose residual is exactly zero) and
        the run ends at max_outer_iters.
    x0 : array_like
        Finite starting point in dom(phi). Rejected with ValueError otherwise,
        as is an f whose value at x0 is not a real scalar or whose gradient
        at x0 is not a real array of shape (dim,).

    Returns
    -------
    RunResult
        Final point, status, and one IterationRecord per outer iteration.
        Backtrack-cap and numerical failures are reported as statuses with
        the partial trace and the reason (`detail`) attached, not raised.
        A phi.prox or f.grad result that is not an array of shape (dim,)
        raises ValueError, since it means a malformed model.

    f.grad is called once at x0 and then once at each accepted point, in
    order, so a wrapped f.grad sees the iterates x^0, x^1, ... (plus the last
    trial point when the run fails because the gradient there is non-finite).
    """
    t_start = time.perf_counter()
    x0 = as_vector(np.array(x0, dtype=np.float64))
    check_dim(x0, problem.dim, "x0")
    bad = np.flatnonzero(~np.isfinite(x0))
    if bad.size:
        raise ValueError(
            f"x0 has non-finite entries at indices {bad[:10].tolist()}"
            + (f" and {bad.size - 10} more" if bad.size > 10 else "")
        )

    phi0 = float(problem.phi.eval(x0))
    if not math.isfinite(phi0):
        raise ValueError("x0 lies outside dom(phi)")

    trace: list[IterationRecord] = []
    append = trace.append

    def result(status: RunStatus, x_final: Vector, detail: str = "") -> RunResult:
        return RunResult(
            status=status,
            x_final=x_final,
            trace=trace,
            wall_time=time.perf_counter() - t_start,
            detail=detail,
        )

    # the loop trusts what f returns; check its value and gradient once, at x0
    f0 = problem.f.eval(x0)
    if not isinstance(f0, numbers.Real) and not (
        isinstance(f0, np.ndarray) and f0.shape == () and f0.dtype.kind in "iuf"
    ):
        raise ValueError(f"f.eval(x0) returned {_described(f0)}, expected a real scalar")
    # an overflowing sum would leave an infinite reference that accepts anything
    psi0 = float(f0) + phi0
    if not math.isfinite(psi0):
        return result(
            RunStatus.NUMERICAL_FAILURE,
            x0,
            f"the start objective f(x0) + phi(x0) is non-finite ({psi0!r})",
        )
    grad0 = problem.f.grad(x0)
    if not (
        isinstance(grad0, np.ndarray)
        and grad0.shape == x0.shape
        and grad0.dtype.kind in "iuf"
    ):
        raise ValueError(
            f"f.grad(x0) returned {_described(grad0)}, "
            f"expected a real array of shape {x0.shape}"
        )
    if not np.all(np.isfinite(grad0)):
        return result(
            RunStatus.NUMERICAL_FAILURE, x0, "the gradient at x0 has non-finite entries"
        )

    f_eval, f_grad = problem.f.eval, problem.f.grad
    phi_eval, prox = problem.phi.eval, problem.phi.prox
    gamma_min, gamma_max = params.gamma_min, params.gamma_max
    beta, max_backtracks = params.beta, params.max_backtracks
    one_minus_alpha, epsilon, p_min = 1.0 - params.alpha, params.epsilon, params.p_min
    policy = params.gamma_init_policy
    previous = isinstance(policy, PreviousAccepted)
    spectral = isinstance(policy, BarzilaiBorweinSafeguarded)
    # the trial stepsize before clipping into [gamma_min, gamma_max]
    trial = policy.value if isinstance(policy, ConstantGamma) else gamma_max
    max_rule = isinstance(params.reference_policy, MaxReference)
    window = deque([psi0], maxlen=params.reference_policy.window) if max_rule else None
    x, psi_x, grad_x, reference = x0, psi0, grad0, psi0

    for k in range(params.max_outer_iters):
        gamma = min(max(trial, gamma_min), gamma_max)
        backtracks = 0
        while True:
            x_next = prox(gamma, x - gamma * grad_x)
            # numpy would broadcast a wrong length into a plausible answer
            if not isinstance(x_next, np.ndarray) or x_next.shape != x.shape:
                raise ValueError(
                    f"phi.prox returned {_described(x_next)} at iteration {k}, "
                    f"expected an array of shape {x.shape}"
                )
            dx = x_next - x
            step_norm_sq = float(dx.dot(dx))
            # x is finite, so a non-finite entry of x_next makes this sum
            # non-finite; finite entries can overflow it too, which only makes
            # the acceptance test fail, so scan the entries only then
            if not math.isfinite(step_norm_sq) and not np.all(np.isfinite(x_next)):
                return result(
                    RunStatus.NUMERICAL_FAILURE,
                    x,
                    "prox step produced non-finite entries",
                )
            f_next = float(f_eval(x_next))
            if not math.isfinite(f_next):
                return result(
                    RunStatus.NUMERICAL_FAILURE,
                    x,
                    "smooth term overflowed at a trial point",
                )
            phi_next = float(phi_eval(x_next))
            if not math.isfinite(phi_next):
                return result(
                    RunStatus.NUMERICAL_FAILURE,
                    x,
                    "phi is non-finite at a trial point (overflow or outside dom(phi))",
                )
            psi_next = f_next + phi_next
            # nonmonotone sufficient-decrease test against the reference
            if psi_next <= reference - (one_minus_alpha / (2.0 * gamma)) * step_norm_sq:
                break
            # enough shrinking underflows the stepsize to 0 (1075 halvings from 1)
            if backtracks >= max_backtracks or gamma * beta == 0.0:
                reason = (
                    f"no acceptable stepsize after {backtracks} backtracks "
                    f"(gamma reached {gamma:.3e})"
                )
                # typical of the monotone rule next to a stationary point: psi
                # no longer moves, and the required decrease is below rounding
                if abs(psi_next - reference) <= 4.0 * math.ulp(reference):
                    reason += (
                        "; acceptance failed within rounding of the reference "
                        "(the last trial's psi is within 4 ulps of it)"
                    )
                return result(RunStatus.BACKTRACK_CAP_EXCEEDED, x, reason)
            gamma *= beta
            backtracks += 1

        grad_next = f_grad(x_next)
        if not isinstance(grad_next, np.ndarray) or grad_next.shape != x.shape:
            raise ValueError(
                f"f.grad returned {_described(grad_next)} at iteration {k}, "
                f"expected an array of shape {x.shape}"
            )
        # ||dx/gamma - grad_next + grad_x|| bounds the distance from 0 to the limiting
        # subdifferential at x_next: below epsilon, x_next is nearly M-stationary
        r = dx / gamma - grad_next + grad_x
        res = math.sqrt(float(r.dot(r)))
        # r holds -grad_next, so a non-finite entry of it makes res
        # non-finite; as for the step, scan only then
        if not math.isfinite(res) and not np.all(np.isfinite(grad_next)):
            return result(
                RunStatus.NUMERICAL_FAILURE,
                x,
                "gradient overflowed at the accepted point",
            )

        append(
            IterationRecord(
                k, psi_x, reference, gamma, backtracks, math.sqrt(step_norm_sq), res
            )
        )

        # res == 0 is an exact fixed point: stop there even when epsilon = 0
        if (epsilon > 0.0 and res <= epsilon) or res == 0.0:
            return result(RunStatus.CONVERGED_RESIDUAL, x_next)

        if previous:
            trial = gamma
        elif spectral:
            # <dx, dg>/<dg, dg>; degenerate or nonpositive curvature falls
            # back to the largest step, and backtracking repairs overestimates
            dg = grad_next - grad_x
            num, den = float(dx.dot(dg)), float(dg.dot(dg))
            trial = num / den if den > 0.0 and 0.0 < num < math.inf else gamma_max

        if max_rule:
            window.append(psi_next)
            reference_next = float(max(window))
        else:
            reference_next = (1.0 - p_min) * reference + p_min * psi_next
        x, psi_x, grad_x, reference = x_next, psi_next, grad_next, reference_next

    return result(RunStatus.MAX_ITERS, x)
