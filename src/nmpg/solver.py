"""Nonmonotone proximal gradient iteration with stepsize backtracking.

The outer loop alternates a prox step on a quadratic model of the smooth
part with a nonmonotone acceptance test against a reference value. The
reference is either a running convex combination of past objective values
(mean rule, the default) or the max over a sliding window (max rule, kept
as a comparison policy).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BarzilaiBorweinSafeguarded,
    CompositeProblem,
    ConstantGamma,
    MaxReference,
    PreviousAccepted,
    RunResult,
    RunStatus,
    SolverParams,
    Trace,
    Vector,
    as_vector,
    check_dim,
)


class NumericalFailure(RuntimeError):
    """A non-finite value appeared during a solve."""


class BacktrackLimitExceeded(RuntimeError):
    """The stepsize loop hit its cap without finding an acceptable step.

    The loop is finite in exact arithmetic, so reaching the cap signals a
    modeling or numerics problem rather than a normal outcome.
    """


@dataclass
class SolverState:
    """Mutable per-run state; confined to a single solve call."""

    x: Vector
    psi_x: float
    reference: float
    grad_x: Vector
    gamma_prev: float | None = None
    # spectral data from the previous accepted step: <dx, dg> and <dg, dg>
    bb_num: float = math.nan
    bb_den: float = math.nan


@dataclass(slots=True, eq=False)
class StepOutcome:
    """An accepted trial step together with its bookkeeping."""

    x_next: Vector
    gamma_used: float
    backtracks: int
    psi_next: float
    residual: float
    step_norm: float
    # gradient at x_next, cached so the outer loop evaluates it only once
    grad_next: Vector = field(repr=False)


def subproblem_step(
    problem: CompositeProblem, x: Vector, grad_x: Vector, gamma: float
) -> Vector:
    """One prox-gradient trial: a selected minimizer of the local model
    phi(z) + ||z - (x - gamma*grad_x)||^2 / (2 gamma).

    The output is not checked for non-finite entries; `backtrack` does that.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return problem.phi.prox(gamma, x - gamma * grad_x)


def accept_step(
    psi_next: float,
    reference: float,
    alpha_k: float,
    gamma_k: float,
    step_norm_sq: float,
) -> bool:
    """Nonmonotone sufficient-decrease test against the reference value."""
    return psi_next <= reference - ((1.0 - alpha_k) / (2.0 * gamma_k)) * step_norm_sq


def residual(
    x_next: Vector, x: Vector, gamma: float, grad_next: Vector, grad_x: Vector
) -> float:
    """Stationarity measure ||(x_next - x)/gamma - grad_next + grad_x||.

    This quantity upper-bounds the distance from 0 to the objective's limiting
    subdifferential at x_next, so driving it below the tolerance certifies
    approximate M-stationarity.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    r = (x_next - x) / gamma - grad_next + grad_x
    # np.linalg.norm's own formula for a 1-D vector, without its overhead
    return math.sqrt(float(r.dot(r)))


def update_reference(reference: float, p_next: float, psi_next: float) -> float:
    """Mean-rule update: convex combination of reference and new objective."""
    return (1.0 - p_next) * reference + p_next * psi_next


def max_rule_reference(window) -> float:
    """Max-rule reference: largest objective value in the sliding window."""
    if len(window) == 0:
        raise ValueError("max-rule window is empty")
    return float(max(window))


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


def _initial_gamma(state: SolverState, params: SolverParams) -> float:
    pol = params.gamma_init_policy
    if isinstance(pol, ConstantGamma):
        raw = pol.value
    elif isinstance(pol, PreviousAccepted):
        raw = state.gamma_prev if state.gamma_prev is not None else params.gamma_max
    elif isinstance(pol, BarzilaiBorweinSafeguarded):
        # Degenerate or nonpositive curvature falls back to the largest step;
        # the acceptance loop repairs overestimates.
        if state.bb_den > 0.0 and math.isfinite(state.bb_num) and state.bb_num > 0.0:
            raw = state.bb_num / state.bb_den
        else:
            raw = params.gamma_max
    else:  # pragma: no cover - rejected by SolverParams validation
        raise ValueError("unknown gamma_init_policy")
    return min(max(raw, params.gamma_min), params.gamma_max)


def backtrack(
    problem: CompositeProblem, state: SolverState, params: SolverParams
) -> StepOutcome:
    """Shrink the trial stepsize geometrically until the acceptance test holds.

    Raises BacktrackLimitExceeded after `max_backtracks` rejections and
    NumericalFailure on any non-finite intermediate value.
    """
    gamma = _initial_gamma(state, params)
    x = state.x
    grad_x = state.grad_x
    reference = state.reference
    f_eval = problem.f.eval
    phi_eval = problem.phi.eval
    backtracks = 0
    while True:
        x_next = subproblem_step(problem, x, grad_x, gamma)
        dx = x_next - x
        step_norm_sq = float(dx.dot(dx))
        # x is finite, so a non-finite entry of x_next makes this sum
        # non-finite; finite entries can overflow it too, which only makes
        # the acceptance test fail, so scan the entries only then
        if not math.isfinite(step_norm_sq) and not np.all(np.isfinite(x_next)):
            raise NumericalFailure("prox step produced non-finite entries")
        f_next = float(f_eval(x_next))
        if not math.isfinite(f_next):
            raise NumericalFailure("smooth term overflowed at a trial point")
        phi_next = float(phi_eval(x_next))
        if not math.isfinite(phi_next):
            raise NumericalFailure(
                "phi is non-finite at a trial point (overflow or outside dom(phi))"
            )
        psi_next = f_next + phi_next
        if accept_step(psi_next, reference, params.alpha, gamma, step_norm_sq):
            grad_next = problem.f.grad(x_next)
            res = residual(x_next, x, gamma, grad_next, grad_x)
            # the residual vector holds -grad_next, so a non-finite entry of
            # it makes res non-finite; as for the step, scan only then
            if not math.isfinite(res) and not np.all(np.isfinite(grad_next)):
                raise NumericalFailure("gradient overflowed at the accepted point")
            return StepOutcome(
                x_next,
                gamma,
                backtracks,
                psi_next,
                res,
                math.sqrt(step_norm_sq),
                grad_next,
            )
        # enough shrinking underflows the stepsize to 0 (1075 halvings from 1)
        if backtracks >= params.max_backtracks or gamma * params.beta == 0.0:
            reason = (
                f"no acceptable stepsize after {backtracks} backtracks "
                f"(gamma reached {gamma:.3e})"
            )
            # typical of the monotone rule next to a stationary point: psi no
            # longer moves, and the required decrease is below its rounding
            if abs(psi_next - reference) <= 4.0 * math.ulp(reference):
                reason += (
                    "; acceptance failed within rounding of the reference "
                    "(the last trial's psi is within 4 ulps of it)"
                )
            raise BacktrackLimitExceeded(reason)
        gamma *= params.beta
        backtracks += 1


def solve(
    problem: CompositeProblem,
    params: SolverParams,
    x0,
    record_iterates: bool = False,
) -> RunResult:
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
        Finite starting point in dom(phi). Rejected with ValueError otherwise.
    record_iterates : bool
        When True the result carries the full iterate sequence x^0..x^final
        (one entry more than the trace length).

    Returns
    -------
    RunResult
        Final point, status, and one IterationRecord per outer iteration.
        Backtrack-cap and numerical failures are reported as statuses with
        the partial trace and the reason (`detail`) attached, not raised.
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

    trace = Trace()
    append_row = trace.rows.append
    iterates: list[Vector] | None = [x0.copy()] if record_iterates else None

    def result(status: RunStatus, x_final: Vector, detail: str = "") -> RunResult:
        return RunResult(
            status=status,
            x_final=x_final,
            trace=trace,
            wall_time=time.perf_counter() - t_start,
            iterates=iterates,
            detail=detail,
        )

    # an overflowing sum would leave an infinite reference that accepts anything
    psi0 = float(problem.f.eval(x0)) + phi0
    if not math.isfinite(psi0):
        return result(
            RunStatus.NUMERICAL_FAILURE,
            x0,
            f"the start objective f(x0) + phi(x0) is non-finite ({psi0!r})",
        )
    grad0 = problem.f.grad(x0)
    if not np.all(np.isfinite(grad0)):
        return result(
            RunStatus.NUMERICAL_FAILURE, x0, "the gradient at x0 has non-finite entries"
        )

    ref_policy = params.reference_policy
    is_max_rule = isinstance(ref_policy, MaxReference)
    window = deque([psi0], maxlen=ref_policy.window) if is_max_rule else None
    state = SolverState(x=x0, psi_x=psi0, reference=psi0, grad_x=grad0)
    reference_prev = psi0  # xi at k = 0 is defined as 0 below

    for k in range(params.max_outer_iters):
        try:
            out = backtrack(problem, state, params)
        except BacktrackLimitExceeded as exc:
            return result(RunStatus.BACKTRACK_CAP_EXCEEDED, state.x, str(exc))
        except NumericalFailure as exc:
            return result(RunStatus.NUMERICAL_FAILURE, state.x, str(exc))

        xi = 0.0 if k == 0 else math.sqrt(max(reference_prev - state.reference, 0.0))
        # the fields of IterationRecord, in order
        append_row(
            (
                k,
                state.psi_x,
                state.reference,
                out.gamma_used,
                out.backtracks,
                out.step_norm,
                out.residual,
                xi,
            )
        )
        if iterates is not None:
            iterates.append(out.x_next.copy())

        # residual == 0 means an exact stationary fixed point; terminate even
        # when epsilon = 0 since further iterations would not move.
        if (params.epsilon > 0.0 and out.residual <= params.epsilon) or (
            out.residual == 0.0
        ):
            return result(RunStatus.CONVERGED_RESIDUAL, out.x_next)

        dx = out.x_next - state.x
        dg = out.grad_next - state.grad_x
        state.bb_num = float(dx.dot(dg))
        state.bb_den = float(dg.dot(dg))

        reference_prev = state.reference
        if is_max_rule:
            window.append(out.psi_next)
            state.reference = max_rule_reference(window)
        else:
            state.reference = update_reference(
                state.reference, params.p_min, out.psi_next
            )
        state.x = out.x_next
        state.psi_x = out.psi_next
        state.grad_x = out.grad_next
        state.gamma_prev = out.gamma_used

    return result(RunStatus.MAX_ITERS, state.x)
