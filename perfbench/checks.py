"""Output checks, computed apart from the program.

Every quantity here is recomputed from the benchmark's own copy of the inputs
and its own subdifferential formulas, or is a property the method must have.
Nothing is compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

# A converged run has residual <= epsilon, and the residual bounds the
# distance from 0 to the limiting subdifferential at x_final. The slack
# absorbs the rounding of the prox step and of the benchmark's own gradient.
STATIONARITY_FACTOR = 10.0

# relative slack of the reference checks on a trace, as in the repo's audits
REFERENCE_SLACK = 1e-12

QUARTIC_SLOPE = -2.0
QUARTIC_SLOPE_TOLERANCE = 0.15

TRACE_HEADER = "k,psi,reference,gamma,backtracks,step_norm,residual,xi"


class CheckFailed(AssertionError):
    """An operation returned an output that is wrong."""


class OpFailed(RuntimeError):
    """An operation did not complete: an error status or a nonzero exit."""


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def l1_violation(x: np.ndarray, g: np.ndarray, lam: float) -> float:
    """Distance from 0 to g + lam * d||.||_1(x), worst component."""
    on = np.abs(g + lam * np.sign(x))
    off = np.maximum(np.abs(g) - lam, 0.0)
    return float(np.max(np.where(x != 0.0, on, off)))


def support_violation(x: np.ndarray, g: np.ndarray) -> float:
    """Largest |g_i| on the support of x (l0 penalty, sparsity set)."""
    on = x != 0.0
    return float(np.max(np.abs(g[on]))) if on.any() else 0.0


def lhalf_violation(x: np.ndarray, g: np.ndarray, lam: float) -> float:
    """Largest |g_i + lam sign(x_i) / (2 sqrt|x_i|)| on the support of x."""
    on = x != 0.0
    if not on.any():
        return 0.0
    xs = x[on]
    term = lam * np.sign(xs) / (2.0 * np.sqrt(np.abs(xs)))
    return float(np.max(np.abs(g[on] + term)))


def require_stationary(violation: float, epsilon: float, what: str) -> None:
    if not violation <= STATIONARITY_FACTOR * epsilon:
        raise CheckFailed(
            f"{what}: stationarity violation {violation:.3e} exceeds "
            f"{STATIONARITY_FACTOR:g} * epsilon = {STATIONARITY_FACTOR * epsilon:.1e}"
        )


def require_descent(psi_final: float, psi_start: float, what: str) -> None:
    if not psi_final <= psi_start:
        raise CheckFailed(
            f"{what}: psi(x_final) = {psi_final!r} > psi(x0) = {psi_start!r}"
        )


def loglog_slope(values: np.ndarray) -> float:
    """Least-squares slope of log(values[k-1]) against log(k) on the tail half."""
    values = np.asarray(values, dtype=np.float64)
    k = np.arange(1, values.shape[0] + 1, dtype=np.float64)
    half = values.shape[0] // 2
    return float(np.polyfit(np.log(k[half:]), np.log(values[half:]), 1)[0])


def require_quartic_slope(references: np.ndarray, what: str) -> None:
    slope = loglog_slope(references)
    if not abs(slope - QUARTIC_SLOPE) <= QUARTIC_SLOPE_TOLERANCE:
        raise CheckFailed(
            f"{what}: log-log slope {slope:.4f} is not "
            f"{QUARTIC_SLOPE:g} +- {QUARTIC_SLOPE_TOLERANCE:g}"
        )


def parse_trace_csv(text: str) -> np.ndarray:
    """Rows of a trace CSV as an array with the columns of TRACE_HEADER."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise CheckFailed("trace file lacks the trace header")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return rows.reshape(len(lines) - 1, 8)
    except ValueError as exc:
        raise CheckFailed(f"malformed trace row: {exc}") from exc


def require_reference_properties(rows: np.ndarray, what: str) -> None:
    """psi <= reference on every row, and the reference never increases."""
    psi, ref = rows[:, 1], rows[:, 2]
    over = psi - ref - REFERENCE_SLACK * (1.0 + np.abs(psi))
    if np.any(over > 0.0):
        k = int(np.argmax(over > 0.0))
        raise CheckFailed(f"{what}: psi exceeds the reference at k={k}")
    rise = ref[1:] - ref[:-1] - REFERENCE_SLACK * (1.0 + np.abs(ref[:-1]))
    if np.any(rise > 0.0):
        k = int(np.argmax(rise > 0.0)) + 1
        raise CheckFailed(f"{what}: the reference increases at k={k}")
