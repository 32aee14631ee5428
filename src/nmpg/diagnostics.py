"""Post-hoc trace analysis: invariant audits and rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    IterationRecord,
    MaxReference,
    MeanReference,
    SolverParams,
    trace_columns,
)

EPS = float(np.finfo(np.float64).eps)


class NonpositiveTail(ValueError):
    """The objective-gap series is nonpositive inside the fit window.

    Signals a mis-specified optimal value; trailing float-exact convergence
    is truncated away before this is raised.
    """


# -- invariant audits ----------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    worst_violation: float
    slack: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "slack": self.slack,
            "note": self.note,
        }


@dataclass(frozen=True)
class AuditReport:
    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"pass": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _vacuous(name: str, note: str) -> AuditCheck:
    return AuditCheck(name, True, 0.0, 0.0, note)


def audit_trace(trace: list[IterationRecord], params: SolverParams) -> AuditReport:
    """Check the per-iteration descent invariants over a whole trace.

    The per-step reference-drop inequality only follows from the mean-rule
    update, so it passes vacuously for max-rule traces; the dominance and
    monotonicity checks apply to every policy. The step-norm decay heuristic
    (mean tail step no larger than mean head step) only runs on max-rule
    traces, where no per-step bound applies.
    """
    if not trace:
        raise ValueError("trace is empty")
    cols = trace_columns(trace)
    psi, ref, step = cols["psi"], cols["reference"], cols["step_norm"]
    n = len(trace)
    checks: list[AuditCheck] = []

    viol_a = float(np.max((psi - ref) / (1.0 + np.abs(psi))))
    checks.append(AuditCheck("reference_dominates_psi", viol_a <= 1e-12, viol_a, 1e-12))

    if n >= 2:
        viol_b = float(np.max((ref[1:] - ref[:-1]) / (1.0 + np.abs(ref[:-1]))))
        checks.append(
            AuditCheck("reference_nonincreasing", viol_b <= 1e-12, viol_b, 1e-12)
        )
    else:
        checks.append(_vacuous("reference_nonincreasing", "single-record trace"))

    mean_rule = isinstance(params.reference_policy, MeanReference)
    a_const = (1.0 - params.alpha) / (2.0 * params.gamma_max)
    if mean_rule and n >= 2:
        # R_{k+1} <= R_k - p_min (1 - alpha) / (2 gamma_k) ||x^{k+1} - x^k||^2,
        # weakened by gamma_k <= gamma_max
        viol_drop = float(
            np.max(ref[1:] - ref[:-1] + params.p_min * a_const * step[:-1] ** 2)
        )
        checks.append(
            AuditCheck("reference_drop_per_step", viol_drop <= 1e-10, viol_drop, 1e-10)
        )
    elif mean_rule:
        checks.append(_vacuous("reference_drop_per_step", "single-record trace"))
    else:
        note = "mean-rule inequality; not applicable to the max rule"
        checks.append(_vacuous("reference_drop_per_step", note))

    if mean_rule:
        # a head/tail heuristic, and valid mean-rule runs can fail it; the
        # paper's square-summable-steps bound is reference_drop_per_step
        checks.append(
            _vacuous("step_norm_decay", "mean rule: covered by reference_drop_per_step")
        )
    elif n >= 20:
        m = max(1, math.ceil(0.1 * n))
        head = float(np.mean(step[:m]))
        tail = float(np.mean(step[-m:]))
        viol_d = (tail - head) / (1.0 + head)
        checks.append(AuditCheck("step_norm_decay", viol_d <= 1e-12, viol_d, 1e-12))
    else:
        checks.append(_vacuous("step_norm_decay", "trace shorter than 20 records"))

    monotone = (mean_rule and params.p_min == 1.0) or (
        isinstance(params.reference_policy, MaxReference)
        and params.reference_policy.window == 1
    )
    if monotone and n >= 2:
        viol_m = float(np.max((psi[1:] - psi[:-1]) / (1.0 + np.abs(psi[:-1]))))
        checks.append(AuditCheck("psi_nonincreasing", viol_m <= 1e-12, viol_m, 1e-12))
    elif monotone:
        checks.append(_vacuous("psi_nonincreasing", "single-record trace"))
    else:
        checks.append(_vacuous("psi_nonincreasing", "nonmonotone policy"))

    return AuditReport(checks)


# -- rate estimation -----------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """A fitted tail rate next to the KL-exponent prediction it is tested
    against (predicted is None when the hypothesis fixes no number)."""

    mode: str  # "q_linear" | "sublinear_power"
    fitted: float
    predicted: float | None
    tail_window: tuple[int, int]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "fitted": self.fitted,
            "predicted": self.predicted,
            "tail_window": list(self.tail_window),
            "pass": self.passed,
        }


def _tail_start(n: int, tail_fraction: float, min_points: int = 50) -> int:
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must lie in (0, 1)")
    w = min(n, max(math.ceil(tail_fraction * n), min_points))
    return n - w


def _windowed_gaps(values, psi_star: float, tail_fraction: float):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least two values to fit a rate")
    start = _tail_start(n, tail_fraction)
    s = values[start:] - psi_star
    # drop the converged tail before judging positivity: a gap below 1000 to
    # 2000 ulps of psi* is rounding, and a fit through it would move with the
    # last bits of psi*
    thresh = 1000.0 * EPS * abs(psi_star)
    positive = np.nonzero(s > thresh)[0]
    if positive.size == 0:
        raise NonpositiveTail(
            "objective gap is nonpositive over the whole tail window"
        )
    s = s[: positive[-1] + 1]
    if np.any(s <= 0.0):
        raise NonpositiveTail("objective gap is nonpositive inside the tail window")
    if s.shape[0] < 2:
        raise NonpositiveTail("tail window too short after truncation")
    return s, start


def estimate_q_factor(values, psi_star: float, tail_fraction: float = 0.5) -> RateReport:
    """Geometric-mean tail ratio of the objective gap; passes when it is
    bounded below one and no single ratio exceeds one beyond float slack."""
    s, start = _windowed_gaps(values, psi_star, tail_fraction)
    ratios = s[1:] / s[:-1]
    fitted = float(np.exp(np.mean(np.log(ratios))))
    passed = 0.0 < fitted <= 0.999 and bool(np.all(ratios <= 1.0 + 1e-10))
    return RateReport(
        mode="q_linear",
        fitted=fitted,
        predicted=None,
        tail_window=(start, start + s.shape[0]),
        passed=passed,
    )


def fit_loglog_slope(
    values,
    psi_star: float,
    tail_fraction: float = 0.5,
    predicted: float | None = None,
    tolerance: float = 0.15,
) -> RateReport:
    """Least-squares slope of log(gap) against log(k) on the tail window.

    Positions are 1-based, so an exact power law c*k^q passed as
    values[k-1] recovers q. With a predicted slope the report passes iff
    |fitted - predicted| <= tolerance.
    """
    s, start = _windowed_gaps(values, psi_star, tail_fraction)
    k = np.arange(start + 1, start + 1 + s.shape[0], dtype=np.float64)
    slope = float(np.polyfit(np.log(k), np.log(s), 1)[0])
    passed = True if predicted is None else abs(slope - predicted) <= tolerance
    return RateReport(
        mode="sublinear_power",
        fitted=slope,
        predicted=predicted,
        tail_window=(start, start + s.shape[0]),
        passed=passed,
    )
